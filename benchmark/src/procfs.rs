//! What can be seen of the server from outside its threads: `/proc`.
//!
//! The live server runs in-process (`senseaid_serve::serve`) on threads
//! named `senseaid-serve` (the engine) and `senseaid-serve-worker-N` (the
//! socket workers). The kernel truncates a thread's `comm` to 15 bytes, so
//! the workers all read `senseaid-serve-`; they are told apart by tid.

use std::fs;

/// `VmRSS` of this process in MiB; `None` when `/proc` is unreadable.
pub fn rss_mb() -> Option<f64> {
    status_kb("VmRSS:").map(|kb| kb / 1024.0)
}

fn status_kb(field: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Which server role a thread plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The single engine thread that owns the coordinator.
    Engine,
    /// One socket event-loop worker.
    Worker,
}

/// One observation of a server thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadSample {
    /// Kernel thread id.
    pub tid: u64,
    /// Engine or worker.
    pub role: Role,
    /// Time on a CPU so far, nanoseconds.
    pub cpu_ns: u64,
    /// Voluntary context switches so far (each one is a sleep or a block).
    pub voluntary_switches: u64,
}

/// Samples every live server thread of this process, ordered by tid.
pub fn server_threads() -> Vec<ThreadSample> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in entries.flatten() {
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        let dir = entry.path();
        let Ok(comm) = fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        let role = match comm.trim_end() {
            "senseaid-serve" => Role::Engine,
            c if c.starts_with("senseaid-serve-") => Role::Worker,
            _ => continue,
        };
        let Some(cpu_ns) = thread_cpu_ns(&dir) else {
            continue;
        };
        let voluntary_switches = fs::read_to_string(dir.join("status"))
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("voluntary_ctxt_switches:"))
                    .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
            })
            .unwrap_or(0);
        out.push(ThreadSample {
            tid,
            role,
            cpu_ns,
            voluntary_switches,
        });
    }
    out.sort_by_key(|t| t.tid);
    out
}

/// On-CPU time of one thread: `schedstat` (nanoseconds) where the kernel
/// keeps it, else `utime + stime` from `stat` at clock-tick resolution.
fn thread_cpu_ns(dir: &std::path::Path) -> Option<u64> {
    if let Ok(s) = fs::read_to_string(dir.join("schedstat")) {
        if let Some(ns) = s.split_whitespace().next().and_then(|v| v.parse().ok()) {
            return Some(ns);
        }
    }
    let stat = fs::read_to_string(dir.join("stat")).ok()?;
    // Fields after the parenthesised comm; utime and stime are the 12th
    // and 13th of those. Linux reports them in 100 Hz ticks.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 10_000_000)
}

/// CPU and sleep behaviour of the server threads between two samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ThreadDelta {
    /// Engine thread CPU, nanoseconds.
    pub engine_cpu_ns: u64,
    /// Busiest worker's CPU, nanoseconds.
    pub worker_cpu_ns: u64,
    /// All server threads' CPU, nanoseconds.
    pub total_cpu_ns: u64,
    /// Voluntary context switches over all server threads.
    pub voluntary_switches: u64,
}

/// Differences `after - before`, matched by tid (threads that appeared or
/// vanished in between are ignored).
pub fn delta(before: &[ThreadSample], after: &[ThreadSample]) -> ThreadDelta {
    let mut d = ThreadDelta::default();
    for a in after {
        let Some(b) = before.iter().find(|b| b.tid == a.tid) else {
            continue;
        };
        let cpu = a.cpu_ns.saturating_sub(b.cpu_ns);
        d.total_cpu_ns += cpu;
        d.voluntary_switches += a.voluntary_switches.saturating_sub(b.voluntary_switches);
        match a.role {
            Role::Engine => d.engine_cpu_ns += cpu,
            Role::Worker => d.worker_cpu_ns = d.worker_cpu_ns.max(cpu),
        }
    }
    d
}

/// Host facts for the report header.
pub fn kernel_release() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".to_owned())
}

/// The filesystem type holding `path`, from `/proc/self/mounts` (longest
/// mount-point prefix wins).
pub fn filesystem_of(path: &std::path::Path) -> String {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let Ok(mounts) = fs::read_to_string("/proc/self/mounts") else {
        return "unknown".to_owned();
    };
    let mut best: (usize, &str) = (0, "unknown");
    for line in mounts.lines() {
        let mut f = line.split_whitespace();
        let (Some(_dev), Some(mount), Some(fstype)) = (f.next(), f.next(), f.next()) else {
            continue;
        };
        if path.starts_with(mount) && mount.len() >= best.0 {
            best = (mount.len(), fstype);
        }
    }
    best.1.to_owned()
}

/// Where each of the benchmark's and the server's threads runs.
///
/// On a two-vCPU guest the kernel keeps threads that wake one another
/// (sender → worker → engine → worker → receiver) on the waker's CPU, and
/// for minutes at a time that leaves the whole process on one core with
/// the other idle; then it spreads them again. The two placements differ
/// by a third in saturation throughput and a sixth in median latency —
/// more than any bound here — so the live workloads fix the placement by
/// role instead of measuring the scheduler's mood: the engine on the
/// first allowed CPU, socket workers spread over the others, the
/// generator's sender on the last and its receiver on the one before.
/// Pinning goes through `taskset` (util-linux): the build has no libc
/// binding to call `sched_setaffinity` with. Where `taskset` is missing
/// the run proceeds unpinned and says so.
#[derive(Debug, Clone)]
pub struct CpuPlan {
    cpus: Vec<usize>,
    usable: std::cell::Cell<bool>,
}

impl CpuPlan {
    /// The CPUs this process may use, from `Cpus_allowed_list` as it stood
    /// the first time anyone asked: `/proc/self/status` is the main
    /// thread's, and a pass that pinned it must not narrow the next pass's
    /// plan.
    pub fn detect() -> Self {
        static ALLOWED: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
        let cpus = ALLOWED.get_or_init(|| {
            fs::read_to_string("/proc/self/status")
                .ok()
                .and_then(|s| {
                    s.lines()
                        .find(|l| l.starts_with("Cpus_allowed_list:"))
                        .map(|l| parse_cpu_list(l.split_once(':').map_or("", |(_, v)| v)))
                })
                .filter(|c| !c.is_empty())
                .unwrap_or_else(|| vec![0])
        });
        CpuPlan {
            cpus: cpus.clone(),
            usable: std::cell::Cell::new(true),
        }
    }

    /// Whether pinning has worked so far.
    pub fn pinned(&self) -> bool {
        self.usable.get()
    }

    /// The engine thread's CPU: the first, to itself as far as possible.
    pub fn engine(&self) -> usize {
        self.cpus[0]
    }

    /// Socket worker `i`'s CPU: spread over every CPU but the engine's.
    /// (Which worker serves a connection is the server's business, so no
    /// worker may share the engine's CPU when there is another to have.)
    pub fn worker(&self, i: usize) -> usize {
        match self.cpus.len() {
            1 => self.cpus[0],
            n => self.cpus[1 + i % (n - 1)],
        }
    }

    /// The generator's sender (the main thread): the last CPU, away from
    /// the engine, because a sender that has to wait for the busiest
    /// server thread to yield cannot keep an open-loop schedule.
    pub fn sender(&self) -> usize {
        self.cpus[self.cpus.len() - 1]
    }

    /// The generator's receiver: the CPU before the sender's — with two
    /// CPUs, the engine's.
    pub fn receiver(&self) -> usize {
        self.cpus[self.cpus.len().saturating_sub(2)]
    }

    /// Pins thread `tid` to `cpu`. After the first failure nothing more
    /// is attempted: a half-pinned process is worse than an unpinned one.
    pub fn pin(&self, tid: u64, cpu: usize) -> bool {
        self.taskset(&cpu.to_string(), tid)
    }

    fn taskset(&self, cpu_list: &str, tid: u64) -> bool {
        if !self.usable.get() {
            return false;
        }
        let ok = std::process::Command::new("taskset")
            .args(["-cp", cpu_list, &tid.to_string()])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .is_ok_and(|s| s.success());
        if !ok {
            self.usable.set(false);
        }
        ok
    }

    /// Pins the calling thread.
    pub fn pin_self(&self, cpu: usize) -> bool {
        current_tid().is_some_and(|tid| self.pin(tid, cpu))
    }

    /// Every CPU this process may use, ascending.
    pub fn cpus(&self) -> &[usize] {
        &self.cpus
    }

    /// Gives the calling thread all its CPUs back.
    pub fn release_self(&self) -> bool {
        let list: Vec<String> = self.cpus.iter().map(usize::to_string).collect();
        current_tid().is_some_and(|tid| self.taskset(&list.join(","), tid))
    }

    /// Pins the server threads of a just-started `serve()` by role. The
    /// engine thread spawns its workers after `serve` returns, so this
    /// waits (briefly) until `workers` of them are visible.
    pub fn pin_server(&self, workers: usize) -> bool {
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(200);
        let threads = loop {
            let threads = server_threads();
            let seen = threads.iter().filter(|t| t.role == Role::Worker).count();
            if seen >= workers || std::time::Instant::now() >= deadline {
                break threads;
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
        };
        let mut worker = 0;
        let mut all = !threads.is_empty();
        for t in threads {
            let cpu = match t.role {
                Role::Engine => self.engine(),
                Role::Worker => {
                    worker += 1;
                    self.worker(worker - 1)
                }
            };
            all &= self.pin(t.tid, cpu);
        }
        all
    }
}

/// The calling thread's kernel tid, from the `/proc/thread-self` link.
pub fn current_tid() -> Option<u64> {
    let link = fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// Parses a kernel CPU list such as `0-3,8,10-11`.
fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut out = Vec::new();
    for part in list.trim().split(',') {
        let part = part.trim();
        match part.split_once('-') {
            Some((a, b)) => {
                if let (Ok(a), Ok(b)) = (a.parse::<usize>(), b.parse::<usize>()) {
                    out.extend(a..=b);
                }
            }
            None => {
                if let Ok(c) = part.parse() {
                    out.push(c);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_matches_threads_by_tid_and_names_the_busiest_worker() {
        let t = |tid, role, cpu_ns, voluntary_switches| ThreadSample {
            tid,
            role,
            cpu_ns,
            voluntary_switches,
        };
        let before = [
            t(10, Role::Engine, 1_000, 5),
            t(11, Role::Worker, 2_000, 7),
            t(12, Role::Worker, 3_000, 9),
        ];
        let after = [
            t(10, Role::Engine, 1_600, 6),
            t(11, Role::Worker, 2_100, 17),
            t(12, Role::Worker, 3_900, 10),
            t(13, Role::Worker, 50_000, 1), // appeared in between: ignored
        ];
        let d = delta(&before, &after);
        assert_eq!(d.engine_cpu_ns, 600);
        assert_eq!(d.worker_cpu_ns, 900);
        assert_eq!(d.total_cpu_ns, 600 + 100 + 900);
        assert_eq!(d.voluntary_switches, 1 + 10 + 1);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn rss_is_readable() {
        assert!(rss_mb().expect("/proc/self/status") > 0.5);
    }

    #[test]
    fn cpu_lists_parse_and_roles_spread_over_them() {
        assert_eq!(parse_cpu_list(" 0-1\n"), vec![0, 1]);
        assert_eq!(parse_cpu_list("0-2,8,10-11"), vec![0, 1, 2, 8, 10, 11]);
        let plan = |cpus: Vec<usize>| CpuPlan {
            cpus,
            usable: std::cell::Cell::new(true),
        };
        // Two CPUs: engine and receiver share one, both workers and the
        // sender the other.
        let two = plan(vec![0, 1]);
        assert_eq!((two.engine(), two.worker(0), two.worker(1)), (0, 1, 1));
        assert_eq!((two.sender(), two.receiver()), (1, 0));
        // One CPU: everything on it.
        let one = plan(vec![5]);
        assert_eq!(
            (one.engine(), one.worker(0), one.sender(), one.receiver()),
            (5, 5, 5, 5)
        );
        // Four: the engine has its own.
        let four = plan(vec![4, 5, 6, 7]);
        assert_eq!((four.engine(), four.worker(0), four.worker(1)), (4, 5, 6));
        assert_eq!((four.sender(), four.receiver()), (7, 6));
    }
}
