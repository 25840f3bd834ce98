//! The three live workloads: the unmodified `senseaid_serve::serve` on a
//! loopback port, driven over one TCP connection by [`crate::client`].
//!
//! One run starts several fresh server instances in turn and pools them:
//! the server's idle sleeps make request latency depend on how its
//! threads' wake-ups happen to line up, which is fixed per instance, so a
//! single instance measures one draw of that alignment rather than the
//! server. Each instance is enrolled (that is `setup_s`), measured at a
//! light and a mid open-loop rate, saturated in short closed-window bouts,
//! checked, shut down, and restarted (that is `restart_ms`).

use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use senseaid_serve::wire::{WireRequest, WireResponse};
use senseaid_serve::{serve, ServeOptions, ServeSummary};
use senseaid_sim::SimRng;

use crate::client::{
    run_stream, run_tasks, Conn, DeviceSessions, Pacing, StreamOutcome, TaskOutcome, UNANSWERED,
};
use crate::gen::{derive_seed, poisson_schedule, MixGen, Plan, Population, TaskGen};
use crate::procfs::{self, CpuPlan};
use crate::stats;

/// Which live workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiveKind {
    /// Device mix, no persistence.
    Mix,
    /// The same request stream with the WAL armed on a directory.
    MixWal,
    /// CAS-side one-shot tasks answered by assignment pushes.
    TaskPush,
}

impl LiveKind {
    /// Whether the server journals to a directory.
    pub fn persists(self) -> bool {
        self == LiveKind::MixWal
    }
}

/// The load shape of a live workload, fixed by the workload, the
/// `--seconds` budget and the scale (1.0, or 1/20 for `--smoke`).
#[derive(Debug, Clone, Copy)]
pub struct LiveShape {
    /// Devices enrolled per instance.
    pub devices: usize,
    /// Fresh server instances pooled per run.
    pub instances: usize,
    /// Open-loop rate of the light phase, ops (or tasks) per second.
    pub light_rate: f64,
    /// Length of the light phase per instance, seconds.
    pub light_s: f64,
    /// Open-loop rate of the mid phase.
    pub mid_rate: f64,
    /// Length of the mid phase per instance, seconds.
    pub mid_s: f64,
    /// Requests (or tasks) kept in flight while saturating.
    pub sat_window: usize,
    /// Saturation bouts per instance.
    pub sat_bouts: usize,
    /// Length of one bout, seconds.
    pub sat_bout_s: f64,
    /// Upper bound on ops one bout can consume, per second of bout.
    pub sat_plan_rate: f64,
    /// Restarts timed per instance.
    pub restarts: usize,
}

/// Requests kept in flight while enrolling.
const ENROL_WINDOW: usize = 1024;

impl LiveShape {
    /// The shape for `kind` measuring for about `seconds` in total at
    /// `scale`.
    pub fn new(kind: LiveKind, seconds: f64, scale: f64) -> Self {
        let instances = 3;
        let per_instance = seconds / instances as f64;
        // Tasks arrive a hundred times slower than device traffic, so the
        // light phase needs most of the budget to see a tail at all.
        let (light_share, mid_share) = match kind {
            LiveKind::TaskPush => (0.55, 0.20),
            _ => (0.45, 0.20),
        };
        let sat_s = per_instance * (1.0 - light_share - mid_share);
        let sat_bouts = ((sat_s / 0.35).floor() as usize).max(1);
        let (light_rate, mid_rate, sat_window, sat_plan_rate) = match kind {
            LiveKind::TaskPush => (200.0, 1_000.0, 256, 60_000.0),
            _ => (2_000.0, 20_000.0, 1_024, 700_000.0),
        };
        LiveShape {
            devices: ((10_000.0 * scale) as usize).max(200),
            instances,
            light_rate,
            light_s: per_instance * light_share,
            mid_rate,
            mid_s: per_instance * mid_share,
            sat_window,
            sat_bouts,
            sat_bout_s: sat_s / sat_bouts as f64,
            sat_plan_rate,
            restarts: if kind.persists() { 3 } else { 31 },
        }
    }
}

/// How well the generator kept to an open-loop schedule.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pacer {
    /// p99 of (actual − intended) send time, ms.
    pub late_p99_ms: f64,
    /// Share of the schedule written inside the phase window.
    pub achieved_frac: f64,
    /// Ops outstanding when the last one was due.
    pub backlog_end: usize,
}

impl Pacer {
    /// A phase the generator could not keep up with measures the
    /// generator, not the server, and is void.
    pub fn is_valid(&self) -> bool {
        self.late_p99_ms <= 0.5 && self.achieved_frac >= 0.99
    }

    fn of(due_ns: &[u64], sent_ns: &[u64], sent: usize, window_s: f64, backlog: usize) -> Pacer {
        let mut late: Vec<f64> = due_ns[..sent]
            .iter()
            .zip(&sent_ns[..sent])
            .map(|(due, at)| at.saturating_sub(*due) as f64 / 1e6)
            .collect();
        stats::sort(&mut late);
        // The last op may be due a hair before the window closes; allow the
        // generator its sleep overshoot there.
        let window_ns = (window_s * 1e9) as u64 + 1_000_000;
        let on_time = sent_ns[..sent].iter().filter(|t| **t <= window_ns).count();
        Pacer {
            late_p99_ms: stats::quantile_sorted(&late, 0.99),
            achieved_frac: on_time as f64 / due_ns.len().max(1) as f64,
            backlog_end: backlog,
        }
    }

    /// The worse of two phases on every count.
    pub fn worst(self, other: Pacer) -> Pacer {
        Pacer {
            late_p99_ms: self.late_p99_ms.max(other.late_p99_ms),
            achieved_frac: self.achieved_frac.min(other.achieved_frac),
            backlog_end: self.backlog_end.max(other.backlog_end),
        }
    }
}

/// Everything the instances of one run measured, pooled.
#[derive(Debug, Default)]
pub struct LiveRun {
    /// Per-instance set-up times, seconds.
    pub setup_s: Vec<f64>,
    /// Light-phase latencies, ms, one vector per instance.
    pub light_ms: Vec<Vec<f64>>,
    /// Mid-phase latencies, ms, one vector per instance.
    pub mid_ms: Vec<Vec<f64>>,
    /// Per-bout saturation throughput, per second.
    pub sat_per_s: Vec<f64>,
    /// Restart-to-ready times, ms.
    pub restart_ms: Vec<f64>,
    /// `VmRSS` after the first instance's enrolment, MiB.
    pub rss_mb: f64,
    /// Whether threads were pinned by role (`taskset` was usable).
    pub pinned: bool,
    /// Measured ops attempted (requests, or tasks).
    pub attempted: u64,
    /// Errors where success was due + unanswered + tasks short of pushes.
    pub failed: u64,
    /// Why the run is not correct, if it is not.
    pub problems: Vec<String>,
    /// Open-loop phases the generator could not keep up with.
    pub void_phases: Vec<String>,
    /// Generator pacing, worst over the open-loop phases.
    pub pacer: Option<Pacer>,
    /// Journal records in the crash images restarted from.
    pub image_records: Vec<u64>,
    /// Requests the servers reported handling.
    pub server_requests: u64,
    /// Pushes the servers reported delivering.
    pub server_pushes: u64,
}

/// What the traced TCP run sees of the server threads from `/proc`.
#[derive(Debug, Default, Clone, Copy)]
pub struct TcpObservation {
    /// Voluntary context switches per second over all server threads while
    /// no request is in flight: every one is a sleep or a timed wait.
    pub idle_wakeups_s: f64,
    /// Wall time of the saturation bouts, seconds.
    pub sat_wall_s: f64,
    /// Server-thread CPU over the saturation bouts.
    pub sat: procfs::ThreadDelta,
    /// Requests the server answered during them.
    pub sat_requests: u64,
}

/// How long the idle server is watched.
const IDLE_WINDOW: Duration = Duration::from_secs(1);

/// A per-process scratch directory under the results directory.
pub fn scratch_dir(out_dir: &Path, label: &str) -> PathBuf {
    out_dir.join(format!("tmp-{}-{label}", std::process::id()))
}

fn copy_dir(from: &Path, to: &Path) -> io::Result<u64> {
    std::fs::create_dir_all(to)?;
    let mut bytes = 0;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            bytes += std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(bytes)
}

fn options(persist_dir: Option<PathBuf>) -> ServeOptions {
    ServeOptions {
        persist_dir,
        ..ServeOptions::default()
    }
}

/// What `Stats` said: `(devices, tasks)`.
fn stats_of(conn: &mut Conn) -> io::Result<(u64, u64)> {
    match conn.call(&WireRequest::Stats)? {
        WireResponse::Stats { devices, tasks, .. } => Ok((devices, tasks)),
        other => Err(io::Error::other(format!("Stats answered {other:?}"))),
    }
}

/// Starts a server on `persist_dir` (or none), waits for its first
/// `Stats` answer, and shuts it down. Returns the start→answer time in
/// ms, what `Stats` said, and the shutdown summary.
fn timed_restart(
    persist_dir: Option<PathBuf>,
    phase_delay: Duration,
    cpus: &CpuPlan,
) -> io::Result<(f64, (u64, u64), ServeSummary)> {
    let recovering = persist_dir.is_some();
    let started = Instant::now();
    let handle = serve(options(persist_dir))?;
    let start_cost = started.elapsed();
    cpus.pin_server(ServeOptions::default().workers);
    // The server polls for connections and frames on fixed quanta; a client
    // that always dials the instant `serve` returns always meets the same
    // phase of them. Dial a volatile server at a seeded random phase
    // instead, and leave that wait (and the placement) out of the figure.
    // A recovering server replays its journal while `serve` has already
    // returned, so it is timed wall to wall, no wait added.
    if !recovering {
        std::thread::sleep(phase_delay);
    }
    let dialled = Instant::now();
    let mut conn = Conn::connect(handle.addr(), cpus.clone())?;
    let said = stats_of(&mut conn)?;
    let ready = if recovering {
        started.elapsed()
    } else {
        start_cost + dialled.elapsed()
    };
    drop(conn);
    Ok((ready.as_secs_f64() * 1e3, said, handle.shutdown()))
}

fn latencies_ms(due_ns: &[u64], recv_ns: &[u64], sent: usize) -> Vec<f64> {
    due_ns[..sent]
        .iter()
        .zip(&recv_ns[..sent])
        .filter(|(_, at)| **at != UNANSWERED)
        .map(|(due, at)| at.saturating_sub(*due) as f64 / 1e6)
        .collect()
}

/// The state one instance's phases share.
struct Instance<'a> {
    kind: LiveKind,
    shape: &'a LiveShape,
    seed: u64,
    index: usize,
    conn: Conn,
    run: &'a mut LiveRun,
    sessions: Option<DeviceSessions>,
    mix: MixGen,
    tasks: TaskGen,
    requests_sent: u64,
    observe: Option<&'a mut TcpObservation>,
}

impl Instance<'_> {
    fn label(&self, phase: &str) -> String {
        format!("instance {} {phase}", self.index)
    }

    fn tally_stream(&mut self, phase: &str, out: &StreamOutcome, measured: bool) {
        self.requests_sent += out.sent as u64;
        let failed = (out.wrong + out.unanswered()) as u64;
        if measured {
            self.run.attempted += out.sent as u64;
            self.run.failed += failed;
        }
        if failed > 0 {
            self.run.problems.push(format!(
                "{}: {} wrong, {} unanswered of {} ({})",
                self.label(phase),
                out.wrong,
                out.unanswered(),
                out.sent,
                out.wrong_detail.join("; ")
            ));
        }
        if out.pushes > 0 && self.kind != LiveKind::TaskPush {
            self.run.problems.push(format!(
                "{}: {} unexpected pushes",
                self.label(phase),
                out.pushes
            ));
        }
    }

    fn tally_tasks(&mut self, phase: &str, out: &TaskOutcome) {
        let l = &out.ledger;
        self.requests_sent += l.answered as u64 + l.outstanding() as u64;
        self.run.attempted += out.submitted as u64;
        let failed = (out.short() + l.wrong) as u64;
        self.run.failed += failed;
        let replies_due = out.submitted * crate::gen::TASK_DENSITY as usize;
        if failed > 0
            || l.seq_breaks > 0
            || l.orphan_pushes > 0
            || l.pushes != replies_due
            || l.replies_accepted != replies_due
            || l.outstanding() > 0
        {
            self.run.problems.push(format!(
                "{}: {} of {} tasks short, {} wrong, {} pushes (due {}), {} replies accepted, \
                 {} seq breaks, {} orphan pushes, {} unanswered ({})",
                self.label(phase),
                out.short(),
                out.submitted,
                l.wrong,
                l.pushes,
                replies_due,
                l.replies_accepted,
                l.seq_breaks,
                l.orphan_pushes,
                l.outstanding(),
                l.wrong_detail.join("; ")
            ));
        }
    }

    /// A bout that consumed its whole plan was throttled by the generator,
    /// not the server.
    fn note_plan_use(&mut self, phase: &str, used: usize, planned: usize) {
        if used == planned {
            self.run.problems.push(format!(
                "{}: the bout ran out of planned ops ({planned}); sat_per_s is capped by the plan",
                self.label(phase)
            ));
        }
    }

    fn note_pacer(&mut self, phase: &str, pacer: Pacer) {
        if !pacer.is_valid() {
            self.run.void_phases.push(format!(
                "{}: late_p99 {:.3} ms, achieved {:.4}",
                self.label(phase),
                pacer.late_p99_ms,
                pacer.achieved_frac
            ));
        }
        self.run.pacer = Some(match self.run.pacer {
            Some(p) => p.worst(pacer),
            None => pacer,
        });
    }

    /// One open-loop phase at `rate` for `seconds`; returns latencies, ms.
    fn open_phase(&mut self, phase: &str, rate: f64, seconds: f64) -> io::Result<Vec<f64>> {
        let mut rng = SimRng::from_seed_label(
            derive_seed(self.seed, phase, self.index as u64),
            "bench-schedule",
        );
        let due_ns = poisson_schedule(&mut rng, rate, seconds);
        let pacing = Pacing::Open { due_ns: &due_ns };
        match self.kind {
            LiveKind::TaskPush => {
                let plan = Plan::encode(&self.tasks.take(due_ns.len()));
                let sessions = self
                    .sessions
                    .as_mut()
                    .expect("task sessions bound at enrolment");
                let out = run_tasks(&mut self.conn, &plan, pacing, sessions)?;
                let lat = latencies_ms(&due_ns, &out.ledger.done_ns, out.submitted);
                let pacer = Pacer::of(
                    &due_ns,
                    &out.sent_ns,
                    out.submitted,
                    seconds,
                    out.backlog_at_stop,
                );
                self.tally_tasks(phase, &out);
                self.note_pacer(phase, pacer);
                Ok(lat)
            }
            _ => {
                let plan = Plan::encode(&self.mix.take(due_ns.len()));
                let out = run_stream(&mut self.conn, &plan, pacing)?;
                let lat = latencies_ms(&due_ns, &out.recv_ns, out.sent);
                let pacer = Pacer::of(
                    &due_ns,
                    &out.sent_ns,
                    out.sent,
                    seconds,
                    out.backlog_at_stop,
                );
                self.tally_stream(phase, &out, true);
                self.note_pacer(phase, pacer);
                Ok(lat)
            }
        }
    }

    /// One closed-window saturation bout; returns completions per second.
    fn sat_bout(&mut self, bout: usize) -> io::Result<f64> {
        let shape = self.shape;
        let window = Duration::from_secs_f64(shape.sat_bout_s);
        let window_ns = window.as_nanos() as u64;
        let plan_ops = (shape.sat_plan_rate * shape.sat_bout_s) as usize + shape.sat_window;
        let pacing = Pacing::Window {
            in_flight: shape.sat_window,
            stop_after: Some(window),
        };
        let phase = format!("sat{bout}");
        let watch = self
            .observe
            .is_some()
            .then(|| (Instant::now(), procfs::server_threads(), self.requests_sent));
        let done = match self.kind {
            LiveKind::TaskPush => {
                let plan = Plan::encode(&self.tasks.take(plan_ops));
                let sessions = self
                    .sessions
                    .as_mut()
                    .expect("task sessions bound at enrolment");
                let out = run_tasks(&mut self.conn, &plan, pacing, sessions)?;
                let done = out.completed_within(window_ns);
                self.note_plan_use(&phase, out.submitted, plan.len());
                self.tally_tasks(&phase, &out);
                done
            }
            _ => {
                let plan = Plan::encode(&self.mix.take(plan_ops));
                let out = run_stream(&mut self.conn, &plan, pacing)?;
                let done = out.answered_within(window_ns);
                self.note_plan_use(&phase, out.sent, plan.len());
                self.tally_stream(&phase, &out, true);
                done
            }
        };
        if let (Some((started, before, sent_before)), Some(seen)) =
            (watch, self.observe.as_deref_mut())
        {
            let d = procfs::delta(&before, &procfs::server_threads());
            seen.sat_wall_s += started.elapsed().as_secs_f64();
            seen.sat.engine_cpu_ns += d.engine_cpu_ns;
            seen.sat.worker_cpu_ns += d.worker_cpu_ns;
            seen.sat.total_cpu_ns += d.total_cpu_ns;
            seen.sat_requests += self.requests_sent - sent_before;
        }
        Ok(done as f64 / shape.sat_bout_s)
    }
}

/// Runs one live workload end to end and returns what it measured.
///
/// # Errors
///
/// I/O failures talking to the server (a failed *request* is counted, not
/// returned).
pub fn run(
    kind: LiveKind,
    seed: u64,
    shape: &LiveShape,
    out_dir: &Path,
    mut observe: Option<&mut TcpObservation>,
) -> io::Result<LiveRun> {
    let mut run = LiveRun::default();
    let scratch = scratch_dir(out_dir, "live");
    if kind.persists() {
        std::fs::create_dir_all(&scratch)?;
    }
    // Read the allowed CPUs before this thread narrows its own.
    let cpus = CpuPlan::detect();
    cpus.pin_self(cpus.sender());
    let setting = Setting {
        kind,
        seed,
        shape,
        scratch: &scratch,
        cpus: &cpus,
    };
    let result = (|| {
        for index in 0..shape.instances {
            run_instance(&setting, index, &mut run, observe.as_deref_mut())?;
        }
        Ok(())
    })();
    if kind.persists() {
        let _ = std::fs::remove_dir_all(&scratch);
    }
    cpus.release_self();
    result.map(|()| run)
}

/// What every instance of a run shares.
struct Setting<'a> {
    kind: LiveKind,
    seed: u64,
    shape: &'a LiveShape,
    scratch: &'a Path,
    cpus: &'a CpuPlan,
}

fn run_instance(
    setting: &Setting<'_>,
    index: usize,
    run: &mut LiveRun,
    mut observe: Option<&mut TcpObservation>,
) -> io::Result<()> {
    let Setting {
        kind,
        seed,
        shape,
        scratch,
        cpus,
    } = *setting;
    let inst_seed = derive_seed(seed, "bench-instance", index as u64);
    let population = Population::generate(inst_seed, shape.devices);
    let wal_dir = kind
        .persists()
        .then(|| scratch.join(format!("wal-{index}")));
    let enrol = Plan::encode(&population.enrolment(kind == LiveKind::TaskPush));

    // --- set-up: server start + enrolment, until the first measured op ---
    let started = Instant::now();
    let handle = serve(options(wal_dir.clone()))?;
    // Placing the threads is the benchmark's business, not set-up time.
    let placing = Instant::now();
    cpus.pin_server(ServeOptions::default().workers);
    let placing = placing.elapsed();
    let addr: SocketAddr = handle.addr();
    let mut conn = Conn::connect(addr, cpus.clone())?;
    let enrolled = run_stream(
        &mut conn,
        &enrol,
        Pacing::Window {
            in_flight: ENROL_WINDOW,
            stop_after: None,
        },
    )?;
    run.setup_s
        .push((started.elapsed() - placing).as_secs_f64());
    if index == 0 {
        run.rss_mb = procfs::rss_mb().unwrap_or(0.0);
        run.pinned = cpus.pinned();
    }

    if let Some(seen) = observe.as_deref_mut() {
        // Nothing in flight: what the server does now, it does to wait.
        let before = procfs::server_threads();
        std::thread::sleep(IDLE_WINDOW);
        let idle = procfs::delta(&before, &procfs::server_threads());
        seen.idle_wakeups_s = idle.voluntary_switches as f64 / IDLE_WINDOW.as_secs_f64();
    }

    let sessions = (kind == LiveKind::TaskPush).then(|| {
        DeviceSessions::new(
            &enrolled.tokens,
            population
                .positions
                .iter()
                .map(|p| (p.lat_deg(), p.lon_deg()))
                .collect(),
        )
    });
    let mut inst = Instance {
        kind,
        shape,
        seed: inst_seed,
        index,
        conn,
        run,
        sessions,
        mix: MixGen::new(inst_seed, shape.devices),
        tasks: TaskGen::new(inst_seed),
        requests_sent: 0,
        observe,
    };
    inst.tally_stream("enrol", &enrolled, false);
    if kind == LiveKind::TaskPush && enrolled.tokens.len() != shape.devices {
        inst.run.problems.push(format!(
            "{}: {} session tokens for {} devices",
            inst.label("enrol"),
            enrolled.tokens.len(),
            shape.devices
        ));
    }

    // --- light and mid: open loop ---
    let light = inst.open_phase("light", shape.light_rate, shape.light_s)?;
    inst.run.light_ms.push(light);
    let mid = inst.open_phase("mid", shape.mid_rate, shape.mid_s)?;
    inst.run.mid_ms.push(mid);

    // --- the crash image: the directory as a kill -9 would leave it now —
    //     a journal tail, no closing snapshot. Taken at a point the seed
    //     fixes (before the throughput-dependent bouts), so every run
    //     replays the same number of records. ---
    let mut image: Option<(PathBuf, (u64, u64))> = None;
    if let Some(dir) = &wal_dir {
        let said = stats_of(&mut inst.conn)?;
        inst.requests_sent += 1;
        let image_dir = scratch.join(format!("image-{index}"));
        copy_dir(dir, &image_dir)?;
        inst.run.image_records.push(journal_records_in(&image_dir));
        image = Some((image_dir, said));
    }

    // --- saturation: closed window, short bouts ---
    for bout in 0..shape.sat_bouts {
        let rate = inst.sat_bout(bout)?;
        inst.run.sat_per_s.push(rate);
    }

    // --- checks, then a graceful shutdown ---
    let (devices, _tasks) = stats_of(&mut inst.conn)?;
    inst.requests_sent += 1;
    if devices != shape.devices as u64 {
        inst.run.problems.push(format!(
            "{}: Stats reports {devices} devices, {} enrolled",
            inst.label("final"),
            shape.devices
        ));
    }
    let requests_sent = inst.requests_sent;
    let Instance { conn, run, .. } = inst;
    drop(conn);
    let summary = handle.shutdown();
    run.server_requests += summary.requests;
    run.server_pushes += summary.assignments_pushed;
    if summary.bad_frames != 0 {
        run.problems.push(format!(
            "instance {index}: server counted {} bad frames",
            summary.bad_frames
        ));
    }
    if summary.requests != requests_sent {
        run.problems.push(format!(
            "instance {index}: server handled {} requests, generator sent {requests_sent}",
            summary.requests
        ));
    }
    if kind.persists() && !(summary.flush.persistence_armed && summary.flush.journal_records > 0) {
        run.problems.push(format!(
            "instance {index}: shutdown flush was not clean: {}",
            summary.render()
        ));
    }

    // --- restart: serve() → first Stats answer ---
    let mut phase_rng = SimRng::from_seed_label(inst_seed, "bench-restart-phase");
    for restart in 0..shape.restarts {
        let dir = match &image {
            Some((image_dir, _)) => {
                // Recovery re-arms the journal in place, so each timed
                // restart gets its own copy of the image.
                let dir = scratch.join(format!("restart-{index}-{restart}"));
                copy_dir(image_dir, &dir)?;
                Some(dir)
            }
            None => None,
        };
        let phase_delay = Duration::from_micros(phase_rng.uniform_usize(0, 2_000) as u64);
        let (ready_ms, said, summary) = timed_restart(dir.clone(), phase_delay, cpus)?;
        run.restart_ms.push(ready_ms);
        match &image {
            Some((_, before)) => {
                if said != *before {
                    run.problems.push(format!(
                        "instance {index}: restarted server reports {said:?} (devices, tasks), \
                         the crashed one had {before:?}"
                    ));
                }
            }
            None => {
                if said != (0, 0) {
                    run.problems
                        .push(format!("instance {index}: a fresh server reports {said:?}"));
                }
            }
        }
        if summary.bad_frames != 0 {
            run.problems
                .push(format!("instance {index}: restart counted bad frames"));
        }
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    if let Some(dir) = wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    if let Some((dir, _)) = image {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(())
}

/// Valid journal records across the `journal-*` segments of a directory.
fn journal_records_in(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("journal-"))
        .filter_map(|e| std::fs::read(e.path()).ok())
        .map(|bytes| senseaid_core::persist::journal_valid_prefix(&bytes).0 as u64)
        .sum()
}
