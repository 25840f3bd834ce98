//! One benchmark for the whole stack. See `benchmark/README.md`.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out-dir D]
//! benchmark all [--seed N] [--workload W] [--trace] [--repeat K] [--set NAME] [--smoke] [--seconds S]
//! benchmark compare A B [--bounds BENCHMARK.json]
//! ```
//!
//! The first form is the contract the driver calls: one workload, in this
//! process, one JSON object as the last line of standard output. `all`
//! is the human entry point behind `run.sh`: a fresh child process per
//! workload, a host header, a `workload metric value unit n` table, and
//! result files under `benchmark/out/`.

mod client;
mod core_million;
mod gen;
mod json;
mod live;
mod paper_study;
mod procfs;
mod replay;
mod report;
mod span;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use live::{LiveKind, LiveShape};
use report::{Metric, Outcome};

/// The five workloads, in report order.
const WORKLOADS: [&str; 5] = [
    "live_mix",
    "live_mix_wal",
    "live_task_push",
    "core_million",
    "paper_study",
];

/// Every end-to-end metric with its unit, in report order: the slots each
/// workload fills with its own operation (see the README's table).
/// `BENCHMARK.json` lists the same names with their bounds.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("lat_p50_ms", "ms"),
    ("lat_tail_ms", "ms"),
    ("mid_tail_ms", "ms"),
    ("sat_per_s", "1/s"),
    ("restart_ms", "ms"),
    ("rss_mb", "MiB"),
];

/// Latency tails are capped at p99 (and pulled lower when the sample does
/// not leave ten values beyond it).
const TAIL_CAP: f64 = 0.99;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out_dir: PathBuf,
    repeat: usize,
    set: Option<String>,
    bounds: PathBuf,
    positional: Vec<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
        repeat: 1,
        set: None,
        bounds: PathBuf::from("BENCHMARK.json"),
        positional: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_owned())?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a whole number".to_owned())?
            }
            "--repeat" => {
                args.repeat = value("--repeat")?
                    .parse()
                    .map_err(|_| "--repeat takes a whole number".to_owned())?
            }
            "--out-dir" => args.out_dir = PathBuf::from(value("--out-dir")?),
            "--set" => args.set = Some(value("--set")?),
            "--bounds" => args.bounds = PathBuf::from(value("--bounds")?),
            "--smoke" => args.smoke = true,
            // `--trace 0|1` for the driver, bare `--trace` for people.
            "--trace" => {
                args.trace = match it.clone().next().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            other => args.positional.push(other.to_owned()),
        }
    }
    if args.seconds == 0 || args.repeat == 0 {
        return Err("--seconds and --repeat must be at least 1".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match args.positional.first().map(String::as_str) {
        Some("all") => run_all(&args),
        Some("compare") => run_compare(&args),
        Some(other) => {
            eprintln!("benchmark: unknown command {other}");
            ExitCode::from(2)
        }
        None => run_one(&args),
    }
}

// ---------------------------------------------------------------------
// One workload, in this process (the driver's contract)
// ---------------------------------------------------------------------

fn run_one(args: &Args) -> ExitCode {
    let Some(workload) = args.workload.as_deref() else {
        eprintln!(
            "benchmark: --workload is required (one of {})",
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    if !WORKLOADS.contains(&workload) {
        eprintln!(
            "benchmark: unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("benchmark: {}: {e}", args.out_dir.display());
        return ExitCode::from(1);
    }
    let started = Instant::now();
    let scale = if args.smoke {
        trace::REFERENCE_SCALE
    } else {
        1.0
    };
    let seconds = args.seconds as f64 * scale;
    let result = if args.trace {
        trace::run(workload, args.seed, seconds, scale, &args.out_dir)
    } else {
        run_end_to_end(workload, args.seed, seconds, scale, &args.out_dir)
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("benchmark: {workload}: {e}");
            return ExitCode::from(1);
        }
    };
    if !args.trace {
        let reported: Vec<(&str, &str)> = outcome
            .metrics
            .iter()
            .map(|m| (m.name.as_str(), m.unit))
            .collect();
        if reported != END_TO_END {
            outcome.problems.push(format!(
                "reported {reported:?}, the contract is {END_TO_END:?}"
            ));
        }
    }
    outcome.workload = workload.to_owned();
    outcome.seed = args.seed;
    outcome.seconds = args.seconds;
    outcome.trace = args.trace;
    outcome.smoke = args.smoke;
    outcome.wall_s = started.elapsed().as_secs_f64();

    let file = args.out_dir.join(format!(
        "{}{workload}.json",
        if args.trace { "layers-" } else { "" }
    ));
    if let Err(e) = std::fs::write(&file, outcome.to_json().render() + "\n") {
        eprintln!("benchmark: {}: {e}", file.display());
    }
    for p in &outcome.problems {
        eprintln!("benchmark: {workload}: INCORRECT: {p}");
    }
    for v in &outcome.void_phases {
        eprintln!("benchmark: {workload}: VOID PHASE: {v}");
    }
    print!("{}", outcome.table());
    println!("{}", outcome.contract_line());
    ExitCode::SUCCESS
}

fn io_err(e: std::io::Error) -> String {
    format!("i/o: {e}")
}

/// The guarded tail of a timing taken in consecutive stretches, as the
/// metric `name`: the median of the stretches' own tails.
fn tail_metric(name: &str, blocks: &[Vec<f64>], what: &str) -> Metric {
    let t = stats::block_tail(blocks, TAIL_CAP);
    Metric::new(
        name,
        t.tail,
        "ms",
        t.n,
        format!(
            "p{:.1} {what}, median of {} stretches",
            t.tail_percentile,
            blocks.len()
        ),
    )
}

/// The two light-rate latency metrics: the median over every stretch, and
/// the guarded tail.
fn latency_metrics(blocks: &[Vec<f64>], what: &str, out: &mut Vec<Metric>) {
    let pooled: Vec<f64> = blocks.iter().flatten().copied().collect();
    out.push(Metric::new(
        "lat_p50_ms",
        stats::median(&pooled),
        "ms",
        pooled.len(),
        format!("median {what}"),
    ));
    out.push(tail_metric("lat_tail_ms", blocks, what));
}

fn mid_metric(blocks: &[Vec<f64>], what: &str) -> Metric {
    tail_metric("mid_tail_ms", blocks, what)
}

fn run_end_to_end(
    workload: &str,
    seed: u64,
    seconds: f64,
    scale: f64,
    out_dir: &Path,
) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let m = &mut outcome.metrics;
    match workload {
        "live_mix" | "live_mix_wal" | "live_task_push" => {
            let kind = live_kind(workload);
            let shape = LiveShape::new(kind, seconds, scale);
            let run = live::run(kind, seed, &shape, out_dir, None).map_err(io_err)?;
            let (op, unit_note) = match kind {
                LiveKind::TaskPush => ("task -> last of its 3 pushes", "tasks/s"),
                _ => ("request -> response", "requests/s"),
            };
            m.push(Metric::new(
                "setup_s",
                stats::median(&run.setup_s),
                "s",
                run.setup_s.len(),
                format!("median serve() + enrol {} devices", shape.devices),
            ));
            latency_metrics(
                &run.light_ms,
                &format!("{op} at {} /s open loop", shape.light_rate),
                m,
            );
            m.push(mid_metric(
                &run.mid_ms,
                &format!("{op} at {} /s open loop", shape.mid_rate),
            ));
            m.push(Metric::new(
                "sat_per_s",
                stats::median(&run.sat_per_s),
                "1/s",
                run.sat_per_s.len(),
                format!(
                    "median bout, {unit_note}, {} in flight, {:.2} s bouts",
                    shape.sat_window, shape.sat_bout_s
                ),
            ));
            m.push(Metric::new(
                "restart_ms",
                stats::median(&run.restart_ms),
                "ms",
                run.restart_ms.len(),
                if kind.persists() {
                    format!(
                        "median serve() on the crash image -> first Stats ({} journal records replayed)",
                        run.image_records.first().copied().unwrap_or(0)
                    )
                } else {
                    "median serve() fresh -> first Stats".to_owned()
                },
            ));
            m.push(Metric::new(
                "rss_mb",
                run.rss_mb,
                "MiB",
                1,
                "VmRSS after the first enrolment (server + generator)",
            ));
            if let Some(p) = run.pacer {
                outcome.extras.extend([
                    Metric::new(
                        "loadgen.late_p99_ms",
                        p.late_p99_ms,
                        "ms",
                        1,
                        "worst open-loop phase",
                    ),
                    Metric::new(
                        "loadgen.achieved_frac",
                        p.achieved_frac,
                        "ratio",
                        1,
                        "worst open-loop phase",
                    ),
                    Metric::new(
                        "loadgen.backlog_end",
                        p.backlog_end as f64,
                        "count",
                        1,
                        "worst open-loop phase",
                    ),
                ]);
            }
            let sat = stats::quartiles(&run.sat_per_s);
            outcome.extras.extend([
                Metric::new("sat_per_s.q1", sat.0, "1/s", run.sat_per_s.len(), "bouts"),
                Metric::new("sat_per_s.q3", sat.2, "1/s", run.sat_per_s.len(), "bouts"),
                Metric::new(
                    "server.requests",
                    run.server_requests as f64,
                    "count",
                    1,
                    "ServeSummary, all instances",
                ),
                Metric::new(
                    "server.pushes",
                    run.server_pushes as f64,
                    "count",
                    1,
                    "ServeSummary, all instances",
                ),
            ]);
            outcome.attempted = run.attempted;
            outcome.failed = run.failed;
            outcome.problems = run.problems;
            outcome.void_phases = run.void_phases;
        }
        "core_million" => {
            let shape = core_million::CoreShape::new(seconds, scale);
            let run = core_million::run(seed, &shape, None);
            m.push(Metric::new(
                "setup_s",
                stats::median(&run.setup_s),
                "s",
                run.setup_s.len(),
                format!(
                    "median load of {} devices + {} tasks",
                    shape.devices, shape.tasks
                ),
            ));
            latency_metrics(
                &stats::split_blocks(&run.light_ms, 5),
                "round (churn 1/128 + poll + deliveries)",
                m,
            );
            m.push(mid_metric(
                &stats::split_blocks(&run.mid_ms, 3),
                "round at 8x churn",
            ));
            let rates: Vec<f64> = run
                .load_s
                .iter()
                .map(|s| shape.devices as f64 / s)
                .collect();
            m.push(Metric::new(
                "sat_per_s",
                stats::median(&rates),
                "1/s",
                rates.len(),
                "median devices registered + observed per second (bulk load)",
            ));
            m.push(Metric::new(
                "restart_ms",
                run.snapshot_ms + run.recover_ms,
                "ms",
                1,
                format!(
                    "snapshot to memory ({:.0} ms, {} bytes) + recover_from_storage ({:.0} ms)",
                    run.snapshot_ms, run.snapshot_bytes, run.recover_ms
                ),
            ));
            m.push(Metric::new(
                "rss_mb",
                run.rss_mb,
                "MiB",
                1,
                "VmRSS with the population live",
            ));
            outcome.extras.extend([
                Metric::new(
                    "core.digest",
                    (run.outcome.digest >> 11) as f64,
                    "count",
                    1,
                    "assignment stream + end state, top 53 bits",
                ),
                Metric::new(
                    "core.assignments",
                    run.outcome.assignments as f64,
                    "count",
                    1,
                    "devices tasked",
                ),
                Metric::new(
                    "store.bytes_per_device",
                    run.bytes_per_device,
                    "B",
                    1,
                    "VmRSS growth over the last load",
                ),
            ]);
            outcome.attempted = run.outcome.ops + 2 * (shape.devices * shape.loads) as u64;
            outcome.problems = run.problems;
        }
        "paper_study" => {
            let shape = paper_study::StudyShape::new(seconds, scale);
            let run = paper_study::run(seed, &shape);
            m.push(Metric::new(
                "setup_s",
                stats::median(&run.setup_s),
                "s",
                run.setup_s.len(),
                "median warm-up repetition",
            ));
            latency_metrics(
                &stats::split_blocks(&run.light_ms, 5),
                &format!(
                    "four-framework repetition, {} devices/group, 5-min period",
                    shape.group_size
                ),
                m,
            );
            m.push(mid_metric(
                &stats::split_blocks(&run.mid_ms, 3),
                "repetition at the 1-min period",
            ));
            m.push(Metric::new(
                "sat_per_s",
                run.sat_runs_per_s,
                "1/s",
                shape.sat_cells,
                "framework runs per second, one pinned worker per core",
            ));
            m.push(Metric::new(
                "restart_ms",
                stats::median(&run.failover_ms),
                "ms",
                run.failover_ms.len(),
                "median Sense-Aid Complete run with a server crash at minute 20, recovery at 30",
            ));
            m.push(Metric::new(
                "rss_mb",
                run.rss_mb,
                "MiB",
                1,
                "VmRSS after the light repetitions",
            ));
            outcome.extras.push(Metric::new(
                "runner.device_ticks_s",
                run.device_ticks_per_s,
                "1/s",
                run.light_ms.len(),
                "device-seconds simulated per wall second",
            ));
            outcome.attempted = run.runs;
            outcome.problems = run.problems;
        }
        other => return Err(format!("unknown workload {other}")),
    }
    Ok(outcome)
}

fn live_kind(workload: &str) -> LiveKind {
    match workload {
        "live_mix_wal" => LiveKind::MixWal,
        "live_task_push" => LiveKind::TaskPush,
        _ => LiveKind::Mix,
    }
}

// ---------------------------------------------------------------------
// `all`: a child process per workload, a header and a table
// ---------------------------------------------------------------------

fn header(args: &Args) -> String {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "not a git checkout".to_owned());
    let _ = std::fs::create_dir_all(&args.out_dir);
    format!(
        "# host: {cores} cores (available_parallelism), kernel {}\n\
         # build: {} profile, commit {commit}\n\
         # network: host loopback, not a real link\n\
         # storage: WAL directory under {} on {}, no fsync (DirStorage never syncs)\n\
         # run: seed {}, {} s measured per run{}{}\n",
        procfs::kernel_release(),
        if cfg!(debug_assertions) {
            "debug (numbers are not comparable)"
        } else {
            "release"
        },
        args.out_dir.display(),
        procfs::filesystem_of(&args.out_dir),
        args.seed,
        args.seconds,
        if args.smoke {
            ", --smoke (1/20 scale)"
        } else {
            ""
        },
        if args.trace {
            ", traced (per-layer numbers)"
        } else {
            ""
        },
    )
}

fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot find my own executable: {e}");
            return ExitCode::from(1);
        }
    };
    print!("{}", header(args));
    println!("# workload metric value unit n note");
    let workloads: Vec<&str> = match args.workload.as_deref() {
        Some(w) => vec![w],
        None => WORKLOADS.to_vec(),
    };
    let mut bad = false;
    for k in 0..args.repeat {
        // A repeat is another sample of the same code: same workloads,
        // next seed.
        let seed = args.seed + k as u64;
        for workload in &workloads {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .arg("--out-dir")
                .arg(&args.out_dir);
            if args.smoke {
                cmd.arg("--smoke");
            }
            let output = match cmd.stderr(std::process::Stdio::inherit()).output() {
                Ok(output) => output,
                Err(e) => {
                    eprintln!("benchmark: cannot start the {workload} child: {e}");
                    bad = true;
                    continue;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            let last = lines.pop().unwrap_or("");
            for line in &lines {
                println!("{line}");
            }
            let verdict = json::parse(last).ok();
            let correct = verdict
                .as_ref()
                .and_then(|v| v.get("correct"))
                .is_some_and(|c| *c == json::Json::Bool(true));
            let failed = verdict
                .as_ref()
                .and_then(|v| v.get("failed"))
                .and_then(json::Json::as_f64)
                .unwrap_or(f64::NAN);
            if !output.status.success() || !correct || failed != 0.0 {
                eprintln!(
                    "benchmark: {workload} seed {seed}: exit {:?}, correct={correct}, failed={failed}",
                    output.status.code()
                );
                bad = true;
            }
            // Keep each run of a set; the plain file is the latest run.
            let prefix = if args.trace { "layers-" } else { "" };
            let latest = args.out_dir.join(format!("{prefix}{workload}.json"));
            if let Ok(text) = std::fs::read_to_string(&latest) {
                let void = json::parse(&text).ok().is_some_and(|doc| {
                    doc.get("void_phases")
                        .and_then(json::Json::as_arr)
                        .is_some_and(|v| !v.is_empty())
                });
                if void {
                    bad = true;
                }
                if let Some(set) = &args.set {
                    let dir = args.out_dir.join(set);
                    let _ = std::fs::create_dir_all(&dir);
                    let _ = std::fs::write(dir.join(format!("{prefix}{workload}.{k}.json")), text);
                }
            }
        }
    }
    if bad {
        eprintln!("benchmark: at least one run failed, was incorrect, or had a void phase");
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

// ---------------------------------------------------------------------
// `compare A B`
// ---------------------------------------------------------------------

fn run_compare(args: &Args) -> ExitCode {
    let [_, a, b] = args.positional.as_slice() else {
        eprintln!("usage: benchmark compare A B [--bounds BENCHMARK.json]");
        return ExitCode::from(2);
    };
    let loaded = (|| {
        let bounds = report::read_bounds(&args.bounds)?;
        let (set_a, failed_a, bad_a) = report::load_set(Path::new(a))?;
        let (set_b, failed_b, bad_b) = report::load_set(Path::new(b))?;
        Ok::<_, String>((
            bounds,
            set_a,
            set_b,
            failed_a + failed_b,
            [bad_a, bad_b].concat(),
        ))
    })();
    let (bounds, set_a, set_b, failed, incorrect) = match loaded {
        Ok(v) => v,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let rows = report::compare(&set_a, &set_b, &bounds);
    print!("{}", report::render_compare(&rows));
    let beyond = rows.iter().filter(|r| r.beyond).count();
    let wide = rows.iter().filter(|r| r.spread > r.bound).count();
    println!(
        "# {} pairs compared, {beyond} beyond their bound, {wide} with a spread wider than the bound, \
         {failed} failed operations, {} incorrect runs",
        rows.len(),
        incorrect.len()
    );
    for file in &incorrect {
        println!("# incorrect: {file}");
    }
    if rows.is_empty() || beyond > 0 || failed > 0 || !incorrect.is_empty() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Json;

    /// `BENCHMARK.json` is the contract other changes are held to; what it
    /// names must be exactly what this program reports.
    #[test]
    fn benchmark_json_names_what_the_program_reports() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("{key} list"))
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_owned()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(names("end_to_end"), owned(&END_TO_END));
        assert_eq!(names("per_layer"), owned(&trace::PER_LAYER));
        let setup = &doc.get("end_to_end").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
        for m in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(parse_args(&[]).unwrap().seconds as f64),
            "the default --seconds is the contract's run_seconds"
        );
    }

    #[test]
    fn trace_flag_takes_an_optional_zero_or_one() {
        let parse = |v: &[&str]| parse_args(&v.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>());
        assert!(!parse(&["--trace", "0", "--seed", "3"]).unwrap().trace);
        assert!(parse(&["--trace", "1"]).unwrap().trace);
        let bare = parse(&["all", "--trace", "--smoke"]).unwrap();
        assert!(bare.trace && bare.smoke && bare.positional == ["all"]);
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }
}
