//! `senseaid` — command-line front end for the reproduction.
//!
//! ```console
//! $ senseaid experiment table2            # regenerate Table 2
//! $ senseaid experiment fig9 --seed 7     # any figure, custom seed
//! $ senseaid faceoff --radius 1000 --period 5 --density 2
//! $ senseaid perf --out BENCH_perf.json   # time the tracked perf cells
//! $ senseaid perf --quick --against BENCH_perf.json   # CI regression gate
//! $ senseaid trace fig06 --out trace.json # record a Perfetto-loadable trace
//! $ senseaid list                         # what can be run
//! ```

use std::process::ExitCode;

use senseaid::bench::experiments::{
    ablations, ext_adaptive, ext_chaos, ext_live_chaos, ext_million, ext_overload, ext_scalability,
    ext_timeliness, fig01, fig02, fig06, fig07, fig08, fig09, fig10, fig11, fig12, fig13, fig14,
    tab02, DEFAULT_SEED,
};
use senseaid::bench::{
    recover, run_perf_filtered, run_scenario, run_trace, savings_pct, FrameworkKind, PerfOptions,
    PerfReport, TRACEABLE,
};
use senseaid::core::{FaultingStorage, MemStorage, PersistConfig, StorageFaultPlan};
use senseaid::geo::NamedLocation;
use senseaid::serve::{run_loadgen, serve, LoadgenOptions, ServeOptions};
use senseaid::sim::{SimDuration, SimTime};
use senseaid::workload::ScenarioConfig;

const EXPERIMENTS: &[(&str, &str)] = &[
    ("fig1", "survey histogram (energy tolerance)"),
    ("fig2", "app power case study (Pressurenet/WeatherSignal)"),
    ("fig6", "radio-state timeline around a tail upload"),
    ("fig7", "qualified devices vs area radius"),
    ("fig8", "total energy vs area radius"),
    ("fig9", "device-selection fairness"),
    ("fig10", "selected devices vs sampling period"),
    ("fig11", "energy per device vs sampling period"),
    ("fig12", "selected devices vs concurrent tasks"),
    ("fig13", "energy per device vs concurrent tasks"),
    ("fig14", "Sense-Aid vs PCS across prediction accuracies"),
    ("table2", "the user study's savings summary"),
    ("abl-selector", "selector-weight ablation"),
    ("abl-tail", "tail-window ablation"),
    ("ext-scale", "scalability extension (20–200 devices)"),
    ("ext-timeliness", "data-timeliness extension"),
    (
        "ext-adaptive",
        "adaptive task density through a pressure front",
    ),
    (
        "ext-chaos",
        "chaos extension (loss sweep + mid-run server crash)",
    ),
    (
        "ext-live-chaos",
        "live-path chaos (transport fault presets vs the sim twin's digest)",
    ),
    (
        "ext-overload",
        "overload extension (offered load x churn, leases + shedding)",
    ),
    (
        "ext-million",
        "million-device hot-state sweep (10k-1M devices, ops/sec + resident memory)",
    ),
];

const USAGE: &str =
    "usage: senseaid <experiment|faceoff|perf|recover|serve|loadgen|trace|list> …  (try `senseaid list`)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("experiment") => cmd_experiment(&args[1..]),
        Some("faceoff") => cmd_faceoff(&args[1..]),
        Some("perf") => cmd_perf(&args[1..]),
        Some("recover") => cmd_recover(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("loadgen") => cmd_loadgen(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("list") => {
            println!("experiments:");
            for (name, what) in EXPERIMENTS {
                println!("  {name:<16} {what}");
            }
            println!("\ntraceable (senseaid trace):");
            for (name, what) in TRACEABLE {
                println!("  {name:<16} {what}");
            }
            println!("\nusage: senseaid experiment <name> [--seed N]");
            println!("       senseaid faceoff [--seed N] [--radius M] [--period MIN] [--density N] [--tasks N] [--duration MIN] [--group N]");
            println!("       senseaid perf [--seed N] [--quick] [--filter CELL] [--out FILE] [--against BASELINE]");
            println!("       senseaid recover [--devices N] [--rounds N] [--seed N] [--fault PRESET] [--fault-seed N]");
            println!("       senseaid serve [--addr HOST:PORT] [--shards N] [--workers N] [--duration SECS] [--persist DIR]");
            println!("       senseaid loadgen [--addr HOST:PORT] [--connections N] [--requests N] [--seconds SECS] [--seed N] [--out FILE] [--drop-every N] [--stop-server]");
            println!("       senseaid trace <experiment> [--seed N] [--out FILE] [--jsonl FILE]");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown subcommand `{other}`");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Rejects any `--…` token that is not a known flag of the subcommand,
/// returning the offending flag so the error can name it. Flags listed in
/// `value_flags` consume the following token as their value.
fn reject_unknown_flags(
    args: &[String],
    value_flags: &[&str],
    bool_flags: &[&str],
) -> Result<(), String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !a.starts_with("--") {
            continue;
        }
        if value_flags.contains(&a.as_str()) {
            it.next(); // the flag's value, even if it looks like a flag
        } else if !bool_flags.contains(&a.as_str()) {
            return Err(a.clone());
        }
    }
    Ok(())
}

/// Applies [`reject_unknown_flags`] for `subcommand`, printing the error.
fn check_flags(
    subcommand: &str,
    args: &[String],
    value_flags: &[&str],
    bool_flags: &[&str],
) -> Result<(), ExitCode> {
    if let Err(offender) = reject_unknown_flags(args, value_flags, bool_flags) {
        eprintln!("unknown flag `{offender}` for `senseaid {subcommand}`");
        eprintln!("{USAGE}");
        return Err(ExitCode::FAILURE);
    }
    Ok(())
}

/// Parses `--flag value` pairs; returns `None` on an unknown flag.
fn flag(args: &[String], name: &str) -> Option<Option<f64>> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == name {
            return Some(it.next().and_then(|v| v.parse().ok()));
        }
    }
    None
}

fn seed_of(args: &[String]) -> u64 {
    flag(args, "--seed")
        .flatten()
        .map(|v| v as u64)
        .unwrap_or(DEFAULT_SEED)
}

fn cmd_experiment(args: &[String]) -> ExitCode {
    if let Err(code) = check_flags("experiment", args, &["--seed"], &[]) {
        return code;
    }
    let Some(name) = args.first() else {
        eprintln!("which experiment? (try `senseaid list`)");
        return ExitCode::FAILURE;
    };
    let seed = seed_of(args);
    let output = match name.as_str() {
        "fig1" => fig01::run(seed),
        "fig2" => fig02::run(seed),
        "fig6" => fig06::run(seed),
        "fig7" => fig07::run(seed),
        "fig8" => fig08::run(seed),
        "fig9" => fig09::run(seed),
        "fig10" => fig10::run(seed),
        "fig11" => fig11::run(seed),
        "fig12" => fig12::run(seed),
        "fig13" => fig13::run(seed),
        "fig14" => fig14::run(seed),
        "table2" => tab02::run(seed),
        "abl-selector" => ablations::run_selector(seed),
        "abl-tail" => ablations::run_tail(seed),
        "ext-scale" => ext_scalability::run(seed),
        "ext-timeliness" => ext_timeliness::run(seed),
        "ext-adaptive" => ext_adaptive::run(seed),
        "ext-chaos" => ext_chaos::run(seed),
        "ext-live-chaos" => ext_live_chaos::run(seed),
        "ext-overload" => ext_overload::run(seed),
        "ext-million" => ext_million::run(seed),
        other => {
            eprintln!("unknown experiment `{other}` (try `senseaid list`)");
            return ExitCode::FAILURE;
        }
    };
    print!("{output}");
    ExitCode::SUCCESS
}

/// `--flag value` pairs where the value is a string (paths).
fn str_flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == name {
            return it.next().map(String::as_str);
        }
    }
    None
}

fn cmd_perf(args: &[String]) -> ExitCode {
    if let Err(code) = check_flags(
        "perf",
        args,
        &["--seed", "--out", "--against", "--filter"],
        &["--quick"],
    ) {
        return code;
    }
    let options = PerfOptions {
        seed: seed_of(args),
        quick: args.iter().any(|a| a == "--quick"),
    };
    let report = match run_perf_filtered(&options, str_flag(args, "--filter")) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.render());
    if let Some(path) = str_flag(args, "--out") {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("\nwrote {path}");
    }
    if let Some(path) = str_flag(args, "--against") {
        let Ok(text) = std::fs::read_to_string(path) else {
            eprintln!("cannot read baseline {path}");
            return ExitCode::FAILURE;
        };
        let Some(baseline) = PerfReport::parse_json(&text) else {
            eprintln!("baseline {path} is not a perf report");
            return ExitCode::FAILURE;
        };
        let failures = report.regressions_against(&baseline, 2.0);
        if failures.is_empty() {
            println!("\nno cell regressed >2x against {path}");
        } else {
            eprintln!("\nperf regressions against {path}:");
            for f in &failures {
                eprintln!("  {f}");
            }
            return ExitCode::FAILURE;
        }
        // The telemetry budget rides the same CI gate: carrying a
        // disabled sink must cost less than 2% over no telemetry at all.
        if let Some(pct) = report.telemetry_overhead_pct() {
            if pct > 2.0 {
                eprintln!("telemetry disabled-sink overhead {pct:+.2}% exceeds the 2% budget");
                return ExitCode::FAILURE;
            }
            println!("telemetry disabled-sink overhead {pct:+.2}% (within the 2% budget)");
        }
        // Same deal for the lease bookkeeping: leases that never fire
        // must cost less than 2% over a lease-free control plane.
        if let Some(pct) = report.lease_sweep_overhead_pct() {
            if pct > 2.0 {
                eprintln!("device-lease bookkeeping overhead {pct:+.2}% exceeds the 2% budget");
                return ExitCode::FAILURE;
            }
            println!("device-lease bookkeeping overhead {pct:+.2}% (within the 2% budget)");
        }
    }
    ExitCode::SUCCESS
}

/// `senseaid recover`: drive a persisted control plane under a seeded
/// storage-fault plan, crash it, recover from the surviving bytes, and
/// verify the recovered server equals a reference that replays exactly
/// the surviving call prefix. Exits nonzero on any divergence — this is
/// the CI corruption-matrix entry point.
fn cmd_recover(args: &[String]) -> ExitCode {
    if let Err(code) = check_flags(
        "recover",
        args,
        &["--devices", "--rounds", "--seed", "--fault", "--fault-seed"],
        &[],
    ) {
        return code;
    }
    let devices = flag(args, "--devices").flatten().unwrap_or(2_000.0) as u64;
    let rounds = flag(args, "--rounds").flatten().unwrap_or(10.0) as u64;
    let seed = seed_of(args);
    let preset = str_flag(args, "--fault").unwrap_or("none");
    let fault_seed = flag(args, "--fault-seed").flatten().unwrap_or(1.0) as u64;
    let Some(plan) = StorageFaultPlan::preset(preset, fault_seed) else {
        eprintln!("unknown fault preset `{preset}` (try none, torn-write, truncate, bit-flip, stale, disk-full, mixed)");
        return ExitCode::FAILURE;
    };

    println!(
        "recover: {devices} devices, {rounds} rounds, seed {seed}, fault {preset} (fault seed {fault_seed})"
    );
    let storage = FaultingStorage::new(Box::new(MemStorage::new()), plan);
    let mut durable = recover::fresh_server();
    if let Err(e) =
        durable.enable_persistence(Box::new(storage), PersistConfig::default(), SimTime::ZERO)
    {
        eprintln!("cannot arm persistence: {e}");
        return ExitCode::FAILURE;
    }
    let (calls, gen_calls, t_crash) = recover::drive(&mut durable, devices, rounds, seed);
    if let Some(stats) = durable.persist_stats() {
        let full_bytes = durable.durable_digest(t_crash).len() as u64;
        println!(
            "persisted {} full + {} delta snapshots, {} journal records; last snapshot {} B vs {} B full ({:.1}x smaller)",
            stats.snapshots_full,
            stats.snapshots_delta,
            stats.journal_records,
            stats.snapshot_bytes_last,
            full_bytes,
            full_bytes as f64 / stats.snapshot_bytes_last.max(1) as f64,
        );
    }

    // The process dies; only the (possibly mangled) bytes survive.
    durable.crash();
    let Some(storage) = durable.detach_persistence() else {
        eprintln!("persistence was not armed at crash time");
        return ExitCode::FAILURE;
    };
    let mut recovered = recover::fresh_server();
    let report = match recovered.recover_from_storage(storage, PersistConfig::default(), t_crash) {
        Ok(report) => report,
        Err(e) => {
            // The in-memory recovery stands even on Err, but persistence
            // could not be re-armed (e.g. the disk-full preset exhausted
            // its byte budget) — the round trip is unverifiable.
            eprintln!("recovery could not re-arm persistence: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "recovered: generation {:?}, {} ops replayed, {} journal B dropped, {} corrupt generation(s), cold start {}",
        report.loaded_generation,
        report.ops_replayed,
        report.journal_bytes_dropped,
        report.corrupt_generations.len(),
        report.cold_start,
    );
    if let Some((from, to)) = report.lost_window {
        println!(
            "lost window reported: {:.1} min .. {:.1} min",
            from.as_secs_f64() / 60.0,
            to.as_secs_f64() / 60.0
        );
    }

    let survived =
        match recover::check_surviving_prefix(&mut recovered, &report, &calls, &gen_calls, t_crash)
        {
            Ok(survived) => survived,
            Err(e) => {
                eprintln!("FAIL: {e}");
                return ExitCode::FAILURE;
            }
        };
    println!(
        "OK: recovered state byte-identical to the surviving prefix ({survived}/{} calls)",
        calls.len()
    );
    ExitCode::SUCCESS
}

/// `senseaid serve`: run the live TCP front-end until the duration
/// elapses or a client sends a wire `Shutdown`, then print the shutdown
/// summary (the CI smoke job greps its `flush=` field).
fn cmd_serve(args: &[String]) -> ExitCode {
    if let Err(code) = check_flags(
        "serve",
        args,
        &["--addr", "--shards", "--workers", "--duration", "--persist"],
        &[],
    ) {
        return code;
    }
    let options = ServeOptions {
        addr: str_flag(args, "--addr")
            .unwrap_or("127.0.0.1:7411")
            .to_owned(),
        shards: flag(args, "--shards").flatten().unwrap_or(4.0) as usize,
        workers: flag(args, "--workers").flatten().unwrap_or(2.0) as usize,
        persist_dir: str_flag(args, "--persist").map(Into::into),
        duration: flag(args, "--duration")
            .flatten()
            .map(std::time::Duration::from_secs_f64),
        ..ServeOptions::default()
    };
    let handle = match serve(options.clone()) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("cannot start server on {}: {e}", options.addr);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "serve: listening on {} ({} shards, {} workers, wal={})",
        handle.addr(),
        options.shards.max(1),
        options.workers.max(1),
        options
            .persist_dir
            .as_deref()
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| "off".to_owned()),
    );
    let summary = handle.join();
    println!("{}", summary.render());
    ExitCode::SUCCESS
}

/// `senseaid loadgen`: closed-loop load bout against a live server;
/// prints rps + latency quantiles, optionally writes the histogram JSON,
/// and exits nonzero if nothing completed.
fn cmd_loadgen(args: &[String]) -> ExitCode {
    if let Err(code) = check_flags(
        "loadgen",
        args,
        &[
            "--addr",
            "--connections",
            "--requests",
            "--seconds",
            "--seed",
            "--out",
            "--drop-every",
        ],
        &["--stop-server"],
    ) {
        return code;
    }
    let options = LoadgenOptions {
        addr: str_flag(args, "--addr")
            .unwrap_or("127.0.0.1:7411")
            .to_owned(),
        connections: flag(args, "--connections").flatten().unwrap_or(4.0) as usize,
        requests: flag(args, "--requests").flatten().unwrap_or(10_000.0) as u64,
        duration: flag(args, "--seconds")
            .flatten()
            .map(std::time::Duration::from_secs_f64),
        seed: seed_of(args),
        submit_task: true,
        stop_server: args.iter().any(|a| a == "--stop-server"),
        drop_every: flag(args, "--drop-every").flatten().map(|n| n as u64),
    };
    let report = match run_loadgen(&options) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("loadgen cannot reach {}: {e}", options.addr);
            return ExitCode::FAILURE;
        }
    };
    println!("{}", report.render());
    if let Some(path) = str_flag(args, "--out") {
        if let Err(e) = std::fs::write(path, report.hist.to_json()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote latency histogram to {path}");
    }
    if let Some(fatal) = &report.fatal {
        eprintln!("loadgen failed: {fatal}");
        return ExitCode::FAILURE;
    }
    if let Some(err) = &report.stop_server_error {
        eprintln!("loadgen could not stop the server: {err}");
        return ExitCode::FAILURE;
    }
    if report.requests == 0 {
        eprintln!("loadgen completed zero requests");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn cmd_trace(args: &[String]) -> ExitCode {
    if let Err(code) = check_flags("trace", args, &["--seed", "--out", "--jsonl"], &[]) {
        return code;
    }
    let Some(name) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("which experiment? traceable:");
        for (n, what) in TRACEABLE {
            eprintln!("  {n:<8} {what}");
        }
        return ExitCode::FAILURE;
    };
    let seed = seed_of(args);
    let Some(run) = run_trace(name, seed) else {
        eprintln!("no trace configuration for `{name}`; traceable experiments:");
        for (n, what) in TRACEABLE {
            eprintln!("  {n:<8} {what}");
        }
        return ExitCode::FAILURE;
    };
    print!("{}", run.summary);
    if let Some(path) = str_flag(args, "--out") {
        if let Err(e) = std::fs::write(path, &run.chrome_json) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote Chrome Trace Event JSON to {path} (open in Perfetto or chrome://tracing)");
    }
    if let Some(path) = str_flag(args, "--jsonl") {
        if let Err(e) = std::fs::write(path, &run.jsonl) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote span JSONL to {path}");
    }
    ExitCode::SUCCESS
}

fn cmd_faceoff(args: &[String]) -> ExitCode {
    if let Err(code) = check_flags(
        "faceoff",
        args,
        &[
            "--seed",
            "--radius",
            "--period",
            "--density",
            "--tasks",
            "--duration",
            "--group",
        ],
        &[],
    ) {
        return code;
    }
    let seed = seed_of(args);
    let get = |name: &str, default: f64| flag(args, name).flatten().unwrap_or(default);
    let scenario = ScenarioConfig {
        test_duration: SimDuration::from_mins(get("--duration", 90.0) as u64),
        sampling_period: SimDuration::from_mins(get("--period", 5.0) as u64),
        spatial_density: get("--density", 2.0) as usize,
        area_radius_m: get("--radius", 1000.0),
        tasks: get("--tasks", 1.0) as usize,
        location: NamedLocation::CsDepartment,
        group_size: get("--group", 20.0) as usize,
    };
    scenario.validate();
    println!(
        "faceoff: {} min, period {} min, density {}, radius {} m, {} task(s), {} students, seed {seed}\n",
        scenario.test_duration.as_mins_f64(),
        scenario.sampling_period.as_mins_f64(),
        scenario.spatial_density,
        scenario.area_radius_m,
        scenario.tasks,
        scenario.group_size,
    );
    println!(
        "{:<14} {:>10} {:>10} {:>11} {:>12} {:>10}",
        "framework", "total J", "J/device", "warm-rate", "mean delay", "delivered"
    );
    let mut pcs_total = 0.0;
    let mut sa_total = 0.0;
    for kind in FrameworkKind::study_set() {
        let r = run_scenario(kind, scenario, seed);
        println!(
            "{:<14} {:>10.1} {:>10.2} {:>10.0}% {:>11.1}s {:>10}",
            kind.label(),
            r.total_cs_j(),
            r.avg_cs_j(),
            100.0 * r.warm_upload_rate(),
            r.mean_delay_s(),
            r.readings_delivered,
        );
        match kind {
            FrameworkKind::Pcs { .. } => pcs_total = r.total_cs_j(),
            FrameworkKind::SenseAidComplete => sa_total = r.total_cs_j(),
            _ => {}
        }
    }
    println!(
        "\nSense-Aid Complete saves {:.1}% vs PCS",
        savings_pct(sa_total, pcs_total)
    );
    ExitCode::SUCCESS
}
