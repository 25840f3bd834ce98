//! The perf harness: times representative experiment cells and emits
//! `BENCH_perf.json`, the repo's tracked performance trajectory.
//!
//! Each cell reports wall-clock, simulated events (device-ticks: one
//! device advanced through one one-second tick), events/sec, and the
//! control plane's peak queue depth. Two of the cells run the identical
//! ext_scalability sweep twice — once through the optimised hot paths and
//! once through the pre-optimisation reference loops
//! ([`crate::runner::HarnessOptions::reference_loops`]) — so the speedup
//! of this PR's optimisation pass is recorded *inside* the baseline file
//! rather than against a lost older build.
//!
//! The JSON is hand-rolled (the workspace deliberately has no JSON
//! dependency) and parsed back by [`PerfReport::parse_json`] for the CI
//! regression gate: a cell regresses when its wall-clock exceeds 2× the
//! checked-in baseline's.

use std::time::Instant;

use senseaid_geo::NamedLocation;
use senseaid_sim::SimDuration;
use senseaid_telemetry::Telemetry;
use senseaid_workload::ScenarioConfig;

use crate::framework::FrameworkKind;
use crate::runner::{run_scenario_with, HarnessOptions};

/// Knobs for one perf run.
#[derive(Debug, Clone)]
pub struct PerfOptions {
    /// Population/mobility/traffic seed; the default study seed elsewhere.
    pub seed: u64,
    /// Shrink durations and sweep sizes for CI smoke runs. Quick cells
    /// keep their names, so a quick run can still be compared against a
    /// full baseline — quick cells are strictly cheaper, which makes the
    /// 2× gate conservative rather than flaky.
    pub quick: bool,
}

impl Default for PerfOptions {
    fn default() -> Self {
        PerfOptions {
            seed: 2017,
            quick: false,
        }
    }
}

/// One timed cell.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfCell {
    /// Stable cell name (the regression key).
    pub name: String,
    /// Wall-clock of the cell, milliseconds.
    pub wall_ms: f64,
    /// Simulated device-ticks executed.
    pub events: u64,
    /// Device-ticks per wall-clock second.
    pub events_per_sec: f64,
    /// Peak control-plane queue depth observed (0 for baselines).
    pub peak_queue_depth: u64,
    /// Resident memory (MiB) sampled while the cell's state was live.
    /// `None` for cells that do not measure memory — the field is omitted
    /// from the JSON, so baselines written before it existed still parse.
    pub rss_mb: Option<f64>,
}

/// A full perf run: the tracked `BENCH_perf.json` payload.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Seed the cells ran with.
    pub seed: u64,
    /// Whether this was a quick (CI smoke) run.
    pub quick: bool,
    /// `available_parallelism` of the host that ran the cells — the
    /// context every pipelined-vs-serial pair needs. `None` for baselines
    /// written before the field existed.
    pub cpus: Option<u64>,
    /// The timed cells, in a fixed order.
    pub cells: Vec<PerfCell>,
}

/// Device-ticks in one scenario: the runner ticks once per second from 0
/// to `test_duration + sampling_period + 2 s` inclusive, advancing every
/// device each tick.
fn device_ticks(s: &ScenarioConfig) -> u64 {
    let ticks = (s.test_duration + s.sampling_period + SimDuration::from_secs(2)).as_secs() + 1;
    ticks * s.group_size as u64
}

/// The single-scenario cells: one Sense-Aid small, one Sense-Aid large,
/// and the two baselines at the mid population.
fn study_scenario(group_size: usize, quick: bool) -> ScenarioConfig {
    ScenarioConfig {
        test_duration: if quick {
            SimDuration::from_mins(20)
        } else {
            SimDuration::from_mins(60)
        },
        sampling_period: SimDuration::from_mins(5),
        spatial_density: 3,
        area_radius_m: 800.0,
        tasks: 4,
        location: NamedLocation::CsDepartment,
        group_size,
    }
}

fn timed_cell(name: &str, kind: FrameworkKind, scenario: ScenarioConfig, seed: u64) -> PerfCell {
    let start = Instant::now();
    let report = run_scenario_with(kind, scenario, seed, HarnessOptions::default());
    let wall = start.elapsed();
    let events = device_ticks(&scenario);
    PerfCell {
        name: name.to_owned(),
        wall_ms: wall.as_secs_f64() * 1e3,
        events,
        events_per_sec: events as f64 / wall.as_secs_f64().max(1e-9),
        peak_queue_depth: report.peak_queue_depth,
        rss_mb: None,
    }
}

/// The ext_scalability sweep as one timed cell, serial on purpose: the
/// optimised-vs-reference comparison must measure the hot paths, not the
/// worker pool.
fn sweep_cell(name: &str, sizes: &[usize], seed: u64, reference_loops: bool) -> PerfCell {
    let scenarios: Vec<ScenarioConfig> = sizes.iter().map(|&n| study_scenario(n, false)).collect();
    let start = Instant::now();
    let mut peak = 0u64;
    for s in &scenarios {
        let report = run_scenario_with(
            FrameworkKind::SenseAidComplete,
            *s,
            seed,
            HarnessOptions {
                reference_loops,
                ..HarnessOptions::default()
            },
        );
        peak = peak.max(report.peak_queue_depth);
    }
    let wall = start.elapsed();
    let events: u64 = scenarios.iter().map(device_ticks).sum();
    PerfCell {
        name: name.to_owned(),
        wall_ms: wall.as_secs_f64() * 1e3,
        events,
        events_per_sec: events as f64 / wall.as_secs_f64().max(1e-9),
        peak_queue_depth: peak,
        rss_mb: None,
    }
}

/// Shared estimator for the few-percent overhead budgets. These pairs
/// feed a 2% gate, far tighter than the 2x regression factor the named
/// cells ride, and the raw runs are only milliseconds — well inside
/// shared-runner jitter. The armed cell's wall is derived from the
/// *median of per-round armed/reference ratios*: the two slots of a
/// round run back to back, so the paired ratio cancels common-mode
/// drift, and the median discards outlier rounds. Pairing beats
/// batching here — shared-machine noise is slow drift, so small batches
/// keep a round's two slots close in time (where the ratio cancels
/// best) and many rounds feed the median. Rounds alternate which slot
/// runs first so drift landing on the second slot of every round cannot
/// bias the ratio stream in one direction.
///
/// One more defence, because the budget gate is hard-fail: when a pass
/// lands near or over the budget the whole pass is repeated (up to
/// three) and the median pass estimate wins. A real regression
/// reproduces in every pass; a noise burst that contaminated most of
/// one pass's rounds does not survive two more.
fn paired_overhead_cells(
    names: (&str, &str),
    seed: u64,
    quick: bool,
    options: impl Fn(usize) -> HarnessOptions,
) -> (PerfCell, PerfCell) {
    let scenario = study_scenario(50, quick);
    let rounds = if quick { 45 } else { 61 };
    let batch = if quick { 1 } else { 2 };
    let mut peak = 0u64;
    let mut reference_wall = f64::INFINITY;
    let mut estimates: Vec<f64> = Vec::new();
    for _pass in 0..3 {
        // Index 0: reference configuration. Index 1: armed configuration.
        let mut samples = [const { Vec::new() }; 2];
        for round in 0..rounds {
            let order = if round % 2 == 0 { [0, 1] } else { [1, 0] };
            for slot in order {
                let start = Instant::now();
                for _ in 0..batch {
                    let report = run_scenario_with(
                        FrameworkKind::SenseAidComplete,
                        scenario,
                        seed,
                        options(slot),
                    );
                    peak = peak.max(report.peak_queue_depth);
                }
                samples[slot].push(start.elapsed().as_secs_f64() * 1e3 / batch as f64);
            }
        }
        reference_wall = samples[0].iter().copied().fold(reference_wall, f64::min);
        let mut ratios: Vec<f64> = samples[0]
            .iter()
            .zip(&samples[1])
            .map(|(r, a)| a / r.max(1e-9))
            .collect();
        ratios.sort_unstable_by(|a, b| a.total_cmp(b));
        estimates.push(ratios[ratios.len() / 2]);
        // Comfortably inside the budget: believe it and stop paying.
        if *estimates.last().expect("just pushed") < 1.015 {
            break;
        }
    }
    estimates.sort_unstable_by(|a, b| a.total_cmp(b));
    let armed_wall = reference_wall * estimates[estimates.len() / 2];
    let events = device_ticks(&scenario);
    let cell = |name: &str, wall_ms: f64| PerfCell {
        name: name.to_owned(),
        wall_ms,
        events,
        events_per_sec: events as f64 / (wall_ms / 1e3).max(1e-9),
        peak_queue_depth: peak,
        rss_mb: None,
    };
    (cell(names.0, reference_wall), cell(names.1, armed_wall))
}

/// Times the mid-size study scenario twice per round — telemetry absent
/// vs a present-but-disabled [`senseaid_telemetry::NoopSink`] — so the
/// pair prices exactly the cost of carrying a sink that never records.
fn telemetry_overhead_cells(seed: u64, quick: bool) -> (PerfCell, PerfCell) {
    paired_overhead_cells(
        ("telemetry_overhead_reference", "telemetry_overhead"),
        seed,
        quick,
        |slot| HarnessOptions {
            telemetry: if slot == 0 {
                Telemetry::off()
            } else {
                Telemetry::noop()
            },
            ..HarnessOptions::default()
        },
    )
}

/// Times the mid-size study scenario twice per round — leases disabled vs
/// a lease parked far past the horizon, so every radio contact pays the
/// renewal bookkeeping (lease map, earliest-expiry cache, the extra
/// wakeup term) but no device is ever evicted and the two runs stay
/// behaviourally identical.
fn lease_sweep_overhead_cells(seed: u64, quick: bool) -> (PerfCell, PerfCell) {
    paired_overhead_cells(
        ("lease_sweep_overhead_reference", "lease_sweep_overhead"),
        seed,
        quick,
        |slot| HarnessOptions {
            device_lease: (slot == 1).then(|| SimDuration::from_mins(600)),
            ..HarnessOptions::default()
        },
    )
}

/// The million-device hot-state sweep as two cells: aggregate operation
/// throughput across the sweep, and resident memory with the largest
/// population live. Both ride the `--against` gate — the throughput cell
/// on wall-clock, the resident cell on wall-clock *and* memory.
fn ext_million_cells(seed: u64, quick: bool) -> Vec<PerfCell> {
    use crate::experiments::ext_million;
    let sizes = if quick {
        ext_million::QUICK_SIZES
    } else {
        ext_million::FULL_SIZES
    };
    let rows = ext_million::sweep(sizes, seed);
    let wall: f64 = rows.iter().map(|r| r.wall_ms).sum();
    let events: u64 = rows.iter().map(|r| r.events).sum();
    let top = rows.last().expect("sweep has rows");
    vec![
        PerfCell {
            name: "ext_million_sweep".to_owned(),
            wall_ms: wall,
            events,
            events_per_sec: events as f64 / (wall / 1e3).max(1e-9),
            peak_queue_depth: 0,
            rss_mb: None,
        },
        PerfCell {
            name: "ext_million_resident".to_owned(),
            wall_ms: top.wall_ms,
            events: top.events,
            events_per_sec: top.events_per_sec,
            peak_queue_depth: 0,
            rss_mb: Some(top.rss_mb),
        },
    ]
}

/// The two-phase poll pipeline cells (DESIGN.md §14): one poll-heavy
/// million-device drive run twice on the identical workload — once with
/// the serial legacy poll path pinned (`shard_workers = 1`) and once with
/// the pipeline at the pool's default worker count, which is what a
/// deployment on this host gets ([`PerfReport::cpus`] says how many).
///
/// `poll_phase_split_reference` / `poll_phase_split` time just the `poll`
/// calls, which is the slice the pipeline restructures. The two drives
/// must produce byte-identical outcomes — asserted here, so every perf
/// run re-proves the worker-count invariance at full scale.
fn poll_pipeline_cells(seed: u64, quick: bool) -> Vec<PerfCell> {
    use crate::experiments::ext_million;
    let devices = if quick { 20_000 } else { 1_000_000 };
    let tasks = if quick { 96 } else { 192 };
    let (serial_outcome, serial_poll_ms) =
        ext_million::drive_instrumented(devices, 8, ext_million::soa_index, seed, tasks, Some(1));
    let (piped_outcome, piped_poll_ms) =
        ext_million::drive_instrumented(devices, 8, ext_million::soa_index, seed, tasks, None);
    assert_eq!(
        serial_outcome, piped_outcome,
        "poll worker count must never change the drive outcome"
    );
    let cell = |name: &str, wall_ms: f64, events: u64| PerfCell {
        name: name.to_owned(),
        wall_ms,
        events,
        events_per_sec: events as f64 / (wall_ms / 1e3).max(1e-9),
        peak_queue_depth: 0,
        rss_mb: None,
    };
    vec![
        cell(
            "poll_phase_split_reference",
            serial_poll_ms,
            serial_outcome.assignments,
        ),
        cell("poll_phase_split", piped_poll_ms, piped_outcome.assignments),
    ]
}

/// The request→shard fan-out micro cell: a batch of qualification probes
/// answered through the allocation-free target-shard bitset. Wall-clock
/// rides the `--against` gate; the zero-allocation property itself is
/// proven by the counting-allocator test in `crates/core/tests`.
fn fanout_cell(seed: u64, quick: bool) -> PerfCell {
    use crate::experiments::ext_million;
    let (devices, iterations) = if quick { (5_000, 64) } else { (20_000, 256) };
    let (wall_ms, probes, _checksum) = ext_million::fanout_probe_run(devices, iterations, seed);
    PerfCell {
        name: "fanout_qualified_count".to_owned(),
        wall_ms,
        events: probes,
        events_per_sec: probes as f64 / (wall_ms / 1e3).max(1e-9),
        peak_queue_depth: 0,
        rss_mb: None,
    }
}

/// Durable-persistence cells: steady-state snapshot cost and
/// crash-to-recovered wall-clock at population scale. One server is
/// driven through churn rounds with a delta snapshot after each
/// (`snapshot_persist`), then crashed and recovered from the surviving
/// storage (`recovery_time`). Both cells ride the `--against` wall-clock
/// gate.
fn durability_cells(seed: u64, quick: bool) -> Vec<PerfCell> {
    use senseaid_core::{MemStorage, PersistConfig, SenseAidConfig, SenseAidServer};
    use senseaid_sim::SimTime;

    let devices: u64 = if quick { 20_000 } else { 100_000 };
    let rounds: u64 = 8;
    let config = PersistConfig { full_every: 8 };
    let mut server = SenseAidServer::new(SenseAidConfig::default());
    let t0 = SimTime::ZERO;
    for imei in 1..=devices {
        server
            .register_device(
                senseaid_device::ImeiHash(imei),
                495.0,
                15.0,
                60.0,
                vec![senseaid_device::Sensor::Barometer],
                "GalaxyS4".to_owned(),
                t0,
            )
            .expect("server is up");
    }
    server
        .enable_persistence(Box::new(MemStorage::new()), config, t0)
        .expect("memory storage never fails");

    // Steady state: 1% of the population reports between snapshots.
    let churn = devices / 100;
    let mut now = t0;
    let start = Instant::now();
    for round in 1..=rounds {
        now += SimDuration::from_mins(5);
        for k in 0..churn {
            let imei = 1 + (seed ^ (round.wrapping_mul(7919) + k.wrapping_mul(104_729))) % devices;
            let _ = server.update_device_state(senseaid_device::ImeiHash(imei), 55.0, 1.0, now);
        }
        server.take_snapshot(now);
    }
    let persist_wall = start.elapsed();
    let persist_events = rounds * (churn + 1);

    server.crash();
    let storage = server.detach_persistence().expect("persistence was on");
    let mut recovered = SenseAidServer::new(SenseAidConfig::default());
    let start = Instant::now();
    recovered
        .recover_from_storage(storage, config, now)
        .expect("memory storage never fails");
    let recovery_wall = start.elapsed();
    assert_eq!(recovered.device_count() as u64, devices);

    let cell = |name: &str, wall: std::time::Duration, events: u64| PerfCell {
        name: name.to_owned(),
        wall_ms: wall.as_secs_f64() * 1e3,
        events,
        events_per_sec: events as f64 / wall.as_secs_f64().max(1e-9),
        peak_queue_depth: 0,
        rss_mb: None,
    };
    vec![
        cell("snapshot_persist", persist_wall, persist_events),
        cell("recovery_time", recovery_wall, devices),
    ]
}

/// The session-path cell (DESIGN.md §16): `live_reconnect_p99` — a
/// loadgen bout that force-drops its socket every few requests, so the
/// p99 honestly prices a redial + session resume, not just a warm round
/// trip.
fn reconnect_cell(seed: u64, quick: bool) -> PerfCell {
    use senseaid_serve::{run_loadgen, serve, LoadgenOptions, ServeOptions};

    // A p99 over one small bout is a single order statistic riding OS
    // scheduling noise; the best-of-three bouts is the stable estimate
    // of what a redial + resume actually costs.
    let mut best_p99 = f64::INFINITY;
    let mut requests = 0u64;
    let mut rps = 0.0f64;
    for bout in 0..3 {
        let handle = serve(ServeOptions {
            addr: "127.0.0.1:0".to_owned(),
            shards: 2,
            workers: 2,
            persist_dir: None,
            duration: Some(std::time::Duration::from_secs(120)),
            ..ServeOptions::default()
        })
        .expect("bind loopback reconnect server");
        let report = run_loadgen(&LoadgenOptions {
            addr: handle.addr().to_string(),
            // Enough requests that the p99 rank clears the cold-start
            // prefix (at a few hundred the 1% tail IS the warmup).
            connections: 2,
            requests: if quick { 600 } else { 1_000 },
            duration: Some(std::time::Duration::from_secs(60)),
            seed: seed ^ bout,
            submit_task: true,
            stop_server: true,
            drop_every: Some(25),
        })
        .expect("loadgen reaches the reconnect server");
        handle.join();
        assert!(
            report.fatal.is_none() && report.reconnects > 0,
            "reconnect bout did not exercise resume: {report:?}"
        );
        if report.hist.quantile_ms(0.99) < best_p99 {
            best_p99 = report.hist.quantile_ms(0.99);
            requests = report.requests;
            rps = report.rps();
        }
    }
    PerfCell {
        name: "live_reconnect_p99".to_owned(),
        wall_ms: best_p99,
        events: requests,
        events_per_sec: rps,
        peak_queue_depth: 0,
        rss_mb: None,
    }
}

/// Every cell name a run can emit, in emission order. This is the
/// vocabulary `--filter` validates against.
pub fn cell_names() -> Vec<&'static str> {
    CELL_GROUPS.iter().flat_map(|g| g.iter().copied()).collect()
}

/// Cells that are measured together: a filter naming any member runs the
/// whole group (overhead pairs are meaningless alone, and the two
/// ext_million cells come from one sweep).
const CELL_GROUPS: &[&[&str]] = &[
    &["senseaid_complete_20dev"],
    &["senseaid_complete_200dev"],
    &["pcs_100dev"],
    &["periodic_100dev"],
    &["ext_scalability_sweep"],
    &["ext_scalability_sweep_reference"],
    &["ext_million_sweep", "ext_million_resident"],
    &["poll_phase_split_reference", "poll_phase_split"],
    &["fanout_qualified_count"],
    &["telemetry_overhead_reference", "telemetry_overhead"],
    &["lease_sweep_overhead_reference", "lease_sweep_overhead"],
    &["snapshot_persist", "recovery_time"],
    &["live_reconnect_p99"],
];

/// Levenshtein distance, for typo suggestions in the `--filter` error.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut row = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let subst = prev[j] + usize::from(ca != cb);
            row[j + 1] = subst.min(prev[j + 1] + 1).min(row[j] + 1);
        }
        std::mem::swap(&mut prev, &mut row);
    }
    prev[b.len()]
}

/// The known cell closest to `wanted`, when it is close enough to look
/// like a typo rather than an unrelated word (distance ≤ ⅓ of the name).
fn nearest_cell(wanted: &str) -> Option<&'static str> {
    cell_names()
        .into_iter()
        .map(|name| (edit_distance(wanted, name), name))
        .min()
        .filter(|(d, name)| *d * 3 <= name.chars().count().max(wanted.chars().count()))
        .map(|(_, name)| name)
}

/// Runs the full cell set.
pub fn run_perf(options: &PerfOptions) -> PerfReport {
    run_perf_filtered(options, None).expect("no filter, no unknown cell")
}

/// Runs the cell set, optionally restricted to the group containing the
/// named cell.
///
/// # Errors
///
/// Returns the unknown name plus the known vocabulary when `filter` does
/// not match any cell, so callers can reject typos by name.
pub fn run_perf_filtered(
    options: &PerfOptions,
    filter: Option<&str>,
) -> Result<PerfReport, String> {
    let q = options.quick;
    let seed = options.seed;
    if let Some(wanted) = filter {
        if !CELL_GROUPS.iter().any(|g| g.contains(&wanted)) {
            let suggestion = nearest_cell(wanted)
                .map(|name| format!(" (did you mean '{name}'?)"))
                .unwrap_or_default();
            return Err(format!(
                "unknown perf cell '{wanted}'{suggestion}; known cells: {}",
                cell_names().join(", ")
            ));
        }
    }
    let selected = |group: &[&str]| filter.is_none_or(|wanted| group.contains(&wanted));
    let sweep_sizes: &[usize] = if q { &[20, 50] } else { &[20, 50, 100, 200] };
    let mut cells = Vec::new();
    if selected(CELL_GROUPS[0]) {
        cells.push(timed_cell(
            "senseaid_complete_20dev",
            FrameworkKind::SenseAidComplete,
            study_scenario(20, q),
            seed,
        ));
    }
    if selected(CELL_GROUPS[1]) {
        cells.push(timed_cell(
            "senseaid_complete_200dev",
            FrameworkKind::SenseAidComplete,
            study_scenario(if q { 100 } else { 200 }, q),
            seed,
        ));
    }
    if selected(CELL_GROUPS[2]) {
        cells.push(timed_cell(
            "pcs_100dev",
            FrameworkKind::pcs_default(),
            study_scenario(if q { 50 } else { 100 }, q),
            seed,
        ));
    }
    if selected(CELL_GROUPS[3]) {
        cells.push(timed_cell(
            "periodic_100dev",
            FrameworkKind::Periodic,
            study_scenario(if q { 50 } else { 100 }, q),
            seed,
        ));
    }
    if selected(CELL_GROUPS[4]) {
        cells.push(sweep_cell(
            "ext_scalability_sweep",
            sweep_sizes,
            seed,
            false,
        ));
    }
    if selected(CELL_GROUPS[5]) {
        cells.push(sweep_cell(
            "ext_scalability_sweep_reference",
            sweep_sizes,
            seed,
            true,
        ));
    }
    if selected(CELL_GROUPS[6]) {
        cells.extend(ext_million_cells(seed, q));
    }
    if selected(CELL_GROUPS[7]) {
        cells.extend(poll_pipeline_cells(seed, q));
    }
    if selected(CELL_GROUPS[8]) {
        cells.push(fanout_cell(seed, q));
    }
    if selected(CELL_GROUPS[9]) {
        let (reference, noop) = telemetry_overhead_cells(seed, q);
        cells.extend([reference, noop]);
    }
    if selected(CELL_GROUPS[10]) {
        let (reference, armed) = lease_sweep_overhead_cells(seed, q);
        cells.extend([reference, armed]);
    }
    if selected(CELL_GROUPS[11]) {
        cells.extend(durability_cells(seed, q));
    }
    if selected(CELL_GROUPS[12]) {
        cells.push(reconnect_cell(seed, q));
    }
    Ok(PerfReport {
        seed,
        quick: q,
        cpus: std::thread::available_parallelism()
            .ok()
            .map(|n| n.get() as u64),
        cells,
    })
}

impl PerfReport {
    /// Renders the report as the `BENCH_perf.json` payload.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"senseaid-perf-v1\",\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        if let Some(cpus) = self.cpus {
            out.push_str(&format!("  \"cpus\": {cpus},\n"));
        }
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let rss = c
                .rss_mb
                .map(|mb| format!(", \"rss_mb\": {mb:.1}"))
                .unwrap_or_default();
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"wall_ms\": {:.3}, \"events\": {}, \
                 \"events_per_sec\": {:.1}, \"peak_queue_depth\": {}{}}}{}\n",
                c.name,
                c.wall_ms,
                c.events,
                c.events_per_sec,
                c.peak_queue_depth,
                rss,
                if i + 1 < self.cells.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a `BENCH_perf.json` produced by [`PerfReport::to_json`].
    ///
    /// This is a shape-specific parser, not a general JSON one: it reads
    /// exactly the flat structure `to_json` emits. Returns `None` when a
    /// required field is missing or malformed.
    pub fn parse_json(text: &str) -> Option<PerfReport> {
        let seed = field_u64(text, "seed")?;
        let quick = text.contains("\"quick\": true");
        let mut cells = Vec::new();
        // Each cell object sits on its own line and names come first.
        for obj in text.split('{').skip(2) {
            let name = field_str(obj, "name")?;
            cells.push(PerfCell {
                name,
                wall_ms: field_f64(obj, "wall_ms")?,
                events: field_u64(obj, "events")?,
                events_per_sec: field_f64(obj, "events_per_sec")?,
                peak_queue_depth: field_u64(obj, "peak_queue_depth")?,
                rss_mb: field_f64(obj, "rss_mb"),
            });
        }
        if cells.is_empty() {
            return None;
        }
        Some(PerfReport {
            seed,
            quick,
            cpus: field_u64(text, "cpus"),
            cells,
        })
    }

    /// The named cell, if present.
    pub fn cell(&self, name: &str) -> Option<&PerfCell> {
        self.cells.iter().find(|c| c.name == name)
    }

    /// The wall-clock cost of carrying a disabled telemetry sink, as a
    /// percentage over the no-telemetry reference. Negative values mean
    /// the difference vanished into measurement noise. `None` when either
    /// overhead cell is missing (e.g. an old baseline file).
    pub fn telemetry_overhead_pct(&self) -> Option<f64> {
        let with_sink = self.cell("telemetry_overhead")?;
        let without = self.cell("telemetry_overhead_reference")?;
        Some((with_sink.wall_ms - without.wall_ms) / without.wall_ms.max(1e-9) * 100.0)
    }

    /// The wall-clock cost of armed-but-never-firing device leases, as a
    /// percentage over the lease-free reference. Negative values mean the
    /// difference vanished into measurement noise. `None` when either
    /// cell is missing (e.g. an old baseline file).
    pub fn lease_sweep_overhead_pct(&self) -> Option<f64> {
        let with_lease = self.cell("lease_sweep_overhead")?;
        let without = self.cell("lease_sweep_overhead_reference")?;
        Some((with_lease.wall_ms - without.wall_ms) / without.wall_ms.max(1e-9) * 100.0)
    }

    /// Checks this run against a baseline: every cell present in both
    /// must finish within `factor`× the baseline's wall-clock, and cells
    /// carrying a resident-memory sample must stay within `factor`× the
    /// baseline's sample too (skipped when either side lacks one, e.g. an
    /// old baseline or a non-Linux host reporting zero). Returns the
    /// offending descriptions, empty when the run is clean.
    pub fn regressions_against(&self, baseline: &PerfReport, factor: f64) -> Vec<String> {
        let mut failures = Vec::new();
        for cell in &self.cells {
            let Some(base) = baseline.cell(&cell.name) else {
                continue;
            };
            if cell.wall_ms > base.wall_ms * factor {
                failures.push(format!(
                    "{}: {:.1} ms vs baseline {:.1} ms (> {factor:.1}x)",
                    cell.name, cell.wall_ms, base.wall_ms
                ));
            }
            if let (Some(rss), Some(base_rss)) = (cell.rss_mb, base.rss_mb) {
                if rss > 0.0 && base_rss > 0.0 && rss > base_rss * factor {
                    failures.push(format!(
                        "{}: {rss:.1} MiB resident vs baseline {base_rss:.1} MiB (> {factor:.1}x)",
                        cell.name
                    ));
                }
            }
        }
        failures
    }

    /// Human-readable table for the CLI.
    pub fn render(&self) -> String {
        let mut out = String::from("=== Perf: representative cells ===\n");
        out.push_str(&format!(
            "{:<34} {:>10} {:>12} {:>14} {:>10}\n",
            "cell", "wall ms", "events", "events/sec", "peak q"
        ));
        for c in &self.cells {
            let rss = c
                .rss_mb
                .map(|mb| format!("  rss {mb:.1} MiB"))
                .unwrap_or_default();
            out.push_str(&format!(
                "{:<34} {:>10.1} {:>12} {:>14.0} {:>10}{}\n",
                c.name, c.wall_ms, c.events, c.events_per_sec, c.peak_queue_depth, rss
            ));
        }
        if let (Some(opt), Some(reference)) = (
            self.cell("ext_scalability_sweep"),
            self.cell("ext_scalability_sweep_reference"),
        ) {
            out.push_str(&format!(
                "\next_scalability speedup (reference loops / optimised): {:.2}x\n",
                reference.wall_ms / opt.wall_ms.max(1e-9)
            ));
        }
        if let (Some(serial), Some(piped)) = (
            self.cell("poll_phase_split_reference"),
            self.cell("poll_phase_split"),
        ) {
            let cpus = self.cpus.map_or("?".to_owned(), |n| n.to_string());
            out.push_str(&format!(
                "poll pipeline speedup (serial poll path / pipeline at the pool default, {cpus} cpus): {:.2}x\n",
                serial.wall_ms / piped.wall_ms.max(1e-9)
            ));
        }
        if let Some(pct) = self.telemetry_overhead_pct() {
            out.push_str(&format!(
                "telemetry disabled-sink overhead vs no telemetry: {pct:+.2}%\n"
            ));
        }
        if let Some(pct) = self.lease_sweep_overhead_pct() {
            out.push_str(&format!(
                "device-lease bookkeeping overhead vs no leases: {pct:+.2}%\n"
            ));
        }
        out
    }
}

fn field_str(text: &str, key: &str) -> Option<String> {
    let pattern = format!("\"{key}\": \"");
    let start = text.find(&pattern)? + pattern.len();
    let end = text[start..].find('"')? + start;
    Some(text[start..end].to_owned())
}

fn field_raw<'t>(text: &'t str, key: &str) -> Option<&'t str> {
    let pattern = format!("\"{key}\": ");
    let start = text.find(&pattern)? + pattern.len();
    let end = text[start..]
        .find([',', '}', '\n'])
        .map(|i| i + start)
        .unwrap_or(text.len());
    Some(text[start..end].trim())
}

fn field_u64(text: &str, key: &str) -> Option<u64> {
    field_raw(text, key)?.parse().ok()
}

fn field_f64(text: &str, key: &str) -> Option<f64> {
    field_raw(text, key)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> PerfReport {
        PerfReport {
            seed: 7,
            quick: true,
            cpus: Some(2),
            cells: vec![
                PerfCell {
                    name: "a".to_owned(),
                    wall_ms: 10.0,
                    events: 1000,
                    events_per_sec: 100_000.0,
                    peak_queue_depth: 3,
                    rss_mb: None,
                },
                PerfCell {
                    name: "b".to_owned(),
                    wall_ms: 20.0,
                    events: 2000,
                    events_per_sec: 100_000.0,
                    peak_queue_depth: 0,
                    rss_mb: Some(512.0),
                },
            ],
        }
    }

    #[test]
    fn json_round_trips() {
        let mut report = sample_report();
        let parsed = PerfReport::parse_json(&report.to_json()).expect("parses");
        assert_eq!(parsed, report);
        // A baseline written before `cpus` existed still parses.
        report.cpus = None;
        let parsed = PerfReport::parse_json(&report.to_json()).expect("parses");
        assert_eq!(parsed, report);
    }

    #[test]
    fn regression_gate_flags_slow_cells() {
        let baseline = sample_report();
        let mut current = sample_report();
        assert!(current.regressions_against(&baseline, 2.0).is_empty());
        current.cells[1].wall_ms = 45.0; // > 2× the baseline's 20 ms
        let failures = current.regressions_against(&baseline, 2.0);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].starts_with("b:"), "{failures:?}");
        // Cells missing from the baseline never fail the gate.
        current.cells[1].name = "brand_new".to_owned();
        assert!(current.regressions_against(&baseline, 2.0).is_empty());
    }

    #[test]
    fn regression_gate_covers_resident_memory() {
        let baseline = sample_report();
        let mut current = sample_report();
        current.cells[1].rss_mb = Some(2000.0); // > 2× the baseline's 512
        let failures = current.regressions_against(&baseline, 2.0);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("MiB resident"), "{failures:?}");
        // A side without a sample (old baseline, non-Linux zero) is skipped.
        current.cells[1].rss_mb = None;
        assert!(current.regressions_against(&baseline, 2.0).is_empty());
        current.cells[1].rss_mb = Some(2000.0);
        let mut no_base = baseline.clone();
        no_base.cells[1].rss_mb = Some(0.0);
        assert!(current.regressions_against(&no_base, 2.0).is_empty());
    }

    #[test]
    fn filter_rejects_unknown_cells_by_name() {
        let options = PerfOptions {
            seed: 11,
            quick: true,
        };
        let err = run_perf_filtered(&options, Some("no_such_cell")).unwrap_err();
        assert!(err.contains("no_such_cell"), "{err}");
        assert!(err.contains("ext_million_sweep"), "{err}");
        for name in cell_names() {
            assert!(
                CELL_GROUPS.iter().any(|g| g.contains(&name)),
                "{name} must be filterable"
            );
        }
    }

    #[test]
    fn filter_error_suggests_the_nearest_cell_for_typos() {
        let options = PerfOptions {
            seed: 11,
            quick: true,
        };
        let err = run_perf_filtered(&options, Some("pcs_100dve")).unwrap_err();
        assert!(err.contains("did you mean 'pcs_100dev'?"), "{err}");
        let err = run_perf_filtered(&options, Some("recovery_tim")).unwrap_err();
        assert!(err.contains("did you mean 'recovery_time'?"), "{err}");
        // An unrelated word gets the vocabulary but no bogus suggestion.
        let err = run_perf_filtered(&options, Some("zzzzzzzzzz")).unwrap_err();
        assert!(!err.contains("did you mean"), "{err}");
    }

    #[test]
    fn edit_distance_is_a_metric_on_examples() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("pcs_100dev", "pcs_100dev"), 0);
        assert_eq!(edit_distance("pcs_100dve", "pcs_100dev"), 2); // transposition = 2 edits
        assert_eq!(edit_distance("abc", ""), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }

    #[test]
    fn filter_runs_exactly_the_named_group() {
        let options = PerfOptions {
            seed: 11,
            quick: true,
        };
        let report =
            run_perf_filtered(&options, Some("senseaid_complete_20dev")).expect("known cell");
        assert_eq!(report.cells.len(), 1);
        assert_eq!(report.cells[0].name, "senseaid_complete_20dev");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(PerfReport::parse_json("").is_none());
        assert!(PerfReport::parse_json("{\"seed\": 3}").is_none());
    }

    #[test]
    fn device_tick_accounting() {
        let s = study_scenario(10, true);
        // 20 min study + 5 min period + 2 s + the inclusive tick 0.
        assert_eq!(device_ticks(&s), (20 * 60 + 5 * 60 + 2 + 1) * 10);
    }

    /// The full harness on a tiny quick run: every declared cell present,
    /// in the declared vocabulary order, with sane numbers, and the JSON
    /// survives a round trip — including the optional memory sample.
    #[test]
    fn quick_run_produces_all_cells() {
        let report = run_perf(&PerfOptions {
            seed: 11,
            quick: true,
        });
        assert_eq!(report.cells.len(), cell_names().len());
        let names: Vec<&str> = report.cells.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, cell_names());
        for c in &report.cells {
            assert!(c.events > 0, "{}", c.name);
            assert!(c.events_per_sec > 0.0, "{}", c.name);
        }
        assert!(
            report.telemetry_overhead_pct().is_some(),
            "overhead cells must both be present"
        );
        assert!(
            report.lease_sweep_overhead_pct().is_some(),
            "lease overhead cells must both be present"
        );
        assert!(report.cpus.is_some(), "a run records its host's cpus");
        assert!(
            report
                .cell("ext_million_resident")
                .unwrap()
                .rss_mb
                .is_some(),
            "the resident cell must carry a memory sample"
        );
        let parsed = PerfReport::parse_json(&report.to_json()).expect("round trip");
        assert_eq!(parsed.cells.len(), cell_names().len());
        assert_eq!(parsed.cpus, report.cpus);
        assert!(parsed.telemetry_overhead_pct().is_some());
        assert!(parsed.lease_sweep_overhead_pct().is_some());
        assert_eq!(
            parsed
                .cell("ext_million_resident")
                .unwrap()
                .rss_mb
                .is_some(),
            report
                .cell("ext_million_resident")
                .unwrap()
                .rss_mb
                .is_some()
        );
    }
}
