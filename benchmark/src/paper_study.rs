//! `paper_study`: the reproduction's own product, timed.
//!
//! One *repetition* runs the paper's four frameworks — Periodic, PCS,
//! Sense-Aid Basic, Sense-Aid Complete — through
//! `senseaid_bench::runner::run_scenario` on the user-study scenario
//! (60 minutes, density 3, four concurrent tasks at the CS department,
//! 500 m radius) with 200 simulated participants per group, on a seed
//! derived from the run seed. It is the only workload dominated by
//! `bench::runner`, `device`, `radio`, `cellnet` and `baselines`; the
//! serving layers do nothing here.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use senseaid_bench::framework::{FrameworkKind, GroupReport};
use senseaid_bench::runner::{run_scenario, run_scenario_with, HarnessOptions};
use senseaid_geo::NamedLocation;
use senseaid_sim::{SimDuration, SimTime};
use senseaid_workload::ScenarioConfig;

use crate::gen::{derive_seed, fnv, FNV_OFFSET};
use crate::procfs::{self, CpuPlan};
use crate::span::{Span, SpanLog};

/// The size of one run.
#[derive(Debug, Clone, Copy)]
pub struct StudyShape {
    /// Participants per framework group.
    pub group_size: usize,
    /// Repetitions at the 5-minute sampling period.
    pub light_reps: usize,
    /// Repetitions at the 1-minute sampling period (five times the
    /// requests).
    pub mid_reps: usize,
    /// Framework runs fanned out over all cores for the throughput figure.
    pub sat_cells: usize,
    /// Failover repetitions (server crash and recovery mid-study).
    pub failover_reps: usize,
    /// Warm-up repetitions timed as set-up.
    pub setups: usize,
}

impl StudyShape {
    /// The shape measuring for about `seconds` at `scale`.
    pub fn new(seconds: f64, scale: f64) -> Self {
        StudyShape {
            group_size: ((200.0 * scale) as usize).max(20),
            light_reps: ((12.0 * seconds) as usize).max(24),
            mid_reps: ((4.0 * seconds) as usize).max(24),
            sat_cells: ((12.0 * seconds) as usize).max(16),
            failover_reps: ((4.0 * seconds) as usize).max(8),
            setups: 3,
        }
    }
}

/// The user-study scenario at the given sampling period.
pub fn scenario(group_size: usize, period_mins: u64) -> ScenarioConfig {
    ScenarioConfig {
        test_duration: SimDuration::from_mins(60),
        sampling_period: SimDuration::from_mins(period_mins),
        spatial_density: 3,
        area_radius_m: 500.0,
        tasks: 4,
        location: NamedLocation::CsDepartment,
        group_size,
    }
}

/// The fields of a report that the paper's figures are drawn from, folded
/// into one number: two runs on the same seed must agree on it exactly.
fn report_digest(r: &GroupReport) -> u64 {
    let mut h = FNV_OFFSET;
    let mut fold = |v: u64| h = fnv(h, v);
    fold(r.total_cs_j().to_bits());
    fold(r.uploads);
    fold(r.cold_uploads);
    fold(r.readings_delivered);
    fold(r.rounds_fulfilled);
    fold(r.rounds_missed);
    for (id, j) in &r.per_device_cs_j {
        fold(u64::from(*id));
        fold(j.to_bits());
    }
    h
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct StudyRun {
    /// Warm-up repetition walls, seconds.
    pub setup_s: Vec<f64>,
    /// Light repetition walls, ms.
    pub light_ms: Vec<f64>,
    /// Mid repetition walls, ms.
    pub mid_ms: Vec<f64>,
    /// Framework runs per second with every core busy.
    pub sat_runs_per_s: f64,
    /// Failover repetition walls (Sense-Aid Complete with a ten-minute
    /// server outage), ms.
    pub failover_ms: Vec<f64>,
    /// `VmRSS` after the light repetitions, MiB.
    pub rss_mb: f64,
    /// Framework runs executed in the measured phases.
    pub runs: u64,
    /// Device-seconds simulated per wall second over the light repetitions.
    pub device_ticks_per_s: f64,
    /// Per-framework walls over the light repetitions, ms, in
    /// [`FrameworkKind::study_set`] order.
    pub per_framework_ms: [Vec<f64>; 4],
    /// Why the run is not correct, if it is not.
    pub problems: Vec<String>,
}

/// One repetition: the four frameworks in turn. Returns its wall in ms and
/// checks what the reports must satisfy.
fn repetition(
    scenario: ScenarioConfig,
    seed: u64,
    rep: u32,
    run: &mut StudyRun,
    per_framework: bool,
    mut trace: Option<&mut SpanLog>,
) -> f64 {
    let started = Instant::now();
    let mut reports = Vec::with_capacity(4);
    for (i, kind) in FrameworkKind::study_set().into_iter().enumerate() {
        let t0 = Instant::now();
        let start_ns = trace.as_deref().map_or(0, SpanLog::now);
        reports.push(run_scenario(kind, scenario, seed));
        if per_framework {
            run.per_framework_ms[i].push(t0.elapsed().as_secs_f64() * 1e3);
        }
        if let Some(log) = trace.as_deref_mut() {
            let end_ns = log.now();
            log.push(Span {
                name: [
                    "runner.periodic",
                    "runner.pcs",
                    "runner.sa_basic",
                    "runner.sa_complete",
                ][i],
                start_ns,
                end_ns,
                parent: 0,
                req: rep,
                calls: 1,
            });
        }
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    run.runs += 4;
    check_reports(&reports, seed, &mut run.problems);
    wall_ms
}

/// Outputs are correct when every framework sensed and delivered, and the
/// paper's headline ordering holds: Sense-Aid spends no more crowdsensing
/// energy per device than periodic sensing does.
fn check_reports(reports: &[GroupReport], seed: u64, problems: &mut Vec<String>) {
    for r in reports {
        if r.readings_delivered == 0 || r.uploads == 0 || !r.total_cs_j().is_finite() {
            problems.push(format!(
                "seed {seed}: {} delivered {} readings in {} uploads",
                r.framework, r.readings_delivered, r.uploads
            ));
        }
    }
    let (periodic, complete) = (&reports[0], &reports[3]);
    if complete.avg_cs_j() > periodic.avg_cs_j() {
        problems.push(format!(
            "seed {seed}: Sense-Aid Complete spent {:.2} J/device, Periodic {:.2} J/device",
            complete.avg_cs_j(),
            periodic.avg_cs_j()
        ));
    }
}

/// Runs `cells` on one pinned worker thread per allowed CPU, each claiming
/// the next cell when it finishes one. Returns the wall time from the
/// moment every worker is in place, and the readings each run delivered.
fn saturate(cells: &[(FrameworkKind, u64)], scenario: ScenarioConfig) -> (f64, Vec<u64>) {
    let cpus = CpuPlan::detect();
    let next = AtomicUsize::new(0);
    let go = OnceLock::new();
    let delivered = Mutex::new(vec![0u64; cells.len()]);
    let wall = std::thread::scope(|scope| {
        let workers: Vec<_> = cpus
            .cpus()
            .iter()
            .map(|cpu| {
                // A new thread inherits its creator's affinity.
                cpus.pin_self(*cpu);
                scope.spawn(|| {
                    while go.get().is_none() {
                        std::thread::yield_now();
                    }
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some((kind, cell_seed)) = cells.get(k) else {
                            return;
                        };
                        let report = run_scenario(*kind, scenario, *cell_seed);
                        delivered.lock().expect("no worker panics holding it")[k] =
                            report.readings_delivered;
                    }
                })
            })
            .collect();
        cpus.release_self();
        let started = *go.get_or_init(Instant::now);
        for w in workers {
            w.join().expect("sweep worker panicked");
        }
        started.elapsed()
    });
    (
        wall.as_secs_f64(),
        delivered.into_inner().expect("workers have finished"),
    )
}

/// The traced pass: one warm-up, then the light repetitions with each
/// framework run a span.
pub fn run_traced(seed: u64, shape: &StudyShape, log: &mut SpanLog) -> StudyRun {
    let mut run = StudyRun::default();
    let light = scenario(shape.group_size, 5);
    let mut warm = StudyRun::default();
    repetition(
        light,
        derive_seed(seed, "study-warmup", 0),
        0,
        &mut warm,
        false,
        None,
    );
    run.problems.append(&mut warm.problems);
    for rep in 0..shape.light_reps {
        let rep_seed = derive_seed(seed, "study-light", rep as u64);
        let ms = repetition(
            light,
            rep_seed,
            rep as u32 + 1,
            &mut run,
            true,
            Some(&mut *log),
        );
        run.light_ms.push(ms);
    }
    let ticks = 4.0 * shape.group_size as f64 * light.test_duration.as_secs_f64();
    let wall_s: f64 = run.light_ms.iter().sum::<f64>() / 1e3;
    run.device_ticks_per_s = ticks * shape.light_reps as f64 / wall_s.max(1e-9);
    run
}

/// Runs the workload end to end, untraced.
pub fn run(seed: u64, shape: &StudyShape) -> StudyRun {
    let mut run = StudyRun::default();
    let light = scenario(shape.group_size, 5);
    let mid = scenario(shape.group_size, 1);

    // --- set-up: a warm-up repetition (page in the code, grow the
    //     allocator) before anything is timed as a result ---
    for s in 0..shape.setups {
        let started = Instant::now();
        let mut scratch = StudyRun::default();
        repetition(
            light,
            derive_seed(seed, "study-warmup", s as u64),
            0,
            &mut scratch,
            false,
            None,
        );
        run.problems.append(&mut scratch.problems);
        run.setup_s.push(started.elapsed().as_secs_f64());
    }

    // --- determinism: the same seed gives the same reports ---
    let probe_seed = derive_seed(seed, "study-determinism", 0);
    let twice = [(); 2].map(|()| {
        report_digest(&run_scenario(
            FrameworkKind::SenseAidComplete,
            light,
            probe_seed,
        ))
    });
    if twice[0] != twice[1] {
        run.problems
            .push("run_scenario is not deterministic for a fixed seed".to_owned());
    }

    // --- light: the study as the paper ran it ---
    for rep in 0..shape.light_reps {
        let rep_seed = derive_seed(seed, "study-light", rep as u64);
        let ms = repetition(light, rep_seed, rep as u32 + 1, &mut run, true, None);
        run.light_ms.push(ms);
    }
    let light_wall_s: f64 = run.light_ms.iter().sum::<f64>() / 1e3;
    let ticks = 4.0 * shape.group_size as f64 * light.test_duration.as_secs_f64();
    run.device_ticks_per_s = ticks * shape.light_reps as f64 / light_wall_s.max(1e-9);
    // Before the all-cores sweep: worker threads bring their own allocator
    // arenas, which is the harness's footprint, not the simulation's.
    run.rss_mb = procfs::rss_mb().unwrap_or(0.0);

    // --- mid: the densest sampling period of the paper's sweep ---
    for rep in 0..shape.mid_reps {
        let rep_seed = derive_seed(seed, "study-mid", rep as u64);
        let ms = repetition(mid, rep_seed, 0, &mut run, false, None);
        run.mid_ms.push(ms);
    }

    // --- saturation: framework runs on every core at once, each worker
    //     pinned to its own (left to itself the kernel keeps both on one
    //     core for seconds at a time; see `procfs::CpuPlan`) ---
    let cells: Vec<(FrameworkKind, u64)> = (0..shape.sat_cells)
        .map(|c| {
            (
                FrameworkKind::study_set()[c % 4],
                derive_seed(seed, "study-sat", (c / 4) as u64),
            )
        })
        .collect();
    let (wall_s, delivered) = saturate(&cells, light);
    run.sat_runs_per_s = cells.len() as f64 / wall_s.max(1e-9);
    run.runs += cells.len() as u64;
    if delivered.contains(&0) {
        run.problems
            .push("a framework run in the all-cores sweep delivered nothing".to_owned());
    }

    // --- restart: the failover study — the Sense-Aid server crashes at
    //     minute 20 and recovers from its snapshot at minute 30 ---
    for rep in 0..shape.failover_reps {
        let options = HarnessOptions {
            server_outage: Some((SimTime::from_mins(20), SimTime::from_mins(30))),
            ..HarnessOptions::default()
        };
        let rep_seed = derive_seed(seed, "study-failover", rep as u64);
        let started = Instant::now();
        let report = run_scenario_with(FrameworkKind::SenseAidComplete, light, rep_seed, options);
        run.failover_ms.push(started.elapsed().as_secs_f64() * 1e3);
        run.runs += 1;
        if report.readings_delivered == 0 {
            run.problems.push(format!(
                "seed {rep_seed}: nothing delivered around the outage"
            ));
        }
    }

    run
}
