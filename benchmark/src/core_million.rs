//! `core_million`: the control plane at a million devices, no sockets.
//!
//! Direct `SenseAidServer` calls under `SimTime` — the default
//! struct-of-arrays store, 8 shards, the default poll worker count — over
//! a constant-density city (10 k devices ≈ a 2 km campus, so a million
//! cover ≈ 20 km): every device registers and is observed, 192 periodic
//! tasks are submitted, then one-minute rounds of state churn, `poll` and
//! immediate deliveries; finally the state is snapshotted to memory and a
//! fresh server recovers from it. The serving layers do nothing here, so
//! a serving-path change must leave every number flat.
//!
//! The drive is a deterministic function of the seed: the assignment
//! stream and the end state fold into a digest that must repeat exactly.

use std::time::Instant;

use senseaid_cellnet::{CellId, CellularNetwork};
use senseaid_core::store::device_store::new_record;
use senseaid_core::{
    CandidateRow, DeviceIndex, DeviceSelector, HardCutoffs, MemStorage, PersistConfig,
    QualificationProbe, SelectorWeights, SenseAidConfig, SenseAidServer, SoaDeviceStore, TaskSpec,
};
use senseaid_device::{ImeiHash, Sensor, SensorReading};
use senseaid_geo::{CircleRegion, GeoPoint, GridIndex, TowerSite};
use senseaid_sim::{SimDuration, SimTime};

use crate::gen::{campus_centre, fnv, FNV_OFFSET};
use crate::procfs::{self, CpuPlan};
use crate::span::{Span, SpanLog};

/// Periodic tasks live during the rounds.
const TASK_PERIOD_MINS: u64 = 5;
/// Share of the population that reports new state each light round.
const LIGHT_CHURN_DIV: usize = 128;
/// Mid rounds churn this many times more.
const MID_CHURN_FACTOR: usize = 8;
/// Control-plane shards.
const SHARDS: usize = 8;
/// Tower-grid pitch; its half-diagonal sits inside the 1 km coverage
/// radius so every point has a serving cell.
const PITCH_M: f64 = 1_400.0;

/// The size of one run.
#[derive(Debug, Clone, Copy)]
pub struct CoreShape {
    /// Registered population.
    pub devices: usize,
    /// Periodic tasks.
    pub tasks: usize,
    /// Rounds at the light churn rate.
    pub light_rounds: usize,
    /// Rounds at the mid churn rate.
    pub mid_rounds: usize,
    /// Times the population is loaded from scratch (set-up is the median).
    pub loads: usize,
}

impl CoreShape {
    /// The shape measuring for about `seconds` at `scale`. Rounds are a
    /// fixed function of the arguments, so the digest repeats.
    pub fn new(seconds: f64, scale: f64) -> Self {
        CoreShape {
            devices: ((1_000_000.0 * scale) as usize).max(2_000),
            tasks: 192,
            light_rounds: ((20.0 * seconds) as usize).max(24),
            mid_rounds: ((4.0 * seconds) as usize).max(24),
            loads: 3,
        }
    }
}

/// splitmix64 finaliser: placement is a pure function of (seed, index).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Uniform offset in `[-half, half)` metres from lane `lane` of `x`.
fn offset(x: u64, lane: u64, half: f64) -> f64 {
    let u = mix(x ^ lane.wrapping_mul(0xa076_1d64_78bd_642f)) >> 11;
    (u as f64 / (1u64 << 53) as f64) * 2.0 * half - half
}

/// Side of the population square, metres, at constant density.
fn span_m(devices: usize) -> f64 {
    2_000.0 * (devices as f64 / 10_000.0).sqrt().max(1.0)
}

fn towers_per_side(span: f64) -> usize {
    (span / PITCH_M).ceil() as usize + 1
}

fn grid_network(span: f64) -> CellularNetwork {
    let per_side = towers_per_side(span);
    let origin = -span / 2.0;
    let mut sites = Vec::with_capacity(per_side * per_side);
    for row in 0..per_side {
        for col in 0..per_side {
            sites.push(TowerSite {
                index: row * per_side + col,
                position: campus_centre()
                    .offset_by_meters(origin + row as f64 * PITCH_M, origin + col as f64 * PITCH_M),
                coverage_m: 1_000.0,
            });
        }
    }
    CellularNetwork::new(sites)
}

/// Nearest grid tower, arithmetically (the network's own lookup scans
/// every tower, which at this scale would be the whole measurement).
fn cell_at(north: f64, east: f64, span: f64) -> CellId {
    let per_side = towers_per_side(span);
    let origin = -span / 2.0;
    let snap = |v: f64| (((v - origin) / PITCH_M).round().max(0.0) as usize).min(per_side - 1);
    CellId(snap(north) * per_side + snap(east))
}

fn fresh_server(devices: usize) -> SenseAidServer {
    let mut server = SenseAidServer::new(SenseAidConfig {
        shard_count: SHARDS,
        ..SenseAidConfig::default()
    });
    server.set_topology(grid_network(span_m(devices)));
    server
}

/// Where device `i` sits and how charged it is.
fn placement(seed: u64, i: u64, span: f64) -> (GeoPoint, CellId, f64) {
    let half = span / 2.0;
    let (north, east) = (offset(seed ^ i, 1, half), offset(seed ^ i, 2, half));
    (
        campus_centre().offset_by_meters(north, east),
        cell_at(north, east, span),
        40.0 + (mix(seed ^ i) % 61) as f64,
    )
}

/// Accumulates the time of many short calls into one span per chunk, so a
/// million registrations are a few hundred spans, not a million.
struct ChunkTimer {
    name: &'static str,
    ns: u64,
    calls: u32,
}

impl ChunkTimer {
    const CHUNK: u32 = 4_096;

    fn new(name: &'static str) -> Self {
        ChunkTimer {
            name,
            ns: 0,
            calls: 0,
        }
    }

    fn add(&mut self, log: &mut SpanLog, ns: u64, req: u32) {
        self.ns += ns;
        self.calls += 1;
        if self.calls == Self::CHUNK {
            self.flush(log, req);
        }
    }

    fn flush(&mut self, log: &mut SpanLog, req: u32) {
        if self.calls == 0 {
            return;
        }
        let end_ns = log.now();
        log.push(Span {
            name: self.name,
            start_ns: end_ns.saturating_sub(self.ns),
            end_ns,
            parent: 0,
            req,
            calls: self.calls,
        });
        self.ns = 0;
        self.calls = 0;
    }
}

/// Registers and observes the whole population. With a span log every
/// call is timed (boundaries shared between consecutive calls); without,
/// nothing but the calls runs.
fn load(server: &mut SenseAidServer, devices: usize, seed: u64, mut trace: Option<&mut SpanLog>) {
    let span = span_m(devices);
    let mut register = ChunkTimer::new("store.register");
    let mut observe = ChunkTimer::new("store.observe");
    let mut mark = trace.as_deref().map_or(0, SpanLog::now);
    for i in 1..=devices as u64 {
        let (position, cell, battery) = placement(seed, i, span);
        server
            .register_device(
                ImeiHash(i),
                495.0,
                15.0,
                battery,
                vec![Sensor::Barometer],
                "GalaxyS4".to_owned(),
                SimTime::ZERO,
            )
            .expect("registration");
        if let Some(log) = trace.as_deref_mut() {
            let t = log.now();
            register.add(log, t - mark, 0);
            mark = t;
        }
        server
            .observe_device(ImeiHash(i), position, Some(cell))
            .expect("observation");
        if let Some(log) = trace.as_deref_mut() {
            let t = log.now();
            observe.add(log, t - mark, 0);
            // Placement arithmetic for the next device is not store time.
            mark = log.now();
        }
    }
    if let Some(log) = trace {
        register.flush(log, 0);
        observe.flush(log, 0);
    }
}

/// Task centres, and the tasks themselves: small circles scattered over
/// the map, starts staggered across one period so every round has about
/// the same number of requests due.
fn submit_tasks(server: &mut SenseAidServer, shape: &CoreShape, seed: u64) -> Vec<GeoPoint> {
    let half = span_m(shape.devices) / 2.0;
    let rounds = (shape.light_rounds + shape.mid_rounds) as u64;
    let centres: Vec<GeoPoint> = (0..shape.tasks as u64)
        .map(|t| {
            campus_centre().offset_by_meters(
                offset(seed ^ (t + 1), 3, half * 0.8),
                offset(seed ^ (t + 1), 4, half * 0.8),
            )
        })
        .collect();
    for (j, c) in centres.iter().enumerate() {
        let spec = TaskSpec::builder(Sensor::Barometer)
            .region(CircleRegion::new(*c, 500.0))
            .spatial_density(3)
            .sampling_period(SimDuration::from_mins(TASK_PERIOD_MINS))
            .window(
                SimTime::from_mins(j as u64 % TASK_PERIOD_MINS),
                SimTime::from_mins(rounds + TASK_PERIOD_MINS),
            )
            .build()
            .expect("task spec");
        server.submit_task(spec, SimTime::ZERO).expect("submit");
    }
    centres
}

/// What the rounds did, timing-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DriveOutcome {
    /// State updates + deliveries executed.
    pub ops: u64,
    /// Devices tasked across all rounds.
    pub assignments: u64,
    /// Digest of the assignment stream and the end state.
    pub digest: u64,
}

/// Runs `rounds` one-minute rounds starting at minute `first`, churning
/// `churn` devices per round. Returns each round's wall time in ms.
#[allow(clippy::too_many_arguments)]
fn rounds(
    server: &mut SenseAidServer,
    devices: usize,
    seed: u64,
    centres: &[GeoPoint],
    first: u64,
    count: usize,
    churn: u64,
    outcome: &mut DriveOutcome,
    mut trace: Option<&mut SpanLog>,
) -> Vec<f64> {
    let mut walls = Vec::with_capacity(count);
    for minute in first..first + count as u64 {
        let t = SimTime::from_mins(minute);
        let req = minute as u32 + 1;
        let started = Instant::now();
        let t0 = trace.as_deref().map_or(0, SpanLog::now);
        for k in 0..churn {
            let imei = (mix(seed ^ minute ^ (k << 32)) % devices as u64) + 1;
            let battery = 35.0 + (mix(imei ^ minute) % 66) as f64;
            server
                .update_device_state(ImeiHash(imei), battery, (minute * k % 17) as f64, t)
                .expect("state update");
        }
        outcome.ops += churn;
        let t1 = trace.as_deref().map_or(0, SpanLog::now);
        let assignments = server.poll(t).expect("poll");
        let t2 = trace.as_deref().map_or(0, SpanLog::now);
        let mut delivered = 0u32;
        for a in &assignments {
            outcome.digest = fnv(outcome.digest, a.request.0);
            let region_centre = centres[(a.task.0 as usize - 1) % centres.len()];
            for imei in &a.devices {
                outcome.digest = fnv(outcome.digest, imei.0);
                let reading = SensorReading {
                    sensor: Sensor::Barometer,
                    value: 990.0 + (imei.0 % 40) as f64,
                    taken_at: t,
                    position: region_centre,
                };
                server
                    .submit_sensed_data(*imei, a.request, &reading, t)
                    .expect("delivery");
                delivered += 1;
            }
        }
        outcome.ops += u64::from(delivered);
        outcome.assignments += u64::from(delivered);
        if let Some(log) = trace.as_deref_mut() {
            let t3 = log.now();
            let mut push = |name, start_ns, end_ns, calls| {
                log.push(Span {
                    name,
                    start_ns,
                    end_ns,
                    parent: 0,
                    req,
                    calls,
                });
            };
            push("store.update_state", t0, t1, churn as u32);
            push("scheduler.poll", t1, t2, 1);
            if delivered > 0 {
                push("core.deliver", t2, t3, delivered);
            }
            push("round.assignments", t3, t3, delivered);
        }
        walls.push(started.elapsed().as_secs_f64() * 1e3);
    }
    walls
}

fn fold_end_state(server: &SenseAidServer, outcome: &mut DriveOutcome) {
    let stats = server.stats();
    for v in [
        stats.requests_assigned,
        stats.requests_fulfilled,
        stats.requests_expired,
        stats.requests_waited,
        stats.readings_accepted,
        server.run_queue_len() as u64,
        server.wait_queue_len() as u64,
        server.device_count() as u64,
    ] {
        outcome.digest = fnv(outcome.digest, v);
    }
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct CoreRun {
    /// Wall of each population load (register + observe), seconds.
    pub load_s: Vec<f64>,
    /// Wall of each set-up (load + task submission), seconds.
    pub setup_s: Vec<f64>,
    /// Light-round walls, ms.
    pub light_ms: Vec<f64>,
    /// Mid-round walls, ms.
    pub mid_ms: Vec<f64>,
    /// Snapshot to memory, ms.
    pub snapshot_ms: f64,
    /// `recover_from_storage` on that snapshot, ms.
    pub recover_ms: f64,
    /// Snapshot size, bytes.
    pub snapshot_bytes: u64,
    /// `VmRSS` with the population live, MiB.
    pub rss_mb: f64,
    /// `VmRSS` growth across the last load, bytes per device.
    pub bytes_per_device: f64,
    /// What the rounds did.
    pub outcome: DriveOutcome,
    /// Why the run is not correct, if it is not.
    pub problems: Vec<String>,
}

/// The whole drive at a small size, twice, plus a recovery — the
/// determinism and equivalence checks that are too expensive at a million.
fn check_determinism(seed: u64, shape: &CoreShape, problems: &mut Vec<String>) {
    let mini = CoreShape {
        devices: (shape.devices / 50).clamp(2_000, 20_000),
        light_rounds: 12,
        mid_rounds: 6,
        loads: 1,
        ..*shape
    };
    let drive = || {
        let mut server = fresh_server(mini.devices);
        load(&mut server, mini.devices, seed, None);
        let centres = submit_tasks(&mut server, &mini, seed);
        let mut outcome = DriveOutcome {
            digest: FNV_OFFSET,
            ..DriveOutcome::default()
        };
        let churn = (mini.devices / LIGHT_CHURN_DIV).max(1) as u64;
        rounds(
            &mut server,
            mini.devices,
            seed,
            &centres,
            0,
            18,
            churn,
            &mut outcome,
            None,
        );
        fold_end_state(&server, &mut outcome);
        (server, outcome)
    };
    let (mut a, outcome_a) = drive();
    let (_b, outcome_b) = drive();
    if outcome_a != outcome_b {
        problems.push(format!(
            "the drive is not deterministic: {outcome_a:?} vs {outcome_b:?}"
        ));
    }
    if outcome_a.assignments == 0 {
        problems.push("the drive tasked no device".to_owned());
    }
    let now = SimTime::from_mins(18);
    let want = a.durable_digest(now);
    if a.enable_persistence(Box::new(MemStorage::new()), PersistConfig::default(), now)
        .is_err()
    {
        problems.push("snapshot to memory failed".to_owned());
        return;
    }
    let storage = a.detach_persistence().expect("just enabled");
    let mut recovered = fresh_server(mini.devices);
    if recovered
        .recover_from_storage(storage, PersistConfig::default(), now)
        .is_err()
        || recovered.durable_digest(now) != want
    {
        problems.push("a recovered server is not byte-identical to the original".to_owned());
    }
}

/// Runs the workload. With `trace`, every layer call is timed into the
/// log and the population is loaded once.
pub fn run(seed: u64, shape: &CoreShape, mut trace: Option<&mut SpanLog>) -> CoreRun {
    let mut run = CoreRun::default();
    check_determinism(seed, shape, &mut run.problems);
    // Loading, snapshotting and recovering are single-threaded. Left alone
    // the kernel moves the thread between the CPUs every few hundred
    // milliseconds and each move refills a cold cache: the same load reads
    // 500 k or 640 k devices/s by how often it was moved. Hold it on the
    // first CPU for those phases. A server sizes its poll pool from the
    // cores it can see when it is built and `poll` fans out over them, so
    // servers are built, and rounds run, with every CPU allowed.
    let cpus = CpuPlan::detect();

    // --- set-up: load the population, submit the tasks ---
    let loads = if trace.is_some() { 1 } else { shape.loads };
    let mut live: Option<(SenseAidServer, Vec<GeoPoint>)> = None;
    for _ in 0..loads {
        // Only one population is ever resident.
        drop(live.take());
        let rss_before = procfs::rss_mb().unwrap_or(0.0);
        let started = Instant::now();
        let mut server = fresh_server(shape.devices);
        // Placing the thread is the benchmark's business, not set-up time.
        let placing = Instant::now();
        cpus.pin_self(cpus.engine());
        let placing = placing.elapsed();
        load(&mut server, shape.devices, seed, trace.as_deref_mut());
        run.load_s.push((started.elapsed() - placing).as_secs_f64());
        let centres = submit_tasks(&mut server, shape, seed);
        run.setup_s
            .push((started.elapsed() - placing).as_secs_f64());
        cpus.release_self();
        if run.load_s.len() == 1 {
            // The first load, on a heap nothing has been freed into yet:
            // later loads reuse and fragment what earlier ones returned.
            run.rss_mb = procfs::rss_mb().unwrap_or(0.0);
            run.bytes_per_device =
                (run.rss_mb - rss_before).max(0.0) * 1024.0 * 1024.0 / shape.devices as f64;
        }
        live = Some((server, centres));
    }
    let (mut server, centres) = live.expect("at least one load");

    // --- rounds: light churn, then mid churn ---
    let mut outcome = DriveOutcome {
        digest: FNV_OFFSET,
        ..DriveOutcome::default()
    };
    let light_churn = (shape.devices / LIGHT_CHURN_DIV).max(1) as u64;
    run.light_ms = rounds(
        &mut server,
        shape.devices,
        seed,
        &centres,
        0,
        shape.light_rounds,
        light_churn,
        &mut outcome,
        trace.as_deref_mut(),
    );
    run.mid_ms = rounds(
        &mut server,
        shape.devices,
        seed,
        &centres,
        shape.light_rounds as u64,
        shape.mid_rounds,
        light_churn * MID_CHURN_FACTOR as u64,
        &mut outcome,
        trace.as_deref_mut(),
    );
    fold_end_state(&server, &mut outcome);
    run.outcome = outcome;
    if outcome.assignments == 0 {
        run.problems
            .push("no device was tasked in any round".to_owned());
    }

    // --- restart: snapshot to memory, recover a fresh server from it ---
    cpus.pin_self(cpus.engine());
    let now = SimTime::from_mins((shape.light_rounds + shape.mid_rounds) as u64);
    let before = (
        server.device_count(),
        server.task_count(),
        server.run_queue_len(),
        server.wait_queue_len(),
    );
    let started = Instant::now();
    let armed =
        server.enable_persistence(Box::new(MemStorage::new()), PersistConfig::default(), now);
    run.snapshot_ms = started.elapsed().as_secs_f64() * 1e3;
    if armed.is_err() {
        cpus.release_self();
        run.problems.push("snapshot to memory failed".to_owned());
        return run;
    }
    run.snapshot_bytes = server.persist_stats().map_or(0, |s| s.snapshot_bytes_last);
    let storage = server.detach_persistence().expect("just enabled");
    drop(server);
    let started = Instant::now();
    let mut recovered = fresh_server(shape.devices);
    let report = recovered.recover_from_storage(storage, PersistConfig::default(), now);
    run.recover_ms = started.elapsed().as_secs_f64() * 1e3;
    cpus.release_self();
    let after = (
        recovered.device_count(),
        recovered.task_count(),
        recovered.run_queue_len(),
        recovered.wait_queue_len(),
    );
    match report {
        Ok(r) if !r.cold_start && after == before => {}
        Ok(r) => run.problems.push(format!(
            "recovery lost state: (devices, tasks, run, wait) {before:?} -> {after:?}, cold_start={}",
            r.cold_start
        )),
        Err(e) => run.problems.push(format!("recovery failed: {e}")),
    }
    if let Some(log) = trace {
        let end = log.now();
        let snap = (run.snapshot_ms * 1e6) as u64;
        let rec = (run.recover_ms * 1e6) as u64;
        log.push(Span {
            name: "persist.snapshot",
            start_ns: end.saturating_sub(rec + snap),
            end_ns: end.saturating_sub(rec),
            parent: 0,
            req: 0,
            calls: 1,
        });
        log.push(Span {
            name: "persist.recover",
            start_ns: end.saturating_sub(rec),
            end_ns: end,
            parent: 0,
            req: 0,
            calls: 1,
        });
    }
    run
}

/// What the standalone store / grid / selector probes measured: the
/// layers `poll` uses internally, called directly on the same population
/// shape so each gets its own number.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProbeRun {
    /// `DeviceIndex::candidates_into` on the SoA store, ns per probe.
    pub gather_ns: f64,
    /// Rows a probe gathered, mean.
    pub candidates_per_probe: f64,
    /// `DeviceSelector::select` (top 3 of the gathered rows), ns.
    pub select_ns: f64,
    /// `GridIndex::insert`, ns per key.
    pub grid_insert_ns: f64,
    /// `GridIndex::for_each_in_circle`, ns per query.
    pub grid_circle_ns: f64,
    /// Probes run.
    pub probes: usize,
}

/// Builds a standalone SoA store and grid over `devices` devices at the
/// workload's density and times the qualification path piece by piece.
pub fn probe_layers(seed: u64, devices: usize, log: &mut SpanLog) -> ProbeRun {
    let span = span_m(devices);
    let half = span / 2.0;
    let mut store = SoaDeviceStore::new();
    let mut grid: GridIndex<u32> = GridIndex::new(250.0);
    let mut positions = Vec::with_capacity(devices);
    for i in 1..=devices as u64 {
        let (position, cell, battery) = placement(seed, i, span);
        store.insert(new_record(
            ImeiHash(i),
            495.0,
            15.0,
            battery,
            vec![Sensor::Barometer],
            "GalaxyS4".to_owned(),
            SimTime::ZERO,
        ));
        store.observe(ImeiHash(i), position, Some(cell));
        positions.push(position);
    }
    let t0 = log.now();
    for (i, p) in positions.iter().enumerate() {
        grid.insert(i as u32, *p);
    }
    let t1 = log.now();
    log.push(Span {
        name: "grid.insert",
        start_ns: t0,
        end_ns: t1,
        parent: 0,
        req: 0,
        calls: devices as u32,
    });

    let selector = DeviceSelector::new(SelectorWeights::default(), HardCutoffs::default());
    let probes = 512usize;
    let mut rows: Vec<CandidateRow> = Vec::new();
    let (mut gathered, mut picked, mut in_circle) = (0usize, 0usize, 0usize);
    for r in 0..probes as u64 {
        let centre = campus_centre().offset_by_meters(
            offset(seed ^ (r + 1), 5, half * 0.8),
            offset(seed ^ (r + 1), 6, half * 0.8),
        );
        let region = CircleRegion::new(centre, 500.0);
        let probe = QualificationProbe::new(Sensor::Barometer, region);
        rows.clear();
        let t0 = log.now();
        store.candidates_into(&probe, &mut rows);
        let t1 = log.now();
        let chosen = selector.select(3.min(rows.len()), &rows, SimTime::from_mins(1));
        let t2 = log.now();
        grid.for_each_in_circle(&region, |_| in_circle += 1);
        let t3 = log.now();
        gathered += rows.len();
        picked += chosen.map_or(0, |c| c.len());
        for (name, start_ns, end_ns) in [
            ("store.gather", t0, t1),
            ("selector.select", t1, t2),
            ("grid.circle", t2, t3),
        ] {
            log.push(Span {
                name,
                start_ns,
                end_ns,
                parent: 0,
                req: r as u32 + 1,
                calls: 1,
            });
        }
    }
    std::hint::black_box((picked, in_circle));
    let totals = crate::span::totals(log.spans());
    let per_call = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns_per_call());
    ProbeRun {
        gather_ns: per_call("store.gather"),
        candidates_per_probe: gathered as f64 / probes as f64,
        select_ns: per_call("selector.select"),
        grid_insert_ns: per_call("grid.insert"),
        grid_circle_ns: per_call("grid.circle"),
        probes,
    }
}
