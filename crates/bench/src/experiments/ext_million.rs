//! Extension: million-device hot state.
//!
//! The full harness in [`super::ext_scalability`] simulates every device's
//! radio and mobility, which caps practical sweeps at a few hundred
//! participants. This study instead drives the *control plane* directly —
//! registration, mobility observations, task submission, poll rounds,
//! state churn and data delivery — so populations up to 10^6 finish in
//! seconds and the numbers isolate exactly the layers the struct-of-arrays
//! store, hierarchical grid and arena queues optimise.
//!
//! Each sweep row reports control-plane operations per second and the
//! process's resident memory (`VmRSS`, Linux) sampled while the N-device
//! server is live. RSS is process-absolute and monotone across a sweep
//! run in one process; sizes are swept ascending so the largest population
//! dominates its own row's figure.
//!
//! The drive sequence is deterministic, and [`drive`] folds the full
//! assignment stream plus end-of-run queue/statistics state into a digest,
//! which the tests use to prove the three invariances this crate's
//! conclusions rest on: struct-of-arrays vs the reference store, shard
//! count, and harness worker count.

use std::time::Instant;

use senseaid_cellnet::CellularNetwork;
use senseaid_core::store::DeviceIndex;
use senseaid_core::{
    DeviceStore, ScoredPolicy, SenseAidConfig, SenseAidServer, SoaDeviceStore, TaskSpec,
};
use senseaid_device::{ImeiHash, Sensor, SensorReading};
use senseaid_geo::{CircleRegion, GeoPoint, TowerSite};
use senseaid_sim::{SimDuration, SimTime};

/// One sweep row.
#[derive(Debug, Clone)]
pub struct MillionRow {
    /// Registered population.
    pub devices: usize,
    /// Wall-clock of the whole drive, milliseconds.
    pub wall_ms: f64,
    /// Control-plane operations executed (registrations, observations,
    /// state updates, deliveries).
    pub events: u64,
    /// Operations per wall-clock second.
    pub events_per_sec: f64,
    /// Resident memory (`VmRSS`) in MiB while the server is live; 0 where
    /// `/proc/self/status` is unavailable.
    pub rss_mb: f64,
    /// Devices tasked across all poll rounds.
    pub assignments: u64,
    /// Digest of the assignment stream and final control-plane state.
    pub digest: u64,
}

/// What one [`drive`] run did, for timing-free identity checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriveOutcome {
    /// Control-plane operations executed.
    pub events: u64,
    /// Devices tasked across all poll rounds.
    pub assignments: u64,
    /// Digest of the assignment stream and final control-plane state.
    pub digest: u64,
}

/// The struct-of-arrays store the server defaults to.
pub fn soa_index() -> Box<dyn DeviceIndex> {
    Box::new(SoaDeviceStore::new())
}

/// The pre-PR map-of-records reference store.
pub fn reference_index() -> Box<dyn DeviceIndex> {
    Box::new(DeviceStore::new())
}

fn centre() -> GeoPoint {
    GeoPoint::new(40.4284, -86.9138)
}

/// Deterministic 64-bit mix (splitmix64 finaliser) for device placement.
pub(crate) fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Uniform offset in `[-half, half)` metres from lane `lane` of `x`.
pub(crate) fn offset(x: u64, lane: u64, half: f64) -> f64 {
    let u = mix(x ^ lane.wrapping_mul(0xa076_1d64_78bd_642f)) >> 11;
    (u as f64 / (1u64 << 53) as f64) * 2.0 * half - half
}

/// Side of the square the population is scattered over: constant density
/// (10k devices ≈ a 2 km campus), so a million devices cover a city.
fn span_m(devices: usize) -> f64 {
    2_000.0 * (devices as f64 / 10_000.0).sqrt().max(1.0)
}

/// Tower-grid pitch. The half-diagonal (pitch/√2 ≈ 990 m) sits inside the
/// 1000 m coverage radius, so every point of the population square is
/// covered by its nearest tower.
const PITCH_M: f64 = 1_400.0;

fn towers_per_side(span: f64) -> usize {
    (span / PITCH_M).ceil() as usize + 1
}

/// A tower grid covering the population square — hundreds of cells at the
/// million-device span, so shard fan-out pruning actually has cells to
/// prune.
fn grid_network(span: f64) -> CellularNetwork {
    let per_side = towers_per_side(span);
    let origin = -span / 2.0;
    let mut sites = Vec::with_capacity(per_side * per_side);
    for row in 0..per_side {
        for col in 0..per_side {
            sites.push(TowerSite {
                index: row * per_side + col,
                position: centre()
                    .offset_by_meters(origin + row as f64 * PITCH_M, origin + col as f64 * PITCH_M),
                coverage_m: 1_000.0,
            });
        }
    }
    CellularNetwork::new(sites)
}

/// The serving cell for a device at planar offset `(north, east)`:
/// nearest grid tower, computed arithmetically. The network's own
/// `serving_cell` is a linear scan over every tower — fine for the radio
/// simulation's populations, but at a million devices it would dominate
/// this study and hide the store costs being measured.
fn cell_at(north: f64, east: f64, span: f64) -> senseaid_cellnet::CellId {
    let per_side = towers_per_side(span);
    let origin = -span / 2.0;
    let snap = |v: f64| (((v - origin) / PITCH_M).round().max(0.0) as usize).min(per_side - 1);
    senseaid_cellnet::CellId(snap(north) * per_side + snap(east))
}

const TASKS: usize = 12;
const ROUNDS: u64 = 16;

fn fnv(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x100_0000_01b3)
}

/// Runs the deterministic drive sequence against a fresh server using the
/// given store factory and shard count. Pure in its inputs: the returned
/// outcome is byte-identical for any store implementation, shard count, or
/// host — that is what the identity tests below assert.
pub fn drive(
    devices: usize,
    shards: usize,
    factory: fn() -> Box<dyn DeviceIndex>,
    seed: u64,
) -> DriveOutcome {
    drive_instrumented(devices, shards, factory, seed, TASKS, Some(1)).0
}

/// [`drive`] with the task population and the poll worker count exposed,
/// returning alongside the outcome the summed wall-clock of just the
/// `poll` calls, milliseconds — the slice the two-phase pipeline
/// (DESIGN.md §14) restructures. More tasks per round make the drive
/// poll-heavy (the default workload is dominated by registration);
/// `workers` pins [`SenseAidConfig::shard_workers`] so the serial legacy
/// path (`Some(1)`) and the two-phase pipeline can be timed on the same
/// workload. The outcome is byte-identical for every worker count —
/// asserted by the tests below and re-asserted by the perf cells.
pub fn drive_instrumented(
    devices: usize,
    shards: usize,
    factory: fn() -> Box<dyn DeviceIndex>,
    seed: u64,
    tasks: usize,
    workers: Option<usize>,
) -> (DriveOutcome, f64) {
    let span = span_m(devices);
    let half = span / 2.0;
    let network = grid_network(span);
    let config = SenseAidConfig {
        shard_count: shards,
        shard_workers: workers,
        ..SenseAidConfig::default()
    };
    let policy = ScoredPolicy::new(config.weights, config.cutoffs);
    let mut server = SenseAidServer::with_parts(config, Box::new(policy), factory);
    server.set_topology(network);

    let mut events = 0u64;
    // Population: scattered uniformly, batteries spread over 40–100 % so
    // the selector has real ranking work, everyone carries the barometer.
    for i in 1..=devices as u64 {
        let (north, east) = (offset(seed ^ i, 1, half), offset(seed ^ i, 2, half));
        let p = centre().offset_by_meters(north, east);
        server
            .register_device(
                ImeiHash(i),
                495.0,
                15.0,
                40.0 + (mix(seed ^ i) % 61) as f64,
                vec![Sensor::Barometer],
                "GalaxyS4".to_owned(),
                SimTime::ZERO,
            )
            .expect("registration");
        server
            .observe_device(ImeiHash(i), p, Some(cell_at(north, east, span)))
            .expect("observation");
        events += 2;
    }

    // Tasks: small circles scattered over the map, repeating requests.
    let task_centres: Vec<GeoPoint> = (0..tasks as u64)
        .map(|t| {
            centre().offset_by_meters(
                offset(seed ^ (t + 1), 3, half * 0.8),
                offset(seed ^ (t + 1), 4, half * 0.8),
            )
        })
        .collect();
    for c in &task_centres {
        let spec = TaskSpec::builder(Sensor::Barometer)
            .region(CircleRegion::new(*c, 500.0))
            .spatial_density(3)
            .sampling_period(SimDuration::from_mins(5))
            .sampling_duration(SimDuration::from_mins(15))
            .build()
            .expect("task spec");
        server.submit_task(spec, SimTime::ZERO).expect("submit");
    }

    // Poll rounds with interleaved state churn: a rotating window of the
    // population reports new battery/energy each minute (exercising the
    // narrow column mutators and the qualification epoch), assignees
    // deliver their readings at once.
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut assigned = 0u64;
    let mut poll_wall = std::time::Duration::ZERO;
    let churn = (devices / 128).max(1) as u64;
    for minute in 0..ROUNDS {
        let t = SimTime::from_mins(minute);
        for k in 0..churn {
            let imei = (mix(seed ^ minute ^ (k << 32)) % devices as u64) + 1;
            let battery = 35.0 + (mix(imei ^ minute) % 66) as f64;
            server
                .update_device_state(ImeiHash(imei), battery, (minute * k % 17) as f64, t)
                .expect("state update");
            events += 1;
        }
        let poll_started = Instant::now();
        let assignments = server.poll(t).expect("poll");
        poll_wall += poll_started.elapsed();
        for a in &assignments {
            digest = fnv(digest, a.request.0);
            let region_centre = task_centres[(a.task.0 as usize - 1) % task_centres.len()];
            for imei in &a.devices {
                digest = fnv(digest, imei.0);
                let reading = SensorReading {
                    sensor: Sensor::Barometer,
                    value: 990.0 + (imei.0 % 40) as f64,
                    taken_at: t,
                    position: region_centre,
                };
                server
                    .submit_sensed_data(*imei, a.request, &reading, t)
                    .expect("delivery");
                events += 1;
                assigned += 1;
            }
        }
    }

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
        digest = fnv(digest, v);
    }
    (
        DriveOutcome {
            events,
            assignments: assigned,
            digest,
        },
        poll_wall.as_secs_f64() * 1e3,
    )
}

/// Times the request→shard fan-out path in isolation: a batch of
/// qualification probes over scattered regions, answered through
/// `qualified_count` (target-shard bitset + per-shard grid counts, no
/// candidate buffers). Returns `(wall_ms, probes, checksum)`; the checksum
/// keeps the work from being optimised away and doubles as a determinism
/// witness.
pub fn fanout_probe_run(devices: usize, iterations: usize, seed: u64) -> (f64, u64, u64) {
    let span = span_m(devices);
    let half = span / 2.0;
    let network = grid_network(span);
    let config = SenseAidConfig {
        shard_count: 8,
        shard_workers: Some(1),
        ..SenseAidConfig::default()
    };
    let policy = ScoredPolicy::new(config.weights, config.cutoffs);
    let mut server = SenseAidServer::with_parts(config, Box::new(policy), soa_index);
    server.set_topology(network);
    for i in 1..=devices as u64 {
        let (north, east) = (offset(seed ^ i, 1, half), offset(seed ^ i, 2, half));
        let p = centre().offset_by_meters(north, east);
        server
            .register_device(
                ImeiHash(i),
                495.0,
                15.0,
                40.0 + (mix(seed ^ i) % 61) as f64,
                vec![Sensor::Barometer],
                "GalaxyS4".to_owned(),
                SimTime::ZERO,
            )
            .expect("registration");
        server
            .observe_device(ImeiHash(i), p, Some(cell_at(north, east, span)))
            .expect("observation");
    }
    let regions: Vec<CircleRegion> = (0..64u64)
        .map(|r| {
            let c = centre().offset_by_meters(
                offset(seed ^ (r + 1), 5, half * 0.8),
                offset(seed ^ (r + 1), 6, half * 0.8),
            );
            CircleRegion::new(c, 500.0)
        })
        .collect();
    let mut checksum = 0u64;
    let start = Instant::now();
    for _ in 0..iterations {
        for region in &regions {
            checksum = fnv(
                checksum,
                server.qualified_count(Sensor::Barometer, *region) as u64,
            );
        }
    }
    let wall = start.elapsed();
    (
        wall.as_secs_f64() * 1e3,
        (iterations * regions.len()) as u64,
        checksum,
    )
}

/// Resident set size of this process in MiB, from `/proc/self/status`
/// (`None` off Linux or when the pseudo-file is unreadable).
pub fn resident_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Runs the sweep serially and in ascending size order — resident memory
/// is a process-wide measurement, so rows must not interleave.
pub fn sweep(sizes: &[usize], seed: u64) -> Vec<MillionRow> {
    let mut sorted = sizes.to_vec();
    sorted.sort_unstable();
    sorted
        .into_iter()
        .map(|devices| {
            let start = Instant::now();
            let outcome = drive(devices, 8, soa_index, seed);
            let wall = start.elapsed().as_secs_f64();
            MillionRow {
                devices,
                wall_ms: wall * 1e3,
                events: outcome.events,
                events_per_sec: outcome.events as f64 / wall.max(1e-9),
                rss_mb: resident_mb().unwrap_or(0.0),
                assignments: outcome.assignments,
                digest: outcome.digest,
            }
        })
        .collect()
}

/// The sweep sizes the full study runs.
pub const FULL_SIZES: &[usize] = &[10_000, 100_000, 1_000_000];

/// Cheaper sizes for CI smoke runs.
pub const QUICK_SIZES: &[usize] = &[5_000, 20_000];

/// Renders the million-device study.
pub fn run(seed: u64) -> String {
    render(&sweep(FULL_SIZES, seed))
}

/// Renders arbitrary sweep rows.
pub fn render(rows: &[MillionRow]) -> String {
    let mut out = String::from("=== Extension: million-device hot state ===\n");
    out.push_str(&format!(
        "{:>10} {:>10} {:>12} {:>14} {:>10} {:>12}\n",
        "devices", "wall ms", "ops", "ops/sec", "assigned", "rss MiB"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>10} {:>10.1} {:>12} {:>14.0} {:>10} {:>12.1}\n",
            r.devices, r.wall_ms, r.events, r.events_per_sec, r.assignments, r.rss_mb
        ));
    }
    out.push_str(
        "\nexpectations: per-op cost stays within a small factor across two orders of\n\
         magnitude (residuals are tree depth and cache misses, never per-device scans);\n\
         resident memory grows linearly with devices; per-round assignment work is\n\
         population-independent (density x tasks)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = 2_000;

    /// The struct-of-arrays store is observationally identical to the
    /// reference map-of-records store through the full drive sequence.
    #[test]
    fn soa_store_matches_reference_store() {
        let soa = drive(N, 4, soa_index, 2017);
        let reference = drive(N, 4, reference_index, 2017);
        assert_eq!(soa, reference);
        assert!(soa.assignments > 0, "drive must actually task devices");
    }

    /// Shard count never changes the drive outcome.
    #[test]
    fn shard_count_never_changes_the_outcome() {
        let one = drive(N, 1, soa_index, 2017);
        for shards in [2, 8] {
            assert_eq!(drive(N, shards, soa_index, 2017), one, "shards={shards}");
        }
    }

    /// Harness worker count never changes sweep results: drives fanned out
    /// over 1, 2 and 8 workers produce identical digests.
    #[test]
    fn worker_count_never_changes_the_outcome() {
        let sizes = vec![500usize, 1_000, 1_500];
        let serial: Vec<u64> = sizes
            .iter()
            .map(|&n| drive(n, 8, soa_index, 2017).digest)
            .collect();
        for workers in [2, 8] {
            let fanned: Vec<u64> = crate::parallel::map_cells(sizes.clone(), workers, |_, n| {
                drive(n, 8, soa_index, 2017).digest
            });
            assert_eq!(fanned, serial, "workers={workers}");
        }
    }

    /// The poll pipeline's intra-run worker count never changes the drive
    /// outcome: one worker (the serial legacy path), two and eight produce
    /// identical assignment streams and end state, across shard layouts.
    #[test]
    fn poll_worker_count_never_changes_the_outcome() {
        for shards in [1, 8] {
            let serial = drive_instrumented(N, shards, soa_index, 2017, 24, Some(1)).0;
            assert!(serial.assignments > 0, "drive must actually task devices");
            for workers in [2, 8] {
                let piped = drive_instrumented(N, shards, soa_index, 2017, 24, Some(workers)).0;
                assert_eq!(piped, serial, "shards={shards} workers={workers}");
            }
        }
    }

    /// The fan-out probe run is deterministic and counts its probes.
    #[test]
    fn fanout_probe_run_is_deterministic() {
        let (_, probes_a, sum_a) = fanout_probe_run(1_000, 2, 2017);
        let (_, probes_b, sum_b) = fanout_probe_run(1_000, 2, 2017);
        assert_eq!(probes_a, 128);
        assert_eq!(probes_a, probes_b);
        assert_eq!(sum_a, sum_b);
    }

    /// The deterministic drive is reproducible and the sweep accounts for
    /// its own operations.
    #[test]
    fn sweep_rows_are_sane() {
        let rows = sweep(&[1_000, 300], 7);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].devices < rows[1].devices, "sweep sorts ascending");
        for r in &rows {
            assert!(r.events >= 2 * r.devices as u64);
            assert!(r.events_per_sec > 0.0);
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn resident_memory_is_readable_on_linux() {
        let mb = resident_mb().expect("/proc/self/status");
        assert!(mb > 1.0, "a running test binary is bigger than 1 MiB");
    }
}
