//! Proof that the request→shard fan-out path is allocation-free, and that
//! the task path allocates nothing *per candidate*.
//!
//! The `fanout_qualified_count` perf cell times the first path; the
//! property itself — no heap traffic anywhere in `qualified_count`, from
//! the probe through the target-shard bitset and the per-shard grid-walk
//! counters — is asserted here with a counting global allocator, so a
//! regression (say, a collected `Vec<usize>` of target shards sneaking
//! back in) fails loudly rather than showing up as a perf drift. The
//! second property is what the gather→select fold bought: a `poll` that
//! assigns one request allocates the same number of times whether 100 or
//! 5 000 devices qualify. The third is what encoding a snapshot straight
//! from the stores bought: `enable_persistence` allocates the same number
//! of times whether 200 or 5 000 devices are registered — no record, no
//! sensor list and no type string is cloned on the way to disk.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use senseaid_cellnet::CellularNetwork;
use senseaid_core::{MemStorage, PersistConfig, SenseAidConfig, SenseAidServer, TaskSpec};
use senseaid_device::{ImeiHash, Sensor};
use senseaid_geo::{CircleRegion, GeoPoint, TowerSite};
use senseaid_sim::SimTime;

/// Passes every call through to the system allocator, counting
/// allocations (and reallocations — growth is an allocation too).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The counter is process-wide, so the tests take turns.
static TURN: Mutex<()> = Mutex::new(());

fn centre() -> GeoPoint {
    GeoPoint::new(40.4284, -86.9138)
}

/// A 4×4 tower grid over a ~3 km square, so the fan-out has real
/// multi-cell, multi-shard coverage to resolve.
fn grid_network() -> CellularNetwork {
    let mut sites = Vec::new();
    for row in 0..4usize {
        for col in 0..4usize {
            sites.push(TowerSite {
                index: row * 4 + col,
                position: centre().offset_by_meters(
                    -1_500.0 + row as f64 * 1_000.0,
                    -1_500.0 + col as f64 * 1_000.0,
                ),
                coverage_m: 800.0,
            });
        }
    }
    CellularNetwork::new(sites)
}

#[test]
fn qualified_count_fanout_allocates_nothing() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let mut server = SenseAidServer::new(SenseAidConfig {
        shard_count: 8,
        ..SenseAidConfig::default()
    });
    server.set_topology(grid_network());
    for i in 1..=400u64 {
        server
            .register_device(
                ImeiHash(i),
                495.0,
                15.0,
                80.0,
                vec![Sensor::Barometer],
                "GalaxyS4".to_owned(),
                SimTime::ZERO,
            )
            .expect("registration");
        let p = centre().offset_by_meters(
            ((i * 37) % 3_000) as f64 - 1_500.0,
            ((i * 53) % 3_000) as f64 - 1_500.0,
        );
        server
            .observe_device(ImeiHash(i), p, None)
            .expect("observe");
    }

    let regions: Vec<CircleRegion> = (0..16u64)
        .map(|k| {
            CircleRegion::new(
                centre().offset_by_meters(
                    ((k * 211) % 2_400) as f64 - 1_200.0,
                    ((k * 307) % 2_400) as f64 - 1_200.0,
                ),
                500.0,
            )
        })
        .collect();

    // Warm-up pass (faults in lazy init would hide behind the counter).
    let mut warm = 0usize;
    for region in &regions {
        warm += server.qualified_count(Sensor::Barometer, *region);
    }
    assert!(warm > 0, "workload must actually qualify devices");

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut total = 0usize;
    for _ in 0..8 {
        for region in &regions {
            total += server.qualified_count(Sensor::Barometer, *region);
        }
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(total, warm * 8, "warm probes must be stable");
    assert_eq!(
        after - before,
        0,
        "qualified_count fan-out allocated on the warm path"
    );
}

/// Allocations made by one `poll` that assigns one due request over
/// `devices` qualified candidates.
fn allocations_of_one_assigning_poll(devices: u64) -> u64 {
    let mut server = SenseAidServer::new(SenseAidConfig {
        shard_workers: Some(1),
        ..SenseAidConfig::default()
    });
    for i in 1..=devices {
        server
            .register_device(
                ImeiHash(i),
                495.0,
                15.0,
                80.0,
                vec![Sensor::Barometer],
                "GalaxyS4".to_owned(),
                SimTime::ZERO,
            )
            .expect("registration");
        // A 280 m square inside the 300 m circle, a few fine cells wide.
        let p = centre().offset_by_meters(
            ((i * 37) % 280) as f64 - 140.0,
            ((i * 53) % 280) as f64 - 140.0,
        );
        server
            .observe_device(ImeiHash(i), p, None)
            .expect("observe");
    }
    let region = CircleRegion::new(centre(), 300.0);
    assert_eq!(
        server.qualified_count(Sensor::Barometer, region),
        devices as usize
    );
    let spec = TaskSpec::builder(Sensor::Barometer)
        .region(region)
        .spatial_density(3)
        .one_shot()
        .build()
        .expect("one-shot spec");
    let now = SimTime::from_mins(1);
    server.submit_task(spec, now).expect("task");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let assignments = server.poll(now).expect("poll");
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(assignments.len(), 1, "exactly one request was due");
    assert_eq!(assignments[0].devices.len(), 3);
    after - before
}

#[test]
fn an_assigning_poll_allocates_nothing_per_candidate() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let few = allocations_of_one_assigning_poll(100);
    let many = allocations_of_one_assigning_poll(5_000);
    assert_eq!(
        few, many,
        "poll allocated {few} times over 100 candidates but {many} over 5 000: \
         a candidate or eligible vector is back on the scored path"
    );
}

/// Allocations made by `enable_persistence` — one full snapshot, framed
/// and written to memory — on a server holding `devices` devices over
/// eight shards.
fn allocations_of_one_initial_snapshot(devices: u64) -> u64 {
    let mut server = SenseAidServer::new(SenseAidConfig {
        shard_count: 8,
        ..SenseAidConfig::default()
    });
    for i in 1..=devices {
        server
            .register_device(
                ImeiHash(i),
                495.0,
                15.0,
                80.0,
                vec![Sensor::Barometer, Sensor::Light],
                "GalaxyS4".to_owned(),
                SimTime::ZERO,
            )
            .expect("registration");
        let p = centre().offset_by_meters(
            ((i * 37) % 3_000) as f64 - 1_500.0,
            ((i * 53) % 3_000) as f64 - 1_500.0,
        );
        server
            .observe_device(
                ImeiHash(i),
                p,
                Some(senseaid_cellnet::CellId(i as usize % 16)),
            )
            .expect("observe");
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    server
        .enable_persistence(
            Box::new(MemStorage::new()),
            PersistConfig::default(),
            SimTime::ZERO,
        )
        .expect("memory storage accepts the snapshot");
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    let written = server.persist_stats().expect("armed").snapshot_bytes_last;
    assert!(
        written > devices * 100,
        "the snapshot holds every device: {written} bytes"
    );
    after - before
}

#[test]
fn an_initial_snapshot_allocates_nothing_per_device() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let few = allocations_of_one_initial_snapshot(200);
    let many = allocations_of_one_initial_snapshot(5_000);
    assert_eq!(
        few, many,
        "enable_persistence allocated {few} times at 200 devices but {many} at 5 000:          a per-device clone, or a snapshot buffer that grows as it fills, is back"
    );
}
