//! The `hold_journal` / `commit_journal` bracket (DESIGN.md §13).
//!
//! Holding changes *when* journal records reach storage, never *which
//! bytes*: a server that commits every k calls leaves the same blobs as
//! one that writes every record through, a snapshot inside a held
//! stretch closes the old segment with the held records in it, and a
//! held server that dies before its commit recovers to exactly what it
//! had committed — the held records leave no bytes behind.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use senseaid_core::{
    FaultingStorage, MemStorage, PersistConfig, SenseAidConfig, SenseAidServer, StorageBackend,
    StorageError, StorageFaultPlan, TaskSpec,
};
use senseaid_device::{ImeiHash, Sensor, SensorReading};
use senseaid_geo::{CircleRegion, GeoPoint};
use senseaid_sim::{SimDuration, SimTime};

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn centre() -> GeoPoint {
    GeoPoint::new(40.4284, -86.9138)
}

const SEED: u64 = 0x5ea1;
const DEVICES: u64 = 90;
const ROUNDS: u64 = 20;

/// A server plus the commit policy it is driven under. Every journaled
/// call goes through [`Driven::call`], which counts it and closes and
/// reopens the bracket every `every` calls.
struct Driven {
    server: SenseAidServer,
    /// `None`: never hold (every record written through).
    every: Option<usize>,
    calls: usize,
    /// Stop issuing calls once this many were made.
    limit: usize,
}

impl Driven {
    fn new(server: SenseAidServer, every: Option<usize>, limit: usize) -> Self {
        let mut d = Driven {
            server,
            every,
            calls: 0,
            limit,
        };
        if every.is_some() {
            d.server.hold_journal();
        }
        d
    }

    /// Runs one journaled call unless the limit is reached.
    fn call<T>(&mut self, f: impl FnOnce(&mut SenseAidServer) -> T) -> Option<T> {
        if self.calls == self.limit {
            return None;
        }
        let out = f(&mut self.server);
        self.calls += 1;
        if self.every.is_some_and(|k| self.calls.is_multiple_of(k)) {
            self.server.commit_journal();
            self.server.hold_journal();
        }
        Some(out)
    }
}

/// The seeded call sequence: enrolment, two repeating tasks, then rounds
/// of state churn, a poll, deliveries (single and batched, odd devices
/// withhold) and an outbox drain — every `JournalOp` the live path
/// produces. A snapshot is taken after `snapshot_after` calls, wherever
/// in a held stretch that falls. Returns the number of calls made.
fn drive(d: &mut Driven, snapshot_after: usize) -> usize {
    for i in 1..=DEVICES {
        d.call(|s| {
            s.register_device(
                ImeiHash(i),
                495.0,
                15.0,
                40.0 + (mix(SEED ^ i) % 61) as f64,
                vec![Sensor::Barometer],
                "GalaxyS4".to_owned(),
                SimTime::ZERO,
            )
        });
        let p = centre().offset_by_meters(
            (mix(SEED ^ i) % 1_200) as f64 - 600.0,
            (mix(SEED ^ (i << 20)) % 1_200) as f64 - 600.0,
        );
        d.call(|s| s.observe_device(ImeiHash(i), p, None));
    }
    for radius in [500.0, 800.0] {
        let spec = TaskSpec::builder(Sensor::Barometer)
            .region(CircleRegion::new(centre(), radius))
            .spatial_density(3)
            .sampling_period(SimDuration::from_mins(2))
            .sampling_duration(SimDuration::from_mins(2 * ROUNDS))
            .build()
            .expect("static task spec is valid");
        d.call(|s| s.submit_task(spec, SimTime::ZERO));
    }
    let mut snapshotted = false;
    for round in 0..ROUNDS {
        let t = SimTime::from_mins(2 * round);
        for k in 0..10u64 {
            let imei = 1 + mix(SEED ^ round ^ (k << 32)) % DEVICES;
            let battery = 35.0 + (mix(imei ^ round) % 66) as f64;
            d.call(|s| s.update_device_state(ImeiHash(imei), battery, (round * k % 17) as f64, t));
            d.call(|s| s.record_device_comm(ImeiHash(imei), t));
        }
        let assignments = d
            .call(|s| s.poll(t).expect("the driven server is up"))
            .unwrap_or_default();
        for a in &assignments {
            for imei in a.devices.iter().filter(|imei| imei.0 % 2 == 0) {
                let reading = SensorReading {
                    sensor: Sensor::Barometer,
                    value: 990.0 + (imei.0 % 40) as f64,
                    taken_at: a.sample_at,
                    position: centre(),
                };
                if imei.0 % 4 == 0 {
                    d.call(|s| s.submit_sensed_data(*imei, a.request, &reading, t));
                } else {
                    let batch = [(a.request, reading)];
                    d.call(|s| s.submit_sensed_batch(*imei, round + 1, 1, &batch, t));
                }
            }
        }
        d.call(|s| s.drain_outbox());
        if !snapshotted && d.calls >= snapshot_after {
            // Not a journaled call: it does not count, and under a hold
            // it lands wherever the stretch happens to be.
            d.server.take_snapshot(t);
            snapshotted = true;
        }
    }
    assert!(
        snapshotted || d.calls == d.limit,
        "the drive never snapshotted"
    );
    d.calls
}

fn fresh_server() -> SenseAidServer {
    SenseAidServer::new(SenseAidConfig::default())
}

fn armed(storage: Box<dyn StorageBackend>) -> SenseAidServer {
    let mut server = fresh_server();
    server
        .enable_persistence(storage, PersistConfig::default(), SimTime::ZERO)
        .expect("persistence arms");
    server
}

fn blobs(storage: &dyn StorageBackend) -> BTreeMap<String, Vec<u8>> {
    storage
        .list()
        .expect("list")
        .into_iter()
        .map(|name| {
            let bytes = storage.read(&name).expect("read");
            (name, bytes)
        })
        .collect()
}

/// A `MemStorage` the test keeps a second handle to, so the bytes outlive
/// a server that is dropped without detaching.
#[derive(Debug, Clone, Default)]
struct SharedMem(Arc<Mutex<MemStorage>>);

impl SharedMem {
    fn with<T>(&self, f: impl FnOnce(&mut MemStorage) -> T) -> T {
        f(&mut self.0.lock().expect("no test thread panics holding it"))
    }
}

impl StorageBackend for SharedMem {
    fn write(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.with(|m| m.write(name, bytes))
    }
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.with(|m| m.append(name, bytes))
    }
    fn read(&self, name: &str) -> Result<Vec<u8>, StorageError> {
        self.with(|m| m.read(name))
    }
    fn list(&self) -> Result<Vec<String>, StorageError> {
        self.with(|m| m.list())
    }
    fn remove(&mut self, name: &str) -> Result<(), StorageError> {
        self.with(|m| m.remove(name))
    }
}

#[test]
fn holding_changes_when_records_are_written_never_which_bytes() {
    let run = |every: Option<usize>| {
        let mut d = Driven::new(armed(Box::new(MemStorage::new())), every, usize::MAX);
        let calls = drive(&mut d, 300);
        assert!(calls >= 500, "the sequence shrank to {calls} calls");
        d.server.commit_journal();
        let stats = d.server.persist_stats().expect("armed");
        assert_eq!(stats.journal_records, calls as u64);
        assert_eq!(stats.append_failures, 0);
        let digest = d.server.durable_digest(SimTime::from_mins(2 * ROUNDS));
        let storage = d.server.detach_persistence().expect("armed");
        (stats, digest, blobs(storage.as_ref()))
    };
    let through = run(None);
    assert!(
        through
            .2
            .keys()
            .filter(|n| n.starts_with("journal-"))
            .count()
            >= 2,
        "the snapshot must have rotated the journal: {:?}",
        through.2.keys()
    );
    for k in [1, 7, 256] {
        let held = run(Some(k));
        assert_eq!(held.0, through.0, "persist stats diverged at k={k}");
        assert_eq!(held.1, through.1, "digest diverged at k={k}");
        assert_eq!(
            held.2.keys().collect::<Vec<_>>(),
            through.2.keys().collect::<Vec<_>>(),
            "blob set diverged at k={k}"
        );
        for (name, bytes) in &through.2 {
            assert_eq!(&held.2[name], bytes, "{name} diverged at k={k}");
        }
    }
}

/// Under a fault-injecting backend (which only knows `append`) a held
/// batch is the same call sequence as record-by-record appends: the same
/// faults land on the same bytes, and every consumed sequence number is
/// accounted for as written or refused.
#[test]
fn held_commits_keep_the_fault_stream_and_the_accounting() {
    for preset in ["torn-write", "disk-full", "mixed"] {
        let run = |every: Option<usize>| {
            let mut plan = StorageFaultPlan::preset(preset, 31).expect("known preset");
            if preset == "disk-full" {
                // Tight enough that appends are refused mid-run.
                plan.disk_full_after = Some(24 * 1024);
            }
            let storage = FaultingStorage::new(Box::new(MemStorage::new()), plan);
            let mut d = Driven::new(armed(Box::new(storage)), every, usize::MAX);
            let calls = drive(&mut d, 300);
            d.server.commit_journal();
            let stats = d.server.persist_stats().expect("armed");
            assert_eq!(
                stats.journal_records + stats.append_failures,
                calls as u64,
                "{preset}: a sequence number is neither written nor refused"
            );
            let storage = d.server.detach_persistence().expect("armed");
            (stats, blobs(storage.as_ref()))
        };
        let through = run(None);
        if preset == "disk-full" {
            assert!(through.0.append_failures > 0, "the budget never ran out");
        }
        for k in [7, 256] {
            assert_eq!(run(Some(k)), through, "{preset} diverged at k={k}");
        }
    }
}

#[test]
fn a_held_server_that_dies_uncommitted_recovers_to_its_committed_prefix() {
    let disk = SharedMem::default();
    // 64 calls to a commit; the server dies 40 calls into the ninth
    // stretch.
    let died_at = 8 * 64 + 40;
    let committed = 8 * 64;
    let mut d = Driven::new(armed(Box::new(disk.clone())), Some(64), died_at);
    // The snapshot falls inside a committed stretch.
    drive(&mut d, 300);
    assert_eq!(d.calls, died_at);
    let stats = d.server.persist_stats().expect("armed");
    assert_eq!(
        stats.journal_records, committed as u64,
        "only committed records may have reached storage"
    );
    drop(d);

    let t_crash = SimTime::from_mins(2 * ROUNDS);
    let mut recovered = fresh_server();
    let report = recovered
        .recover_from_storage(Box::new(disk), PersistConfig::default(), t_crash)
        .expect("the surviving bytes recover");
    assert_eq!(
        report.journal_bytes_dropped, 0,
        "held records must leave no bytes behind"
    );
    assert_eq!(report.lost_window, None);
    assert!(report.corrupt_generations.is_empty());

    let mut twin = Driven::new(fresh_server(), None, committed);
    drive(&mut twin, usize::MAX);
    let mut twin = twin.server;
    // Equalise the reconcile pass recovery ran, then compare.
    let t = t_crash + SimDuration::from_mins(5);
    assert_eq!(recovered.poll(t).unwrap(), twin.poll(t).unwrap());
    assert_eq!(recovered.durable_digest(t), twin.durable_digest(t));
}
