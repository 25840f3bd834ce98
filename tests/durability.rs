//! Durable persistence: twin-server equivalence through crash, recovery,
//! and seeded storage faults.
//!
//! The contract under test: a server that crashes and recovers *from
//! disk* — snapshot chain plus journal replay — is observably identical
//! to a twin that never crashed, modulo the truthfully-reported lost
//! window. Under fault injection (torn writes, truncation, bit flips,
//! dropped writes) recovery must never panic, never load corrupt state,
//! and must land exactly on the state produced by the surviving prefix
//! of operations.

use senseaid::bench::recover::{
    apply, centre, check_surviving_prefix, drive, fresh_server, network, offset, spec,
};
use senseaid::core::{FaultingStorage, MemStorage, PersistConfig, StorageFaultPlan};
use senseaid::device::{ImeiHash, Sensor, SensorReading};
use senseaid::sim::{SimDuration, SimTime};

/// Crash + recover-from-disk with no faults is invisible: the recovered
/// server is byte-identical to the never-crashed twin and stays in
/// lockstep through further rounds.
#[test]
fn recovery_without_faults_matches_never_crashed_twin() {
    let mut durable = fresh_server();
    durable
        .enable_persistence(
            Box::new(MemStorage::new()),
            PersistConfig::default(),
            SimTime::ZERO,
        )
        .unwrap();
    let mut twin = fresh_server();

    let (calls, _gens, t_crash) = drive(&mut durable, 400, 8, 7);
    for call in &calls {
        apply(call, &mut twin);
    }

    // The process dies; only the storage backend survives.
    durable.crash();
    let storage = durable.detach_persistence().unwrap();
    let mut recovered = fresh_server();
    let report = recovered
        .recover_from_storage(storage, PersistConfig::default(), t_crash)
        .unwrap();
    assert!(!report.cold_start);
    assert_eq!(report.journal_bytes_dropped, 0);
    assert!(report.corrupt_generations.is_empty());
    assert_eq!(report.lost_window, None);
    assert!(report.loaded_generation.is_some());

    // Equalise the reconcile pass (recovery ran one) and compare.
    let t = t_crash + SimDuration::from_mins(5);
    assert_eq!(recovered.poll(t).unwrap(), twin.poll(t).unwrap());
    assert_eq!(recovered.durable_digest(t), twin.durable_digest(t));
    assert_eq!(recovered.drain_outbox(), twin.drain_outbox());

    // And it stays in lockstep afterwards.
    let mut t = t;
    for _ in 0..4 {
        t += SimDuration::from_mins(5);
        let a = recovered.poll(t).unwrap();
        let b = twin.poll(t).unwrap();
        assert_eq!(a, b, "post-recovery divergence at {t:?}");
        for assignment in &a {
            for imei in &assignment.devices {
                let reading = SensorReading {
                    sensor: Sensor::Barometer,
                    value: 1010.0,
                    taken_at: assignment.sample_at,
                    position: centre(),
                };
                for s in [&mut recovered, &mut twin] {
                    s.submit_sensed_data(*imei, assignment.request, &reading, t)
                        .unwrap();
                }
            }
        }
    }
    assert_eq!(recovered.durable_digest(t), twin.durable_digest(t));
    assert_eq!(recovered.stats(), twin.stats());
}

/// One cell of the fault matrix: drive a persisted server under a seeded
/// fault plan, crash it, recover from what reached the backend, and hold
/// the recovery to the surviving-prefix contract. With `held` the whole
/// drive runs inside one `hold_journal` bracket (the live server's mode),
/// so its commits are the ones its snapshots force plus the closing one.
fn faulted_round_trip(preset: &str, fault_seed: u64, held: bool) {
    let cell = format!("{preset}/{fault_seed}/held={held}");
    let plan = StorageFaultPlan::preset(preset, fault_seed).unwrap();
    let storage = FaultingStorage::new(Box::new(MemStorage::new()), plan);

    let mut durable = fresh_server();
    durable
        .enable_persistence(Box::new(storage), PersistConfig::default(), SimTime::ZERO)
        .unwrap();
    if held {
        durable.hold_journal();
    }
    let (calls, gen_calls, t_crash) = drive(&mut durable, 300, 10, 5);
    durable.commit_journal();
    let stats = durable.persist_stats().unwrap();
    assert_eq!(
        stats.journal_records + stats.append_failures,
        calls.len() as u64,
        "{cell}: a record is neither written nor refused"
    );

    durable.crash();
    let storage = durable.detach_persistence().unwrap();
    let mut recovered = fresh_server();
    // A full disk cannot take the post-recovery snapshot, so persistence
    // is not re-armed; the in-memory recovery stands.
    let report = recovered
        .recover_from_storage(storage, PersistConfig::default(), t_crash)
        .unwrap_or_else(|_| {
            assert_eq!(preset, "disk-full", "{cell} did not recover");
            recovered.last_recovery_report().unwrap().clone()
        });

    let survived = check_surviving_prefix(&mut recovered, &report, &calls, &gen_calls, t_crash)
        .unwrap_or_else(|e| panic!("{cell}: {e}"));

    // Truthfulness: anything lost is reported, never papered over.
    if survived < calls.len() {
        assert!(
            report.lost_window.is_some() || report.loaded_generation.is_some(),
            "{cell}: loss without a report"
        );
    }
    if let Some((from, to)) = report.lost_window {
        assert!(from <= to);
        assert_eq!(to, t_crash);
    }
}

/// Under every seeded fault plan, recovery lands exactly on the state a
/// reference server reaches by replaying the surviving call prefix:
/// snapshot chain fallback skips corrupt generations, journal replay
/// stops at the first invalid record, and the report accounts for the
/// difference.
#[test]
fn faulted_recovery_equals_surviving_prefix() {
    for preset in ["torn-write", "truncate", "bit-flip", "stale", "mixed"] {
        for fault_seed in [11_u64, 23, 47] {
            faulted_round_trip(preset, fault_seed, false);
        }
    }
}

/// The same contract with the journal held and committed in batches: the
/// faulting backend still sees one append per record, and a refused
/// batch or a full disk only ever shortens the surviving prefix,
/// truthfully.
#[test]
fn faulted_recovery_with_held_commits_equals_surviving_prefix() {
    for preset in ["torn-write", "disk-full", "mixed"] {
        for fault_seed in [11_u64, 23, 47] {
            faulted_round_trip(preset, fault_seed, true);
        }
    }
}

/// Surgical corruption of the newest snapshot demotes recovery to the
/// previous intact generation — the fallback ladder, pinned
/// deterministically.
#[test]
fn corrupt_newest_generation_falls_back_to_older() {
    let mut durable = fresh_server();
    durable
        .enable_persistence(
            Box::new(MemStorage::new()),
            // Full snapshots only: each generation stands alone.
            PersistConfig { full_every: 1 },
            SimTime::ZERO,
        )
        .unwrap();
    let (_calls, _gens, t_crash) = drive(&mut durable, 200, 6, 3);
    let newest = durable.persist_generation().unwrap();

    durable.crash();
    let mut storage = durable.detach_persistence().unwrap();
    // Flip one byte in the middle of the newest snapshot.
    let name = format!("snap-{newest:08}");
    let mut bytes = storage.read(&name).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    storage.write(&name, &bytes).unwrap();

    let mut recovered = fresh_server();
    let report = recovered
        .recover_from_storage(storage, PersistConfig { full_every: 1 }, t_crash)
        .unwrap();
    assert!(!report.cold_start, "older generations must still load");
    assert!(report.corrupt_generations.contains(&newest));
    let loaded = report.loaded_generation.unwrap();
    assert!(loaded < newest, "must not load the corrupt generation");
    assert!(recovered.device_count() > 0);
}

/// With *everything* on disk destroyed, recovery cold-starts truthfully:
/// no panic, no invented state, and the report says total loss.
#[test]
fn total_corruption_cold_starts_truthfully() {
    let mut durable = fresh_server();
    durable
        .enable_persistence(
            Box::new(MemStorage::new()),
            PersistConfig::default(),
            SimTime::ZERO,
        )
        .unwrap();
    let (_calls, _gens, t_crash) = drive(&mut durable, 150, 4, 9);

    durable.crash();
    let mut storage = durable.detach_persistence().unwrap();
    for name in storage.list().unwrap() {
        let bytes = storage.read(&name).unwrap();
        let garbled: Vec<u8> = bytes.iter().map(|b| b ^ 0xA5).collect();
        storage.write(&name, &garbled).unwrap();
    }

    let mut recovered = fresh_server();
    let report = recovered
        .recover_from_storage(storage, PersistConfig::default(), t_crash)
        .unwrap();
    assert!(report.cold_start);
    assert_eq!(report.loaded_generation, None);
    assert_eq!(report.ops_replayed, 0);
    assert!(report.journal_bytes_dropped > 0, "loss must be accounted");
    assert_eq!(report.lost_window, Some((SimTime::ZERO, t_crash)));
    assert_eq!(recovered.device_count(), 0);
    // The recovered (empty) server still works.
    recovered.poll(t_crash).unwrap();
}

/// Steady-state deltas persist at least 10× fewer bytes than full
/// snapshots once churn is a small fraction of the population.
#[test]
fn delta_snapshots_are_an_order_of_magnitude_smaller() {
    let mut durable = fresh_server();
    durable
        .enable_persistence(
            Box::new(MemStorage::new()),
            // Never force a full: measure pure delta cost.
            PersistConfig {
                full_every: u32::MAX,
            },
            SimTime::ZERO,
        )
        .unwrap();
    let (_calls, _gens, t_end) = drive(&mut durable, 2_000, 6, 13);

    let stats = durable.persist_stats().unwrap();
    assert!(
        stats.snapshots_delta >= 2,
        "drive must have persisted deltas"
    );
    let delta_bytes = stats.snapshot_bytes_last;
    let full_bytes = durable.durable_digest(t_end).len() as u64;
    assert!(
        full_bytes >= 10 * delta_bytes,
        "steady-state delta ({delta_bytes} B) must be ≥10× smaller than full ({full_bytes} B)"
    );
}

/// Satellite: `recover_at` with no snapshot is a deterministic cold
/// start, not a silent no-op. Devices and leases survive; in-flight
/// assignments are cleared — overdue requests expire truthfully,
/// still-viable ones are re-announced.
#[test]
fn recover_at_without_snapshot_cold_starts() {
    let net = network();
    let mut server = fresh_server();
    let t0 = SimTime::ZERO;
    for imei in 1..=50u64 {
        let p = centre().offset_by_meters(offset(imei, 1), offset(imei, 2));
        server
            .register_device(
                ImeiHash(imei),
                495.0,
                15.0,
                80.0,
                vec![Sensor::Barometer],
                "GalaxyS4".to_owned(),
                t0,
            )
            .unwrap();
        server
            .observe_device(ImeiHash(imei), p, net.serving_cell(p))
            .unwrap();
    }
    server.submit_task(spec(900.0, 60), t0).unwrap();
    let t1 = SimTime::from_mins(5);
    let assignments = server.poll(t1).unwrap();
    assert!(!assignments.is_empty());
    let in_flight: Vec<_> = assignments.iter().map(|a| a.request).collect();
    for id in &in_flight {
        assert_eq!(
            server.request_status(*id),
            Some(senseaid::core::RequestStatus::Assigned)
        );
    }

    // Crash with work in flight; recover without ever snapshotting.
    server.crash();
    let t2 = t1 + SimDuration::from_mins(2);
    server.recover_at(t2);

    // Devices survive; no in-flight request is still silently Assigned.
    assert_eq!(server.device_count(), 50);
    for id in &in_flight {
        let status = server.request_status(*id).unwrap();
        assert_ne!(
            status,
            senseaid::core::RequestStatus::Assigned,
            "cold start must clear in-flight tasking"
        );
    }
    // Still-viable requests are re-announced on the next poll.
    let reassigned = server.poll(t2).unwrap();
    assert!(
        !reassigned.is_empty(),
        "viable requests must be re-announced after cold start"
    );
}
