//! Randomized workout of the Sense-Aid server: hundreds of interleaved
//! register / deregister / observe / submit / update / delete / poll /
//! data operations, with invariants checked throughout. The point is not
//! any one behaviour but that *no* interleaving panics, corrupts counts,
//! or assigns devices that should be ineligible.

use senseaid::core::{RequestStatus, SenseAidConfig, SenseAidServer, TaskId, TaskSpec};
use senseaid::device::{ImeiHash, Sensor, SensorReading};
use senseaid::geo::{CircleRegion, GeoPoint};
use senseaid::sim::{SimDuration, SimRng, SimTime};

fn campus() -> GeoPoint {
    GeoPoint::new(40.4284, -86.9138)
}

/// One seeded fuzz run.
fn workout(seed: u64) {
    let mut rng = SimRng::from_seed_label(seed, "server-fuzz");
    let mut server = SenseAidServer::new(SenseAidConfig::default());
    let mut registered: Vec<ImeiHash> = Vec::new();
    let mut tasks: Vec<TaskId> = Vec::new();
    let mut live_assignments: Vec<senseaid::core::Assignment> = Vec::new();
    let mut now = SimTime::ZERO;

    for step in 0..600 {
        now += SimDuration::from_secs(rng.uniform_usize(1, 30) as u64);
        match rng.uniform_usize(0, 10) {
            // Register a new device somewhere on campus.
            0 | 1 => {
                let imei = ImeiHash(1000 + step as u64);
                server
                    .register_device(
                        imei,
                        rng.uniform_range(50.0, 600.0),
                        rng.uniform_range(5.0, 25.0),
                        rng.uniform_range(20.0, 100.0),
                        vec![Sensor::Barometer],
                        "GalaxyS4".to_owned(),
                        now,
                    )
                    .expect("server is up");
                server
                    .observe_device(
                        imei,
                        campus().offset_by_meters(
                            rng.uniform_range(-900.0, 900.0),
                            rng.uniform_range(-900.0, 900.0),
                        ),
                        None,
                    )
                    .expect("just registered");
                registered.push(imei);
            }
            // Deregister a random device.
            2 => {
                if !registered.is_empty() {
                    let i = rng.uniform_usize(0, registered.len());
                    let imei = registered.swap_remove(i);
                    server.deregister_device(imei).expect("was registered");
                }
            }
            // Move a random device (possibly out of every region).
            3 | 4 => {
                if let Some(imei) = rng.choose(&registered).copied() {
                    server
                        .observe_device(
                            imei,
                            campus().offset_by_meters(
                                rng.uniform_range(-2_000.0, 2_000.0),
                                rng.uniform_range(-2_000.0, 2_000.0),
                            ),
                            None,
                        )
                        .expect("registered");
                }
            }
            // Submit a new task.
            5 => {
                let spec = TaskSpec::builder(Sensor::Barometer)
                    .region(CircleRegion::new(
                        campus(),
                        rng.uniform_range(200.0, 1_200.0),
                    ))
                    .spatial_density(rng.uniform_usize(1, 5))
                    .sampling_period(SimDuration::from_mins(rng.uniform_usize(1, 10) as u64))
                    .sampling_duration(SimDuration::from_mins(rng.uniform_usize(10, 40) as u64))
                    .build()
                    .expect("generated spec is valid");
                tasks.push(server.submit_task(spec, now).expect("server is up"));
            }
            // Update a random task's parameters.
            6 => {
                if let Some(task) = rng.choose(&tasks).copied() {
                    let _ = server.update_task_param(
                        task,
                        Some(rng.uniform_usize(1, 6)),
                        Some(SimDuration::from_mins(rng.uniform_usize(1, 8) as u64)),
                        None,
                        now,
                    );
                }
            }
            // Delete a random task.
            7 => {
                if !tasks.is_empty() {
                    let i = rng.uniform_usize(0, tasks.len());
                    let task = tasks.swap_remove(i);
                    server.delete_task(task).expect("task existed");
                }
            }
            // Answer a random outstanding assignment (some devices, maybe
            // with an implausible value).
            8 => {
                if !live_assignments.is_empty() {
                    let i = rng.uniform_usize(0, live_assignments.len());
                    let a = live_assignments.swap_remove(i);
                    for imei in a.devices {
                        let bogus = rng.chance(0.05);
                        let reading = SensorReading {
                            sensor: Sensor::Barometer,
                            value: if bogus {
                                -42.0
                            } else {
                                rng.uniform_range(980.0, 1040.0)
                            },
                            taken_at: a.sample_at,
                            position: campus(),
                        };
                        // Any outcome is fine (expired, unknown, invalid);
                        // it must just never panic.
                        let _ = server.submit_sensed_data(imei, a.request, &reading, now);
                    }
                }
            }
            // Poll.
            _ => {
                let mut assignments = server.poll(now).expect("server is up");
                for a in &assignments {
                    // Invariant: an assignment never names a deregistered
                    // device, never exceeds its density, and is tracked as
                    // Assigned.
                    assert!(!a.devices.is_empty());
                    for d in &a.devices {
                        assert!(
                            registered.contains(d),
                            "step {step}: assigned unregistered device {d}"
                        );
                    }
                    assert_eq!(
                        server.request_status(a.request),
                        Some(RequestStatus::Assigned)
                    );
                }
                live_assignments.append(&mut assignments);
            }
        }

        // Global invariants after every operation.
        let stats = server.stats();
        assert!(
            stats.requests_fulfilled + stats.requests_expired
                <= stats.requests_assigned + stats.requests_waited + 10_000,
            "counter overflow nonsense"
        );
        assert_eq!(server.device_count(), registered.len());
    }

    // Drain: advance far enough that everything outstanding resolves.
    now += SimDuration::from_hours(2);
    server.poll(now).expect("server is up");
    let stats = server.stats();
    assert!(
        stats.requests_fulfilled + stats.requests_expired > 0,
        "a 600-step workout must have resolved something"
    );
    // Outbox drains cleanly and every delivered reading references a task
    // the server knew about.
    for (_, reading) in server.drain_outbox() {
        assert!(
            reading.value > 900.0,
            "invalid readings must never be delivered"
        );
    }
}

#[test]
fn randomized_server_workouts_never_panic() {
    for seed in 0..8 {
        workout(seed);
    }
}

// ---------------------------------------------------------------------
// Decode never panics: persistence codecs under byte mutation
// ---------------------------------------------------------------------
//
// The persistence layer's contract is that *any* byte string fed to its
// decoders yields `Ok` or `Err` — never a panic, and never a mutated
// frame accepted as valid. These properties drive the codecs with real
// persisted bytes mutated one byte at a time, plus raw noise.

use proptest::prelude::*;
use senseaid::core::persist::{journal_valid_prefix, validate_snapshot_frame};
use senseaid::core::{MemStorage, PersistConfig};

/// Runs a small persisted workload and returns the raw on-disk bytes:
/// every snapshot frame and every non-empty journal segment.
fn persisted_bytes() -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let mut server = SenseAidServer::new(SenseAidConfig::default());
    server
        .enable_persistence(
            Box::new(MemStorage::new()),
            PersistConfig { full_every: 2 },
            SimTime::ZERO,
        )
        .unwrap();
    let mut now = SimTime::ZERO;
    for imei in 1..=40u64 {
        server
            .register_device(
                ImeiHash(imei),
                495.0,
                15.0,
                60.0,
                vec![Sensor::Barometer],
                "GalaxyS4".to_owned(),
                now,
            )
            .unwrap();
        server
            .observe_device(ImeiHash(imei), campus(), None)
            .unwrap();
    }
    let spec = TaskSpec::builder(Sensor::Barometer)
        .region(CircleRegion::new(campus(), 800.0))
        .spatial_density(3)
        .sampling_period(SimDuration::from_mins(5))
        .sampling_duration(SimDuration::from_mins(30))
        .build()
        .unwrap();
    server.submit_task(spec, now).unwrap();
    for _ in 0..4 {
        now += SimDuration::from_mins(5);
        let assignments = server.poll(now).unwrap();
        for a in &assignments {
            for imei in &a.devices {
                let reading = SensorReading {
                    sensor: Sensor::Barometer,
                    value: 1000.0,
                    taken_at: a.sample_at,
                    position: campus(),
                };
                let _ = server.submit_sensed_data(*imei, a.request, &reading, now);
            }
        }
        server.take_snapshot(now);
    }
    let storage = server.detach_persistence().unwrap();
    let mut snaps = Vec::new();
    let mut journals = Vec::new();
    for name in storage.list().unwrap() {
        let bytes = storage.read(&name).unwrap();
        if name.starts_with("snap-") {
            snaps.push(bytes);
        } else if name.starts_with("journal-") && !bytes.is_empty() {
            journals.push(bytes);
        }
    }
    assert!(!snaps.is_empty() && !journals.is_empty());
    (snaps, journals)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any single-byte mutation of a valid snapshot frame is *rejected*
    /// — the checksum catches it — and never panics. So do arbitrary
    /// truncations and extensions.
    #[test]
    fn mutated_snapshot_frames_are_rejected(
        which in 0usize..8,
        offset in 0usize..100_000,
        mask in 1usize..256,
        cut in 0usize..100_000,
    ) {
        let (snaps, _) = persisted_bytes();
        let original = &snaps[which % snaps.len()];
        prop_assert!(validate_snapshot_frame(original).is_ok());

        let mut flipped = original.clone();
        let at = offset % flipped.len();
        flipped[at] ^= mask as u8;
        prop_assert!(
            validate_snapshot_frame(&flipped).is_err(),
            "single-byte mutation at {at} accepted"
        );

        let truncated = &original[..cut % original.len()];
        prop_assert!(validate_snapshot_frame(truncated).is_err());

        let mut extended = original.clone();
        extended.push(mask as u8);
        prop_assert!(validate_snapshot_frame(&extended).is_err());
    }

    /// Any mutation of a journal segment bounds the valid prefix — it
    /// never grows it past the original record count and never panics.
    #[test]
    fn mutated_journal_segments_only_shrink(
        which in 0usize..8,
        offset in 0usize..100_000,
        mask in 1usize..256,
        cut in 0usize..100_000,
    ) {
        let (_, journals) = persisted_bytes();
        let original = &journals[which % journals.len()];
        let (records, valid) = journal_valid_prefix(original);
        prop_assert_eq!(valid, original.len(), "pristine segment fully valid");

        let mut flipped = original.clone();
        let at = offset % flipped.len();
        flipped[at] ^= mask as u8;
        let (mutated_records, mutated_valid) = journal_valid_prefix(&flipped);
        prop_assert!(mutated_records <= records);
        prop_assert!(mutated_valid <= flipped.len());

        let torn = &original[..cut % original.len()];
        let (torn_records, torn_valid) = journal_valid_prefix(torn);
        prop_assert!(torn_records <= records);
        prop_assert!(torn_valid <= torn.len());
    }

    /// Raw noise never panics either decoder.
    #[test]
    fn arbitrary_bytes_never_panic_decoders(raw in proptest::collection::vec(0usize..256, 0..512)) {
        let bytes: Vec<u8> = raw.iter().map(|b| *b as u8).collect();
        let _ = validate_snapshot_frame(&bytes);
        let _ = journal_valid_prefix(&bytes);
    }
}

// ---------------------------------------------------------------------
// A frame can be intact and still wrong: device records out of order
// ---------------------------------------------------------------------
//
// Every writer emits device records strictly ascending by IMEI, and
// recovery builds on it (a sorted-run bulk load, a two-run delta merge).
// A frame that passes its CRC with the order broken is a buggy writer's
// output, not a disk fault — the decoder must still refuse it, and the
// recovery ladder must fall back to the generation below.

use senseaid::cellnet::CellId;
use senseaid::core::persist::codec::{open_frame, seal_frame, CodecError, KIND_SNAPSHOT_FULL};
use senseaid::core::StorageBackend;

/// IMEIs whose eight little-endian bytes occur nowhere else in a payload.
const MARKED: [u64; 4] = [
    0x5ea5_e1d0_0000_00a1,
    0x5ea5_e1d0_0000_00b2,
    0x5ea5_e1d0_0000_00c3,
    0x5ea5_e1d0_0000_00d4,
];

/// A persisted server of four same-shaped devices in four different
/// cells and no tasks — so each IMEI appears once, at the head of its
/// record — as `(storage, digest, full-snapshot payload, offset of each
/// record in it)`.
fn four_device_generation() -> (Box<dyn StorageBackend>, Vec<u8>, Vec<u8>, Vec<usize>) {
    let mut server = SenseAidServer::new(SenseAidConfig {
        shard_count: 2,
        ..SenseAidConfig::default()
    });
    for (k, imei) in MARKED.into_iter().enumerate() {
        server
            .register_device(
                ImeiHash(imei),
                495.0,
                15.0,
                60.0,
                vec![Sensor::Barometer],
                "GalaxyS4".to_owned(),
                SimTime::ZERO,
            )
            .unwrap();
        server
            .observe_device(ImeiHash(imei), campus(), Some(CellId(k)))
            .unwrap();
    }
    let digest = server.durable_digest(SimTime::ZERO);
    server
        .enable_persistence(
            Box::new(MemStorage::new()),
            PersistConfig::default(),
            SimTime::ZERO,
        )
        .unwrap();
    let storage = server.detach_persistence().unwrap();
    let frame = storage.read("snap-00000001").unwrap();
    let (kind, payload) = open_frame(&frame).unwrap();
    assert_eq!(kind, KIND_SNAPSHOT_FULL);
    let offsets: Vec<usize> = MARKED
        .iter()
        .map(|imei| {
            let at: Vec<usize> = payload
                .windows(8)
                .enumerate()
                .filter(|(_, w)| *w == imei.to_le_bytes())
                .map(|(i, _)| i)
                .collect();
            assert_eq!(at.len(), 1, "imei {imei:#x} marks exactly one record");
            at[0]
        })
        .collect();
    assert!(offsets
        .windows(2)
        .all(|w| w[1] - w[0] == offsets[1] - offsets[0]));
    (storage, digest, payload.to_vec(), offsets)
}

/// Stores `payload`, validly sealed, as generation 2 above the intact
/// generation 1 and recovers: the frame must be refused by name, and the
/// ladder must land on generation 1 with the original state.
fn refused_and_fallen_back_from(
    mut storage: Box<dyn StorageBackend>,
    digest: &[u8],
    payload: &[u8],
) {
    let frame = seal_frame(KIND_SNAPSHOT_FULL, payload);
    assert_eq!(
        validate_snapshot_frame(&frame),
        Err(CodecError::Malformed("device records not ascending"))
    );
    storage.write("snap-00000002", &frame).unwrap();
    let mut recovered = SenseAidServer::new(SenseAidConfig {
        shard_count: 2,
        ..SenseAidConfig::default()
    });
    let report = recovered
        .recover_from_storage(storage, PersistConfig::default(), SimTime::ZERO)
        .unwrap();
    assert_eq!(report.corrupt_generations, vec![2]);
    assert_eq!(report.loaded_generation, Some(1));
    assert_eq!(recovered.durable_digest(SimTime::ZERO), digest);
}

#[test]
fn a_snapshot_with_two_device_records_swapped_is_refused() {
    let (storage, digest, mut payload, at) = four_device_generation();
    let len = at[1] - at[0];
    let (head, tail) = payload.split_at_mut(at[2]);
    head[at[1]..at[1] + len].swap_with_slice(&mut tail[..len]);
    refused_and_fallen_back_from(storage, &digest, &payload);
}

#[test]
fn a_snapshot_naming_one_imei_twice_under_two_cells_is_refused() {
    // Loaded, this would put the device on two shards (cells 1 and 2 map
    // to different shards) while `home` names only the second.
    let (storage, digest, mut payload, at) = four_device_generation();
    payload.copy_within(at[1]..at[1] + 8, at[2]);
    refused_and_fallen_back_from(storage, &digest, &payload);
}

// ---------------------------------------------------------------------
// Decode never panics: the live wire codec under byte mutation
// ---------------------------------------------------------------------
//
// The serving layer extends the same contract to the socket boundary:
// whatever bytes a peer sends, frame reassembly and payload decoding
// yield `Ok` or a typed `Err` — never a panic, and a mutated frame is
// never accepted as the original.

use senseaid::serve::wire::{decode_frame, decode_push, decode_request, decode_response};
use senseaid::serve::{encode_request, FrameAssembler, WireRequest};

/// A corpus of valid encoded request frames covering every variant
/// shape (strings, vectors, optionals, floats).
fn wire_corpus() -> Vec<Vec<u8>> {
    use senseaid::serve::{WireReading, WireTaskSpec};
    let requests = [
        WireRequest::Hello { imei: 77 },
        WireRequest::Register {
            imei: 77,
            energy_budget_j: 495.0,
            critical_battery_pct: 15.0,
            battery_pct: 80.0,
            device_type: "GalaxyS4".to_owned(),
            sensors: vec![Sensor::Barometer, Sensor::Light],
        },
        WireRequest::Observe {
            imei: 77,
            lat_deg: 40.4284,
            lon_deg: -86.9138,
            cell: Some(3),
        },
        WireRequest::SubmitBatch {
            imei: 77,
            seq: 9,
            attempt: 2,
            readings: vec![WireReading {
                request: 4,
                sensor: Sensor::Barometer,
                value: 1013.2,
                taken_at_us: 120_000_000,
                lat_deg: 40.4284,
                lon_deg: -86.9138,
            }],
        },
        WireRequest::SubmitTask {
            cas: 1,
            spec: WireTaskSpec {
                sensor: Sensor::Barometer,
                centre_lat: 40.4284,
                centre_lon: -86.9138,
                radius_m: 800.0,
                spatial_density: 3,
                one_shot: false,
                period_us: 300_000_000,
                duration_us: 1_800_000_000,
            },
        },
        WireRequest::Shutdown,
    ];
    requests.iter().map(encode_request).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any single-byte mutation of a valid wire frame is rejected by
    /// reassembly or decode — the CRC and strict-exhaustion checks
    /// catch it — and never panics.
    #[test]
    fn mutated_wire_frames_are_rejected(
        which in 0usize..8,
        offset in 0usize..100_000,
        mask in 1usize..256,
        cut in 0usize..100_000,
    ) {
        let corpus = wire_corpus();
        let original = &corpus[which % corpus.len()];

        let mut assembler = FrameAssembler::new();
        assembler.extend(original);
        let pristine = assembler.next_frame();
        prop_assert!(matches!(pristine, Ok(Some(_))), "pristine frame must parse");

        let mut flipped = original.clone();
        let at = offset % flipped.len();
        flipped[at] ^= mask as u8;
        let mut assembler = FrameAssembler::new();
        assembler.extend(&flipped);
        match assembler.next_frame() {
            // Reassembly rejected it (bad magic/version/CRC/length)…
            Err(_) => {}
            // …or it still waits for more bytes (length field grew)…
            Ok(None) => {}
            // …or the CRC happened to survive a payload-identical flip:
            // decoding must then still yield Ok-or-typed-Err, and the
            // frame must not silently impersonate the original unless
            // the flip landed outside the sealed bytes (impossible
            // here, so any decode success must differ from original).
            Ok(Some((kind, payload))) => {
                let _ = decode_frame(kind, &payload);
            }
        }

        // Truncations never panic: every prefix either waits or errors.
        let truncated = &original[..cut % original.len()];
        let mut assembler = FrameAssembler::new();
        assembler.extend(truncated);
        let outcome = assembler.next_frame();
        prop_assert!(
            !matches!(outcome, Ok(Some(_))),
            "a strict prefix must never yield a complete frame"
        );
    }

    /// Raw noise never panics any wire decoder, fed whole or dribbled
    /// byte-at-a-time through reassembly.
    #[test]
    fn arbitrary_bytes_never_panic_wire_decoders(raw in proptest::collection::vec(0usize..256, 0..512)) {
        let bytes: Vec<u8> = raw.iter().map(|b| *b as u8).collect();
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
        let _ = decode_push(&bytes);

        let mut assembler = FrameAssembler::new();
        for b in &bytes {
            assembler.extend(std::slice::from_ref(b));
            match assembler.next_frame() {
                Ok(Some((kind, payload))) => {
                    let _ = decode_frame(kind, &payload);
                }
                Ok(None) => {}
                Err(_) => break,
            }
        }
    }
}

/// A crashed-and-corrupted store never panics recovery, whatever byte
/// gets hit — end to end through the server API.
#[test]
fn recovery_from_mutated_storage_never_panics() {
    for seed in 0..24u64 {
        let mut server = SenseAidServer::new(SenseAidConfig::default());
        server
            .enable_persistence(
                Box::new(MemStorage::new()),
                PersistConfig::default(),
                SimTime::ZERO,
            )
            .unwrap();
        let mut rng = SimRng::from_seed_label(seed, "recovery-fuzz");
        let mut now = SimTime::ZERO;
        for imei in 1..=30u64 {
            server
                .register_device(
                    ImeiHash(imei),
                    495.0,
                    15.0,
                    60.0,
                    vec![Sensor::Barometer],
                    "GalaxyS4".to_owned(),
                    now,
                )
                .unwrap();
        }
        for _ in 0..3 {
            now += SimDuration::from_mins(5);
            server.poll(now).unwrap();
            server.take_snapshot(now);
        }
        server.crash();
        let mut storage = server.detach_persistence().unwrap();
        let names = storage.list().unwrap();
        let name = names[rng.uniform_usize(0, names.len())].clone();
        let mut bytes = match storage.read(&name) {
            Ok(b) if !b.is_empty() => b,
            _ => continue,
        };
        let at = rng.uniform_usize(0, bytes.len());
        bytes[at] ^= 1 << rng.uniform_usize(0, 8);
        storage.write(&name, &bytes).unwrap();

        let mut recovered = SenseAidServer::new(SenseAidConfig::default());
        let report = recovered
            .recover_from_storage(storage, PersistConfig::default(), now)
            .unwrap();
        // Whatever the damage, the answer is truthful, not a panic.
        assert!(report.recovered_at == now);
        recovered.poll(now).unwrap();
    }
}
