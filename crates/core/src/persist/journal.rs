//! The write-ahead journal: a logical-operation log.
//!
//! Rather than journal state diffs, each record is the *operation* the
//! control plane was asked to perform — state-machine replication against
//! our own deterministic coordinator. Replay re-invokes the real methods
//! (with telemetry switched off), so a recovered server reaches exactly
//! the state of one that never crashed: same scheduling decisions, same
//! stats, same outbox.
//!
//! Every attempted mutation is journaled, *including* ones that returned
//! an error — error paths still mutate observable state (stats counters,
//! validity flags), and replay must reproduce them. Results are ignored
//! on replay for the same reason they are returned live: the caller saw
//! them then; recovery only needs the state they left behind.
//!
//! Wire format: each record is one [`codec`](super::codec) frame of kind
//! [`KIND_JOURNAL`](super::codec::KIND_JOURNAL) whose payload is a `u64`
//! global sequence number followed by the tagged op. A journal file is a
//! plain concatenation of frames; [`decode_segment`] walks the longest
//! valid prefix, so a torn final record never poisons the records before
//! it.

use senseaid_cellnet::CellId;
use senseaid_device::{ImeiHash, SensorReading};
use senseaid_geo::{CircleRegion, GeoPoint};
use senseaid_sim::{SimDuration, SimTime};

use crate::cas::CasId;
use crate::coordinator::Coordinator;
use crate::request::RequestId;
use crate::store::device_store::DeviceRecord;
use crate::task::{TaskId, TaskSpec};

use super::codec::{
    begin_frame, end_frame, open_frame_prefix, ByteReader, ByteWriter, CodecError, KIND_JOURNAL,
};
use super::snapshot::{
    put_duration, put_point, put_reading, put_record, put_region, put_spec, put_time,
    take_duration, take_point, take_reading, take_record, take_region, take_spec, take_time,
};

/// One journaled control-plane mutation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum JournalOp {
    /// `register_device` — the full record the server built.
    Register {
        /// The record as registered.
        record: DeviceRecord,
    },
    /// `deregister_device`.
    Deregister {
        /// The device.
        imei: ImeiHash,
    },
    /// `update_preferences`.
    UpdatePreferences {
        /// The device.
        imei: ImeiHash,
        /// New energy budget, Joules.
        energy_budget_j: f64,
        /// New critical-battery floor, %.
        critical_battery_pct: f64,
    },
    /// `update_device_state`.
    UpdateDeviceState {
        /// The device.
        imei: ImeiHash,
        /// Reported battery, %.
        battery_pct: f64,
        /// Reported crowdsensing energy spent, Joules.
        cs_energy_j: f64,
        /// When.
        now: SimTime,
    },
    /// `observe_device`.
    Observe {
        /// The device.
        imei: ImeiHash,
        /// Observed position.
        position: GeoPoint,
        /// Observed serving cell.
        cell: Option<CellId>,
    },
    /// `record_device_comm`.
    RecordComm {
        /// The device.
        imei: ImeiHash,
        /// When.
        now: SimTime,
    },
    /// `submit_task_for`.
    SubmitTask {
        /// The submitting application server.
        cas: CasId,
        /// The task spec.
        spec: TaskSpec,
        /// Submission instant.
        now: SimTime,
    },
    /// `update_task_param`.
    UpdateTaskParam {
        /// The task.
        task: TaskId,
        /// New spatial density, if changed.
        spatial_density: Option<usize>,
        /// New sampling period, if changed.
        sampling_period: Option<SimDuration>,
        /// New region, if changed.
        region: Option<CircleRegion>,
        /// When.
        now: SimTime,
    },
    /// `delete_task`.
    DeleteTask {
        /// The task.
        task: TaskId,
    },
    /// `poll` — scheduling is a mutation; replay discards the assignments
    /// (the crashed server already handed them out).
    Poll {
        /// The poll instant.
        now: SimTime,
    },
    /// `submit_sensed_data`.
    SubmitData {
        /// The reporting device.
        imei: ImeiHash,
        /// The request the reading answers.
        request: RequestId,
        /// The reading.
        reading: SensorReading,
        /// When.
        now: SimTime,
    },
    /// `submit_batch`.
    SubmitBatch {
        /// The reporting device.
        imei: ImeiHash,
        /// Envelope sequence number.
        seq: u64,
        /// Transmission attempt.
        attempt: u32,
        /// The readings carried.
        readings: Vec<(RequestId, SensorReading)>,
        /// When.
        now: SimTime,
    },
    /// `note_client_drops`.
    NoteClientDrops {
        /// Readings the client dropped on-device.
        dropped: u64,
    },
    /// `drain_outbox` — replay discards the result; draining is what
    /// reconstructs exactly the undrained tail of the outbox.
    DrainOutbox,
}

impl JournalOp {
    /// The sim instant the op was applied at, for ops that carry one.
    /// Recovery uses the maximum stamp as the durable horizon: no clock
    /// restarted from a recovered WAL may read earlier than this.
    pub(crate) fn stamp(&self) -> Option<SimTime> {
        match self {
            JournalOp::UpdateDeviceState { now, .. }
            | JournalOp::RecordComm { now, .. }
            | JournalOp::SubmitTask { now, .. }
            | JournalOp::UpdateTaskParam { now, .. }
            | JournalOp::Poll { now, .. }
            | JournalOp::SubmitData { now, .. }
            | JournalOp::SubmitBatch { now, .. } => Some(*now),
            JournalOp::Register { .. }
            | JournalOp::Deregister { .. }
            | JournalOp::UpdatePreferences { .. }
            | JournalOp::Observe { .. }
            | JournalOp::DeleteTask { .. }
            | JournalOp::NoteClientDrops { .. }
            | JournalOp::DrainOutbox => None,
        }
    }

    /// Re-invokes the op against `c`, discarding results — replay wants
    /// the state transitions, not the answers.
    pub(crate) fn apply(self, c: &mut Coordinator) {
        match self {
            JournalOp::Register { record } => c.register_device(record),
            JournalOp::Deregister { imei } => {
                let _ = c.deregister_device(imei);
            }
            JournalOp::UpdatePreferences {
                imei,
                energy_budget_j,
                critical_battery_pct,
            } => {
                let _ = c.update_preferences(imei, energy_budget_j, critical_battery_pct);
            }
            JournalOp::UpdateDeviceState {
                imei,
                battery_pct,
                cs_energy_j,
                now,
            } => {
                let _ = c.update_device_state(imei, battery_pct, cs_energy_j, now);
            }
            JournalOp::Observe {
                imei,
                position,
                cell,
            } => {
                let _ = c.observe_device(imei, position, cell);
            }
            JournalOp::RecordComm { imei, now } => {
                let _ = c.record_device_comm(imei, now);
            }
            JournalOp::SubmitTask { cas, spec, now } => {
                let _ = c.submit_task_for(cas, spec, now);
            }
            JournalOp::UpdateTaskParam {
                task,
                spatial_density,
                sampling_period,
                region,
                now,
            } => {
                let _ = c.update_task_param(task, spatial_density, sampling_period, region, now);
            }
            JournalOp::DeleteTask { task } => {
                let _ = c.delete_task(task);
            }
            JournalOp::Poll { now } => {
                let _ = c.poll(now);
            }
            JournalOp::SubmitData {
                imei,
                request,
                reading,
                now,
            } => {
                let _ = c.submit_sensed_data(imei, request, &reading, now);
            }
            JournalOp::SubmitBatch {
                imei,
                seq,
                attempt,
                readings,
                now,
            } => {
                let _ = c.submit_batch(imei, seq, attempt, &readings, now);
            }
            JournalOp::NoteClientDrops { dropped } => c.note_client_drops(dropped),
            JournalOp::DrainOutbox => {
                let _ = c.drain_outbox();
            }
        }
    }
}

fn put_opt_u64(w: &mut ByteWriter, v: Option<u64>) {
    match v {
        Some(v) => {
            w.put_bool(true);
            w.put_u64(v);
        }
        None => w.put_bool(false),
    }
}

fn take_opt_u64(r: &mut ByteReader<'_>) -> Result<Option<u64>, CodecError> {
    if r.take_bool()? {
        Ok(Some(r.take_u64()?))
    } else {
        Ok(None)
    }
}

fn put_op(w: &mut ByteWriter, op: &JournalOp) {
    match op {
        JournalOp::Register { record } => {
            w.put_u8(0);
            put_record(w, &record.view());
        }
        JournalOp::Deregister { imei } => {
            w.put_u8(1);
            w.put_u64(imei.0);
        }
        JournalOp::UpdatePreferences {
            imei,
            energy_budget_j,
            critical_battery_pct,
        } => {
            w.put_u8(2);
            w.put_u64(imei.0);
            w.put_f64(*energy_budget_j);
            w.put_f64(*critical_battery_pct);
        }
        JournalOp::UpdateDeviceState {
            imei,
            battery_pct,
            cs_energy_j,
            now,
        } => {
            w.put_u8(3);
            w.put_u64(imei.0);
            w.put_f64(*battery_pct);
            w.put_f64(*cs_energy_j);
            put_time(w, *now);
        }
        JournalOp::Observe {
            imei,
            position,
            cell,
        } => {
            w.put_u8(4);
            w.put_u64(imei.0);
            put_point(w, *position);
            put_opt_u64(w, cell.map(|c| c.0 as u64));
        }
        JournalOp::RecordComm { imei, now } => {
            w.put_u8(5);
            w.put_u64(imei.0);
            put_time(w, *now);
        }
        JournalOp::SubmitTask { cas, spec, now } => {
            w.put_u8(6);
            w.put_u64(cas.0);
            put_spec(w, spec);
            put_time(w, *now);
        }
        JournalOp::UpdateTaskParam {
            task,
            spatial_density,
            sampling_period,
            region,
            now,
        } => {
            w.put_u8(7);
            w.put_u64(task.0);
            put_opt_u64(w, spatial_density.map(|d| d as u64));
            match sampling_period {
                Some(p) => {
                    w.put_bool(true);
                    put_duration(w, *p);
                }
                None => w.put_bool(false),
            }
            match region {
                Some(rg) => {
                    w.put_bool(true);
                    put_region(w, *rg);
                }
                None => w.put_bool(false),
            }
            put_time(w, *now);
        }
        JournalOp::DeleteTask { task } => {
            w.put_u8(8);
            w.put_u64(task.0);
        }
        JournalOp::Poll { now } => {
            w.put_u8(9);
            put_time(w, *now);
        }
        JournalOp::SubmitData {
            imei,
            request,
            reading,
            now,
        } => {
            w.put_u8(10);
            w.put_u64(imei.0);
            w.put_u64(request.0);
            put_reading(w, reading);
            put_time(w, *now);
        }
        JournalOp::SubmitBatch {
            imei,
            seq,
            attempt,
            readings,
            now,
        } => {
            w.put_u8(11);
            w.put_u64(imei.0);
            w.put_u64(*seq);
            w.put_u32(*attempt);
            w.put_u32(u32::try_from(readings.len()).expect("batch size must fit in u32"));
            for (req, reading) in readings {
                w.put_u64(req.0);
                put_reading(w, reading);
            }
            put_time(w, *now);
        }
        JournalOp::NoteClientDrops { dropped } => {
            w.put_u8(12);
            w.put_u64(*dropped);
        }
        JournalOp::DrainOutbox => w.put_u8(13),
    }
}

fn take_op(r: &mut ByteReader<'_>) -> Result<JournalOp, CodecError> {
    Ok(match r.take_u8()? {
        0 => JournalOp::Register {
            record: take_record(r)?,
        },
        1 => JournalOp::Deregister {
            imei: ImeiHash(r.take_u64()?),
        },
        2 => JournalOp::UpdatePreferences {
            imei: ImeiHash(r.take_u64()?),
            energy_budget_j: r.take_f64()?,
            critical_battery_pct: r.take_f64()?,
        },
        3 => JournalOp::UpdateDeviceState {
            imei: ImeiHash(r.take_u64()?),
            battery_pct: r.take_f64()?,
            cs_energy_j: r.take_f64()?,
            now: take_time(r)?,
        },
        4 => JournalOp::Observe {
            imei: ImeiHash(r.take_u64()?),
            position: take_point(r)?,
            cell: match take_opt_u64(r)? {
                Some(raw) => Some(CellId(
                    usize::try_from(raw).map_err(|_| CodecError::Malformed("cell id overflow"))?,
                )),
                None => None,
            },
        },
        5 => JournalOp::RecordComm {
            imei: ImeiHash(r.take_u64()?),
            now: take_time(r)?,
        },
        6 => JournalOp::SubmitTask {
            cas: CasId(r.take_u64()?),
            spec: take_spec(r)?,
            now: take_time(r)?,
        },
        7 => JournalOp::UpdateTaskParam {
            task: TaskId(r.take_u64()?),
            spatial_density: match take_opt_u64(r)? {
                Some(raw) => Some(
                    usize::try_from(raw).map_err(|_| CodecError::Malformed("density overflow"))?,
                ),
                None => None,
            },
            sampling_period: if r.take_bool()? {
                Some(take_duration(r)?)
            } else {
                None
            },
            region: if r.take_bool()? {
                Some(take_region(r)?)
            } else {
                None
            },
            now: take_time(r)?,
        },
        8 => JournalOp::DeleteTask {
            task: TaskId(r.take_u64()?),
        },
        9 => JournalOp::Poll { now: take_time(r)? },
        10 => JournalOp::SubmitData {
            imei: ImeiHash(r.take_u64()?),
            request: RequestId(r.take_u64()?),
            reading: take_reading(r)?,
            now: take_time(r)?,
        },
        11 => {
            let imei = ImeiHash(r.take_u64()?);
            let seq = r.take_u64()?;
            let attempt = r.take_u32()?;
            let n = r.take_count(8)?;
            let mut readings = Vec::with_capacity(n);
            for _ in 0..n {
                let req = RequestId(r.take_u64()?);
                readings.push((req, take_reading(r)?));
            }
            JournalOp::SubmitBatch {
                imei,
                seq,
                attempt,
                readings,
                now: take_time(r)?,
            }
        }
        12 => JournalOp::NoteClientDrops {
            dropped: r.take_u64()?,
        },
        13 => JournalOp::DrainOutbox,
        _ => return Err(CodecError::Malformed("unknown journal op tag")),
    })
}

/// Encodes one journal record — a sealed frame carrying `(seq, op)` —
/// straight onto the end of `out`, which keeps its earlier records and
/// its capacity: a buffer that has seen one busy turn encodes the next
/// without allocating.
pub(crate) fn encode_record_into(out: &mut Vec<u8>, seq: u64, op: &JournalOp) {
    let start = begin_frame(out, KIND_JOURNAL);
    let mut w = ByteWriter::from_vec(std::mem::take(out));
    w.put_u64(seq);
    put_op(&mut w, op);
    *out = w.into_bytes();
    end_frame(out, start);
}

/// The reference encoding [`encode_record_into`] must reproduce byte for
/// byte: payload built on its own, then sealed.
#[cfg(test)]
pub(crate) fn encode_record(seq: u64, op: &JournalOp) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(seq);
    put_op(&mut w, op);
    super::codec::seal_frame(KIND_JOURNAL, &w.into_bytes())
}

/// Decodes one record payload into `(seq, op)`, rejecting trailing bytes.
pub(crate) fn decode_record(payload: &[u8]) -> Result<(u64, JournalOp), CodecError> {
    let mut r = ByteReader::new(payload);
    let seq = r.take_u64()?;
    let op = take_op(&mut r)?;
    if !r.is_exhausted() {
        return Err(CodecError::Malformed("trailing bytes after journal op"));
    }
    Ok((seq, op))
}

/// The longest valid prefix of a journal segment.
#[derive(Debug, Clone, Default)]
pub(crate) struct SegmentPrefix {
    /// The `(seq, op)` records that decoded cleanly, in order.
    pub(crate) ops: Vec<(u64, JournalOp)>,
    /// End offset of each record in `ops` — `ends[i]` is the first byte
    /// after record `i`, so a replay that stops at record `i` can report
    /// exactly `len - ends[i-1]` bytes dropped.
    pub(crate) ends: Vec<usize>,
    /// Bytes covered by those records; anything after this offset was
    /// torn, truncated or corrupt and is dropped.
    pub(crate) valid_bytes: usize,
}

/// Walks a journal segment frame by frame, returning the records before
/// the first undecodable byte. A segment that starts corrupt yields an
/// empty prefix — never an error, never a panic.
pub(crate) fn decode_segment(bytes: &[u8]) -> SegmentPrefix {
    let mut out = SegmentPrefix::default();
    let mut offset = 0usize;
    while offset < bytes.len() {
        let Ok((kind, payload, consumed)) = open_frame_prefix(&bytes[offset..]) else {
            break;
        };
        if kind != KIND_JOURNAL {
            break;
        }
        let Ok((seq, op)) = decode_record(payload) else {
            break;
        };
        out.ops.push((seq, op));
        offset += consumed;
        out.ends.push(offset);
        out.valid_bytes = offset;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use senseaid_device::Sensor;

    fn sample_ops() -> Vec<JournalOp> {
        let region = CircleRegion::new(GeoPoint::new(40.4284, -86.9138), 500.0);
        let spec = TaskSpec::builder(Sensor::Barometer)
            .region(region)
            .sampling_period(SimDuration::from_mins(5))
            .sampling_duration(SimDuration::from_mins(30))
            .spatial_density(2)
            .build()
            .unwrap();
        vec![
            JournalOp::Register {
                record: crate::store::device_store::new_record(
                    ImeiHash(7),
                    495.0,
                    15.0,
                    80.0,
                    vec![Sensor::Barometer],
                    "GalaxyS4".to_string(),
                    SimTime::ZERO,
                ),
            },
            JournalOp::Observe {
                imei: ImeiHash(7),
                position: GeoPoint::new(40.4284, -86.9138),
                cell: Some(CellId(3)),
            },
            JournalOp::SubmitTask {
                cas: CasId(1),
                spec,
                now: SimTime::from_mins(1),
            },
            JournalOp::UpdateTaskParam {
                task: TaskId(1),
                spatial_density: Some(4),
                sampling_period: None,
                region: Some(region),
                now: SimTime::from_mins(2),
            },
            JournalOp::Poll {
                now: SimTime::from_mins(3),
            },
            JournalOp::SubmitData {
                imei: ImeiHash(7),
                request: RequestId(1),
                reading: SensorReading {
                    sensor: Sensor::Barometer,
                    value: 1013.2,
                    taken_at: SimTime::from_mins(3),
                    position: GeoPoint::new(40.4284, -86.9138),
                },
                now: SimTime::from_mins(3),
            },
            JournalOp::SubmitBatch {
                imei: ImeiHash(7),
                seq: 2,
                attempt: 1,
                readings: vec![(
                    RequestId(2),
                    SensorReading {
                        sensor: Sensor::Barometer,
                        value: 1013.9,
                        taken_at: SimTime::from_mins(4),
                        position: GeoPoint::new(40.4284, -86.9138),
                    },
                )],
                now: SimTime::from_mins(4),
            },
            JournalOp::SubmitBatch {
                imei: ImeiHash(7),
                seq: 3,
                attempt: 2,
                readings: Vec::new(),
                now: SimTime::from_mins(4),
            },
            JournalOp::SubmitBatch {
                imei: ImeiHash(7),
                seq: 4,
                attempt: 1,
                readings: (0..64)
                    .map(|i| {
                        (
                            RequestId(10 + i),
                            SensorReading {
                                sensor: Sensor::Barometer,
                                value: 1000.0 + i as f64,
                                taken_at: SimTime::from_mins(5),
                                position: GeoPoint::new(40.4284, -86.9138),
                            },
                        )
                    })
                    .collect(),
                now: SimTime::from_mins(5),
            },
            JournalOp::UpdatePreferences {
                imei: ImeiHash(7),
                energy_budget_j: 300.0,
                critical_battery_pct: 20.0,
            },
            JournalOp::UpdateDeviceState {
                imei: ImeiHash(7),
                battery_pct: 71.5,
                cs_energy_j: 12.25,
                now: SimTime::from_mins(6),
            },
            JournalOp::RecordComm {
                imei: ImeiHash(7),
                now: SimTime::from_mins(6),
            },
            JournalOp::NoteClientDrops { dropped: 2 },
            JournalOp::DrainOutbox,
            JournalOp::DeleteTask { task: TaskId(1) },
            JournalOp::Deregister { imei: ImeiHash(7) },
        ]
    }

    /// `sample_ops` must keep covering every variant: a new one fails to
    /// compile here until it is given a tag, and fails the assertion
    /// until it is given a sample.
    #[test]
    fn in_place_encoding_equals_the_reference_on_every_variant() {
        let ops = sample_ops();
        let mut seen = [false; 14];
        let mut pending = b"earlier bytes stay".to_vec();
        let mut want = pending.clone();
        for (i, op) in ops.iter().enumerate() {
            let tag = match op {
                JournalOp::Register { .. } => 0,
                JournalOp::Deregister { .. } => 1,
                JournalOp::UpdatePreferences { .. } => 2,
                JournalOp::UpdateDeviceState { .. } => 3,
                JournalOp::Observe { .. } => 4,
                JournalOp::RecordComm { .. } => 5,
                JournalOp::SubmitTask { .. } => 6,
                JournalOp::UpdateTaskParam { .. } => 7,
                JournalOp::DeleteTask { .. } => 8,
                JournalOp::Poll { .. } => 9,
                JournalOp::SubmitData { .. } => 10,
                JournalOp::SubmitBatch { .. } => 11,
                JournalOp::NoteClientDrops { .. } => 12,
                JournalOp::DrainOutbox => 13,
            };
            seen[tag] = true;
            let seq = 1_000 + i as u64;
            encode_record_into(&mut pending, seq, op);
            want.extend_from_slice(&encode_record(seq, op));
            assert_eq!(pending, want, "record {i} ({op:?}) diverged");
        }
        assert_eq!(seen, [true; 14], "a JournalOp variant has no sample");
    }

    #[test]
    fn records_round_trip() {
        for (i, op) in sample_ops().into_iter().enumerate() {
            let bytes = encode_record(i as u64, &op);
            let payload = super::super::codec::open_frame_expecting(&bytes, KIND_JOURNAL).unwrap();
            let (seq, decoded) = decode_record(payload).unwrap();
            assert_eq!(seq, i as u64);
            assert_eq!(decoded, op);
        }
    }

    #[test]
    fn segment_prefix_survives_torn_tail() {
        let ops = sample_ops();
        let mut segment = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            segment.extend_from_slice(&encode_record(i as u64, op));
        }
        let whole = decode_segment(&segment);
        assert_eq!(whole.ops.len(), ops.len());
        assert_eq!(whole.valid_bytes, segment.len());

        // Tear the final record: every record before it must survive.
        let torn = &segment[..segment.len() - 3];
        let prefix = decode_segment(torn);
        assert_eq!(prefix.ops.len(), ops.len() - 1);
        assert!(prefix.valid_bytes < torn.len());

        // Flip a bit mid-file: replay stops at the mangled record.
        let mut flipped = segment.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        let prefix = decode_segment(&flipped);
        assert!(prefix.ops.len() < ops.len());
        for (want, got) in ops.iter().zip(prefix.ops.iter()) {
            assert_eq!(&got.1, want);
        }
    }

    #[test]
    fn garbage_segment_yields_empty_prefix() {
        let prefix = decode_segment(&[0xde, 0xad, 0xbe, 0xef, 1, 2, 3]);
        assert!(prefix.ops.is_empty());
        assert_eq!(prefix.valid_bytes, 0);
    }
}
