//! Full and delta snapshot payload encodings.
//!
//! Payloads are the *inside* of a [`codec`](super::codec) frame — the
//! chain layer seals and checksums them. Everything here is hand-rolled
//! little-endian encoding over [`ByteWriter`]/[`ByteReader`], because the
//! decode side must treat the bytes as hostile: a frame can pass its CRC
//! (the disk returned exactly what a buggy writer stored) and still
//! violate domain invariants. Every constructor that panics in normal
//! operation — `GeoPoint::new`, `CircleRegion::new`, `Request::new`,
//! `TraceLog::push` — is reached only through a validating decoder that
//! returns [`CodecError::Malformed`] instead.
//!
//! A full payload is the entire [`ControlSnapshot`]; a delta payload
//! carries only the device columns dirtied since its base generation plus
//! the (request-scale, orders-of-magnitude smaller) always-full sections.
//! Both carry the journal sequence watermark so recovery knows where
//! journal replay must resume.

use std::collections::{BTreeMap, BTreeSet};

use senseaid_cellnet::CellId;
use senseaid_device::{ImeiHash, Sensor, SensorReading};
use senseaid_geo::{CircleRegion, GeoPoint};
use senseaid_sim::{SimDuration, SimTime, TraceLog};

use crate::cas::CasId;
use crate::coordinator::{
    ActiveRequest, ControlSnapshot, ControlView, SelectionEvent, SeqLedger, SnapshotDelta,
};
use crate::request::{RejectReason, Request, RequestId, RequestStatus, ShedReason};
use crate::store::device_store::{DeviceRecord, RecordView};
use crate::store::task_store::{TaskState, TaskStatus, TaskStore};
use crate::task::{TaskId, TaskSchedule, TaskSpec};
use crate::ServerStats;

use super::codec::{ByteReader, ByteWriter, CodecError};
use super::{fit_u32, PersistError};

// ---------------------------------------------------------------------
// Primitive helpers (shared with the journal codec)
// ---------------------------------------------------------------------

pub(crate) fn put_count(w: &mut ByteWriter, n: usize) {
    w.put_u32(u32::try_from(n).expect("collection size must fit in u32"));
}

pub(crate) fn put_time(w: &mut ByteWriter, t: SimTime) {
    w.put_u64(t.as_micros());
}

pub(crate) fn take_time(r: &mut ByteReader<'_>) -> Result<SimTime, CodecError> {
    Ok(SimTime::from_micros(r.take_u64()?))
}

pub(crate) fn put_duration(w: &mut ByteWriter, d: SimDuration) {
    w.put_u64(d.as_micros());
}

pub(crate) fn take_duration(r: &mut ByteReader<'_>) -> Result<SimDuration, CodecError> {
    Ok(SimDuration::from_micros(r.take_u64()?))
}

/// Floats stored in control-plane state are always finite; a NaN or
/// infinity coming off disk is corruption the CRC happened not to catch
/// at the domain level.
pub(crate) fn take_finite_f64(r: &mut ByteReader<'_>) -> Result<f64, CodecError> {
    let v = r.take_f64()?;
    if v.is_finite() {
        Ok(v)
    } else {
        Err(CodecError::Malformed("non-finite float"))
    }
}

pub(crate) fn take_usize(r: &mut ByteReader<'_>) -> Result<usize, CodecError> {
    usize::try_from(r.take_u64()?).map_err(|_| CodecError::Malformed("count exceeds usize"))
}

pub(crate) fn put_sensor(w: &mut ByteWriter, s: Sensor) {
    w.put_i32(s.type_code());
}

pub(crate) fn take_sensor(r: &mut ByteReader<'_>) -> Result<Sensor, CodecError> {
    Sensor::from_type_code(r.take_i32()?).ok_or(CodecError::Malformed("unknown sensor type code"))
}

pub(crate) fn put_point(w: &mut ByteWriter, p: GeoPoint) {
    w.put_f64(p.lat_deg());
    w.put_f64(p.lon_deg());
}

pub(crate) fn take_point(r: &mut ByteReader<'_>) -> Result<GeoPoint, CodecError> {
    let lat = take_finite_f64(r)?;
    let lon = take_finite_f64(r)?;
    if !(-90.0..=90.0).contains(&lat) || !(-180.0..=180.0).contains(&lon) {
        return Err(CodecError::Malformed("coordinate out of range"));
    }
    Ok(GeoPoint::new(lat, lon))
}

pub(crate) fn put_region(w: &mut ByteWriter, region: CircleRegion) {
    put_point(w, region.centre());
    w.put_f64(region.radius_m());
}

pub(crate) fn take_region(r: &mut ByteReader<'_>) -> Result<CircleRegion, CodecError> {
    let centre = take_point(r)?;
    let radius = take_finite_f64(r)?;
    if radius <= 0.0 {
        return Err(CodecError::Malformed("non-positive region radius"));
    }
    Ok(CircleRegion::new(centre, radius))
}

pub(crate) fn put_spec(w: &mut ByteWriter, spec: &TaskSpec) {
    put_sensor(w, spec.sensor());
    put_region(w, spec.region());
    w.put_u64(spec.spatial_density() as u64);
    match spec.sampling_period() {
        Some(p) => {
            w.put_bool(true);
            put_duration(w, p);
        }
        None => w.put_bool(false),
    }
    match spec.schedule() {
        TaskSchedule::Duration(d) => {
            w.put_u8(0);
            put_duration(w, d);
        }
        TaskSchedule::Window { start, end } => {
            w.put_u8(1);
            put_time(w, start);
            put_time(w, end);
        }
        TaskSchedule::OneShot => w.put_u8(2),
    }
    match spec.device_type() {
        Some(t) => {
            w.put_bool(true);
            w.put_str(t);
        }
        None => w.put_bool(false),
    }
}

pub(crate) fn take_spec(r: &mut ByteReader<'_>) -> Result<TaskSpec, CodecError> {
    let sensor = take_sensor(r)?;
    let region = take_region(r)?;
    let density = take_usize(r)?;
    let period = if r.take_bool()? {
        Some(take_duration(r)?)
    } else {
        None
    };
    let schedule = match r.take_u8()? {
        0 => TaskSchedule::Duration(take_duration(r)?),
        1 => TaskSchedule::Window {
            start: take_time(r)?,
            end: take_time(r)?,
        },
        2 => TaskSchedule::OneShot,
        _ => return Err(CodecError::Malformed("unknown task schedule tag")),
    };
    let device_type = if r.take_bool()? {
        Some(r.take_str()?)
    } else {
        None
    };
    TaskSpec::from_decoded(sensor, region, density, period, schedule, device_type)
        .ok_or(CodecError::Malformed("task spec violates invariants"))
}

pub(crate) fn put_request(w: &mut ByteWriter, req: &Request) {
    w.put_u64(req.id().0);
    w.put_u64(req.task().0);
    put_spec(w, req.spec());
    put_time(w, req.sample_at());
    put_time(w, req.deadline());
}

pub(crate) fn take_request(r: &mut ByteReader<'_>) -> Result<Request, CodecError> {
    let id = RequestId(r.take_u64()?);
    let task = TaskId(r.take_u64()?);
    let spec = take_spec(r)?;
    let sample_at = take_time(r)?;
    let deadline = take_time(r)?;
    Request::from_decoded(id, task, spec, sample_at, deadline)
        .ok_or(CodecError::Malformed("request deadline not after sample"))
}

pub(crate) fn put_status(w: &mut ByteWriter, status: RequestStatus) {
    match status {
        RequestStatus::Pending => w.put_u8(0),
        RequestStatus::Waiting => w.put_u8(1),
        RequestStatus::Assigned => w.put_u8(2),
        RequestStatus::Fulfilled => w.put_u8(3),
        RequestStatus::Expired => w.put_u8(4),
        RequestStatus::Cancelled => w.put_u8(5),
        RequestStatus::Rejected { reason } => {
            w.put_u8(6);
            w.put_u8(match reason {
                RejectReason::QueueFull => 0,
            });
        }
        RequestStatus::Shed { reason } => {
            w.put_u8(7);
            w.put_u8(match reason {
                ShedReason::WaitQueueFull => 0,
            });
        }
        RequestStatus::Degraded { achieved_density } => {
            w.put_u8(8);
            w.put_u64(achieved_density as u64);
        }
    }
}

pub(crate) fn take_status(r: &mut ByteReader<'_>) -> Result<RequestStatus, CodecError> {
    Ok(match r.take_u8()? {
        0 => RequestStatus::Pending,
        1 => RequestStatus::Waiting,
        2 => RequestStatus::Assigned,
        3 => RequestStatus::Fulfilled,
        4 => RequestStatus::Expired,
        5 => RequestStatus::Cancelled,
        6 => RequestStatus::Rejected {
            reason: match r.take_u8()? {
                0 => RejectReason::QueueFull,
                _ => return Err(CodecError::Malformed("unknown reject reason")),
            },
        },
        7 => RequestStatus::Shed {
            reason: match r.take_u8()? {
                0 => ShedReason::WaitQueueFull,
                _ => return Err(CodecError::Malformed("unknown shed reason")),
            },
        },
        8 => RequestStatus::Degraded {
            achieved_density: take_usize(r)?,
        },
        _ => return Err(CodecError::Malformed("unknown request status tag")),
    })
}

pub(crate) fn put_record(w: &mut ByteWriter, rec: &RecordView<'_>) {
    w.put_u64(rec.imei.0);
    w.put_f64(rec.energy_budget_j);
    w.put_f64(rec.critical_battery_pct);
    w.put_f64(rec.cs_energy_j);
    w.put_f64(rec.battery_pct);
    w.put_u64(rec.times_selected);
    put_time(w, rec.last_comm);
    match rec.position {
        Some(p) => {
            w.put_bool(true);
            put_point(w, p);
        }
        None => w.put_bool(false),
    }
    match rec.cell {
        Some(c) => {
            w.put_bool(true);
            w.put_u64(c.0 as u64);
        }
        None => w.put_bool(false),
    }
    put_count(w, rec.sensors.len());
    for &s in rec.sensors {
        put_sensor(w, s);
    }
    w.put_str(rec.device_type);
    w.put_bool(rec.responsive);
    w.put_bool(rec.data_valid);
    w.put_f64(rec.reliability);
}

pub(crate) fn take_record(r: &mut ByteReader<'_>) -> Result<DeviceRecord, CodecError> {
    let imei = ImeiHash(r.take_u64()?);
    let energy_budget_j = take_finite_f64(r)?;
    let critical_battery_pct = take_finite_f64(r)?;
    let cs_energy_j = take_finite_f64(r)?;
    let battery_pct = take_finite_f64(r)?;
    let times_selected = r.take_u64()?;
    let last_comm = take_time(r)?;
    let position = if r.take_bool()? {
        Some(take_point(r)?)
    } else {
        None
    };
    let cell = if r.take_bool()? {
        let raw = r.take_u64()?;
        let id = usize::try_from(raw).map_err(|_| CodecError::Malformed("cell id overflow"))?;
        Some(CellId(id))
    } else {
        None
    };
    let n = r.take_count(4)?;
    let mut sensors = Vec::with_capacity(n);
    for _ in 0..n {
        sensors.push(take_sensor(r)?);
    }
    let device_type = r.take_str()?;
    let responsive = r.take_bool()?;
    let data_valid = r.take_bool()?;
    let reliability = take_finite_f64(r)?;
    Ok(DeviceRecord {
        imei,
        energy_budget_j,
        critical_battery_pct,
        cs_energy_j,
        battery_pct,
        times_selected,
        last_comm,
        position,
        cell,
        sensors,
        device_type,
        responsive,
        data_valid,
        reliability,
    })
}

/// Reads a counted run of device records, refusing one that is not
/// strictly ascending by IMEI. Every writer emits them so; a frame that
/// passes its CRC with a repeat or a swap would otherwise load a device
/// into two shards, or defeat the sorted-run merge and bulk load that
/// rely on the order.
fn take_records_ascending(r: &mut ByteReader<'_>) -> Result<Vec<DeviceRecord>, CodecError> {
    let n = r.take_count(16)?;
    let mut records: Vec<DeviceRecord> = Vec::with_capacity(n);
    for _ in 0..n {
        let record = take_record(r)?;
        if records.last().is_some_and(|prev| prev.imei >= record.imei) {
            return Err(CodecError::Malformed("device records not ascending"));
        }
        records.push(record);
    }
    Ok(records)
}

pub(crate) fn put_reading(w: &mut ByteWriter, reading: &SensorReading) {
    put_sensor(w, reading.sensor);
    w.put_f64(reading.value);
    put_time(w, reading.taken_at);
    put_point(w, reading.position);
}

pub(crate) fn take_reading(r: &mut ByteReader<'_>) -> Result<SensorReading, CodecError> {
    Ok(SensorReading {
        sensor: take_sensor(r)?,
        value: take_finite_f64(r)?,
        taken_at: take_time(r)?,
        position: take_point(r)?,
    })
}

// ---------------------------------------------------------------------
// Composite sections
// ---------------------------------------------------------------------

fn put_task_state(w: &mut ByteWriter, t: &TaskState) {
    w.put_u64(t.id.0);
    put_spec(w, &t.spec);
    put_time(w, t.submitted_at);
    w.put_u8(match t.status {
        TaskStatus::Active => 0,
        TaskStatus::Finished => 1,
        TaskStatus::Deleted => 2,
    });
    w.put_u64(t.requests_generated as u64);
    w.put_u64(t.requests_fulfilled as u64);
    w.put_u64(t.requests_expired as u64);
}

fn take_task_state(r: &mut ByteReader<'_>) -> Result<TaskState, CodecError> {
    Ok(TaskState {
        id: TaskId(r.take_u64()?),
        spec: take_spec(r)?,
        submitted_at: take_time(r)?,
        status: match r.take_u8()? {
            0 => TaskStatus::Active,
            1 => TaskStatus::Finished,
            2 => TaskStatus::Deleted,
            _ => return Err(CodecError::Malformed("unknown task status tag")),
        },
        requests_generated: take_usize(r)?,
        requests_fulfilled: take_usize(r)?,
        requests_expired: take_usize(r)?,
    })
}

fn put_task_store(w: &mut ByteWriter, tasks: &TaskStore) {
    w.put_u64(tasks.next_id_raw());
    put_count(w, tasks.len());
    for t in tasks.iter() {
        put_task_state(w, t);
    }
}

fn take_task_store(r: &mut ByteReader<'_>) -> Result<TaskStore, CodecError> {
    let next_id = r.take_u64()?;
    let n = r.take_count(8)?;
    let mut states = Vec::with_capacity(n);
    for _ in 0..n {
        states.push(take_task_state(r)?);
    }
    Ok(TaskStore::from_decoded(next_id, states))
}

fn put_active(w: &mut ByteWriter, active: &ActiveRequest) {
    put_request(w, &active.request);
    w.put_u64(active.cas.0);
    put_count(w, active.assigned.len());
    for imei in &active.assigned {
        w.put_u64(imei.0);
    }
    put_count(w, active.received.len());
    for imei in &active.received {
        w.put_u64(imei.0);
    }
    w.put_bool(active.degraded);
}

fn take_active(r: &mut ByteReader<'_>) -> Result<ActiveRequest, CodecError> {
    let request = take_request(r)?;
    let cas = CasId(r.take_u64()?);
    let n = r.take_count(8)?;
    let mut assigned = Vec::with_capacity(n);
    for _ in 0..n {
        assigned.push(ImeiHash(r.take_u64()?));
    }
    let n = r.take_count(8)?;
    let mut received = BTreeSet::new();
    for _ in 0..n {
        received.insert(ImeiHash(r.take_u64()?));
    }
    let degraded = r.take_bool()?;
    Ok(ActiveRequest {
        request,
        cas,
        assigned,
        received,
        degraded,
    })
}

fn put_ledger(w: &mut ByteWriter, ledger: &SeqLedger) {
    w.put_u64(ledger.floor);
    put_count(w, ledger.ahead.len());
    for &seq in &ledger.ahead {
        w.put_u64(seq);
    }
}

fn take_ledger(r: &mut ByteReader<'_>) -> Result<SeqLedger, CodecError> {
    let floor = r.take_u64()?;
    let n = r.take_count(8)?;
    let mut ahead = BTreeSet::new();
    for _ in 0..n {
        ahead.insert(r.take_u64()?);
    }
    Ok(SeqLedger { floor, ahead })
}

fn put_selection(w: &mut ByteWriter, ev: &SelectionEvent) {
    w.put_u64(ev.request.0);
    w.put_u64(ev.task.0);
    w.put_u64(ev.qualified as u64);
    put_count(w, ev.selected.len());
    for imei in &ev.selected {
        w.put_u64(imei.0);
    }
}

fn take_selection(r: &mut ByteReader<'_>) -> Result<SelectionEvent, CodecError> {
    let request = RequestId(r.take_u64()?);
    let task = TaskId(r.take_u64()?);
    let qualified = take_usize(r)?;
    let n = r.take_count(8)?;
    let mut selected = Vec::with_capacity(n);
    for _ in 0..n {
        selected.push(ImeiHash(r.take_u64()?));
    }
    Ok(SelectionEvent {
        request,
        task,
        qualified,
        selected,
    })
}

fn put_selections(w: &mut ByteWriter, log: &TraceLog<SelectionEvent>) {
    put_count(w, log.len());
    for entry in log.entries() {
        put_time(w, entry.at);
        put_selection(w, &entry.item);
    }
}

/// Decodes `n` timestamped selection entries, appending them to `log` —
/// validating monotonicity *before* `TraceLog::push` (which panics).
fn take_selections_into(
    r: &mut ByteReader<'_>,
    log: &mut TraceLog<SelectionEvent>,
    n: usize,
) -> Result<(), CodecError> {
    for _ in 0..n {
        let at = take_time(r)?;
        if log.last().is_some_and(|prev| at < prev.at) {
            return Err(CodecError::Malformed("selection trace not monotone"));
        }
        let item = take_selection(r)?;
        log.push(at, item);
    }
    Ok(())
}

fn put_stats(w: &mut ByteWriter, stats: &ServerStats) {
    w.put_u64(stats.requests_assigned);
    w.put_u64(stats.requests_fulfilled);
    w.put_u64(stats.requests_expired);
    w.put_u64(stats.requests_waited);
    w.put_u64(stats.readings_rejected);
    w.put_u64(stats.readings_accepted);
    w.put_u64(stats.envelopes_duplicate);
    w.put_u64(stats.envelopes_retried);
    w.put_u64(stats.readings_duplicate);
    w.put_u64(stats.client_readings_dropped);
    w.put_u64(stats.requests_rejected);
    w.put_u64(stats.requests_shed);
    w.put_u64(stats.requests_degraded);
    w.put_u64(stats.leases_expired);
}

fn take_stats(r: &mut ByteReader<'_>) -> Result<ServerStats, CodecError> {
    Ok(ServerStats {
        requests_assigned: r.take_u64()?,
        requests_fulfilled: r.take_u64()?,
        requests_expired: r.take_u64()?,
        requests_waited: r.take_u64()?,
        readings_rejected: r.take_u64()?,
        readings_accepted: r.take_u64()?,
        envelopes_duplicate: r.take_u64()?,
        envelopes_retried: r.take_u64()?,
        readings_duplicate: r.take_u64()?,
        client_readings_dropped: r.take_u64()?,
        requests_rejected: r.take_u64()?,
        requests_shed: r.take_u64()?,
        requests_degraded: r.take_u64()?,
        leases_expired: r.take_u64()?,
    })
}

// ---------------------------------------------------------------------
// Full snapshots
// ---------------------------------------------------------------------

/// A decoded full snapshot: the state plus the journal watermark replay
/// resumes from.
#[derive(Debug, Clone)]
pub(crate) struct DecodedFull {
    pub(crate) journal_seq: u64,
    pub(crate) snapshot: ControlSnapshot,
}

/// Appends a full snapshot payload (unframed) to `w`, read straight from
/// the control plane's own state: no [`ControlSnapshot`] is built and no
/// device record is cloned. Byte for byte what `encode_full` produces
/// from `Coordinator::snapshot` — the tests hold the two together.
///
/// # Errors
///
/// [`PersistError::TooLarge`] when the device count does not fit the
/// format's `u32`; `w` then holds a partial payload to discard.
pub(crate) fn write_full(
    w: &mut ByteWriter,
    s: &ControlView<'_>,
    journal_seq: u64,
) -> Result<(), PersistError> {
    let device_count = fit_u32("device count", s.device_count())?;
    w.put_u64(journal_seq);
    put_time(w, s.taken_at);
    w.put_u64(s.next_request_id);
    put_task_store(w, s.tasks);
    put_count(w, s.task_owner.len());
    for (&task, &cas) in s.task_owner {
        w.put_u64(task.0);
        w.put_u64(cas.0);
    }
    put_count(w, s.statuses.len());
    for (&id, &status) in s.statuses {
        w.put_u64(id.0);
        put_status(w, status);
    }
    put_count(w, s.queued_run_len());
    for req in s.queued_run() {
        put_request(w, req);
    }
    put_count(w, s.queued_wait_len());
    for req in s.queued_wait() {
        put_request(w, req);
    }
    put_count(w, s.active.len());
    for (id, active) in s.active.iter() {
        w.put_u64(id.0);
        put_active(w, active);
    }
    w.put_u32(device_count);
    for rec in s.devices() {
        put_record(w, &rec);
    }
    put_count(w, s.seq_ledger.len());
    for (imei, ledger) in s.seq_ledger {
        w.put_u64(imei.0);
        put_ledger(w, ledger);
    }
    put_count(w, s.delivered_log.len());
    for &(req, imei) in s.delivered_log {
        w.put_u64(req.0);
        w.put_u64(imei.0);
    }
    put_stats(w, &s.stats);
    put_selections(w, s.selections);
    Ok(())
}

/// Encodes a full snapshot payload (unframed) from a materialised
/// [`ControlSnapshot`] — the reference [`write_full`] is compared
/// against.
#[cfg(test)]
pub(crate) fn encode_full(s: &ControlSnapshot, journal_seq: u64) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(journal_seq);
    put_time(&mut w, s.taken_at);
    w.put_u64(s.next_request_id);
    put_task_store(&mut w, &s.tasks);
    put_count(&mut w, s.task_owner.len());
    for (&task, &cas) in &s.task_owner {
        w.put_u64(task.0);
        w.put_u64(cas.0);
    }
    put_count(&mut w, s.statuses.len());
    for (&id, &status) in &s.statuses {
        w.put_u64(id.0);
        put_status(&mut w, status);
    }
    put_count(&mut w, s.queued_run.len());
    for req in &s.queued_run {
        put_request(&mut w, req);
    }
    put_count(&mut w, s.queued_wait.len());
    for req in &s.queued_wait {
        put_request(&mut w, req);
    }
    put_count(&mut w, s.active.len());
    for (id, active) in &s.active {
        w.put_u64(id.0);
        put_active(&mut w, active);
    }
    put_count(&mut w, s.devices.len());
    for rec in &s.devices {
        put_record(&mut w, &rec.view());
    }
    put_count(&mut w, s.seq_ledger.len());
    for (imei, ledger) in &s.seq_ledger {
        w.put_u64(imei.0);
        put_ledger(&mut w, ledger);
    }
    put_count(&mut w, s.delivered_log.len());
    for &(req, imei) in &s.delivered_log {
        w.put_u64(req.0);
        w.put_u64(imei.0);
    }
    put_stats(&mut w, &s.stats);
    put_selections(&mut w, &s.selections);
    w.into_bytes()
}

/// Decodes a full snapshot payload, validating every domain invariant.
pub(crate) fn decode_full(payload: &[u8]) -> Result<DecodedFull, CodecError> {
    let mut r = ByteReader::new(payload);
    let journal_seq = r.take_u64()?;
    let taken_at = take_time(&mut r)?;
    let next_request_id = r.take_u64()?;
    let tasks = take_task_store(&mut r)?;

    let n = r.take_count(16)?;
    let mut task_owner = BTreeMap::new();
    for _ in 0..n {
        task_owner.insert(TaskId(r.take_u64()?), CasId(r.take_u64()?));
    }

    let n = r.take_count(9)?;
    let mut statuses = BTreeMap::new();
    for _ in 0..n {
        let id = RequestId(r.take_u64()?);
        statuses.insert(id, take_status(&mut r)?);
    }

    let n = r.take_count(16)?;
    let mut queued_run = Vec::with_capacity(n);
    for _ in 0..n {
        queued_run.push(take_request(&mut r)?);
    }
    let n = r.take_count(16)?;
    let mut queued_wait = Vec::with_capacity(n);
    for _ in 0..n {
        queued_wait.push(take_request(&mut r)?);
    }

    let n = r.take_count(16)?;
    let mut active = Vec::with_capacity(n);
    for _ in 0..n {
        let id = RequestId(r.take_u64()?);
        active.push((id, take_active(&mut r)?));
    }

    let devices = take_records_ascending(&mut r)?;

    let n = r.take_count(16)?;
    let mut seq_ledger = BTreeMap::new();
    for _ in 0..n {
        let imei = ImeiHash(r.take_u64()?);
        seq_ledger.insert(imei, take_ledger(&mut r)?);
    }

    let n = r.take_count(16)?;
    let mut delivered_log = BTreeSet::new();
    for _ in 0..n {
        delivered_log.insert((RequestId(r.take_u64()?), ImeiHash(r.take_u64()?)));
    }

    let stats = take_stats(&mut r)?;

    let n = r.take_count(8)?;
    let mut selections = TraceLog::new();
    take_selections_into(&mut r, &mut selections, n)?;

    if !r.is_exhausted() {
        return Err(CodecError::Malformed("trailing bytes after snapshot"));
    }
    Ok(DecodedFull {
        journal_seq,
        snapshot: ControlSnapshot {
            taken_at,
            tasks,
            next_request_id,
            statuses,
            task_owner,
            queued_run,
            queued_wait,
            active,
            devices,
            seq_ledger,
            delivered_log,
            stats,
            selections,
        },
    })
}

// ---------------------------------------------------------------------
// Delta snapshots
// ---------------------------------------------------------------------

/// A decoded delta: the changes, which generation they apply on top of,
/// and the journal watermark.
#[derive(Debug, Clone)]
pub(crate) struct DecodedDelta {
    pub(crate) base_gen: u64,
    pub(crate) journal_seq: u64,
    pub(crate) delta: SnapshotDelta,
}

/// Appends a delta snapshot payload (unframed) against `base_gen` to `w`.
pub(crate) fn write_delta(w: &mut ByteWriter, d: &SnapshotDelta, base_gen: u64, journal_seq: u64) {
    w.put_u64(base_gen);
    w.put_u64(journal_seq);
    put_time(w, d.taken_at);
    w.put_u64(d.next_request_id);
    put_task_store(w, &d.tasks);
    put_count(w, d.task_owner.len());
    for (&task, &cas) in &d.task_owner {
        w.put_u64(task.0);
        w.put_u64(cas.0);
    }
    put_count(w, d.queued_run.len());
    for req in &d.queued_run {
        put_request(w, req);
    }
    put_count(w, d.queued_wait.len());
    for req in &d.queued_wait {
        put_request(w, req);
    }
    put_count(w, d.active.len());
    for (id, active) in &d.active {
        w.put_u64(id.0);
        put_active(w, active);
    }
    put_stats(w, &d.stats);
    put_count(w, d.devices_changed.len());
    for rec in &d.devices_changed {
        put_record(w, &rec.view());
    }
    put_count(w, d.devices_removed.len());
    for imei in &d.devices_removed {
        w.put_u64(imei.0);
    }
    put_count(w, d.statuses_changed.len());
    for &(id, status) in &d.statuses_changed {
        w.put_u64(id.0);
        put_status(w, status);
    }
    put_count(w, d.seq_changed.len());
    for (imei, ledger) in &d.seq_changed {
        w.put_u64(imei.0);
        put_ledger(w, ledger);
    }
    put_count(w, d.delivered_appended.len());
    for &(req, imei) in &d.delivered_appended {
        w.put_u64(req.0);
        w.put_u64(imei.0);
    }
    put_count(w, d.selections_base_len);
    put_count(w, d.selections_appended.len());
    for entry in &d.selections_appended {
        put_time(w, entry.at);
        put_selection(w, &entry.item);
    }
}

/// Decodes a delta snapshot payload.
pub(crate) fn decode_delta(payload: &[u8]) -> Result<DecodedDelta, CodecError> {
    let mut r = ByteReader::new(payload);
    let base_gen = r.take_u64()?;
    let journal_seq = r.take_u64()?;
    let taken_at = take_time(&mut r)?;
    let next_request_id = r.take_u64()?;
    let tasks = take_task_store(&mut r)?;

    let n = r.take_count(16)?;
    let mut task_owner = BTreeMap::new();
    for _ in 0..n {
        task_owner.insert(TaskId(r.take_u64()?), CasId(r.take_u64()?));
    }

    let n = r.take_count(16)?;
    let mut queued_run = Vec::with_capacity(n);
    for _ in 0..n {
        queued_run.push(take_request(&mut r)?);
    }
    let n = r.take_count(16)?;
    let mut queued_wait = Vec::with_capacity(n);
    for _ in 0..n {
        queued_wait.push(take_request(&mut r)?);
    }

    let n = r.take_count(16)?;
    let mut active = Vec::with_capacity(n);
    for _ in 0..n {
        let id = RequestId(r.take_u64()?);
        active.push((id, take_active(&mut r)?));
    }

    let stats = take_stats(&mut r)?;

    let devices_changed = take_records_ascending(&mut r)?;

    let n = r.take_count(8)?;
    let mut devices_removed: Vec<ImeiHash> = Vec::with_capacity(n);
    for _ in 0..n {
        let imei = ImeiHash(r.take_u64()?);
        if devices_removed.last().is_some_and(|prev| *prev >= imei) {
            return Err(CodecError::Malformed("removed devices not ascending"));
        }
        devices_removed.push(imei);
    }

    let n = r.take_count(9)?;
    let mut statuses_changed = Vec::with_capacity(n);
    for _ in 0..n {
        let id = RequestId(r.take_u64()?);
        statuses_changed.push((id, take_status(&mut r)?));
    }

    let n = r.take_count(16)?;
    let mut seq_changed = Vec::with_capacity(n);
    for _ in 0..n {
        let imei = ImeiHash(r.take_u64()?);
        seq_changed.push((imei, take_ledger(&mut r)?));
    }

    let n = r.take_count(16)?;
    let mut delivered_appended = Vec::with_capacity(n);
    for _ in 0..n {
        delivered_appended.push((RequestId(r.take_u64()?), ImeiHash(r.take_u64()?)));
    }

    let selections_base_len =
        usize::try_from(r.take_u32()?).map_err(|_| CodecError::Malformed("count exceeds usize"))?;
    let n = r.take_count(8)?;
    let mut appended = TraceLog::new();
    take_selections_into(&mut r, &mut appended, n)?;

    if !r.is_exhausted() {
        return Err(CodecError::Malformed("trailing bytes after delta"));
    }
    Ok(DecodedDelta {
        base_gen,
        journal_seq,
        delta: SnapshotDelta {
            taken_at,
            next_request_id,
            tasks,
            task_owner,
            queued_run,
            queued_wait,
            active,
            stats,
            devices_changed,
            devices_removed,
            statuses_changed,
            seq_changed,
            delivered_appended,
            selections_base_len,
            selections_appended: appended.into_entries(),
        },
    })
}

/// Applies a decoded delta on top of its base snapshot, producing the
/// state as of the delta's generation. Both are consumed: the base's
/// maps and trace are extended in place, and its device run is merged
/// with the delta's — both strictly ascending by IMEI, as the decoder
/// guarantees — in one pass, so resolving a chain clones nothing.
///
/// # Errors
///
/// [`CodecError::Malformed`] when the delta does not actually extend
/// `base` — its recorded base selections length disagrees, or its
/// appended selections go back in time relative to the base's trace. The
/// chain layer treats that like any other corruption: fall back to an
/// older generation.
pub(crate) fn apply_delta(
    base: ControlSnapshot,
    d: SnapshotDelta,
) -> Result<ControlSnapshot, CodecError> {
    if d.selections_base_len != base.selections.len() {
        return Err(CodecError::Malformed("delta base selections mismatch"));
    }
    let mut selections = base.selections;
    for entry in d.selections_appended {
        if selections.last().is_some_and(|prev| entry.at < prev.at) {
            return Err(CodecError::Malformed("delta selections not monotone"));
        }
        selections.push(entry.at, entry.item);
    }

    // The base run with the delta's run folded in — a changed record
    // replaces its base record — and removed IMEIs dropped from both.
    let mut devices = Vec::with_capacity(base.devices.len() + d.devices_changed.len());
    let mut removed = d.devices_removed.iter().peekable();
    let mut keep = |record: DeviceRecord| {
        while removed.next_if(|gone| **gone < record.imei).is_some() {}
        if removed.peek() != Some(&&record.imei) {
            devices.push(record);
        }
    };
    let mut changed = d.devices_changed.into_iter().peekable();
    for record in base.devices {
        while let Some(added) = changed.next_if(|c| c.imei < record.imei) {
            keep(added);
        }
        keep(changed.next_if(|c| c.imei == record.imei).unwrap_or(record));
    }
    changed.for_each(&mut keep);

    let mut statuses = base.statuses;
    statuses.extend(d.statuses_changed);
    let mut seq_ledger = base.seq_ledger;
    seq_ledger.extend(d.seq_changed);
    let mut delivered_log = base.delivered_log;
    delivered_log.extend(d.delivered_appended);

    Ok(ControlSnapshot {
        taken_at: d.taken_at,
        tasks: d.tasks,
        next_request_id: d.next_request_id,
        statuses,
        task_owner: d.task_owner,
        queued_run: d.queued_run,
        queued_wait: d.queued_wait,
        active: d.active,
        devices,
        seq_ledger,
        delivered_log,
        stats: d.stats,
        selections,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SenseAidConfig;
    use crate::server::SenseAidServer;

    fn sample_server() -> SenseAidServer {
        let mut server = SenseAidServer::new(SenseAidConfig::default());
        for i in 0..20u64 {
            server
                .register_device(
                    ImeiHash(1000 + i),
                    500.0,
                    15.0,
                    80.0,
                    vec![Sensor::Barometer],
                    "GalaxyS4".to_string(),
                    SimTime::ZERO,
                )
                .unwrap();
            server
                .observe_device(
                    ImeiHash(1000 + i),
                    GeoPoint::new(40.4284 + (i as f64) * 1e-4, -86.9138),
                    None,
                )
                .unwrap();
        }
        let spec = TaskSpec::builder(Sensor::Barometer)
            .region(CircleRegion::new(GeoPoint::new(40.4284, -86.9138), 800.0))
            .sampling_period(SimDuration::from_mins(5))
            .sampling_duration(SimDuration::from_mins(30))
            .spatial_density(3)
            .build()
            .unwrap();
        server.submit_task(spec, SimTime::ZERO).unwrap();
        let assignments = server.poll(SimTime::from_mins(1)).unwrap();
        assert!(!assignments.is_empty());
        server
    }

    #[test]
    fn full_snapshot_round_trips() {
        let server = sample_server();
        let snap = server.control_snapshot(SimTime::from_mins(2));
        let bytes = encode_full(&snap, 17);
        let decoded = decode_full(&bytes).unwrap();
        assert_eq!(decoded.journal_seq, 17);
        assert_eq!(encode_full(&decoded.snapshot, 17), bytes);
    }

    #[test]
    fn full_decode_rejects_trailing_bytes() {
        let server = sample_server();
        let snap = server.control_snapshot(SimTime::from_mins(2));
        let mut bytes = encode_full(&snap, 0);
        bytes.push(0);
        assert!(decode_full(&bytes).is_err());
    }

    /// `apply_delta` as it was before it merged sorted runs in place:
    /// every base record cloned into a map, the delta laid over it. Kept
    /// as the reference the merge is compared against.
    fn apply_delta_by_maps(
        base: &ControlSnapshot,
        d: &SnapshotDelta,
    ) -> Result<ControlSnapshot, CodecError> {
        if d.selections_base_len != base.selections.len() {
            return Err(CodecError::Malformed("delta base selections mismatch"));
        }
        let mut devices: BTreeMap<ImeiHash, DeviceRecord> = base
            .devices
            .iter()
            .map(|rec| (rec.imei, rec.clone()))
            .collect();
        for rec in &d.devices_changed {
            devices.insert(rec.imei, rec.clone());
        }
        for imei in &d.devices_removed {
            devices.remove(imei);
        }
        let mut statuses = base.statuses.clone();
        for &(id, status) in &d.statuses_changed {
            statuses.insert(id, status);
        }
        let mut seq_ledger = base.seq_ledger.clone();
        for (imei, ledger) in &d.seq_changed {
            seq_ledger.insert(*imei, ledger.clone());
        }
        let mut delivered_log = base.delivered_log.clone();
        for &pair in &d.delivered_appended {
            delivered_log.insert(pair);
        }
        let mut selections = TraceLog::new();
        for entry in base.selections.entries() {
            selections.push(entry.at, entry.item.clone());
        }
        for entry in &d.selections_appended {
            if selections.last().is_some_and(|prev| entry.at < prev.at) {
                return Err(CodecError::Malformed("delta selections not monotone"));
            }
            selections.push(entry.at, entry.item.clone());
        }
        Ok(ControlSnapshot {
            taken_at: d.taken_at,
            tasks: d.tasks.clone(),
            next_request_id: d.next_request_id,
            statuses,
            task_owner: d.task_owner.clone(),
            queued_run: d.queued_run.clone(),
            queued_wait: d.queued_wait.clone(),
            active: d.active.clone(),
            devices: devices.into_values().collect(),
            seq_ledger,
            delivered_log,
            stats: d.stats,
            selections,
        })
    }

    /// Strictly ascending IMEIs drawn from `picks` (each a step ≥ 1).
    fn ascending(picks: &[u64]) -> Vec<ImeiHash> {
        let mut at = 0;
        picks
            .iter()
            .map(|step| {
                at += step;
                ImeiHash(at)
            })
            .collect()
    }

    fn record_of(imei: ImeiHash, battery_pct: f64) -> DeviceRecord {
        let mut rec = crate::store::device_store::new_record(
            imei,
            495.0,
            15.0,
            battery_pct,
            vec![Sensor::Barometer],
            "GalaxyS4".to_owned(),
            SimTime::ZERO,
        );
        rec.position = Some(GeoPoint::new(40.4284, -86.9138));
        rec
    }

    /// A delta over `skeleton`'s request-scale state that changes and
    /// removes the given devices and nothing else.
    fn delta_over(
        skeleton: &ControlSnapshot,
        changed: Vec<ImeiHash>,
        removed: Vec<ImeiHash>,
    ) -> SnapshotDelta {
        SnapshotDelta {
            taken_at: SimTime::from_mins(3),
            next_request_id: skeleton.next_request_id + 5,
            tasks: skeleton.tasks.clone(),
            task_owner: skeleton.task_owner.clone(),
            queued_run: skeleton.queued_run.clone(),
            queued_wait: Vec::new(),
            active: skeleton.active.clone(),
            stats: skeleton.stats,
            devices_changed: changed
                .into_iter()
                .map(|imei| record_of(imei, 41.0))
                .collect(),
            devices_removed: removed,
            statuses_changed: Vec::new(),
            seq_changed: Vec::new(),
            delivered_appended: Vec::new(),
            selections_base_len: skeleton.selections.len(),
            selections_appended: Vec::new(),
        }
    }

    mod properties {
        use super::*;
        use crate::persist::codec::{seal_frame, KIND_SNAPSHOT_FULL};
        use crate::persist::{MemStorage, PersistConfig};
        use proptest::prelude::*;
        use senseaid_cellnet::CellId;

        proptest! {
            /// Merging the sorted runs in place gives exactly what laying
            /// the delta over a map of the base gave — devices changed,
            /// added and removed (also: removed though never present,
            /// changed *and* removed), statuses, ledgers, delivered pairs,
            /// the trace, and the refusal of a trace that runs backwards.
            #[test]
            fn apply_delta_equals_the_map_based_reference(
                base_picks in prop::collection::vec(1u64..4, 0..60),
                changed_picks in prop::collection::vec(1u64..6, 0..40),
                removed_picks in prop::collection::vec(1u64..6, 0..40),
                ids in prop::collection::vec(0u64..30, 0..20),
                append_at_mins in 0u64..4,
                base_len_off in 0usize..6,
            ) {
                let server = sample_server();
                let skeleton = server.control_snapshot(SimTime::from_mins(2));
                let mut base = skeleton.clone();
                base.devices = ascending(&base_picks)
                    .into_iter()
                    .map(|imei| record_of(imei, 80.0))
                    .collect();
                let mut selection = skeleton.selections.entries()[0].clone();
                // One minute is the base trace's last stamp: an append
                // before it must be refused by both.
                selection.at = SimTime::from_mins(append_at_mins);
                let delta = SnapshotDelta {
                    statuses_changed: ids
                        .iter()
                        .map(|&id| (RequestId(id), RequestStatus::Expired))
                        .collect(),
                    seq_changed: ids
                        .iter()
                        .map(|&id| (ImeiHash(id), SeqLedger { floor: id, ahead: BTreeSet::new() }))
                        .collect(),
                    delivered_appended: ids
                        .iter()
                        .map(|&id| (RequestId(id), ImeiHash(1000 + id)))
                        .collect(),
                    // Mostly the true base length, sometimes one that lies.
                    selections_base_len: skeleton.selections.len() + base_len_off / 5,
                    selections_appended: vec![selection],
                    ..delta_over(&skeleton, ascending(&changed_picks), ascending(&removed_picks))
                };
                let want = apply_delta_by_maps(&base, &delta);
                let got = apply_delta(base, delta);
                match (got, want) {
                    (Ok(got), Ok(want)) => {
                        prop_assert!(got.devices.windows(2).all(|w| w[0].imei < w[1].imei));
                        prop_assert_eq!(encode_full(&got, 3), encode_full(&want, 3));
                    }
                    (got, want) => prop_assert_eq!(got.err(), want.err()),
                }
            }

            /// The snapshot writer that reads the stores where they lie
            /// produces, byte for byte, the encoding of the materialised
            /// snapshot — at 1, 2 and 8 shards, over histories that
            /// deregister, re-register into freed slots, leave devices
            /// unobserved (shard 0, no position) and migrate them across
            /// shards, which is where `home` order and the shards' own
            /// order could part ways. The device section is checked
            /// against records fetched one IMEI at a time, so the
            /// reference shares no walk with the writer.
            #[test]
            fn write_full_equals_encode_full_of_the_snapshot(
                history in prop::collection::vec(
                    (0u32..10, 1u64..40, -1.0f64..1.0, -1.0f64..1.0),
                    0..160,
                ),
                layout in 0usize..3,
            ) {
                let centre = GeoPoint::new(40.4284, -86.9138);
                let mut server = SenseAidServer::new(SenseAidConfig {
                    shard_count: [1, 2, 8][layout],
                    ..SenseAidConfig::default()
                });
                let spec = TaskSpec::builder(Sensor::Barometer)
                    .region(CircleRegion::new(centre, 800.0))
                    .sampling_period(SimDuration::from_mins(1))
                    .sampling_duration(SimDuration::from_mins(30))
                    .spatial_density(2)
                    .build()
                    .unwrap();
                server.submit_task(spec, SimTime::ZERO).unwrap();
                let mut live: BTreeSet<u64> = BTreeSet::new();
                let mut now = SimTime::ZERO;
                for &(op, id, a, b) in &history {
                    now += SimDuration::from_secs(20);
                    let imei = ImeiHash(id);
                    match op {
                        0..=2 => {
                            server
                                .register_device(
                                    imei,
                                    495.0,
                                    15.0,
                                    50.0 + 50.0 * a.abs(),
                                    vec![Sensor::Barometer],
                                    if b < 0.0 { "GalaxyS4" } else { "iPhone6" }.to_owned(),
                                    now,
                                )
                                .unwrap();
                            live.insert(id);
                        }
                        3..=5 => {
                            let cell = (b > -0.5).then_some(CellId((a.abs() * 16.0) as usize));
                            let at = centre.offset_by_meters(a * 700.0, b * 700.0);
                            let _ = server.observe_device(imei, at, cell);
                        }
                        6 | 7 => {
                            if server.deregister_device(imei).is_ok() {
                                live.remove(&id);
                            }
                        }
                        8 => {
                            let _ = server.update_device_state(imei, 100.0 * a.abs(), 5.0, now);
                        }
                        _ => {
                            server.poll(now).unwrap();
                        }
                    }
                }
                let snapshot = server.control_snapshot(now);
                let one_by_one: Vec<DeviceRecord> = live
                    .iter()
                    .map(|&id| server.device(ImeiHash(id)).expect("registered"))
                    .collect();
                prop_assert_eq!(&snapshot.devices, &one_by_one);
                prop_assert_eq!(server.durable_digest(now), encode_full(&snapshot, 0));
                // And the file the persistor writes is the old writer's.
                server
                    .enable_persistence(Box::new(MemStorage::new()), PersistConfig::default(), now)
                    .unwrap();
                let storage = server.detach_persistence().unwrap();
                prop_assert_eq!(
                    storage.read("snap-00000001").unwrap(),
                    seal_frame(KIND_SNAPSHOT_FULL, &encode_full(&snapshot, 0))
                );
            }
        }
    }

    #[test]
    fn decode_refuses_device_records_out_of_order() {
        let server = sample_server();
        let mut snap = server.control_snapshot(SimTime::from_mins(2));
        assert!(decode_full(&encode_full(&snap, 0)).is_ok());
        snap.devices.swap(3, 4);
        assert_eq!(
            decode_full(&encode_full(&snap, 0)).err(),
            Some(CodecError::Malformed("device records not ascending"))
        );
        snap.devices.swap(3, 4);
        snap.devices[4].imei = snap.devices[3].imei;
        assert_eq!(
            decode_full(&encode_full(&snap, 0)).err(),
            Some(CodecError::Malformed("device records not ascending"))
        );

        let decoded = |changed: &[u64], removed: &[u64]| {
            let ids = |raw: &[u64]| raw.iter().copied().map(ImeiHash).collect();
            let mut w = ByteWriter::new();
            write_delta(&mut w, &delta_over(&snap, ids(changed), ids(removed)), 1, 0);
            decode_delta(&w.into_bytes()).map(|_| ())
        };
        assert_eq!(decoded(&[1, 2], &[2, 7]), Ok(()));
        assert_eq!(
            decoded(&[2, 1], &[]),
            Err(CodecError::Malformed("device records not ascending"))
        );
        assert_eq!(
            decoded(&[], &[7, 7]),
            Err(CodecError::Malformed("removed devices not ascending"))
        );
    }

    #[test]
    fn spec_decode_rejects_zero_density() {
        let mut w = ByteWriter::new();
        put_sensor(&mut w, Sensor::Barometer);
        put_region(&mut w, CircleRegion::new(GeoPoint::new(40.0, -86.0), 500.0));
        w.put_u64(0); // density 0: invalid
        w.put_bool(false);
        w.put_u8(2); // one-shot
        w.put_bool(false);
        let bytes = w.into_bytes();
        assert!(take_spec(&mut ByteReader::new(&bytes)).is_err());
    }

    #[test]
    fn point_decode_rejects_out_of_range() {
        let mut w = ByteWriter::new();
        w.put_f64(91.0);
        w.put_f64(0.0);
        let bytes = w.into_bytes();
        assert!(take_point(&mut ByteReader::new(&bytes)).is_err());

        let mut w = ByteWriter::new();
        w.put_f64(f64::NAN);
        w.put_f64(0.0);
        let bytes = w.into_bytes();
        assert!(take_point(&mut ByteReader::new(&bytes)).is_err());
    }
}
