//! The crash-recovery drive shared by `senseaid recover` (the CI
//! corruption matrix) and `tests/durability.rs`: a persisted control
//! plane driven through churned scheduling rounds with every call
//! recorded, so a reference server can replay exactly the prefix that
//! survived on disk and be compared byte for byte.

use std::collections::BTreeMap;

use senseaid_cellnet::{CellId, CellularNetwork};
use senseaid_core::{RecoveryReport, RequestId, SenseAidConfig, SenseAidServer, TaskSpec};
use senseaid_device::{ImeiHash, Sensor, SensorReading};
use senseaid_geo::{CircleRegion, GeoPoint, TowerSite};
use senseaid_sim::{SimDuration, SimTime};

use crate::experiments::ext_million::{self, mix};

/// The campus centre every device and task of the drive sits around.
pub fn centre() -> GeoPoint {
    GeoPoint::new(40.4284, -86.9138)
}

/// Four towers on a 1.5 km square around [`centre`].
pub fn network() -> CellularNetwork {
    let sites: Vec<TowerSite> = (0..4)
        .map(|i| TowerSite {
            index: i,
            position: centre().offset_by_meters(
                (i as f64 / 2.0).floor() * 1500.0 - 750.0,
                (i % 2) as f64 * 1500.0 - 750.0,
            ),
            coverage_m: 1500.0,
        })
        .collect();
    CellularNetwork::new(sites)
}

/// A deterministic offset in `[-1000, 1000)` metres for key `x` on `lane`.
pub fn offset(x: u64, lane: u64) -> f64 {
    ext_million::offset(x, lane, 1000.0)
}

/// A density-3 barometer task sampling every five minutes around
/// [`centre`].
pub fn spec(radius: f64, duration_min: u64) -> TaskSpec {
    TaskSpec::builder(Sensor::Barometer)
        .region(CircleRegion::new(centre(), radius))
        .spatial_density(3)
        .sampling_period(SimDuration::from_mins(5))
        .sampling_duration(SimDuration::from_mins(duration_min))
        .build()
        .expect("static task spec is valid")
}

/// One recorded API call, so a reference server can replay the exact
/// prefix that survived on disk.
#[derive(Clone)]
pub enum RecordedCall {
    /// `register_device(imei, …, battery %, at)`.
    Register(u64, f64, SimTime),
    /// `observe_device`.
    Observe(ImeiHash, GeoPoint, Option<CellId>),
    /// `update_device_state(imei, battery %, crowdsensing J, at)`.
    UpdateState(ImeiHash, f64, f64, SimTime),
    /// `submit_task`.
    SubmitTask(TaskSpec, SimTime),
    /// `poll`.
    Poll(SimTime),
    /// `submit_sensed_data`.
    Deliver(ImeiHash, RequestId, SensorReading, SimTime),
    /// `drain_outbox`.
    Drain,
}

/// Applies one recorded call, ignoring its result the way the journal
/// replay does.
pub fn apply(call: &RecordedCall, server: &mut SenseAidServer) {
    match call {
        RecordedCall::Register(imei, battery, t) => {
            let _ = server.register_device(
                ImeiHash(*imei),
                495.0,
                15.0,
                *battery,
                vec![Sensor::Barometer],
                "GalaxyS4".to_owned(),
                *t,
            );
        }
        RecordedCall::Observe(imei, p, cell) => {
            let _ = server.observe_device(*imei, *p, *cell);
        }
        RecordedCall::UpdateState(imei, battery, cs, t) => {
            let _ = server.update_device_state(*imei, *battery, *cs, *t);
        }
        RecordedCall::SubmitTask(spec, t) => {
            let _ = server.submit_task(spec.clone(), *t);
        }
        RecordedCall::Poll(t) => {
            let _ = server.poll(*t);
        }
        RecordedCall::Deliver(imei, request, reading, t) => {
            let _ = server.submit_sensed_data(*imei, *request, reading, *t);
        }
        RecordedCall::Drain => {
            let _ = server.drain_outbox();
        }
    }
}

/// A default-config server on [`network`].
pub fn fresh_server() -> SenseAidServer {
    let mut server = SenseAidServer::new(SenseAidConfig::default());
    server.set_topology(network());
    server
}

/// Drives `server` through `rounds` five-minute scheduling rounds with
/// device churn, recording every call. Snapshots every other round.
/// Returns the recorded trace, the generation → calls-at-persist map,
/// and the crash instant.
pub fn drive(
    server: &mut SenseAidServer,
    devices: u64,
    rounds: u64,
    seed: u64,
) -> (Vec<RecordedCall>, BTreeMap<u64, usize>, SimTime) {
    let net = network();
    let mut calls: Vec<RecordedCall> = Vec::new();
    let mut gen_calls: BTreeMap<u64, usize> = BTreeMap::new();
    if let Some(g) = server.persist_generation() {
        gen_calls.insert(g, 0);
    }
    let t0 = SimTime::ZERO;
    for imei in 1..=devices {
        let call = RecordedCall::Register(imei, 40.0 + (mix(seed ^ imei) % 61) as f64, t0);
        apply(&call, server);
        calls.push(call);
        let p = centre().offset_by_meters(offset(seed ^ imei, 1), offset(seed ^ imei, 2));
        let call = RecordedCall::Observe(ImeiHash(imei), p, net.serving_cell(p));
        apply(&call, server);
        calls.push(call);
    }
    let call = RecordedCall::SubmitTask(spec(900.0, 5 * rounds + 30), t0);
    apply(&call, server);
    calls.push(call);

    let mut now = t0;
    for round in 0..rounds {
        now += SimDuration::from_mins(5);
        // A slice of devices reports fresh state each round.
        for k in 0..devices / 20 {
            let imei = 1 + (mix(seed ^ round ^ k) % devices);
            let call = RecordedCall::UpdateState(
                ImeiHash(imei),
                30.0 + (mix(imei ^ round) % 70) as f64,
                (round * 2) as f64,
                now,
            );
            apply(&call, server);
            calls.push(call);
        }
        let assignments = server.poll(now).expect("the driven server is up");
        calls.push(RecordedCall::Poll(now));
        for a in &assignments {
            for imei in &a.devices {
                let reading = SensorReading {
                    sensor: Sensor::Barometer,
                    value: 1000.0 + (imei.0 % 30) as f64,
                    taken_at: a.sample_at,
                    position: centre(),
                };
                let call = RecordedCall::Deliver(*imei, a.request, reading, now);
                apply(&call, server);
                calls.push(call);
            }
        }
        apply(&RecordedCall::Drain, server);
        calls.push(RecordedCall::Drain);
        if round % 2 == 1 {
            server.take_snapshot(now);
            if let Some(g) = server.persist_generation() {
                gen_calls.entry(g).or_insert(calls.len());
            }
        }
    }
    (calls, gen_calls, now)
}

/// Verifies that `recovered` — a server recovered at `t_crash` from the
/// storage a [`drive`] left behind, with `report` — equals a reference
/// that replays exactly the surviving call prefix: the calls covered by
/// the loaded generation plus the replayed journal suffix. Both servers
/// get one more poll (equalising the reconcile pass recovery ran), then
/// assignments and `durable_digest` bytes are compared.
///
/// # Errors
///
/// The first divergence, as a sentence; `Ok` carries the prefix length.
pub fn check_surviving_prefix(
    recovered: &mut SenseAidServer,
    report: &RecoveryReport,
    calls: &[RecordedCall],
    gen_calls: &BTreeMap<u64, usize>,
    t_crash: SimTime,
) -> Result<usize, String> {
    let base = match report.loaded_generation {
        Some(g) => *gen_calls
            .get(&g)
            .ok_or_else(|| format!("loaded generation {g} was never written by this run"))?,
        None => 0,
    };
    let survived = base + report.ops_replayed as usize;
    if survived > calls.len() {
        return Err(format!(
            "replay invented {survived} calls, only {} happened",
            calls.len()
        ));
    }
    let mut reference = fresh_server();
    for call in &calls[..survived] {
        apply(call, &mut reference);
    }
    let t = t_crash + SimDuration::from_mins(5);
    if recovered.poll(t).unwrap_or_default() != reference.poll(t).unwrap_or_default() {
        return Err("post-recovery assignments diverged from the surviving prefix".to_owned());
    }
    if recovered.durable_digest(t) != reference.durable_digest(t) {
        return Err("recovered state is not byte-identical to the surviving prefix".to_owned());
    }
    Ok(survived)
}
