//! Seeded input generation. Everything a workload feeds the system comes
//! from here and from `--seed`: the same seed gives the same arrival
//! schedule, population, request stream and task stream; the system under
//! test only ever sees the generated inputs.

use senseaid_device::Sensor;
use senseaid_geo::GeoPoint;
use senseaid_serve::wire::{encode_request, WireReading, WireRequest, WireTaskSpec};
use senseaid_sim::SimRng;

/// The campus centre every serving-side generator in this repository
/// scatters devices around (`serve::trace`, `serve::loadgen`).
pub fn campus_centre() -> GeoPoint {
    GeoPoint::new(40.4284, -86.9138)
}

/// A seeded Poisson arrival schedule: offsets from the phase start, in
/// nanoseconds, ascending, all strictly below `seconds`.
pub fn poisson_schedule(rng: &mut SimRng, rate_per_s: f64, seconds: f64) -> Vec<u64> {
    assert!(
        rate_per_s > 0.0 && seconds > 0.0,
        "schedule needs a rate and a length"
    );
    let mean_gap_s = 1.0 / rate_per_s;
    let mut out = Vec::with_capacity((rate_per_s * seconds * 1.05) as usize + 8);
    let mut t = 0.0f64;
    loop {
        t += rng.exponential(mean_gap_s);
        if t >= seconds {
            return out;
        }
        out.push((t * 1e9) as u64);
    }
}

/// The live device population: device `i` has IMEI `i + 1` and sits at
/// `positions[i]`, uniform over the ±900 m square `loadgen` uses.
#[derive(Debug, Clone)]
pub struct Population {
    /// Position per device, index = IMEI − 1.
    pub positions: Vec<GeoPoint>,
}

impl Population {
    /// Generates `devices` positions from `seed`.
    pub fn generate(seed: u64, devices: usize) -> Self {
        let mut rng = SimRng::from_seed_label(seed, "bench-population");
        let centre = campus_centre();
        let positions = (0..devices)
            .map(|_| {
                centre.offset_by_meters(
                    rng.uniform_range(-900.0, 900.0),
                    rng.uniform_range(-900.0, 900.0),
                )
            })
            .collect();
        Population { positions }
    }

    /// Devices in the population.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// The enrolment stream: per device `Register` then `Observe`
    /// (`loadgen`'s enrolment), preceded by `Hello` when the workload needs
    /// the session token to ack pushes with.
    pub fn enrolment(&self, with_hello: bool) -> Vec<WireRequest> {
        let mut out = Vec::with_capacity(self.len() * if with_hello { 3 } else { 2 });
        for (i, p) in self.positions.iter().enumerate() {
            let imei = i as u64 + 1;
            if with_hello {
                out.push(WireRequest::Hello { imei });
            }
            out.push(WireRequest::Register {
                imei,
                energy_budget_j: 140.0,
                critical_battery_pct: 15.0,
                battery_pct: 90.0,
                device_type: "loadgen-phone".to_owned(),
                sensors: vec![Sensor::Barometer, Sensor::Light],
            });
            out.push(WireRequest::Observe {
                imei,
                lat_deg: p.lat_deg(),
                lon_deg: p.lon_deg(),
                cell: None,
            });
        }
        out
    }
}

/// The steady device mix with `loadgen`'s weights — 35 % state update,
/// 20 % bare radio contact, 25 % observation, 20 % one-reading batch —
/// over a whole population: the IMEI of each op is uniform, and battery
/// level and batch sequence are tracked per device.
#[derive(Debug)]
pub struct MixGen {
    rng: SimRng,
    battery: Vec<f64>,
    batch_seq: Vec<u64>,
}

impl MixGen {
    /// A generator over `devices` devices.
    pub fn new(seed: u64, devices: usize) -> Self {
        MixGen {
            rng: SimRng::from_seed_label(seed, "bench-mix"),
            battery: vec![90.0; devices],
            batch_seq: vec![0; devices],
        }
    }

    /// The next request of the stream.
    pub fn next_request(&mut self) -> WireRequest {
        let rng = &mut self.rng;
        let slot = rng.uniform_usize(0, self.battery.len());
        let imei = slot as u64 + 1;
        let roll = rng.uniform();
        if roll < 0.35 {
            let battery = &mut self.battery[slot];
            *battery = (*battery - rng.uniform_range(0.0, 0.4)).max(20.0);
            WireRequest::StateUpdate {
                imei,
                battery_pct: *battery,
                cs_energy_j: rng.uniform_range(0.0, 0.5),
            }
        } else if roll < 0.55 {
            WireRequest::Comm { imei }
        } else if roll < 0.80 {
            let p = campus_centre().offset_by_meters(
                rng.uniform_range(-900.0, 900.0),
                rng.uniform_range(-900.0, 900.0),
            );
            WireRequest::Observe {
                imei,
                lat_deg: p.lat_deg(),
                lon_deg: p.lon_deg(),
                cell: None,
            }
        } else {
            let seq = &mut self.batch_seq[slot];
            *seq += 1;
            WireRequest::SubmitBatch {
                imei,
                seq: *seq,
                attempt: 1,
                readings: vec![WireReading {
                    request: rng.uniform_usize(0, 8) as u64,
                    sensor: Sensor::Barometer,
                    value: rng.uniform_range(990.0, 1030.0),
                    taken_at_us: *seq * 1_000,
                    lat_deg: campus_centre().lat_deg(),
                    lon_deg: campus_centre().lon_deg(),
                }],
            }
        }
    }

    /// The next `n` requests.
    pub fn take(&mut self, n: usize) -> Vec<WireRequest> {
        (0..n).map(|_| self.next_request()).collect()
    }
}

/// The CAS-side task stream: one-shot barometer tasks, density 3, 300 m
/// radius, centre uniform within ±600 m of the campus centre. A one-shot
/// request samples at its receive time, so each task is polled, gathered,
/// selected and pushed at once.
#[derive(Debug)]
pub struct TaskGen {
    rng: SimRng,
}

/// Devices each generated task asks for.
pub const TASK_DENSITY: u32 = 3;

impl TaskGen {
    /// A generator seeded from `seed`.
    pub fn new(seed: u64) -> Self {
        TaskGen {
            rng: SimRng::from_seed_label(seed, "bench-tasks"),
        }
    }

    /// The next task submission.
    pub fn next_request(&mut self) -> WireRequest {
        let centre = campus_centre().offset_by_meters(
            self.rng.uniform_range(-600.0, 600.0),
            self.rng.uniform_range(-600.0, 600.0),
        );
        WireRequest::SubmitTask {
            cas: 1,
            spec: WireTaskSpec {
                sensor: Sensor::Barometer,
                centre_lat: centre.lat_deg(),
                centre_lon: centre.lon_deg(),
                radius_m: 300.0,
                spatial_density: TASK_DENSITY,
                one_shot: true,
                period_us: 0,
                duration_us: 0,
            },
        }
    }

    /// The next `n` submissions.
    pub fn take(&mut self, n: usize) -> Vec<WireRequest> {
        (0..n).map(|_| self.next_request()).collect()
    }
}

/// What the response to a request must be for the request to count as
/// served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// `WireResponse::Ok`.
    Ok,
    /// `WireResponse::BatchAck` (any outcome: the mix deliberately sends
    /// readings for requests that do not exist, as `loadgen` does).
    BatchAck,
    /// `WireResponse::BatchAck` with exactly one reading accepted — the
    /// reply to an assignment push.
    BatchAccepted,
    /// `WireResponse::TaskCreated`.
    TaskCreated,
    /// `WireResponse::SessionBound`.
    SessionBound,
    /// `WireResponse::Stats`.
    Stats,
    /// `WireResponse::Outbox`.
    Outbox,
}

/// The response a generated request is due.
pub fn expect_of(req: &WireRequest) -> Expect {
    match req {
        WireRequest::Hello { .. } => Expect::SessionBound,
        WireRequest::SubmitBatch { .. } => Expect::BatchAck,
        WireRequest::SubmitTask { .. } => Expect::TaskCreated,
        WireRequest::Stats => Expect::Stats,
        WireRequest::DrainOutbox => Expect::Outbox,
        WireRequest::Tracked { inner, .. } => match expect_of(inner) {
            Expect::BatchAck => Expect::BatchAccepted,
            other => other,
        },
        _ => Expect::Ok,
    }
}

/// A request stream encoded once, ahead of the measured phase, into one
/// contiguous arena so the paced sender only copies bytes: frames `a..b`
/// are the single slice `bytes[start(a)..end(b - 1)]`.
#[derive(Debug, Default)]
pub struct Plan {
    bytes: Vec<u8>,
    ends: Vec<usize>,
    /// The response each op is due, in send order.
    pub expect: Vec<Expect>,
    /// The device (or 0) each op speaks for, in send order.
    pub imei: Vec<u64>,
}

impl Plan {
    /// Encodes `requests` in order.
    pub fn encode(requests: &[WireRequest]) -> Self {
        let mut plan = Plan::default();
        for req in requests {
            plan.bytes.extend_from_slice(&encode_request(req));
            plan.ends.push(plan.bytes.len());
            plan.expect.push(expect_of(req));
            plan.imei.push(imei_of(req));
        }
        plan
    }

    /// Ops in the plan.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// The wire bytes of ops `from..to`.
    pub fn frames(&self, from: usize, to: usize) -> &[u8] {
        let start = if from == 0 { 0 } else { self.ends[from - 1] };
        let end = if to == 0 { 0 } else { self.ends[to - 1] };
        &self.bytes[start..end]
    }
}

/// The device a request speaks for; 0 for CAS-side and control requests.
pub fn imei_of(req: &WireRequest) -> u64 {
    match req {
        WireRequest::Hello { imei }
        | WireRequest::Register { imei, .. }
        | WireRequest::Deregister { imei }
        | WireRequest::UpdatePreferences { imei, .. }
        | WireRequest::StateUpdate { imei, .. }
        | WireRequest::Observe { imei, .. }
        | WireRequest::Comm { imei }
        | WireRequest::SubmitBatch { imei, .. } => *imei,
        WireRequest::Tracked { inner, .. } => imei_of(inner),
        _ => 0,
    }
}

/// FNV-1a offset basis: where the outcome digests start.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one value into an FNV-1a style digest.
pub fn fnv(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x100_0000_01b3)
}

/// A per-instance seed: the run seed, the instance and a purpose label
/// folded through the repository's own labelled-RNG derivation.
pub fn derive_seed(seed: u64, label: &str, index: u64) -> u64 {
    SimRng::from_seed_label(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15), label).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_seeded_sorted_and_at_rate() {
        let make = |seed| {
            poisson_schedule(
                &mut SimRng::from_seed_label(seed, "bench-schedule"),
                2_000.0,
                3.0,
            )
        };
        let a = make(7);
        assert_eq!(a, make(7), "same seed, same schedule");
        assert_ne!(a, make(8), "another seed, another schedule");
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < 3_000_000_000);
        // 6 000 expected arrivals; a Poisson count is within ±5σ ≈ ±390.
        assert!((5_600..6_400).contains(&a.len()), "got {}", a.len());
        // Exponential gaps: the mean gap is 500 µs and the coefficient of
        // variation is 1 — a fixed-interval schedule would read 0.
        let gaps: Vec<f64> = a.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!((mean - 500_000.0).abs() < 25_000.0, "mean gap {mean}");
        assert!((var.sqrt() / mean - 1.0).abs() < 0.1);
    }

    #[test]
    fn mix_follows_loadgen_weights_and_tracks_per_device_sequences() {
        let mut gen = MixGen::new(11, 500);
        let ops = gen.take(40_000);
        assert_eq!(ops, MixGen::new(11, 500).take(40_000));
        let share = |pred: fn(&WireRequest) -> bool| {
            ops.iter().filter(|r| pred(r)).count() as f64 / ops.len() as f64
        };
        assert!((share(|r| matches!(r, WireRequest::StateUpdate { .. })) - 0.35).abs() < 0.02);
        assert!((share(|r| matches!(r, WireRequest::Comm { .. })) - 0.20).abs() < 0.02);
        assert!((share(|r| matches!(r, WireRequest::Observe { .. })) - 0.25).abs() < 0.02);
        assert!((share(|r| matches!(r, WireRequest::SubmitBatch { .. })) - 0.20).abs() < 0.02);
        // Batch sequences are contiguous from 1 per device.
        let mut last = vec![0u64; 501];
        for op in &ops {
            if let WireRequest::SubmitBatch { imei, seq, .. } = op {
                assert_eq!(*seq, last[*imei as usize] + 1);
                last[*imei as usize] = *seq;
            }
        }
    }

    #[test]
    fn plan_slices_are_the_concatenated_frames() {
        let reqs = vec![
            WireRequest::Comm { imei: 3 },
            WireRequest::Stats,
            WireRequest::Hello { imei: 9 },
        ];
        let plan = Plan::encode(&reqs);
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.frames(0, 0), &[] as &[u8]);
        assert_eq!(plan.frames(1, 2), encode_request(&reqs[1]).as_slice());
        let all: Vec<u8> = reqs.iter().flat_map(encode_request).collect();
        assert_eq!(plan.frames(0, 3), all.as_slice());
        assert_eq!(
            plan.expect,
            vec![Expect::Ok, Expect::Stats, Expect::SessionBound]
        );
        assert_eq!(plan.imei, vec![3, 0, 9]);
    }
}
