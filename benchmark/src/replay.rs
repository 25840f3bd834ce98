//! The traced replay: the same generated ops as the live workloads, driven
//! single-threaded through the serving stack with a span around every
//! call into a layer.
//!
//! The shape is `serve::trace::run_live`'s: requests are encoded to bytes,
//! carried over `runtime::loopback_pair`, reassembled by
//! `serve::conn::Connection`, decoded, and applied by `ServeEngine` under
//! a `SimClock` the driver advances to each op's intended instant. What
//! this adds is the benchmark's own stopwatch around each step — nothing
//! under `crates/` is touched — and, for the WAL workload, a
//! [`TimedStorage`] wrapped around `DirStorage` so every journal append
//! is a child span of the `engine.handle` that caused it.
//!
//! Consecutive steps share their boundary timestamp, so the spans of one
//! burst tile its wall time with no gaps: the per-layer rows sum to the
//! replay's wall time per request, which is what makes the table a budget
//! rather than a list.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use senseaid_core::persist::{DirStorage, PersistConfig, StorageBackend, StorageError};
use senseaid_core::runtime::{loopback_pair, Clock as _, SimClock};
use senseaid_serve::conn::Connection;
use senseaid_serve::engine::ServeEngine;
use senseaid_serve::trace::{run_sim, trace_server, EventTrace, TraceEvent};
use senseaid_serve::wire::{
    decode_frame, encode_request, WireFrame, WirePush, WireRequest, WireResponse,
};
use senseaid_sim::{SimRng, SimTime};

use crate::client::{satisfies, DeviceSessions};
use crate::gen::{
    derive_seed, expect_of, imei_of, poisson_schedule, Expect, MixGen, Population, TaskGen,
};
use crate::live::{LiveKind, LiveShape};
use crate::span::{Span, SpanLog};

/// Control-plane shards, as `serve::tcp` configures them by default.
pub const SHARDS: usize = 4;
/// The one connection id the replay uses.
const CONN: u64 = 1;

// ---------------------------------------------------------------------
// TimedStorage
// ---------------------------------------------------------------------

/// Where a [`TimedStorage`] leaves what it saw. The replay loop publishes
/// the span and request that are current before it calls into the engine,
/// so storage calls made underneath link to their cause.
#[derive(Debug)]
pub struct StorageSink {
    origin: Instant,
    tracing: bool,
    spans: Mutex<Vec<Span>>,
    parent: AtomicU32,
    req: AtomicU32,
    /// `append` calls (journal records).
    pub appends: AtomicU64,
    /// Bytes appended.
    pub append_bytes: AtomicU64,
    /// Whole-file `write` calls (snapshots, manifests).
    pub writes: AtomicU64,
    /// Bytes written whole.
    pub write_bytes: AtomicU64,
}

impl StorageSink {
    /// A sink on `origin`'s time axis; `tracing` off keeps only the counts.
    pub fn new(origin: Instant, tracing: bool) -> Arc<Self> {
        Arc::new(StorageSink {
            origin,
            tracing,
            spans: Mutex::new(Vec::new()),
            parent: AtomicU32::new(0),
            req: AtomicU32::new(0),
            appends: AtomicU64::new(0),
            append_bytes: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            write_bytes: AtomicU64::new(0),
        })
    }

    /// Names the span and request that storage calls from now on belong to.
    pub fn enter(&self, parent: u32, req: u32) {
        self.parent.store(parent, Ordering::Relaxed);
        self.req.store(req, Ordering::Relaxed);
    }

    /// Takes the spans recorded so far.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("sink lock is never held across a panic"),
        )
    }

    fn record(&self, name: &'static str, start: Instant) {
        if !self.tracing {
            return;
        }
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        self.spans
            .lock()
            .expect("sink lock is never held across a panic")
            .push(Span {
                name,
                start_ns,
                end_ns,
                parent: self.parent.load(Ordering::Relaxed),
                req: self.req.load(Ordering::Relaxed),
                calls: 1,
            });
    }
}

/// A pass-through [`StorageBackend`] that times every call into the
/// backend it wraps. Bytes in, bytes out and errors are the inner
/// backend's, unchanged.
#[derive(Debug)]
pub struct TimedStorage {
    inner: Box<dyn StorageBackend>,
    sink: Arc<StorageSink>,
}

impl TimedStorage {
    /// Wraps `inner`, reporting to `sink`.
    pub fn new(inner: Box<dyn StorageBackend>, sink: Arc<StorageSink>) -> Self {
        TimedStorage { inner, sink }
    }
}

impl StorageBackend for TimedStorage {
    fn write(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        let start = Instant::now();
        let result = self.inner.write(name, bytes);
        self.sink.writes.fetch_add(1, Ordering::Relaxed);
        self.sink
            .write_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.sink.record("persist.write", start);
        result
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        let start = Instant::now();
        let result = self.inner.append(name, bytes);
        self.sink.appends.fetch_add(1, Ordering::Relaxed);
        self.sink
            .append_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.sink.record("persist.append", start);
        result
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, StorageError> {
        let start = Instant::now();
        let result = self.inner.read(name);
        self.sink.record("persist.read", start);
        result
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        self.inner.list()
    }

    fn remove(&mut self, name: &str) -> Result<(), StorageError> {
        self.inner.remove(name)
    }
}

// ---------------------------------------------------------------------
// Input
// ---------------------------------------------------------------------

/// The ops of one replay, grouped into the bursts the server's reader
/// would see them in.
#[derive(Debug)]
pub struct ReplayInput {
    /// `(instant, requests that arrive together)`, ascending.
    pub bursts: Vec<(SimTime, Vec<WireRequest>)>,
    /// Where both runners digest.
    pub horizon: SimTime,
    /// Devices enrolled.
    pub devices: usize,
    /// Device positions, for the task replies.
    pub positions: Vec<(f64, f64)>,
}

/// Frames the sender writes at once while enrolling or saturating: a
/// quarter of the live generator's 1 024-request window.
const BURST_FRAMES: usize = 256;
/// The socket worker's idle sleep: ops closer together than this reach
/// the server's reader in one read.
const WORKER_QUANTUM_US: u64 = 500;

/// Builds the replay of `kind` from the same generators, seed derivation
/// and rates as the first instance of the live run: the enrolment, the
/// light schedule one request per read, the mid schedule in 500 µs
/// quanta, and one bout's worth of back-to-back bursts.
pub fn build_input(kind: LiveKind, seed: u64, shape: &LiveShape, sat_ops: usize) -> ReplayInput {
    let inst_seed = derive_seed(seed, "bench-instance", 0);
    let population = Population::generate(inst_seed, shape.devices);
    let mut mix = MixGen::new(inst_seed, shape.devices);
    let mut tasks = TaskGen::new(inst_seed);
    let mut next_op = |k: usize| match kind {
        LiveKind::TaskPush => tasks.take(k),
        _ => mix.take(k),
    };
    let mut bursts: Vec<(SimTime, Vec<WireRequest>)> = Vec::new();
    let mut now_us = 0u64;

    for chunk in population
        .enrolment(kind == LiveKind::TaskPush)
        .chunks(BURST_FRAMES)
    {
        now_us += 1_000;
        bursts.push((SimTime::from_micros(now_us), chunk.to_vec()));
    }

    for (phase, rate, seconds) in [
        ("light", shape.light_rate, shape.light_s),
        ("mid", shape.mid_rate, shape.mid_s),
    ] {
        let mut rng = SimRng::from_seed_label(derive_seed(inst_seed, phase, 0), "bench-schedule");
        let due = poisson_schedule(&mut rng, rate, seconds);
        let base = now_us + 10_000;
        let mut quantum = u64::MAX;
        for (due_ns, req) in due.iter().zip(next_op(due.len())) {
            let at = base + due_ns / 1_000;
            let q = at / WORKER_QUANTUM_US;
            if phase == "mid" && q == quantum {
                bursts
                    .last_mut()
                    .expect("a quantum has a first op")
                    .1
                    .push(req);
            } else {
                bursts.push((SimTime::from_micros(at), vec![req]));
            }
            quantum = q;
            now_us = at;
        }
    }

    let sat_burst = match kind {
        // A task fans out into pushes and replies; the window is in tasks.
        LiveKind::TaskPush => shape.sat_window.min(64),
        _ => BURST_FRAMES,
    };
    for chunk in next_op(sat_ops).chunks(sat_burst) {
        now_us += 1_000;
        bursts.push((SimTime::from_micros(now_us), chunk.to_vec()));
    }

    ReplayInput {
        bursts,
        horizon: SimTime::from_micros(now_us + 1_000_000),
        devices: shape.devices,
        positions: population
            .positions
            .iter()
            .map(|p| (p.lat_deg(), p.lon_deg()))
            .collect(),
    }
}

// ---------------------------------------------------------------------
// The replay
// ---------------------------------------------------------------------

/// What one replay did and found.
#[derive(Debug, Default)]
pub struct ReplayOutcome {
    /// Requests applied (planned + replies to pushes).
    pub requests: u64,
    /// Assignment pushes the driver received.
    pub pushes: u64,
    /// Wall time of the replay loop, ns (bookkeeping between bursts
    /// excluded).
    pub wall_ns: u64,
    /// `pump_reads` calls on the serving side.
    pub pumps: u64,
    /// Request bytes on the wire.
    pub req_bytes: u64,
    /// Response and push bytes on the wire.
    pub resp_bytes: u64,
    /// Largest total of unacked pushes seen across all session ledgers.
    pub ledger_depth_max: u64,
    /// `durable_digest` at the horizon.
    pub digest: Vec<u8>,
    /// Every op applied, in order, with its instant — the same trace
    /// `serve::trace::run_sim` takes.
    pub events: Vec<TraceEvent>,
    /// The digest horizon.
    pub horizon: SimTime,
    /// Devices and tasks the server held at the end.
    pub devices_tasks: (usize, usize),
    /// Responses that were an error or the wrong variant.
    pub wrong: u64,
    /// Journal records appended and their bytes (traced WAL replays).
    pub journal: (u64, u64),
    /// Push sequence breaks, or replies not accepted.
    pub problems: Vec<String>,
}

/// How often the session ledgers are sized (it walks every session).
const LEDGER_SAMPLE_EVERY: u64 = 512;

struct Driver<'a> {
    clock: SimClock,
    engine: ServeEngine,
    driver: Connection<senseaid_core::LoopbackTransport>,
    serving: Connection<senseaid_core::LoopbackTransport>,
    scratch: Vec<u8>,
    log: Option<&'a mut SpanLog>,
    sink: Option<Arc<StorageSink>>,
    /// What each unanswered request is due, and whom it spoke for.
    expect: VecDeque<(Expect, u64)>,
    sessions: Option<DeviceSessions>,
    tokens: Vec<(u64, u64)>,
    push_seen: Vec<u64>,
    replies: Vec<WireRequest>,
    out: ReplayOutcome,
    excluded_ns: u64,
    ledger_sampled_at: u64,
}

impl Driver<'_> {
    /// A timestamp when tracing, 0 otherwise.
    fn mark(&self) -> u64 {
        self.log.as_deref().map_or(0, SpanLog::now)
    }

    /// Records `name` from `start` to now; returns now, the next step's
    /// start.
    fn span(&mut self, name: &'static str, start: u64, req: u32, calls: u32) -> u64 {
        match self.log.as_deref_mut() {
            Some(log) => {
                let end = log.now();
                log.push(Span {
                    name,
                    start_ns: start,
                    end_ns: end,
                    parent: 0,
                    req,
                    calls,
                });
                end
            }
            None => 0,
        }
    }

    /// Everything one burst costs: client encode and send, server
    /// reassembly, decode, advance, handle, flush, client receive and
    /// decode.
    fn burst(&mut self, at: SimTime, requests: Vec<WireRequest>) {
        self.clock.advance_to(at);
        let first = self.out.requests as u32 + 1;

        // --- client: encode and send ---
        let mut t = self.mark();
        for (i, req) in requests.iter().enumerate() {
            let frame = encode_request(req);
            t = self.span("wire.encode_req", t, first + i as u32, 1);
            self.out.req_bytes += frame.len() as u64;
            self.driver.queue(&frame);
            self.expect.push_back((expect_of(req), imei_of(req)));
        }
        self.driver.flush().expect("loopback accepts whole frames");
        t = self.span("replay.driver", t, first, requests.len() as u32);

        // --- server: reassemble ---
        let frames = self
            .serving
            .pump_reads(&mut self.scratch)
            .expect("driver bytes reassemble");
        self.out.pumps += 1;
        t = self.span("conn.reassemble", t, first, frames.len() as u32);

        // --- server: decode, advance, handle, flush — per request ---
        for (kind, payload) in frames {
            self.out.requests += 1;
            let req_id = self.out.requests as u32;
            let request = match decode_frame(kind, &payload).expect("driver frames decode") {
                WireFrame::Request(request) => request,
                other => panic!("client sent a non-request frame: {other:?}"),
            };
            t = self.span("wire.decode_req", t, req_id, 1);
            let pushed = self.engine.advance_to(self.clock.now());
            t = self.span("engine.advance", t, req_id, 1);
            if let (Some(sink), Some(log)) = (&self.sink, self.log.as_deref()) {
                sink.enter(log.next_id(), req_id);
            }
            let output = self.engine.handle(CONN, request);
            t = self.span("engine.handle", t, req_id, 1);
            for (_, frame) in pushed.iter().chain(&output.frames) {
                self.out.resp_bytes += frame.len() as u64;
                self.serving.queue(frame);
            }
            self.serving.flush().expect("loopback accepts responses");
            t = self.span("conn.flush", t, req_id, 1);
        }

        self.receive(t, first);

        // --- bookkeeping, off the clock ---
        let started = Instant::now();
        for req in requests {
            self.out.events.push(TraceEvent { at, req });
        }
        if self.out.requests / LEDGER_SAMPLE_EVERY != self.ledger_sampled_at {
            self.ledger_sampled_at = self.out.requests / LEDGER_SAMPLE_EVERY;
            self.out.ledger_depth_max = self.out.ledger_depth_max.max(self.engine.unacked_pushes());
        }
        self.excluded_ns += started.elapsed().as_nanos() as u64;
    }

    /// Client side: read what the server sent, decode it, check it, and
    /// queue a reply for every assignment push.
    fn receive(&mut self, mut t: u64, req: u32) {
        let frames = self
            .driver
            .pump_reads(&mut self.scratch)
            .expect("server bytes reassemble");
        t = self.span("replay.driver", t, req, frames.len() as u32);
        for (kind, payload) in frames {
            let frame = decode_frame(kind, &payload).expect("server frames decode");
            t = self.span("wire.decode_resp", t, req, 1);
            match frame {
                WireFrame::Response(resp) => {
                    let (due, imei) = self.expect.pop_front().expect("one response per request");
                    if !satisfies(due, &resp) {
                        self.out.wrong += 1;
                        if self.out.problems.len() < 4 {
                            self.out.problems.push(format!("due {due:?}, got {resp:?}"));
                        }
                    }
                    if let WireResponse::SessionBound { token } = resp {
                        self.tokens.push((imei, token));
                    }
                }
                WireFrame::Push(WirePush::Assignment {
                    seq,
                    device,
                    request,
                    sample_at_us,
                    ..
                }) => {
                    self.out.pushes += 1;
                    let seen = &mut self.push_seen[device as usize];
                    if seq != *seen + 1 && self.out.problems.len() < 4 {
                        self.out
                            .problems
                            .push(format!("device {device}: push seq {seq} after {seen}"));
                    }
                    *seen = seq;
                    let sessions = self
                        .sessions
                        .as_mut()
                        .expect("pushes only come once sessions are bound");
                    self.replies
                        .push(sessions.reply_to(device, request, seq, sample_at_us));
                    t = self.span("replay.driver", t, req, 1);
                }
                WireFrame::Push(WirePush::Disconnect { code, detail }) => {
                    self.out
                        .problems
                        .push(format!("server dropped the replay: {code} {detail}"));
                }
                WireFrame::Request(_) => panic!("server sent a request frame"),
            }
        }
    }

    /// Sends the replies the last burst's pushes earned, and theirs, until
    /// none are owed.
    fn settle(&mut self, at: SimTime) {
        while !self.replies.is_empty() {
            let replies = std::mem::take(&mut self.replies);
            self.burst(at, replies);
        }
    }
}

/// Replays `input` through the serving stack. With `wal_dir` the server
/// journals there (through a [`TimedStorage`] when tracing); with `log`
/// every step is a span.
pub fn replay(
    kind: LiveKind,
    input: ReplayInput,
    wal_dir: Option<&Path>,
    log: Option<&mut SpanLog>,
) -> ReplayOutcome {
    let clock = SimClock::new();
    let mut server = trace_server(SHARDS);
    let mut sink = None;
    if let Some(dir) = wal_dir {
        let disk = DirStorage::open(dir).expect("replay WAL directory opens");
        let storage: Box<dyn StorageBackend> = match log.as_deref() {
            Some(log) => {
                let s = StorageSink::new(log.origin(), true);
                sink = Some(Arc::clone(&s));
                Box::new(TimedStorage::new(Box::new(disk), s))
            }
            // The untraced twin journals to the bare directory.
            None => Box::new(disk),
        };
        server
            .recover_from_storage(storage, PersistConfig::default(), SimTime::ZERO)
            .expect("a fresh directory recovers as a cold start");
    }
    let engine = ServeEngine::new(server, Arc::new(clock.clone()));
    let (driver_side, engine_side) = loopback_pair();
    // Set-up writes (the initial snapshot) are not request work.
    if let Some(sink) = &sink {
        sink.take_spans();
    }
    let mut d = Driver {
        clock,
        engine,
        driver: Connection::new(driver_side),
        serving: Connection::new(engine_side),
        scratch: vec![0u8; 64 * 1024],
        log,
        sink,
        expect: VecDeque::new(),
        sessions: None,
        tokens: Vec::new(),
        push_seen: vec![0; input.devices + 1],
        replies: Vec::new(),
        out: ReplayOutcome {
            horizon: input.horizon,
            ..ReplayOutcome::default()
        },
        excluded_ns: 0,
        ledger_sampled_at: 0,
    };

    let started = Instant::now();
    let enrol_ops = input.devices * if kind == LiveKind::TaskPush { 3 } else { 2 };
    let mut positions = Some(input.positions);
    for (at, requests) in input.bursts {
        if d.sessions.is_none() && kind == LiveKind::TaskPush && d.out.requests >= enrol_ops as u64
        {
            // Enrolment is over: every Hello has been answered with a token.
            d.sessions = Some(DeviceSessions::new(
                &d.tokens,
                positions.take().expect("sessions are built once"),
            ));
        }
        d.burst(at, requests);
        d.settle(at);
    }
    // The horizon: fire what is still due, deliver it, answer it.
    d.clock.advance_to(d.out.horizon);
    let t = d.mark();
    let trailing = d.engine.advance_to(d.out.horizon);
    let t = d.span("engine.advance", t, 0, 1);
    for (_, frame) in &trailing {
        d.out.resp_bytes += frame.len() as u64;
        d.serving.queue(frame);
    }
    d.serving.flush().expect("loopback accepts trailing pushes");
    let t = d.span("conn.flush", t, 0, 1);
    d.receive(t, 0);
    let horizon = d.out.horizon;
    d.settle(horizon);
    d.out.wall_ns = (started.elapsed().as_nanos() as u64).saturating_sub(d.excluded_ns);

    d.out.ledger_depth_max = d.out.ledger_depth_max.max(d.engine.unacked_pushes());
    d.out.digest = d.engine.server().durable_digest(horizon);
    d.out.devices_tasks = (
        d.engine.server().device_count(),
        d.engine.server().task_count(),
    );
    if !d.expect.is_empty() {
        d.out
            .problems
            .push(format!("{} requests went unanswered", d.expect.len()));
    }
    let Driver {
        mut out, sink, log, ..
    } = d;
    if let (Some(sink), Some(log)) = (sink, log) {
        out.journal = (
            sink.appends.load(Ordering::Relaxed),
            sink.append_bytes.load(Ordering::Relaxed),
        );
        log.absorb(sink.take_spans());
    }
    out
}

/// The digest `serve::trace::run_sim` — the executable spec — reaches on
/// the ops a replay applied.
pub fn spec_digest(outcome: &ReplayOutcome) -> Vec<u8> {
    run_sim(
        &EventTrace {
            events: outcome.events.clone(),
            horizon: outcome.horizon,
        },
        SHARDS,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use senseaid_core::MemStorage;

    #[test]
    fn timed_storage_passes_bytes_results_and_errors_through() {
        let origin = Instant::now();
        let sink = StorageSink::new(origin, true);
        let mut plain = MemStorage::new();
        let mut timed = TimedStorage::new(Box::new(MemStorage::new()), Arc::clone(&sink));
        sink.enter(7, 3);

        // The same calls against both backends read back the same bytes.
        for storage in [&mut plain as &mut dyn StorageBackend, &mut timed] {
            storage.write("snap-1", b"full").unwrap();
            storage.append("journal-1", b"rec-a").unwrap();
            storage.append("journal-1", b"rec-b").unwrap();
            storage.write("snap-1", b"replaced").unwrap();
            storage.remove("absent").unwrap();
        }
        assert_eq!(timed.list().unwrap(), plain.list().unwrap());
        for name in plain.list().unwrap() {
            assert_eq!(
                timed.read(&name).unwrap(),
                plain.read(&name).unwrap(),
                "{name}"
            );
        }
        assert_eq!(timed.read("journal-1").unwrap(), b"rec-arec-b");
        assert_eq!(timed.read("missing"), Err(StorageError::NotFound));

        // And every call was counted and linked to its cause.
        assert_eq!(sink.appends.load(Ordering::Relaxed), 2);
        assert_eq!(sink.append_bytes.load(Ordering::Relaxed), 10);
        assert_eq!(sink.writes.load(Ordering::Relaxed), 2);
        let spans = sink.take_spans();
        let appends: Vec<&Span> = spans
            .iter()
            .filter(|s| s.name == "persist.append")
            .collect();
        assert_eq!(appends.len(), 2);
        assert!(appends.iter().all(|s| s.parent == 7 && s.req == 3));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn untraced_sink_counts_but_records_nothing() {
        let sink = StorageSink::new(Instant::now(), false);
        let mut timed = TimedStorage::new(Box::new(MemStorage::new()), Arc::clone(&sink));
        timed.append("j", b"x").unwrap();
        assert_eq!(sink.appends.load(Ordering::Relaxed), 1);
        assert!(sink.take_spans().is_empty());
    }

    #[test]
    fn a_small_replay_matches_the_spec_and_tiles_its_wall_time() {
        let shape = LiveShape::new(LiveKind::Mix, 0.3, 0.02);
        let mut log = SpanLog::new();
        let outcome = replay(
            LiveKind::Mix,
            build_input(LiveKind::Mix, 5, &shape, 512),
            None,
            Some(&mut log),
        );
        assert!(outcome.problems.is_empty(), "{:?}", outcome.problems);
        assert_eq!(outcome.wrong, 0);
        assert_eq!(outcome.devices_tasks.0, shape.devices);
        assert_eq!(outcome.digest, spec_digest(&outcome));
        assert_eq!(outcome.events.len() as u64, outcome.requests);
        // One handle span per request; the spans' self times add up to the
        // replay's wall time (the remainder is the loop's own bookkeeping).
        let totals = crate::span::totals(log.spans());
        assert_eq!(totals["engine.handle"].calls, outcome.requests);
        let covered: u64 = totals.values().map(|t| t.self_ns).sum();
        assert!(covered <= outcome.wall_ns, "spans cannot outlast the wall");
        assert!(
            covered as f64 >= 0.8 * outcome.wall_ns as f64,
            "spans cover {covered} of {} ns",
            outcome.wall_ns
        );
        // The untraced twin reaches the same state.
        let twin = replay(
            LiveKind::Mix,
            build_input(LiveKind::Mix, 5, &shape, 512),
            None,
            None,
        );
        assert_eq!(twin.digest, outcome.digest);
    }

    #[test]
    fn a_task_replay_answers_every_push_and_matches_the_spec() {
        let shape = LiveShape::new(LiveKind::TaskPush, 0.3, 0.02);
        let outcome = replay(
            LiveKind::TaskPush,
            build_input(LiveKind::TaskPush, 9, &shape, 64),
            None,
            None,
        );
        assert!(outcome.problems.is_empty(), "{:?}", outcome.problems);
        assert!(outcome.pushes > 0, "tasks must be pushed");
        assert_eq!(outcome.pushes % 3, 0, "every task selects three devices");
        assert_eq!(outcome.wrong, 0, "every reply is accepted");
        assert_eq!(outcome.digest, spec_digest(&outcome));
    }
}
