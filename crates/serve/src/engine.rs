//! The serving engine: one coordinator, one clock, many connections.
//!
//! [`ServeEngine`] is the mode-independent heart of the live runtime.
//! It owns a `SenseAidServer` and a [`Clock`]; decoded requests arrive
//! tagged with a connection id, get stamped with `clock.now()` at
//! receive time, and the resulting responses / assignment pushes come
//! back as sealed frames routed to connection ids. Neither sockets nor
//! loopback queues appear here — the TCP event loops (live mode) and the
//! trace replay driver (sim mode) both feed this same type, which is the
//! structural half of the byte-identity argument.
//!
//! **The serving semantics, stated once** (the sim-side replay in
//! [`crate::trace`] mirrors these rules verbatim — change them together):
//!
//! 1. Before a request is applied, the scheduler is advanced through
//!    every due wakeup: `while next_wakeup(cursor) <= now { poll }`.
//! 2. Every device-originated request except `Hello`/`Register` first
//!    renews the device's lease via `record_device_comm` at receive time
//!    (the PR 5 "any radio contact renews" rule, driven by real receive
//!    timestamps in live mode); an unknown device renews nothing.
//! 3. The request's own mutation is applied at the same receive
//!    timestamp.
//! 4. Assignments produced by polls are pushed to the session bound to
//!    each selected device (`Hello`/`Register` bind sessions); devices
//!    without a live session miss the push — delivery is not part of the
//!    durable state, so this cannot perturb byte identity.
//!
//! **Sessions survive their sockets.** A session is keyed by the device
//! identity, carries a token minted at `Hello`, and outlives any one
//! connection: `on_disconnect` unbinds the socket but keeps the session,
//! its bounded unacked-push ledger, and its request-dedup state, so a
//! [`WireRequest::Resume`] on a fresh connection replays exactly the
//! pushes the client has not acked and a retransmitted
//! [`WireRequest::Tracked`] envelope replays the recorded response
//! instead of re-applying the operation. That pair of rules is what makes
//! the surviving-prefix digest identity hold under transport chaos: an
//! operation is applied at most once no matter how many times the link
//! dies mid-exchange.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use senseaid_cellnet::CellId;
use senseaid_core::cas::CasId;
use senseaid_core::runtime::Clock;
use senseaid_core::{Assignment, SenseAidError, SenseAidServer, TaskSpec};
use senseaid_device::{ImeiHash, SensorReading};
use senseaid_geo::{CircleRegion, GeoPoint};
use senseaid_sim::{SimDuration, SimTime};
use senseaid_telemetry::{Attr, Lane, SpanId, Telemetry};

use crate::wire::{
    encode_push, encode_response, error_code, WirePush, WireReading, WireRequest, WireResponse,
    WireTaskSpec, DISCONNECT_LEASE_EXPIRED, DISCONNECT_LEDGER_OVERFLOW, ERR_BAD_SEQUENCE,
    ERR_UNKNOWN_SESSION,
};

/// A connection identity, assigned by the transport layer.
pub type ConnId = u64;

/// Bound on a session's unacked push ledger; past it the session
/// is revoked (the client has plainly stopped acking).
pub const DEFAULT_LEDGER_CAP: usize = 256;

/// Counters the engine keeps about its own traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Requests decoded and applied.
    pub requests: u64,
    /// Responses sent (1:1 with requests).
    pub responses: u64,
    /// Assignment pushes routed to live sessions.
    pub assignments_pushed: u64,
    /// Assignments whose device had no live session.
    pub assignments_unrouted: u64,
    /// Assignments held in a disconnected session's ledger, awaiting
    /// resume replay.
    pub assignments_queued: u64,
    /// Sessions minted at `Hello`/`Register`.
    pub sessions_created: u64,
    /// Successful `Resume` rebinds.
    pub sessions_resumed: u64,
    /// Pushes replayed from a ledger during resume.
    pub pushes_replayed: u64,
    /// Tracked envelopes answered from the response cache without
    /// re-applying the operation.
    pub requests_deduped: u64,
    /// Sessions revoked because their unacked ledger overflowed.
    pub ledger_overflows: u64,
    /// Sessions torn down because the device's liveness lease expired.
    pub sessions_lease_torn: u64,
}

/// What the WAL flush at graceful shutdown found.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FlushSummary {
    /// Whether persistence was armed at all.
    pub persistence_armed: bool,
    /// Journal records appended over the server's lifetime.
    pub journal_records: u64,
    /// Snapshots persisted (including the shutdown flush).
    pub snapshots_persisted: u64,
    /// The durable generation after the flush.
    pub generation: Option<u64>,
    /// Journal records storage refused over the server's lifetime; each
    /// is a gap recovery would stop at.
    pub append_failures: u64,
    /// Snapshot writes storage refused, the shutdown flush included.
    pub snapshot_write_failures: u64,
    /// Pushes still sitting unacked in session ledgers at flush time.
    /// Delivery is not durable state, so these are *reported*, not
    /// persisted: a client resuming against a restarted server re-Hellos
    /// and the scheduler re-derives its assignments from the WAL.
    pub unacked_pushes: u64,
}

/// Frames to send, each addressed to a connection.
#[derive(Debug, Default)]
pub struct EngineOutput {
    /// Sealed frames, in send order per connection.
    pub frames: Vec<(ConnId, Vec<u8>)>,
    /// The request asked the server to shut down.
    pub shutdown: bool,
}

/// One device's (or CAS driver's) durable session: the state that
/// survives the socket.
#[derive(Debug)]
struct Session {
    /// The resume credential minted at `Hello`.
    token: u64,
    /// The connection currently bound, if any.
    conn: Option<ConnId>,
    /// Whether this identity was a registered device when last checked
    /// (CAS driver sessions are not; the lease sweep skips them).
    device_bound: bool,
    /// Next push sequence number to mint (1-based).
    next_push_seq: u64,
    /// Unacked pushes: `(seq, sealed frame)`, oldest first.
    ledger: VecDeque<(u64, Vec<u8>)>,
    /// Highest Tracked envelope sequence applied.
    last_req_seq: u64,
    /// The sealed response frame for `last_req_seq`, replayed verbatim
    /// on a retransmit.
    cached_response: Option<Vec<u8>>,
}

impl Session {
    fn fresh(token: u64, conn: ConnId, device_bound: bool) -> Self {
        Session {
            token,
            conn: Some(conn),
            device_bound,
            next_push_seq: 1,
            ledger: VecDeque::new(),
            last_req_seq: 0,
            cached_response: None,
        }
    }

    /// Cumulative ack: drop every ledgered push with seq ≤ `ack`.
    fn prune(&mut self, ack: u64) {
        while self.ledger.front().is_some_and(|(seq, _)| *seq <= ack) {
            self.ledger.pop_front();
        }
    }
}

/// The mode-independent serving core. See the module docs for the
/// serving semantics it guarantees.
pub struct ServeEngine {
    server: SenseAidServer,
    clock: Arc<dyn Clock>,
    /// identity (imei, or a CAS driver's chosen id) → session.
    sessions: HashMap<u64, Session>,
    /// token → identity, the resume lookup.
    tokens: HashMap<u64, u64>,
    /// Deterministic token mint counter.
    next_token: u64,
    /// `ServerStats::leases_expired` last time the lease sweep ran.
    leases_expired_seen: u64,
    /// `session.*` / `conn.*` instants; off by default.
    tel: Telemetry,
    /// The last instant the scheduler was advanced to.
    cursor: SimTime,
    stats: EngineStats,
}

impl ServeEngine {
    /// Wraps a configured server and a clock.
    pub fn new(server: SenseAidServer, clock: Arc<dyn Clock>) -> Self {
        ServeEngine {
            server,
            clock,
            sessions: HashMap::new(),
            tokens: HashMap::new(),
            next_token: 0,
            leases_expired_seen: 0,
            tel: Telemetry::off(),
            cursor: SimTime::ZERO,
            stats: EngineStats::default(),
        }
    }

    /// The wrapped server (digests, stats).
    pub fn server(&self) -> &SenseAidServer {
        &self.server
    }

    /// Mutable access (persistence arming at startup, the live server's
    /// journal bracket).
    pub fn server_mut(&mut self) -> &mut SenseAidServer {
        &mut self.server
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The engine's current notion of now.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// The earliest instant at which [`advance_to`](Self::advance_to)
    /// would poll, or `None` while the scheduler is quiescent. A live
    /// driver blocks until then (or until traffic); waking later than
    /// this delays a poll, which rule 1 allows, and waking earlier is
    /// harmless because `advance_to` only runs what is due.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        self.server.next_wakeup(self.cursor)
    }

    /// Arms `session.*`/`conn.*` instants on `tel` (off by default).
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// Live sessions (bound or awaiting resume).
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Pushes sitting unacked across every session ledger.
    pub fn unacked_pushes(&self) -> u64 {
        self.sessions.values().map(|s| s.ledger.len() as u64).sum()
    }

    /// Advances the scheduler through every wakeup due at or before `t`,
    /// returning assignment pushes for the sessions of selected devices.
    ///
    /// This is rule 1 of the serving semantics: polls happen at their
    /// scheduled instants in order, never early, never skipped — the same
    /// event-loop contract the sim harness runs (`WakeupDriver`).
    pub fn advance_to(&mut self, t: SimTime) -> Vec<(ConnId, Vec<u8>)> {
        let mut frames = Vec::new();
        while let Some(wakeup) = self.server.next_wakeup(self.cursor) {
            if wakeup > t {
                break;
            }
            let at = wakeup.max(self.cursor);
            let assignments = self.server.poll(at).unwrap_or_default();
            self.cursor = at;
            for assignment in assignments {
                self.route_assignment(&assignment, &mut frames);
            }
        }
        if t > self.cursor {
            self.cursor = t;
        }
        self.sweep_expired_leases(&mut frames);
        frames
    }

    /// PR 5 integration: when a poll evicted devices whose liveness lease
    /// expired, their sessions die with them. Cheap in the common case —
    /// the sweep only walks the session map when the eviction counter
    /// moved.
    fn sweep_expired_leases(&mut self, frames: &mut Vec<(ConnId, Vec<u8>)>) {
        let expired = self.server.stats().leases_expired;
        if expired == self.leases_expired_seen {
            return;
        }
        self.leases_expired_seen = expired;
        let dead: Vec<u64> = self
            .sessions
            .iter()
            .filter(|(identity, s)| {
                s.device_bound && self.server.device(ImeiHash(**identity)).is_none()
            })
            .map(|(identity, _)| *identity)
            .collect();
        for identity in dead {
            let session = self.sessions.remove(&identity).expect("listed above");
            self.tokens.remove(&session.token);
            self.stats.sessions_lease_torn += 1;
            self.tel.instant(
                "session.lease_torn",
                self.cursor,
                Lane::control(0),
                SpanId::NONE,
                vec![Attr::u64("imei", identity)],
            );
            if let Some(conn) = session.conn {
                let notice = WirePush::Disconnect {
                    code: DISCONNECT_LEASE_EXPIRED,
                    detail: format!("device {identity} lease expired; session torn down"),
                };
                frames.push((conn, encode_push(&notice)));
            }
        }
    }

    fn route_assignment(&mut self, assignment: &Assignment, frames: &mut Vec<(ConnId, Vec<u8>)>) {
        let devices: Vec<u64> = assignment.devices.iter().map(|d| d.0).collect();
        for device in &devices {
            let Some(session) = self.sessions.get_mut(device) else {
                self.stats.assignments_unrouted += 1;
                continue;
            };
            let seq = session.next_push_seq;
            session.next_push_seq += 1;
            let push = WirePush::Assignment {
                seq,
                device: *device,
                request: assignment.request.0,
                task: assignment.task.0,
                sensor: assignment.sensor,
                sample_at_us: assignment.sample_at.as_micros(),
                deadline_us: assignment.deadline.as_micros(),
                payload_bytes: assignment.payload_bytes,
                devices: devices.clone(),
            };
            let frame = encode_push(&push);
            session.ledger.push_back((seq, frame.clone()));
            if session.ledger.len() > DEFAULT_LEDGER_CAP {
                // The client stopped acking; holding unbounded frames
                // for it would let one dead peer eat the server.
                let session = self.sessions.remove(device).expect("present above");
                self.tokens.remove(&session.token);
                self.stats.ledger_overflows += 1;
                self.tel.instant(
                    "session.ledger_overflow",
                    self.cursor,
                    Lane::control(0),
                    SpanId::NONE,
                    vec![Attr::u64("imei", *device)],
                );
                if let Some(conn) = session.conn {
                    let notice = WirePush::Disconnect {
                        code: DISCONNECT_LEDGER_OVERFLOW,
                        detail: format!(
                            "session push ledger exceeded {DEFAULT_LEDGER_CAP} unacked pushes"
                        ),
                    };
                    frames.push((conn, encode_push(&notice)));
                }
                continue;
            }
            match session.conn {
                Some(conn) => {
                    frames.push((conn, frame));
                    self.stats.assignments_pushed += 1;
                }
                None => self.stats.assignments_queued += 1,
            }
        }
    }

    /// Unbinds the sessions of a disconnected connection. The sessions
    /// themselves survive — their ledgers keep accumulating pushes until
    /// the client resumes, the ledger overflows, or the device lease
    /// expires.
    pub fn on_disconnect(&mut self, conn: ConnId) {
        for session in self.sessions.values_mut() {
            if session.conn == Some(conn) {
                session.conn = None;
            }
        }
        self.tel.instant(
            "conn.closed",
            self.cursor,
            Lane::control(0),
            SpanId::NONE,
            vec![Attr::u64("conn", conn)],
        );
    }

    /// Applies one decoded request from `conn` at the clock's current
    /// instant, per the serving semantics in the module docs.
    pub fn handle(&mut self, conn: ConnId, request: WireRequest) -> EngineOutput {
        let now = self.clock.now();
        let mut output = EngineOutput {
            frames: self.advance_to(now),
            shutdown: false,
        };
        self.stats.requests += 1;
        match request {
            WireRequest::Tracked {
                token,
                req_seq,
                push_ack,
                inner,
            } => self.handle_tracked(conn, token, req_seq, push_ack, &inner, now, &mut output),
            WireRequest::Resume { token, push_ack } => {
                self.handle_resume(conn, token, push_ack, now, &mut output)
            }
            WireRequest::PushAck { token, push_ack } => {
                let response = match self.session_by_token(token) {
                    Some(identity) => {
                        let session = self.sessions.get_mut(&identity).expect("token maps");
                        session.prune(push_ack);
                        WireResponse::Ok
                    }
                    None => unknown_session_response(),
                };
                output.frames.push((conn, encode_response(&response)));
            }
            other => {
                let response = self.apply(conn, &other, now, &mut output);
                output.frames.push((conn, encode_response(&response)));
            }
        }
        self.stats.responses += 1;
        output
    }

    fn session_by_token(&self, token: u64) -> Option<u64> {
        self.tokens.get(&token).copied()
    }

    /// The at-most-once path. A retransmit of the last applied envelope
    /// replays the recorded response verbatim; anything else either
    /// applies in order or gets a truthful sequence error. The op itself
    /// is never applied twice — that is the whole surviving-prefix
    /// argument.
    #[allow(clippy::too_many_arguments)]
    fn handle_tracked(
        &mut self,
        conn: ConnId,
        token: u64,
        req_seq: u64,
        push_ack: u64,
        inner: &WireRequest,
        now: SimTime,
        output: &mut EngineOutput,
    ) {
        let Some(identity) = self.session_by_token(token) else {
            let frame = encode_response(&unknown_session_response());
            output.frames.push((conn, frame));
            return;
        };
        {
            let session = self.sessions.get_mut(&identity).expect("token maps");
            // The envelope proves the client is on this conn now.
            session.conn = Some(conn);
            session.prune(push_ack);
            if req_seq == session.last_req_seq {
                if let Some(cached) = session.cached_response.clone() {
                    self.stats.requests_deduped += 1;
                    output.frames.push((conn, cached));
                    return;
                }
            }
            if req_seq != session.last_req_seq + 1 {
                let response = WireResponse::Error {
                    code: ERR_BAD_SEQUENCE,
                    detail: format!(
                        "envelope seq {req_seq} does not follow applied seq {}",
                        session.last_req_seq
                    ),
                };
                output.frames.push((conn, encode_response(&response)));
                return;
            }
        }
        let response = self.apply(conn, inner, now, output);
        let frame = encode_response(&response);
        // The lease sweep or a ledger overflow inside apply/advance may
        // have killed the session; cache only if it still exists.
        if let Some(session) = self.sessions.get_mut(&identity) {
            session.last_req_seq = req_seq;
            session.cached_response = Some(frame.clone());
        }
        output.frames.push((conn, frame));
    }

    fn handle_resume(
        &mut self,
        conn: ConnId,
        token: u64,
        push_ack: u64,
        now: SimTime,
        output: &mut EngineOutput,
    ) {
        let Some(identity) = self.session_by_token(token) else {
            let frame = encode_response(&unknown_session_response());
            output.frames.push((conn, frame));
            return;
        };
        let session = self.sessions.get_mut(&identity).expect("token maps");
        session.conn = Some(conn);
        session.prune(push_ack);
        let replaying = session.ledger.len() as u32;
        let response = WireResponse::SessionResumed {
            applied_req_seq: session.last_req_seq,
            replaying,
        };
        output.frames.push((conn, encode_response(&response)));
        // Replay strictly after the response so the client rebinds before
        // it sees the backlog; order within the ledger is seq order.
        for (_, frame) in session.ledger.iter() {
            output.frames.push((conn, frame.clone()));
        }
        self.stats.pushes_replayed += u64::from(replaying);
        self.stats.sessions_resumed += 1;
        self.tel.instant(
            "session.resumed",
            now,
            Lane::control(0),
            SpanId::NONE,
            vec![
                Attr::u64("imei", identity),
                Attr::u64("replayed", u64::from(replaying)),
            ],
        );
    }

    /// Mints a fresh session for `identity`, revoking any prior one (a
    /// client that re-Hellos has lost its token; the old ledger is
    /// unreachable to it and would only replay confusion).
    fn mint_session(&mut self, identity: u64, conn: ConnId, now: SimTime) -> u64 {
        if let Some(old) = self.sessions.remove(&identity) {
            self.tokens.remove(&old.token);
        }
        self.next_token += 1;
        // Decorrelate tokens from the mint counter so a client cannot
        // guess a neighbour's credential from its own.
        let token = self
            .next_token
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(17)
            ^ identity;
        let device_bound = self.server.device(ImeiHash(identity)).is_some();
        self.sessions
            .insert(identity, Session::fresh(token, conn, device_bound));
        self.tokens.insert(token, identity);
        self.stats.sessions_created += 1;
        self.tel.instant(
            "session.bound",
            now,
            Lane::control(0),
            SpanId::NONE,
            vec![Attr::u64("imei", identity), Attr::u64("conn", conn)],
        );
        token
    }

    /// Rule 2: any device-originated frame is radio contact; renew the
    /// lease at receive time. Unknown devices renew nothing (they are
    /// about to get their own typed error from the op itself, or they
    /// are stale traffic from a deregistered device).
    fn renew_lease(&mut self, imei: u64, now: SimTime) {
        let _ = self.server.record_device_comm(ImeiHash(imei), now);
    }

    fn apply(
        &mut self,
        conn: ConnId,
        request: &WireRequest,
        now: SimTime,
        output: &mut EngineOutput,
    ) -> WireResponse {
        match request {
            WireRequest::Hello { imei } => {
                let token = self.mint_session(*imei, conn, now);
                WireResponse::SessionBound { token }
            }
            WireRequest::Register {
                imei,
                energy_budget_j,
                critical_battery_pct,
                battery_pct,
                device_type,
                sensors,
            } => {
                let result = self.server.register_device(
                    ImeiHash(*imei),
                    *energy_budget_j,
                    *critical_battery_pct,
                    *battery_pct,
                    sensors.clone(),
                    device_type.clone(),
                    now,
                );
                if result.is_ok() {
                    // Keep an existing session (a Hello-then-Register
                    // client keeps its token and ledger); mint one for
                    // bare-Register clients.
                    match self.sessions.get_mut(imei) {
                        Some(session) => {
                            session.conn = Some(conn);
                            session.device_bound = true;
                        }
                        None => {
                            self.mint_session(*imei, conn, now);
                        }
                    }
                }
                respond(result)
            }
            WireRequest::Deregister { imei } => {
                if let Some(session) = self.sessions.remove(imei) {
                    self.tokens.remove(&session.token);
                }
                respond(self.server.deregister_device(ImeiHash(*imei)))
            }
            WireRequest::UpdatePreferences {
                imei,
                energy_budget_j,
                critical_battery_pct,
            } => {
                self.renew_lease(*imei, now);
                respond(self.server.update_preferences(
                    ImeiHash(*imei),
                    *energy_budget_j,
                    *critical_battery_pct,
                ))
            }
            WireRequest::StateUpdate {
                imei,
                battery_pct,
                cs_energy_j,
            } => {
                self.renew_lease(*imei, now);
                respond(self.server.update_device_state(
                    ImeiHash(*imei),
                    *battery_pct,
                    *cs_energy_j,
                    now,
                ))
            }
            WireRequest::Observe {
                imei,
                lat_deg,
                lon_deg,
                cell,
            } => {
                self.renew_lease(*imei, now);
                respond(self.server.observe_device(
                    ImeiHash(*imei),
                    GeoPoint::new(*lat_deg, *lon_deg),
                    cell.map(|c| CellId(c as usize)),
                ))
            }
            WireRequest::Comm { imei } => {
                // The renewal IS the op; no double-stamping.
                respond(self.server.record_device_comm(ImeiHash(*imei), now))
            }
            WireRequest::SubmitBatch {
                imei,
                seq,
                attempt,
                readings,
            } => {
                self.renew_lease(*imei, now);
                let decoded = decode_readings(readings);
                match self.server.submit_sensed_batch(
                    ImeiHash(*imei),
                    *seq,
                    *attempt,
                    &decoded,
                    now,
                ) {
                    Ok(receipt) => {
                        let accepted = receipt
                            .outcomes
                            .iter()
                            .filter(|o| {
                                matches!(o, senseaid_core::DeliveryOutcome::Accepted { .. })
                            })
                            .count() as u32;
                        let duplicates = receipt
                            .outcomes
                            .iter()
                            .filter(|o| matches!(o, senseaid_core::DeliveryOutcome::Duplicate))
                            .count() as u32;
                        WireResponse::BatchAck {
                            ack: receipt.ack,
                            accepted,
                            duplicates,
                        }
                    }
                    Err(e) => error_response(&e),
                }
            }
            WireRequest::SubmitTask { cas, spec } => match build_task_spec(spec) {
                Ok(built) => match self.server.submit_task_for(CasId(*cas), built, now) {
                    Ok(task) => WireResponse::TaskCreated { task: task.0 },
                    Err(e) => error_response(&e),
                },
                Err(e) => error_response(&e),
            },
            WireRequest::DrainOutbox => WireResponse::Outbox {
                delivered: self.server.drain_outbox().len() as u32,
            },
            WireRequest::Stats => {
                // ServerStats is rich; the wire carries the load-bearing gauges.
                WireResponse::Stats {
                    devices: self.server.device_count() as u64,
                    tasks: self.server.task_count() as u64,
                    run_queue: self.server.run_queue_len() as u64,
                    wait_queue: self.server.wait_queue_len() as u64,
                    unresolved: self.server.unresolved_request_count() as u64,
                }
            }
            WireRequest::Shutdown => {
                output.shutdown = true;
                WireResponse::ShuttingDown
            }
            // Session-layer requests are routed in `handle` before apply;
            // reaching here means one was smuggled inside an envelope.
            WireRequest::Resume { .. }
            | WireRequest::PushAck { .. }
            | WireRequest::Tracked { .. } => WireResponse::Error {
                code: ERR_BAD_SEQUENCE,
                detail: "session control request inside a tracked envelope".to_owned(),
            },
        }
    }

    /// Graceful-shutdown flush: advance the scheduler to `now`, persist
    /// a final snapshot when a WAL is armed (which also writes any
    /// journal records still held), and report what is durable and what
    /// storage refused.
    pub fn shutdown_flush(&mut self) -> FlushSummary {
        let now = self.clock.now();
        let _ = self.advance_to(now);
        let unacked_pushes = self.unacked_pushes();
        let armed = self.server.persist_stats().is_some();
        if armed {
            self.server.take_snapshot(now);
        }
        let stats = self.server.persist_stats().unwrap_or_default();
        FlushSummary {
            persistence_armed: armed,
            journal_records: stats.journal_records,
            snapshots_persisted: stats.snapshots_full + stats.snapshots_delta,
            generation: self.server.persist_generation(),
            append_failures: stats.append_failures,
            snapshot_write_failures: stats.snapshot_write_failures,
            unacked_pushes,
        }
    }
}

/// Reconstructs the server-side `TaskSpec` from its wire form through
/// the same builder a sim-mode CAS uses, so wire-submitted tasks face
/// identical validation.
pub fn build_task_spec(spec: &WireTaskSpec) -> Result<TaskSpec, SenseAidError> {
    let region = CircleRegion::new(
        GeoPoint::new(spec.centre_lat, spec.centre_lon),
        spec.radius_m,
    );
    let mut builder = TaskSpec::builder(spec.sensor)
        .region(region)
        .spatial_density(spec.spatial_density as usize);
    if spec.one_shot {
        builder = builder.one_shot();
    } else {
        builder = builder
            .sampling_period(SimDuration::from_micros(spec.period_us))
            .sampling_duration(SimDuration::from_micros(spec.duration_us));
    }
    builder.build()
}

/// Converts wire readings to the server's native tuple form.
pub fn decode_readings(readings: &[WireReading]) -> Vec<(senseaid_core::RequestId, SensorReading)> {
    readings
        .iter()
        .map(|r| {
            (
                senseaid_core::RequestId(r.request),
                SensorReading {
                    sensor: r.sensor,
                    value: r.value,
                    taken_at: SimTime::from_micros(r.taken_at_us),
                    position: GeoPoint::new(r.lat_deg, r.lon_deg),
                },
            )
        })
        .collect()
}

fn unknown_session_response() -> WireResponse {
    WireResponse::Error {
        code: ERR_UNKNOWN_SESSION,
        detail: "unknown session token (expired, revoked, or pre-restart)".to_owned(),
    }
}

fn respond(result: Result<(), SenseAidError>) -> WireResponse {
    match result {
        Ok(()) => WireResponse::Ok,
        Err(e) => error_response(&e),
    }
}

fn error_response(e: &SenseAidError) -> WireResponse {
    WireResponse::Error {
        code: error_code(e),
        detail: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use senseaid_core::runtime::SimClock;
    use senseaid_device::Sensor;

    use crate::conn::FrameAssembler;
    use crate::trace::trace_server;
    use crate::wire::{decode_frame, WireFrame};

    fn decode(frame: &[u8]) -> WireFrame {
        let mut assembler = FrameAssembler::new();
        assembler.extend(frame);
        let (kind, payload) = assembler
            .next_frame()
            .expect("frame reassembles")
            .expect("frame is complete");
        decode_frame(kind, &payload).expect("frame decodes")
    }

    fn response_of(output: &EngineOutput) -> WireResponse {
        let (_conn, frame) = output.frames.first().expect("a response frame");
        match decode(frame) {
            WireFrame::Response(resp) => resp,
            other => panic!("expected a response, got {other:?}"),
        }
    }

    fn barometer_task(one_shot: bool) -> WireTaskSpec {
        WireTaskSpec {
            sensor: Sensor::Barometer,
            centre_lat: 40.4284,
            centre_lon: -86.9138,
            radius_m: 2_000.0,
            spatial_density: 1,
            one_shot,
            period_us: 120_000_000,
            duration_us: 1_200_000_000,
        }
    }

    /// Binds a session for device 7 on connection 1 and enrols the device
    /// inside the task region; returns the session token at t = 2 s.
    fn bind_device_in_region(engine: &mut ServeEngine, clock: &SimClock) -> u64 {
        let output = engine.handle(1, WireRequest::Hello { imei: 7 });
        let WireResponse::SessionBound { token, .. } = response_of(&output) else {
            panic!("hello must bind a session");
        };
        clock.advance_to(SimTime::from_secs(1));
        engine.handle(
            1,
            WireRequest::Register {
                imei: 7,
                energy_budget_j: 400.0,
                critical_battery_pct: 10.0,
                battery_pct: 90.0,
                device_type: "test-phone".to_owned(),
                sensors: vec![Sensor::Barometer],
            },
        );
        clock.advance_to(SimTime::from_secs(2));
        engine.handle(
            1,
            WireRequest::Observe {
                imei: 7,
                lat_deg: 40.4284,
                lon_deg: -86.9138,
                cell: None,
            },
        );
        token
    }

    #[test]
    fn shutdown_flush_reports_pushes_still_unacked_in_ledgers() {
        let clock = SimClock::new();
        let mut engine = ServeEngine::new(trace_server(1), Arc::new(clock.clone()));
        bind_device_in_region(&mut engine, &clock);
        clock.advance_to(SimTime::from_secs(3));
        let spec = barometer_task(false);
        engine.handle(1, WireRequest::SubmitTask { cas: 1, spec });

        // Let the scheduler poll: the selected device's session receives
        // assignment pushes that nobody ever acks.
        clock.advance_to(SimTime::from_mins(30));
        let pushed = engine.advance_to(SimTime::from_mins(30));
        assert!(
            !pushed.is_empty(),
            "the poll should have pushed an assignment to the bound session"
        );
        assert!(engine.unacked_pushes() > 0);

        let flush = engine.shutdown_flush();
        assert_eq!(
            flush.unacked_pushes,
            engine.unacked_pushes(),
            "the flush must report exactly the pushes still sitting in ledgers"
        );
        assert!(flush.unacked_pushes > 0);
        // No WAL was armed: the flush is truthful about that too, and the
        // unacked pushes are reported rather than persisted.
        assert!(!flush.persistence_armed);
        assert_eq!(flush.generation, None);
    }

    #[test]
    fn a_session_that_never_acks_is_revoked_at_the_ledger_cap() {
        let clock = SimClock::new();
        let mut engine = ServeEngine::new(trace_server(1), Arc::new(clock.clone()));
        let token = bind_device_in_region(&mut engine, &clock);

        // One-shot density-1 tasks, one per second, each selecting the only
        // device in the region; the CAS drives them on its own connection.
        let mut pushes = Vec::new();
        for i in 0..=DEFAULT_LEDGER_CAP as u64 {
            clock.advance_to(SimTime::from_secs(3 + i));
            let spec = barometer_task(true);
            let output = engine.handle(2, WireRequest::SubmitTask { cas: 1, spec });
            pushes.extend(output.frames.into_iter().filter(|(conn, _)| *conn == 1));
            assert_eq!(
                engine.stats().ledger_overflows,
                0,
                "push {i} overflowed early"
            );
            clock.advance_to(SimTime::from_secs(3 + i) + SimDuration::from_millis(500));
            pushes.extend(engine.advance_to(clock.now()));
        }
        let notices: Vec<u8> = pushes
            .iter()
            .filter_map(|(_, frame)| match decode(frame) {
                WireFrame::Push(WirePush::Disconnect { code, .. }) => Some(code),
                WireFrame::Push(WirePush::Assignment { .. }) => None,
                other => panic!("expected a push, got {other:?}"),
            })
            .collect();
        assert_eq!(notices, [DISCONNECT_LEDGER_OVERFLOW]);
        // The push that overflowed is dropped with the session, not sent.
        assert_eq!(pushes.len(), DEFAULT_LEDGER_CAP + 1);
        assert_eq!(engine.stats().assignments_pushed, DEFAULT_LEDGER_CAP as u64);
        assert_eq!(engine.stats().ledger_overflows, 1);
        assert_eq!(engine.session_count(), 0);
        assert_eq!(engine.unacked_pushes(), 0);

        // The token died with the session: a tracked frame must re-Hello.
        let output = engine.handle(
            1,
            WireRequest::Tracked {
                token,
                req_seq: 1,
                push_ack: 0,
                inner: Box::new(WireRequest::Stats),
            },
        );
        let WireResponse::Error { code, .. } = response_of(&output) else {
            panic!("a revoked token must be refused");
        };
        assert_eq!(code, ERR_UNKNOWN_SESSION);
    }
}
