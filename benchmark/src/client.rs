//! The load generator: one TCP connection multiplexing the whole device
//! population.
//!
//! Sessions are per-IMEI, not per-socket, and the server answers each
//! connection's requests in FIFO order, so the k-th response on the wire
//! answers the k-th request written — one connection can carry ten
//! thousand devices. Two threads drive it, never more (the host has two
//! cores and the server needs them): a **sender** that writes
//! pre-encoded frames on a schedule (open loop) or up to a window (closed
//! loop), and a blocking **receiver** that stamps every arrival, matches
//! responses to requests by position, and checks each is the variant the
//! request was due. Assignment pushes interleave with responses on the
//! same stream; the receiver sorts them out by frame kind.
//!
//! Open-loop latency is taken from the *intended* send instant, so a
//! stall in the server (or the generator) delays later requests on the
//! record instead of hiding them; how late the generator itself ran is
//! reported separately so a phase it could not keep up with is void.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, OnceLock};
use std::time::{Duration, Instant};

use senseaid_core::persist::codec::{open_frame_prefix, CodecError};
use senseaid_device::Sensor;
use senseaid_serve::wire::{
    decode_push, decode_response, encode_request, WirePush, WireReading, WireRequest, WireResponse,
    KIND_PUSH, KIND_RESPONSE,
};

use crate::gen::{Expect, Plan, TASK_DENSITY};
use crate::procfs::CpuPlan;

/// A request unanswered this long after the sender finished is a failure.
pub const ANSWER_TIMEOUT: Duration = Duration::from_secs(10);

/// How long the receiver blocks in `read` before re-checking whether the
/// phase is over.
const READ_POLL: Duration = Duration::from_millis(20);

/// `thread::sleep` overshoots by the timer slack (50 µs by default) plus
/// wake-up latency; the paced sender asks for this much less and spins
/// the remainder.
const SLEEP_OVERSHOOT: Duration = Duration::from_micros(70);

/// Cursor-based frame scanner for the client side of the stream. The
/// generator owns its own reassembly so that it never becomes faster or
/// slower because `serve::conn` changed.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameReader {
    /// An empty reader with a 256 KiB buffer.
    pub fn new() -> Self {
        FrameReader {
            buf: vec![0u8; 256 * 1024],
            start: 0,
            end: 0,
        }
    }

    /// Bytes buffered but not yet consumed as frames.
    #[cfg(test)]
    pub fn pending(&self) -> usize {
        self.end - self.start
    }

    /// Appends already-received bytes (the live path uses
    /// [`fill`](Self::fill)).
    #[cfg(test)]
    pub fn extend(&mut self, bytes: &[u8]) {
        self.make_room(bytes.len());
        self.buf[self.end..self.end + bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    fn make_room(&mut self, want: usize) {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        if self.buf.len() - self.end < want {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if self.buf.len() - self.end < want {
                self.buf.resize((self.end + want).next_power_of_two(), 0);
            }
        }
    }

    /// One blocking read into the spare capacity. `Ok(0)` is EOF; a read
    /// timeout surfaces as `WouldBlock`/`TimedOut`.
    pub fn fill(&mut self, stream: &mut TcpStream) -> io::Result<usize> {
        self.make_room(16 * 1024);
        let n = stream.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Pops the next complete frame as `(kind, payload)`; `Ok(None)` when
    /// more bytes are needed.
    ///
    /// # Errors
    ///
    /// The codec's verdict (bad magic, version, checksum) when the
    /// buffered bytes cannot be a frame: the server garbled its output.
    pub fn next_frame(&mut self) -> Result<Option<(u8, &[u8])>, CodecError> {
        match open_frame_prefix(&self.buf[self.start..self.end]) {
            Ok((kind, _, consumed)) => {
                let from = self.start;
                self.start += consumed;
                // Re-slice from the stable buffer: payload sits after the
                // 11-byte header, before the 4-byte checksum.
                Ok(Some((kind, &self.buf[from + 11..from + consumed - 4])))
            }
            Err(CodecError::Truncated) => Ok(None),
            Err(e) => Err(e),
        }
    }
}

impl Default for FrameReader {
    fn default() -> Self {
        FrameReader::new()
    }
}

/// The generator's connection to one server instance.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    cpus: CpuPlan,
}

impl Conn {
    /// Dials the server.
    ///
    /// # Errors
    ///
    /// Connection or socket-option failures.
    pub fn connect(addr: SocketAddr, cpus: CpuPlan) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_POLL))?;
        Ok(Conn {
            stream,
            reader: FrameReader::new(),
            cpus,
        })
    }

    /// Spawns a phase's receiver on the receiver's CPU and returns the
    /// caller to the sender's. A new thread inherits its creator's
    /// affinity, so the creator steps over for the spawn.
    fn spawn_receiver<'scope, T: Send + 'scope>(
        cpus: &CpuPlan,
        scope: &'scope std::thread::Scope<'scope, '_>,
        body: impl FnOnce() -> T + Send + 'scope,
    ) -> std::thread::ScopedJoinHandle<'scope, T> {
        cpus.pin_self(cpus.receiver());
        let handle = std::thread::Builder::new()
            .name("bench-recv".to_owned())
            .spawn_scoped(scope, body)
            .expect("spawn receiver");
        cpus.pin_self(cpus.sender());
        handle
    }

    /// One blocking request/response exchange on an otherwise quiet
    /// connection (set-up probes, the final `Stats`).
    ///
    /// # Errors
    ///
    /// I/O failures, a garbled frame, or no answer within
    /// [`ANSWER_TIMEOUT`].
    pub fn call(&mut self, req: &WireRequest) -> io::Result<WireResponse> {
        self.stream.write_all(&encode_request(req))?;
        let deadline = Instant::now() + ANSWER_TIMEOUT;
        loop {
            while let Some((kind, payload)) = self.reader.next_frame().map_err(garbled)? {
                if kind == KIND_RESPONSE {
                    return decode_response(payload).map_err(|e| io::Error::other(e.to_string()));
                }
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "no response"));
            }
            match self.reader.fill(&mut self.stream) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(_) => {}
                Err(e) if is_timeout(&e) => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// The receiver's side of the phase start: the sender publishes the
/// instant once both threads are placed; this is a few microseconds.
fn await_start(start: &OnceLock<Instant>) -> Instant {
    loop {
        if let Some(origin) = start.get() {
            return *origin;
        }
        std::thread::yield_now();
    }
}

fn garbled(e: CodecError) -> io::Error {
    io::Error::other(format!("server sent a garbled frame: {e}"))
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

/// Whether `resp` is what a request expecting `expect` was due.
pub fn satisfies(expect: Expect, resp: &WireResponse) -> bool {
    matches!(
        (expect, resp),
        (Expect::Ok, WireResponse::Ok)
            | (Expect::BatchAck, WireResponse::BatchAck { .. })
            | (Expect::TaskCreated, WireResponse::TaskCreated { .. })
            | (Expect::SessionBound, WireResponse::SessionBound { .. })
            | (Expect::Stats, WireResponse::Stats { .. })
            | (Expect::Outbox, WireResponse::Outbox { .. })
            | (
                Expect::BatchAccepted,
                WireResponse::BatchAck {
                    accepted: 1,
                    duplicates: 0,
                    ..
                }
            )
    )
}

/// How the sender paces a planned stream.
#[derive(Debug, Clone, Copy)]
pub enum Pacing<'a> {
    /// Open loop: op `k` is due `due_ns[k]` after the phase start,
    /// whatever the server is doing.
    Open {
        /// Intended send offsets, ascending, one per op.
        due_ns: &'a [u64],
    },
    /// Closed window: keep `in_flight` requests outstanding until the
    /// plan runs out or `stop_after` elapses.
    Window {
        /// Requests kept outstanding.
        in_flight: usize,
        /// Stop issuing after this long (the plan is an upper bound).
        stop_after: Option<Duration>,
    },
}

/// Marks a request that never got a response.
pub const UNANSWERED: u64 = u64::MAX;

/// What one planned-stream phase measured.
#[derive(Debug, Default)]
pub struct StreamOutcome {
    /// Ops actually written.
    pub sent: usize,
    /// When each was written, ns after the phase start.
    pub sent_ns: Vec<u64>,
    /// When each response arrived, ns after the phase start
    /// ([`UNANSWERED`] if it never did).
    pub recv_ns: Vec<u64>,
    /// Responses that were an error or the wrong variant.
    pub wrong: usize,
    /// First few mismatches, for the failure report.
    pub wrong_detail: Vec<String>,
    /// Pushes seen (none are expected on a request stream).
    pub pushes: usize,
    /// Session tokens from `SessionBound` responses, as `(imei, token)`.
    pub tokens: Vec<(u64, u64)>,
    /// The last `Stats` response, if the plan asked for one.
    pub stats: Option<WireResponse>,
    /// Requests outstanding when the sender stopped issuing.
    pub backlog_at_stop: usize,
}

impl StreamOutcome {
    /// Requests written but never answered.
    pub fn unanswered(&self) -> usize {
        self.recv_ns[..self.sent]
            .iter()
            .filter(|t| **t == UNANSWERED)
            .count()
    }

    /// Responses that arrived within `window_ns` of the phase start.
    pub fn answered_within(&self, window_ns: u64) -> usize {
        self.recv_ns[..self.sent]
            .iter()
            .filter(|t| **t <= window_ns)
            .count()
    }
}

/// Sleeps most of the way to `due_ns`, then spins: a sleep alone overshoots
/// by the kernel's timer slack, a spin alone takes a core the server needs.
fn wait_until(origin: Instant, due_ns: u64) {
    let due = Duration::from_nanos(due_ns);
    loop {
        let now = origin.elapsed();
        if now >= due {
            return;
        }
        let remaining = due - now;
        if remaining > SLEEP_OVERSHOOT + Duration::from_micros(20) {
            std::thread::sleep(remaining - SLEEP_OVERSHOOT);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Runs one planned request stream over `conn` and waits for its
/// responses (up to [`ANSWER_TIMEOUT`] past the last send).
///
/// # Errors
///
/// I/O failures on the connection or a garbled server frame; an
/// unanswered or wrongly answered request is *not* an error here, it is
/// counted in the outcome.
pub fn run_stream(conn: &mut Conn, plan: &Plan, pacing: Pacing<'_>) -> io::Result<StreamOutcome> {
    let total = plan.len();
    if let Pacing::Open { due_ns } = pacing {
        assert_eq!(due_ns.len(), total, "one due time per planned op");
    }
    let answered = AtomicUsize::new(0);
    // usize::MAX until the sender has stopped issuing; then the op count.
    let final_sent = AtomicUsize::new(usize::MAX);
    let abort = AtomicBool::new(false);
    let phase_start = OnceLock::new();
    let mut writer = conn.stream.try_clone()?;
    let (stream, reader, cpus) = (&mut conn.stream, &mut conn.reader, &conn.cpus);

    std::thread::scope(|scope| {
        let receiver = Conn::spawn_receiver(cpus, scope, || {
            let origin = await_start(&phase_start);
            receive_stream(stream, reader, plan, origin, &answered, &final_sent, &abort)
        });
        // The phase starts once both threads sit where they belong.
        let origin = *phase_start.get_or_init(Instant::now);

        let mut sent = 0usize;
        let mut sent_ns = vec![0u64; total];
        let send_result: io::Result<()> = (|| {
            match pacing {
                Pacing::Open { due_ns } => {
                    while sent < total {
                        wait_until(origin, due_ns[sent]);
                        let now = origin.elapsed().as_nanos() as u64;
                        // Everything already due goes out in one write.
                        let upto = sent + due_ns[sent..].partition_point(|d| *d <= now);
                        sent_ns[sent..upto].fill(now);
                        writer.write_all(plan.frames(sent, upto))?;
                        sent = upto;
                    }
                }
                Pacing::Window {
                    in_flight,
                    stop_after,
                } => {
                    // Top the window up in chunks rather than one frame per
                    // completion: fewer, larger writes, as a busy link has.
                    let chunk = (in_flight / 4).max(1);
                    while sent < total {
                        if stop_after.is_some_and(|d| origin.elapsed() >= d) {
                            break;
                        }
                        let outstanding = sent - answered.load(Ordering::Acquire);
                        let room = in_flight.saturating_sub(outstanding);
                        if room < chunk.min(total - sent) {
                            if receiver.is_finished() {
                                break;
                            }
                            std::thread::sleep(Duration::from_micros(50));
                            continue;
                        }
                        let upto = (sent + room).min(total);
                        let now = origin.elapsed().as_nanos() as u64;
                        sent_ns[sent..upto].fill(now);
                        writer.write_all(plan.frames(sent, upto))?;
                        sent = upto;
                    }
                }
            }
            Ok(())
        })();
        let backlog_at_stop = sent - answered.load(Ordering::Acquire);
        final_sent.store(sent, Ordering::Release);
        if send_result.is_err() {
            abort.store(true, Ordering::Release);
        }
        let received = receiver.join().expect("receiver thread panicked");
        send_result?;
        let mut outcome = received?;
        outcome.sent = sent;
        outcome.sent_ns = sent_ns;
        outcome.backlog_at_stop = backlog_at_stop;
        Ok(outcome)
    })
}

fn receive_stream(
    stream: &mut TcpStream,
    reader: &mut FrameReader,
    plan: &Plan,
    origin: Instant,
    answered: &AtomicUsize,
    final_sent: &AtomicUsize,
    abort: &AtomicBool,
) -> io::Result<StreamOutcome> {
    let mut out = StreamOutcome {
        recv_ns: vec![UNANSWERED; plan.len()],
        ..StreamOutcome::default()
    };
    let mut next = 0usize;
    let mut give_up: Option<Instant> = None;
    loop {
        let target = final_sent.load(Ordering::Acquire);
        if next >= target || abort.load(Ordering::Acquire) {
            return Ok(out);
        }
        if target != usize::MAX {
            let deadline = *give_up.get_or_insert_with(|| Instant::now() + ANSWER_TIMEOUT);
            if Instant::now() >= deadline {
                return Ok(out);
            }
        }
        match reader.fill(stream) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(_) => {}
            Err(e) if is_timeout(&e) => continue,
            Err(e) => return Err(e),
        }
        // Everything one read delivered arrived together.
        let at = origin.elapsed().as_nanos() as u64;
        while let Some((kind, payload)) = reader.next_frame().map_err(garbled)? {
            if kind == KIND_PUSH {
                out.pushes += 1;
                continue;
            }
            if kind != KIND_RESPONSE || next >= plan.len() {
                return Err(io::Error::other("unsolicited frame from the server"));
            }
            let resp = decode_response(payload).map_err(|e| io::Error::other(e.to_string()))?;
            if !satisfies(plan.expect[next], &resp) {
                out.wrong += 1;
                if out.wrong_detail.len() < 4 {
                    out.wrong_detail.push(format!(
                        "op {next}: due {:?}, got {resp:?}",
                        plan.expect[next]
                    ));
                }
            }
            match resp {
                WireResponse::SessionBound { token } => out.tokens.push((plan.imei[next], token)),
                WireResponse::Stats { .. } => out.stats = Some(resp),
                _ => {}
            }
            out.recv_ns[next] = at;
            next += 1;
        }
        answered.store(next, Ordering::Release);
    }
}

// ---------------------------------------------------------------------
// Task → push
// ---------------------------------------------------------------------

/// The generator's half of every device session, kept across the phases
/// of one server instance: the `Hello` token pushes are acked with, the
/// next `Tracked` envelope sequence, the next batch sequence, and the
/// highest push sequence seen (which must advance by exactly one).
#[derive(Debug)]
pub struct DeviceSessions {
    tokens: Vec<u64>,
    req_seq: Vec<u64>,
    batch_seq: Vec<u64>,
    push_seen: Vec<u64>,
    positions: Vec<(f64, f64)>,
}

impl DeviceSessions {
    /// Sessions for devices `1..=positions.len()` with the tokens their
    /// `Hello`s were answered with.
    pub fn new(tokens: &[(u64, u64)], positions: Vec<(f64, f64)>) -> Self {
        let n = positions.len();
        let mut by_imei = vec![0u64; n + 1];
        for (imei, token) in tokens {
            by_imei[*imei as usize] = *token;
        }
        DeviceSessions {
            tokens: by_imei,
            req_seq: vec![0; n + 1],
            batch_seq: vec![0; n + 1],
            push_seen: vec![0; n + 1],
            positions,
        }
    }

    /// The reply `device` owes assignment push `seq` for `request`: its
    /// reading, in a `Tracked` envelope that also acks the push.
    pub fn reply_to(
        &mut self,
        device: u64,
        request: u64,
        seq: u64,
        sample_at_us: u64,
    ) -> WireRequest {
        let d = device as usize;
        self.req_seq[d] += 1;
        self.batch_seq[d] += 1;
        let (lat_deg, lon_deg) = self.positions[d - 1];
        WireRequest::Tracked {
            token: self.tokens[d],
            req_seq: self.req_seq[d],
            push_ack: seq,
            inner: Box::new(WireRequest::SubmitBatch {
                imei: device,
                seq: self.batch_seq[d],
                attempt: 1,
                readings: vec![WireReading {
                    request,
                    sensor: Sensor::Barometer,
                    value: 1_000.0 + (request % 25) as f64,
                    taken_at_us: sample_at_us,
                    lat_deg,
                    lon_deg,
                }],
            }),
        }
    }

    fn reply(&mut self, push: &PushNote) -> WireRequest {
        self.reply_to(push.device, push.request, push.seq, push.sample_at_us)
    }
}

/// What the receiver tells the sender about one assignment push.
#[derive(Debug, Clone, Copy)]
struct PushNote {
    device: u64,
    request: u64,
    seq: u64,
    sample_at_us: u64,
}

/// What the sender tells the receiver about each request it wrote, in
/// write order — the FIFO the responses are matched against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sent {
    /// The `k`-th planned `SubmitTask`.
    Task(u32),
    /// A device's reply to a push.
    Reply,
    /// The once-a-second outbox drain.
    Drain,
}

/// Matches the responses of a mixed task/reply/drain stream to what was
/// sent, in order, and folds assignment pushes into per-task completion.
/// Pure bookkeeping — the I/O loop feeds it frames — so the FIFO rule is
/// testable without a socket.
#[derive(Debug)]
pub struct TaskLedger {
    sent: VecDeque<Sent>,
    task_of: HashMap<u64, u32>,
    pushes_of: Vec<u8>,
    /// When each task's last push arrived ([`UNANSWERED`] until then).
    pub done_ns: Vec<u64>,
    /// Tasks with all their pushes in.
    pub completed: usize,
    /// Pushes received.
    pub pushes: usize,
    /// Replies acknowledged with their reading accepted.
    pub replies_accepted: usize,
    /// Responses of the wrong variant (or a reply not accepted).
    pub wrong: usize,
    /// First few mismatches.
    pub wrong_detail: Vec<String>,
    /// Pushes whose per-device sequence did not advance by exactly one.
    pub seq_breaks: usize,
    /// Pushes naming a task whose `TaskCreated` had not arrived.
    pub orphan_pushes: usize,
    /// Responses matched so far.
    pub answered: usize,
}

impl TaskLedger {
    /// A ledger for `tasks` planned submissions.
    pub fn new(tasks: usize) -> Self {
        TaskLedger {
            sent: VecDeque::new(),
            task_of: HashMap::new(),
            pushes_of: vec![0; tasks],
            done_ns: vec![UNANSWERED; tasks],
            completed: 0,
            pushes: 0,
            replies_accepted: 0,
            wrong: 0,
            wrong_detail: Vec::new(),
            seq_breaks: 0,
            orphan_pushes: 0,
            answered: 0,
        }
    }

    fn note_sent(&mut self, what: Sent) {
        self.sent.push_back(what);
    }

    fn mismatch(&mut self, what: Sent, resp: &WireResponse) {
        self.wrong += 1;
        if self.wrong_detail.len() < 4 {
            self.wrong_detail
                .push(format!("{what:?} answered {resp:?}"));
        }
    }

    /// Matches one response to the oldest unanswered request. `false`
    /// when nothing was outstanding (the server answered a request that
    /// was never sent).
    fn on_response(&mut self, resp: &WireResponse) -> bool {
        let Some(what) = self.sent.pop_front() else {
            return false;
        };
        self.answered += 1;
        match (what, resp) {
            (Sent::Task(k), WireResponse::TaskCreated { task }) => {
                self.task_of.insert(*task, k);
            }
            (Sent::Reply, r) if satisfies(Expect::BatchAccepted, r) => self.replies_accepted += 1,
            (Sent::Drain, WireResponse::Outbox { .. }) => {}
            (what, r) => self.mismatch(what, r),
        }
        true
    }

    /// Folds one assignment push in; returns the note the sender needs to
    /// answer it.
    fn on_push(&mut self, push: &WirePush, at_ns: u64, push_seen: &mut [u64]) -> Option<PushNote> {
        let WirePush::Assignment {
            seq,
            device,
            request,
            task,
            sample_at_us,
            ..
        } = push
        else {
            // A Disconnect notice: the server is dropping us; the missing
            // responses will be counted as unanswered.
            return None;
        };
        self.pushes += 1;
        let seen = &mut push_seen[*device as usize];
        if *seq != *seen + 1 {
            self.seq_breaks += 1;
        }
        *seen = (*seen).max(*seq);
        match self.task_of.get(task) {
            Some(&k) => {
                let count = &mut self.pushes_of[k as usize];
                *count += 1;
                if u32::from(*count) == TASK_DENSITY {
                    self.done_ns[k as usize] = at_ns;
                    self.completed += 1;
                }
            }
            None => self.orphan_pushes += 1,
        }
        Some(PushNote {
            device: *device,
            request: *request,
            seq: *seq,
            sample_at_us: *sample_at_us,
        })
    }

    /// Requests written and not yet answered.
    pub fn outstanding(&self) -> usize {
        self.sent.len()
    }
}

/// What one task phase measured.
#[derive(Debug)]
pub struct TaskOutcome {
    /// Tasks submitted.
    pub submitted: usize,
    /// When each was written, ns after the phase start.
    pub sent_ns: Vec<u64>,
    /// The receiver's ledger: completions, pushes, mismatches.
    pub ledger: TaskLedger,
    /// Tasks outstanding when the sender stopped issuing.
    pub backlog_at_stop: usize,
}

impl TaskOutcome {
    /// Tasks whose last push arrived within `window_ns` of the start.
    pub fn completed_within(&self, window_ns: u64) -> usize {
        self.ledger.done_ns[..self.submitted]
            .iter()
            .filter(|t| **t <= window_ns)
            .count()
    }

    /// Submitted tasks that never got all their pushes.
    pub fn short(&self) -> usize {
        self.submitted - self.ledger.completed
    }
}

/// Runs one CAS-side task phase: submits the planned one-shot tasks on
/// `pacing`, answers every assignment push with the device's reading
/// (acking the push in the same envelope), drains the CAS outbox once a
/// second, and waits until every task has all its pushes and every reply
/// is acknowledged (or [`ANSWER_TIMEOUT`] passes).
///
/// # Errors
///
/// I/O failures on the connection or a garbled server frame.
pub fn run_tasks(
    conn: &mut Conn,
    plan: &Plan,
    pacing: Pacing<'_>,
    sessions: &mut DeviceSessions,
) -> io::Result<TaskOutcome> {
    let total = plan.len();
    if let Pacing::Open { due_ns } = pacing {
        assert_eq!(due_ns.len(), total, "one due time per planned task");
    }
    let completed = AtomicUsize::new(0);
    let sender_done = AtomicBool::new(false);
    let abort = AtomicBool::new(false);
    let phase_start = OnceLock::new();
    let (sent_tx, sent_rx) = mpsc::channel::<Sent>();
    let (push_tx, push_rx) = mpsc::channel::<PushNote>();
    let mut writer = conn.stream.try_clone()?;
    let (stream, reader, cpus) = (&mut conn.stream, &mut conn.reader, &conn.cpus);
    // The receiver checks push sequences; the sender owns the rest.
    let mut push_seen = std::mem::take(&mut sessions.push_seen);

    let result = std::thread::scope(|scope| {
        let receiver = Conn::spawn_receiver(cpus, scope, || {
            let origin = await_start(&phase_start);
            receive_tasks(
                stream,
                reader,
                total,
                origin,
                &mut push_seen,
                sent_rx,
                push_tx,
                &completed,
                &sender_done,
                &abort,
            )
        });
        let origin = *phase_start.get_or_init(Instant::now);

        let mut submitted = 0usize;
        let mut sent_ns = vec![0u64; total];
        let mut replies_sent = 0usize;
        let mut out: Vec<u8> = Vec::with_capacity(64 * 1024);
        let mut next_drain = Duration::from_secs(1);
        let mut stop_ns = 0u64;
        let mut backlog_at_stop = 0usize;
        let mut issuing = true;

        let send_result: io::Result<()> = (|| {
            loop {
                out.clear();
                // 1. Answer every push that has arrived.
                while let Ok(note) = push_rx.try_recv() {
                    out.extend_from_slice(&encode_request(&sessions.reply(&note)));
                    sent_tx.send(Sent::Reply).ok();
                    replies_sent += 1;
                }
                // 2. Submit what is due.
                let now = origin.elapsed();
                let now_ns = now.as_nanos() as u64;
                if issuing {
                    let upto = match pacing {
                        Pacing::Open { due_ns } => {
                            submitted + due_ns[submitted..].partition_point(|d| *d <= now_ns)
                        }
                        Pacing::Window {
                            in_flight,
                            stop_after,
                        } => {
                            if stop_after.is_some_and(|d| now >= d) {
                                submitted
                            } else {
                                let outstanding = submitted - completed.load(Ordering::Acquire);
                                (submitted + in_flight.saturating_sub(outstanding)).min(total)
                            }
                        }
                    };
                    for k in submitted..upto {
                        sent_tx.send(Sent::Task(k as u32)).ok();
                    }
                    sent_ns[submitted..upto].fill(now_ns);
                    out.extend_from_slice(plan.frames(submitted, upto));
                    submitted = upto;
                    let window_closed = matches!(
                        pacing,
                        Pacing::Window { stop_after: Some(d), .. } if now >= d
                    );
                    if submitted == total || window_closed {
                        issuing = false;
                        stop_ns = now_ns;
                        backlog_at_stop = submitted - completed.load(Ordering::Acquire);
                    }
                }
                // 3. The CAS collects its readings once a second.
                if now >= next_drain {
                    next_drain += Duration::from_secs(1);
                    out.extend_from_slice(&encode_request(&WireRequest::DrainOutbox));
                    sent_tx.send(Sent::Drain).ok();
                }
                if !out.is_empty() {
                    writer.write_all(&out)?;
                    continue;
                }
                // 4. Nothing to write: finished, or wait for a push / the
                //    next due time, whichever comes first.
                if receiver.is_finished() {
                    return Ok(());
                }
                if !issuing {
                    if completed.load(Ordering::Acquire) >= submitted
                        && replies_sent >= submitted * TASK_DENSITY as usize
                    {
                        // Every task has its pushes and every push its
                        // reply; the receiver leaves once the replies are
                        // answered.
                        sender_done.store(true, Ordering::Release);
                    } else if now_ns > stop_ns + ANSWER_TIMEOUT.as_nanos() as u64 {
                        // Pushes that have not come by now are not coming:
                        // the ledger records the tasks as short.
                        abort.store(true, Ordering::Release);
                    }
                }
                let wait = match pacing {
                    Pacing::Open { due_ns } if issuing => {
                        Duration::from_nanos(due_ns[submitted].saturating_sub(now_ns))
                            .saturating_sub(SLEEP_OVERSHOOT)
                    }
                    _ => Duration::from_micros(200),
                };
                if wait.is_zero() {
                    std::hint::spin_loop();
                    continue;
                }
                match push_rx.recv_timeout(wait.min(Duration::from_millis(5))) {
                    Ok(note) => {
                        out.extend_from_slice(&encode_request(&sessions.reply(&note)));
                        sent_tx.send(Sent::Reply).ok();
                        replies_sent += 1;
                        writer.write_all(&out)?;
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => return Ok(()),
                }
            }
        })();
        if send_result.is_err() {
            abort.store(true, Ordering::Release);
        }
        sender_done.store(true, Ordering::Release);
        let ledger = receiver.join().expect("receiver thread panicked");
        send_result?;
        Ok(TaskOutcome {
            submitted,
            sent_ns,
            ledger: ledger?,
            backlog_at_stop,
        })
    });
    sessions.push_seen = push_seen;
    result
}

#[allow(clippy::too_many_arguments)]
fn receive_tasks(
    stream: &mut TcpStream,
    reader: &mut FrameReader,
    tasks: usize,
    origin: Instant,
    push_seen: &mut [u64],
    sent_rx: mpsc::Receiver<Sent>,
    push_tx: mpsc::Sender<PushNote>,
    completed: &AtomicUsize,
    sender_done: &AtomicBool,
    abort: &AtomicBool,
) -> io::Result<TaskLedger> {
    let mut ledger = TaskLedger::new(tasks);
    let mut idle_since: Option<Instant> = None;
    loop {
        while let Ok(what) = sent_rx.try_recv() {
            ledger.note_sent(what);
        }
        if abort.load(Ordering::Acquire) {
            return Ok(ledger);
        }
        if sender_done.load(Ordering::Acquire) && ledger.outstanding() == 0 {
            return Ok(ledger);
        }
        match reader.fill(stream) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(_) => idle_since = None,
            Err(e) if is_timeout(&e) => {
                // Quiet for too long with work outstanding: whatever is
                // missing is not coming. The ledger records it as short.
                let since = *idle_since.get_or_insert_with(Instant::now);
                if since.elapsed() >= ANSWER_TIMEOUT {
                    return Ok(ledger);
                }
                continue;
            }
            Err(e) => return Err(e),
        }
        let at = origin.elapsed().as_nanos() as u64;
        while let Some((kind, payload)) = reader.next_frame().map_err(garbled)? {
            match kind {
                KIND_RESPONSE => {
                    let resp =
                        decode_response(payload).map_err(|e| io::Error::other(e.to_string()))?;
                    if !ledger.on_response(&resp) {
                        // The sender records a request *before* writing it,
                        // so its note is at worst still in the channel.
                        match sent_rx.recv_timeout(Duration::from_secs(1)) {
                            Ok(what) => {
                                ledger.note_sent(what);
                                ledger.on_response(&resp);
                            }
                            Err(_) => {
                                return Err(io::Error::other("response without a request"));
                            }
                        }
                    }
                }
                KIND_PUSH => {
                    let push = decode_push(payload).map_err(|e| io::Error::other(e.to_string()))?;
                    if let Some(note) = ledger.on_push(&push, at, push_seen) {
                        push_tx.send(note).ok();
                    }
                }
                _ => return Err(io::Error::other("unsolicited frame from the server")),
            }
        }
        completed.store(ledger.completed, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use senseaid_serve::wire::{encode_push, encode_response};

    fn assignment(seq: u64, device: u64, task: u64) -> WirePush {
        WirePush::Assignment {
            seq,
            device,
            request: task + 100,
            task,
            sensor: Sensor::Barometer,
            sample_at_us: 5,
            deadline_us: 9,
            payload_bytes: 600,
            devices: vec![1, 2, 3],
        }
    }

    #[test]
    fn frame_reader_handles_split_and_coalesced_frames() {
        let a = encode_response(&WireResponse::Ok);
        let b = encode_push(&assignment(1, 2, 7));
        let c = encode_response(&WireResponse::TaskCreated { task: 7 });
        let mut all = a.clone();
        all.extend_from_slice(&b);
        all.extend_from_slice(&c);

        // Byte at a time: frames pop exactly when their last byte lands.
        let mut reader = FrameReader::new();
        let mut kinds = Vec::new();
        for byte in &all {
            reader.extend(&[*byte]);
            while let Some((kind, _)) = reader.next_frame().unwrap() {
                kinds.push(kind);
            }
        }
        assert_eq!(kinds, vec![KIND_RESPONSE, KIND_PUSH, KIND_RESPONSE]);
        assert_eq!(reader.pending(), 0);

        // All at once, payloads intact.
        let mut reader = FrameReader::new();
        reader.extend(&all);
        let (_, payload) = reader.next_frame().unwrap().unwrap();
        assert_eq!(decode_response(payload).unwrap(), WireResponse::Ok);
        let (_, payload) = reader.next_frame().unwrap().unwrap();
        assert_eq!(decode_push(payload).unwrap(), assignment(1, 2, 7));
        let (_, payload) = reader.next_frame().unwrap().unwrap();
        assert_eq!(
            decode_response(payload).unwrap(),
            WireResponse::TaskCreated { task: 7 }
        );
        assert!(reader.next_frame().unwrap().is_none());

        // A corrupted byte is a typed refusal, not a silent skip.
        let mut bad = a;
        bad[12] ^= 0xFF;
        let mut reader = FrameReader::new();
        reader.extend(&bad);
        assert!(reader.next_frame().is_err());
    }

    #[test]
    fn ledger_matches_responses_fifo_with_pushes_interleaved() {
        let mut ledger = TaskLedger::new(2);
        let mut seen = vec![0u64; 8];
        // Sent, in order: task 0, task 1, a reply, a drain.
        for what in [Sent::Task(0), Sent::Task(1), Sent::Reply, Sent::Drain] {
            ledger.note_sent(what);
        }
        // Wire order: resp(task0), push, push, resp(task1), push, resp(reply), resp(drain).
        assert!(ledger.on_response(&WireResponse::TaskCreated { task: 41 }));
        let note = ledger
            .on_push(&assignment(1, 5, 41), 1_000, &mut seen)
            .unwrap();
        assert_eq!((note.device, note.request, note.seq), (5, 141, 1));
        ledger.on_push(&assignment(1, 6, 41), 1_100, &mut seen);
        assert!(ledger.on_response(&WireResponse::TaskCreated { task: 42 }));
        assert_eq!(ledger.completed, 0);
        ledger.on_push(&assignment(1, 7, 41), 1_200, &mut seen);
        assert_eq!(ledger.completed, 1, "the third push completes task 0");
        assert_eq!(ledger.done_ns, vec![1_200, UNANSWERED]);
        assert!(ledger.on_response(&WireResponse::BatchAck {
            ack: 1,
            accepted: 1,
            duplicates: 0
        }));
        assert!(ledger.on_response(&WireResponse::Outbox { delivered: 1 }));
        assert_eq!(ledger.answered, 4);
        assert_eq!(ledger.outstanding(), 0);
        assert_eq!(ledger.replies_accepted, 1);
        assert_eq!(
            (ledger.wrong, ledger.seq_breaks, ledger.orphan_pushes),
            (0, 0, 0)
        );
        // Nothing outstanding: one more response is the server's mistake.
        assert!(!ledger.on_response(&WireResponse::Ok));
    }

    #[test]
    fn ledger_counts_wrong_variants_sequence_breaks_and_orphans() {
        let mut ledger = TaskLedger::new(1);
        let mut seen = vec![0u64; 8];
        ledger.note_sent(Sent::Task(0));
        ledger.note_sent(Sent::Reply);
        // An error where TaskCreated was due.
        ledger.on_response(&WireResponse::Error {
            code: 1,
            detail: "no".to_owned(),
        });
        // A reply acknowledged but not accepted.
        ledger.on_response(&WireResponse::BatchAck {
            ack: 1,
            accepted: 0,
            duplicates: 0,
        });
        assert_eq!(ledger.wrong, 2);
        // A push for a task nobody was told about, skipping seq 1.
        ledger.on_push(&assignment(2, 3, 99), 10, &mut seen);
        assert_eq!(ledger.orphan_pushes, 1);
        assert_eq!(ledger.seq_breaks, 1);
        assert_eq!(seen[3], 2);
    }

    #[test]
    fn satisfies_is_strict_about_accepted_replies() {
        let ack = |accepted, duplicates| WireResponse::BatchAck {
            ack: 1,
            accepted,
            duplicates,
        };
        assert!(satisfies(Expect::BatchAck, &ack(0, 0)));
        assert!(satisfies(Expect::BatchAccepted, &ack(1, 0)));
        assert!(!satisfies(Expect::BatchAccepted, &ack(0, 1)));
        assert!(!satisfies(Expect::Ok, &ack(1, 0)));
        assert!(!satisfies(
            Expect::Ok,
            &WireResponse::Error {
                code: 4,
                detail: String::new()
            }
        ));
    }

    #[test]
    fn sessions_build_tracked_replies_with_contiguous_sequences() {
        let mut sessions = DeviceSessions::new(&[(1, 111), (2, 222)], vec![(1.0, 2.0), (3.0, 4.0)]);
        let note = |seq| PushNote {
            device: 2,
            request: 50,
            seq,
            sample_at_us: 9,
        };
        for expect_seq in 1..=2u64 {
            let WireRequest::Tracked {
                token,
                req_seq,
                push_ack,
                inner,
            } = sessions.reply(&note(expect_seq))
            else {
                panic!("replies travel in tracked envelopes");
            };
            assert_eq!((token, req_seq, push_ack), (222, expect_seq, expect_seq));
            let WireRequest::SubmitBatch {
                imei,
                seq,
                readings,
                ..
            } = *inner
            else {
                panic!("the envelope carries the reading");
            };
            assert_eq!((imei, seq), (2, expect_seq));
            assert_eq!(readings[0].request, 50);
            assert_eq!((readings[0].lat_deg, readings[0].lon_deg), (3.0, 4.0));
        }
    }
}
