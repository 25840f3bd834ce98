//! Live mode: the TCP front-end.
//!
//! No async runtime is available in this build environment, so the live
//! layer is explicit event loops over non-blocking `std::net` sockets —
//! which is also the honest shape of the design: per-shard worker
//! threads own their sockets outright (the same ownership discipline as
//! `ShardPool` workers owning their items), pump bytes through the
//! shared [`Connection`] reassembly, and forward whole frames to a
//! single engine thread that owns the coordinator. All control-plane
//! mutation is serial in that one thread — concurrency lives at the
//! edges, exactly like the sim's deterministic serial commit.
//!
//! ```text
//!  clients ──TCP──▶ worker 0 ─┐  Event::Frames          ┌─▶ worker 0 ──▶ clients
//!  clients ──TCP──▶ worker 1 ─┼────────▶ engine thread ─┼─▶ worker 1 ──▶ clients
//!  clients ──TCP──▶ worker N ─┘   (SenseAidServer +     └─▶ worker N ──▶ clients
//!                                  WallClock + WAL)   WorkerMsg::Send
//! ```
//!
//! **Nothing sleeps; every thread blocks in one `poll(2)`**
//! (`crate::poll`, which makes this mode unix-only). A worker waits on
//! its wake pipe plus its connections' sockets (`POLLIN`, and `POLLOUT`
//! only while a connection has unsent bytes) until the next reaper
//! sweep; the engine thread waits on the listener plus its wake pipe
//! until the earlier of the `duration` deadline and the scheduler's next
//! wakeup ([`ServeEngine::next_wakeup`]). Accepts, traffic, scheduled
//! polls and [`ServeHandle::shutdown`] all interrupt that same wait, so
//! a request crosses the server in four thread hand-offs and no timer
//! quantum, and an idle server makes no system calls between sweeps.
//!
//! **Hand-offs carry whole batches.** A worker sends the engine one
//! `Event::Frames` per connection read (every frame that read
//! completed) and the engine sends each worker one `WorkerMsg::Send`
//! per batch of events it drained (every frame that batch produced for
//! the worker's connections, scheduler pushes included), each followed
//! by one [`Waker::wake`]. Order within a connection is the order of the
//! `Vec`s, so responses stay FIFO.
//!
//! **The journal is committed once per turn, before the hand-off.** With
//! a WAL armed the engine thread holds the turn's journal records in
//! memory (`SenseAidServer::hold_journal`) and writes them with one
//! `write(2)` (`commit_journal`) before any `WorkerMsg::Send` of that
//! turn: a frame reaches a worker only after the records that justify
//! it are in the kernel. That is the same guarantee a write per record
//! gave — it survives a process kill, not power loss; nothing calls
//! `fsync` — at one system call per turn instead of three per record.
//!
//! Graceful shutdown (duration elapsed, [`ServeHandle::shutdown`], or a
//! wire `Shutdown` request): the engine advances the scheduler to "now",
//! persists a final snapshot when a WAL is armed, workers flush pending
//! writes, and the summary reports the flush — `clean` only if storage
//! refused nothing — so operators (and the CI smoke job) can assert it.

use std::collections::HashMap;
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd as _, RawFd};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use senseaid_core::persist::{DirStorage, PersistConfig};
use senseaid_core::runtime::{Transport, TransportError, WallClock};
use senseaid_sim::SimTime;

use crate::conn::Connection;
use crate::engine::{ConnId, FlushSummary, ServeEngine};
use crate::poll::{self, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use crate::trace::trace_server;
use crate::wire::{
    decode_frame, encode_push, WireFrame, WirePush, DISCONNECT_IDLE, DISCONNECT_WRITE_OVERFLOW,
};

/// Configuration for a live server.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address; port `0` picks an ephemeral port (see
    /// [`ServeHandle::addr`]).
    pub addr: String,
    /// Control-plane shard count.
    pub shards: usize,
    /// Socket event-loop worker threads.
    pub workers: usize,
    /// Arm the WAL in this directory (created if needed).
    pub persist_dir: Option<PathBuf>,
    /// Stop serving after this long (a safety net for smoke runs);
    /// `None` serves until [`ServeHandle::shutdown`] or a wire
    /// `Shutdown`.
    pub duration: Option<Duration>,
    /// Disconnect a connection that completes no frame for this long.
    /// Slow-trickled bytes that never finish a frame count as idle — a
    /// slowloris peer cannot hold a slot open by dribbling.
    pub idle_timeout: Duration,
    /// Disconnect a connection whose outbound queue has made no progress
    /// for this long (the peer stopped reading).
    pub write_stall_timeout: Duration,
    /// Disconnect a connection whose outbound queue exceeds this many
    /// bytes (the peer reads slower than it provokes pushes).
    pub max_outbuf_bytes: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".to_owned(),
            shards: 4,
            workers: 2,
            persist_dir: None,
            duration: None,
            idle_timeout: Duration::from_secs(60),
            write_stall_timeout: Duration::from_secs(10),
            max_outbuf_bytes: 1 << 20,
        }
    }
}

/// What a serve run did, reported at graceful shutdown.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServeSummary {
    /// Requests decoded and applied.
    pub requests: u64,
    /// Connections accepted over the lifetime.
    pub connections: u64,
    /// Frames rejected (corrupt stream, unknown kind, undecodable
    /// payload). The stream resyncs past corruption, so a bad frame
    /// costs itself, not its connection.
    pub bad_frames: u64,
    /// Assignment pushes delivered to live sessions.
    pub assignments_pushed: u64,
    /// Connections reaped for completing no frame within the idle
    /// deadline.
    pub idle_disconnects: u64,
    /// Connections reaped for a stalled or over-budget outbound queue
    /// (slow peers).
    pub overflow_disconnects: u64,
    /// The shutdown WAL flush.
    pub flush: FlushSummary,
}

impl ServeSummary {
    /// One-line operator rendering; the CI smoke job greps
    /// `flush=clean`, which is printed only when storage refused neither
    /// a journal record nor a snapshot.
    pub fn render(&self) -> String {
        let flush = &self.flush;
        let verdict = if !flush.persistence_armed {
            "volatile".to_owned()
        } else if flush.append_failures == 0 && flush.snapshot_write_failures == 0 {
            "clean".to_owned()
        } else {
            format!(
                "degraded(appends={},snapshots={})",
                flush.append_failures, flush.snapshot_write_failures
            )
        };
        format!(
            "serve: shutdown requests={} connections={} bad_frames={} pushes={} reaped_idle={} reaped_slow={} wal_records={} snapshots={} generation={} flush={}",
            self.requests,
            self.connections,
            self.bad_frames,
            self.assignments_pushed,
            self.idle_disconnects,
            self.overflow_disconnects,
            self.flush.journal_records,
            self.flush.snapshots_persisted,
            self.flush
                .generation
                .map(|g| g.to_string())
                .unwrap_or_else(|| "-".to_owned()),
            verdict
        )
    }
}

/// A running server: its bound address plus the means to stop it.
pub struct ServeHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    /// Wakes the engine thread so it sees `shutdown` at once.
    waker: Arc<Waker>,
    thread: JoinHandle<ServeSummary>,
}

impl ServeHandle {
    /// The actually bound address (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful shutdown and waits for the summary.
    pub fn shutdown(self) -> ServeSummary {
        self.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
        self.join()
    }

    /// Waits for the server to stop on its own (duration elapsed or a
    /// wire `Shutdown` request).
    pub fn join(self) -> ServeSummary {
        self.thread.join().expect("serve thread panicked")
    }
}

/// [`Transport`] over a non-blocking TCP stream.
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
    open: bool,
}

impl TcpTransport {
    /// Wraps a stream, switching it to non-blocking mode.
    ///
    /// # Errors
    ///
    /// Propagates the socket-option failures.
    pub fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(TcpTransport { stream, open: true })
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, bytes: &[u8]) -> Result<usize, TransportError> {
        use std::io::Write as _;
        if !self.open {
            return Err(TransportError::Closed);
        }
        match self.stream.write(bytes) {
            Ok(0) => {
                self.open = false;
                Err(TransportError::Closed)
            }
            Ok(n) => Ok(n),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                Ok(0)
            }
            Err(e) => {
                self.open = false;
                Err(TransportError::Io(e.to_string()))
            }
        }
    }

    fn recv(&mut self, buf: &mut [u8]) -> Result<usize, TransportError> {
        use std::io::Read as _;
        if !self.open {
            return Err(TransportError::Closed);
        }
        match self.stream.read(buf) {
            Ok(0) => {
                self.open = false;
                Err(TransportError::Closed)
            }
            Ok(n) => Ok(n),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                Ok(0)
            }
            Err(e) => {
                self.open = false;
                Err(TransportError::Io(e.to_string()))
            }
        }
    }

    fn is_open(&self) -> bool {
        self.open
    }
}

/// The sending half of a thread's wake pipe: makes the owner's
/// [`poll::wait`] return. Always called *after* the message it announces
/// was put in the owner's channel.
struct Waker {
    tx: UnixStream,
    /// Set by the first `wake` of a burst, which alone writes a byte;
    /// cleared by the owner in [`WakeRx::clear`].
    notified: AtomicBool,
}

impl Waker {
    fn wake(&self) {
        if !self.notified.swap(true, Ordering::SeqCst) {
            // Non-blocking. It cannot fill up (one byte per cleared
            // flag), and a failed write means the owner is gone.
            let _ = (&self.tx).write(&[1]);
        }
    }
}

/// The receiving half: the fd its owner polls, and the reset.
struct WakeRx {
    rx: UnixStream,
    waker: Arc<Waker>,
}

impl WakeRx {
    /// Re-arms the pipe; the owner calls this after every wait and
    /// *before* it drains its channel. `readable` is what the wait said
    /// about [`fd`](Self::fd).
    ///
    /// The order — pipe, flag, then (in the caller) channel — is what
    /// keeps wake-ups from being lost. A sender that finds the flag set
    /// writes nothing, which is only safe if its message is certain to
    /// be seen: it is, because the flag it read was set before this
    /// call cleared it, so its `send` precedes the channel drain that
    /// follows. A sender that finds the flag clear writes a byte, which
    /// stays in the pipe (the pipe was emptied first) and ends the next
    /// wait at once.
    fn clear(&self, readable: bool) {
        if readable {
            let mut buf = [0u8; 64];
            while matches!((&self.rx).read(&mut buf), Ok(n) if n == buf.len()) {}
        }
        self.waker.notified.store(false, Ordering::SeqCst);
    }

    fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }
}

fn wake_pair() -> io::Result<(Arc<Waker>, WakeRx)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    let waker = Arc::new(Waker {
        tx,
        notified: AtomicBool::new(false),
    });
    let rx = WakeRx {
        rx,
        waker: Arc::clone(&waker),
    };
    Ok((waker, rx))
}

/// Worker → engine notifications, each followed by one wake of the
/// engine per worker iteration.
enum Event {
    /// Every frame one read of `conn` completed, as `(kind, payload)`.
    Frames {
        conn: ConnId,
        frames: Vec<(u8, Vec<u8>)>,
    },
    /// Corrupt stretches a read resynced past.
    BadFrames(u64),
    Disconnect {
        conn: ConnId,
    },
    /// The supervisor reaped the connection; `reason` is the
    /// `DISCONNECT_*` code already sent (best-effort) on the wire.
    Reaped {
        conn: ConnId,
        reason: u8,
    },
}

/// The per-worker supervision knobs, copied out of [`ServeOptions`].
#[derive(Debug, Clone, Copy)]
struct Supervision {
    idle_timeout: Duration,
    write_stall_timeout: Duration,
    max_outbuf_bytes: usize,
}

/// How often the reaper sweeps a worker's connections.
const REAP_INTERVAL: Duration = Duration::from_millis(250);

/// One supervised connection: the pump plus the deadlines the reaper
/// checks.
struct Supervised {
    conn: Connection<TcpTransport>,
    /// The socket, for the poll set.
    fd: RawFd,
    /// Last instant a complete frame (or counted bad frame) arrived.
    last_frame: Instant,
    /// When the outbound queue first failed to drain fully, if it is
    /// still backed up.
    stalled_since: Option<Instant>,
}

impl Supervised {
    /// Why this connection should be reaped right now, if any reason.
    fn reap_reason(&self, sup: &Supervision, now: Instant) -> Option<u8> {
        if self.conn.unsent() > sup.max_outbuf_bytes {
            return Some(DISCONNECT_WRITE_OVERFLOW);
        }
        if let Some(since) = self.stalled_since {
            if now.duration_since(since) >= sup.write_stall_timeout {
                return Some(DISCONNECT_WRITE_OVERFLOW);
            }
        }
        if now.duration_since(self.last_frame) >= sup.idle_timeout {
            return Some(DISCONNECT_IDLE);
        }
        None
    }
}

/// A worker's way to the engine: events go into the channel as they
/// happen, one wake follows at the end of the worker's turn.
struct Reporter {
    events: Sender<Event>,
    engine: Arc<Waker>,
    unannounced: bool,
}

impl Reporter {
    fn send(&mut self, event: Event) {
        let _ = self.events.send(event);
        self.unannounced = true;
    }

    fn announce(&mut self) {
        if std::mem::take(&mut self.unannounced) {
            self.engine.wake();
        }
    }
}

/// Engine → worker commands, each followed by one wake of the worker.
enum WorkerMsg {
    Conn {
        conn: ConnId,
        stream: TcpStream,
    },
    /// Sealed frames for this worker's connections, in send order.
    Send {
        frames: Vec<(ConnId, Vec<u8>)>,
    },
    Shutdown,
}

/// Starts a live server; returns once the listener is bound.
///
/// # Errors
///
/// Bind/configuration failures, including an unopenable persist
/// directory.
pub fn serve(options: ServeOptions) -> io::Result<ServeHandle> {
    let listener = TcpListener::bind(&options.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let storage = match &options.persist_dir {
        Some(dir) => Some(
            DirStorage::open(dir.clone())
                .map_err(|e| io::Error::other(format!("persist dir: {e}")))?,
        ),
        None => None,
    };
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let (waker, wake_rx) = wake_pair()?;
    let engine_waker = Arc::clone(&waker);
    let thread = std::thread::Builder::new()
        .name("senseaid-serve".to_owned())
        .spawn(move || run(listener, options, storage, flag, engine_waker, wake_rx))?;
    Ok(ServeHandle {
        addr,
        shutdown,
        waker,
        thread,
    })
}

/// One socket thread. Each turn: block until a command, a socket or the
/// reaper is due; take the commands; read the sockets that are ready;
/// reap if due; write what is queued and rebuild the poll set.
fn worker_loop(rx: Receiver<WorkerMsg>, wake: WakeRx, mut engine: Reporter, sup: Supervision) {
    let mut conns: HashMap<ConnId, Supervised> = HashMap::new();
    let mut scratch = vec![0u8; 64 * 1024];
    let mut next_reap = Instant::now() + REAP_INTERVAL;
    // The poll set: the wake pipe, then one entry per connection, with
    // the connection of `fds[i + 1]` in `ids[i]`.
    let mut fds = vec![PollFd::new(wake.fd(), POLLIN)];
    let mut ids: Vec<ConnId> = Vec::new();
    loop {
        // Without connections there is nothing to reap: wait for a command.
        let timeout =
            (!conns.is_empty()).then(|| next_reap.saturating_duration_since(Instant::now()));
        if poll::wait(&mut fds, timeout).is_err() {
            return; // the kernel refused the set (out of memory): cannot serve
        }

        wake.clear(fds[0].ready(POLLIN));
        loop {
            match rx.try_recv() {
                Ok(WorkerMsg::Conn { conn, stream }) => {
                    let fd = stream.as_raw_fd();
                    if let Ok(transport) = TcpTransport::new(stream) {
                        conns.insert(
                            conn,
                            Supervised {
                                conn: Connection::new(transport),
                                fd,
                                last_frame: Instant::now(),
                                stalled_since: None,
                            },
                        );
                    }
                }
                Ok(WorkerMsg::Send { frames }) => {
                    for (conn, frame) in frames {
                        if let Some(s) = conns.get_mut(&conn) {
                            s.conn.queue(&frame);
                        }
                    }
                }
                Err(TryRecvError::Empty) => break,
                Ok(WorkerMsg::Shutdown) | Err(TryRecvError::Disconnected) => {
                    // Final courtesy flush of anything already queued, then out.
                    for s in conns.values_mut() {
                        let _ = s.conn.flush();
                    }
                    return;
                }
            }
        }

        // Read the sockets the wait reported. An error or hang-up is read
        // too: `pump_reads` turns it into the truthful `Disconnect`.
        for (ready, &conn) in fds[1..].iter().zip(&ids) {
            if !ready.ready(POLLIN | POLLERR | POLLHUP | POLLNVAL) {
                continue;
            }
            let Some(s) = conns.get_mut(&conn) else {
                continue;
            };
            match s.conn.pump_reads(&mut scratch) {
                Ok(frames) => {
                    // Corrupt stretches were resynced past, not fatal:
                    // report them for the stats, keep the connection.
                    let bad = s.conn.take_bad_frames();
                    if bad > 0 {
                        engine.send(Event::BadFrames(bad));
                    }
                    if bad > 0 || !frames.is_empty() {
                        s.last_frame = Instant::now();
                    }
                    if !frames.is_empty() {
                        engine.send(Event::Frames { conn, frames });
                    }
                }
                Err(_) => {
                    // Closed or failed: the stream has no continuation.
                    conns.remove(&conn);
                    engine.send(Event::Disconnect { conn });
                }
            }
        }

        // The reaper. Its sweep is this loop's only timer: the wait above
        // ends at `next_reap` at the latest, so deadlines are as
        // fine-grained as REAP_INTERVAL whether or not there is traffic.
        let now = Instant::now();
        if now >= next_reap {
            next_reap = now + REAP_INTERVAL;
            conns.retain(|&conn, s| {
                let Some(reason) = s.reap_reason(&sup, now) else {
                    return true;
                };
                // Truthful teardown: tell the peer why, best-effort (an
                // overflowing peer likely will not read it, but the frame
                // is on the wire if it ever does).
                s.conn.queue(&encode_push(&WirePush::Disconnect {
                    code: reason,
                    detail: String::new(),
                }));
                let _ = s.conn.flush();
                engine.send(Event::Reaped { conn, reason });
                false
            });
        }

        // Write what is queued, and build the next wait's poll set:
        // writability is only asked about while bytes are left over.
        fds.truncate(1);
        ids.clear();
        conns.retain(|&conn, s| {
            if s.conn.unsent() > 0 {
                match s.conn.flush() {
                    Ok(true) => s.stalled_since = None,
                    Ok(false) => {
                        s.stalled_since.get_or_insert_with(Instant::now);
                    }
                    Err(_) => {
                        engine.send(Event::Disconnect { conn });
                        return false;
                    }
                }
            }
            let backed_up = if s.conn.unsent() > 0 { POLLOUT } else { 0 };
            fds.push(PollFd::new(s.fd, POLLIN | backed_up));
            ids.push(conn);
            true
        });

        engine.announce();
    }
}

/// Events the engine takes between two looks at the listener, the
/// deadlines and the shutdown flag.
const ENGINE_BATCH: usize = 256;

/// How long the listener is left out of the wait after `accept` failed
/// for a reason that waiting does not cure (descriptor exhaustion): the
/// pending connection keeps the listener readable, and a wait that
/// returns at once is a busy loop.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

fn run(
    listener: TcpListener,
    options: ServeOptions,
    storage: Option<DirStorage>,
    shutdown_flag: Arc<AtomicBool>,
    waker: Arc<Waker>,
    wake: WakeRx,
) -> ServeSummary {
    let mut server = trace_server(options.shards);
    let clock = if let Some(storage) = storage {
        // Recover whatever the directory holds — a fresh directory is a
        // truthful cold start — and anchor the wall clock at the durable
        // horizon so a restart never reads earlier than the WAL it
        // replayed.
        let report = server
            .recover_from_storage(Box::new(storage), PersistConfig::default(), SimTime::ZERO)
            .expect("persist directory recovers");
        WallClock::starting_at(report.recovered_at)
    } else {
        WallClock::new()
    };
    let mut engine = ServeEngine::new(server, Arc::new(clock));

    let workers = options.workers.max(1);
    let supervision = Supervision {
        idle_timeout: options.idle_timeout,
        write_stall_timeout: options.write_stall_timeout,
        max_outbuf_bytes: options.max_outbuf_bytes,
    };
    let (event_tx, event_rx) = mpsc::channel::<Event>();
    let mut worker_txs: Vec<(Sender<WorkerMsg>, Arc<Waker>)> = Vec::with_capacity(workers);
    let mut worker_joins: Vec<JoinHandle<()>> = Vec::with_capacity(workers);
    for i in 0..workers {
        let (tx, rx) = mpsc::channel::<WorkerMsg>();
        let (worker_waker, worker_wake) = wake_pair().expect("worker wake pipe");
        let engine = Reporter {
            events: event_tx.clone(),
            engine: Arc::clone(&waker),
            unannounced: false,
        };
        worker_txs.push((tx, worker_waker));
        worker_joins.push(
            std::thread::Builder::new()
                .name(format!("senseaid-serve-worker-{i}"))
                .spawn(move || worker_loop(rx, worker_wake, engine, supervision))
                .expect("spawn worker thread"),
        );
    }
    drop(event_tx);
    let tell = |worker: usize, msg: WorkerMsg| {
        let (tx, waker) = &worker_txs[worker];
        let _ = tx.send(msg);
        waker.wake();
    };

    let worker_of = |conn: ConnId| (conn as usize) % workers;
    let deadline = options.duration.map(|d| Instant::now() + d);
    let mut next_conn: ConnId = 0;
    let mut connections = 0u64;
    let mut bad_frames = 0u64;
    let mut idle_disconnects = 0u64;
    let mut overflow_disconnects = 0u64;
    let mut shutdown_requested = false;
    // Events were left in the channel at the batch cap: do not block.
    let mut backlog = false;
    let mut accept_after: Option<Instant> = None;
    // What the current batch produced, per worker.
    let mut outgoing: Vec<Vec<(ConnId, Vec<u8>)>> = vec![Vec::new(); workers];

    loop {
        let now = Instant::now();
        if shutdown_requested
            || shutdown_flag.load(Ordering::SeqCst)
            || deadline.is_some_and(|d| now >= d)
        {
            break;
        }
        if accept_after.is_some_and(|t| now >= t) {
            accept_after = None;
        }

        // The one wait: a connection, a wake (events, shutdown), or the
        // earliest of the deadlines. A scheduler wakeup may fire up to a
        // millisecond late (the timeout rounds up), never early:
        // `advance_to` below only runs what is due on the clock.
        let timeout = if backlog {
            Some(Duration::ZERO)
        } else {
            let due = engine.next_wakeup().map(|at| {
                Duration::from_micros(at.as_micros().saturating_sub(engine.now().as_micros()))
            });
            [deadline, accept_after]
                .into_iter()
                .flatten()
                .map(|t| t.saturating_duration_since(now))
                .chain(due)
                .min()
        };
        let listener_fd = if accept_after.is_some() {
            -1
        } else {
            listener.as_raw_fd()
        };
        let mut fds = [
            PollFd::new(listener_fd, POLLIN),
            PollFd::new(wake.fd(), POLLIN),
        ];
        if poll::wait(&mut fds, timeout).is_err() {
            break;
        }

        // Accept everything pending; hand sockets to their workers.
        while fds[0].ready(POLLIN | POLLERR) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    next_conn += 1;
                    connections += 1;
                    let conn = next_conn;
                    tell(worker_of(conn), WorkerMsg::Conn { conn, stream });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                // The peer gave up while queued; the next one may be fine.
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => {}
                Err(_) => {
                    accept_after = Some(Instant::now() + ACCEPT_RETRY);
                    break;
                }
            }
        }

        wake.clear(fds[1].ready(POLLIN));
        // This turn's journal records are written once, at the commit
        // below, not one by one.
        engine.server_mut().hold_journal();
        backlog = true;
        for _ in 0..ENGINE_BATCH {
            let event = match event_rx.try_recv() {
                Ok(event) => event,
                Err(TryRecvError::Empty) => {
                    backlog = false;
                    break;
                }
                // Every worker is gone; nobody is left to serve.
                Err(TryRecvError::Disconnected) => {
                    shutdown_requested = true;
                    break;
                }
            };
            match event {
                Event::Frames { conn, frames } => {
                    for (kind, payload) in frames {
                        match decode_frame(kind, &payload) {
                            Ok(WireFrame::Request(request)) => {
                                let output = engine.handle(conn, request);
                                for (to, frame) in output.frames {
                                    outgoing[worker_of(to)].push((to, frame));
                                }
                                shutdown_requested |= output.shutdown;
                            }
                            Ok(_) | Err(_) => bad_frames += 1,
                        }
                    }
                }
                Event::BadFrames(count) => bad_frames += count,
                Event::Disconnect { conn } => engine.on_disconnect(conn),
                Event::Reaped { conn, reason } => {
                    if reason == DISCONNECT_IDLE {
                        idle_disconnects += 1;
                    } else {
                        overflow_disconnects += 1;
                    }
                    engine.on_disconnect(conn);
                }
            }
        }

        // Fire any wakeups that came due on the wall clock.
        for (to, frame) in engine.advance_to(engine.now()) {
            outgoing[worker_of(to)].push((to, frame));
        }
        // The commit rule: a frame is handed to a worker only after the
        // records of the turn that produced it were written, so a peer
        // never holds an answer the journal does not.
        engine.server_mut().commit_journal();
        // Each worker gets everything this turn produced for it in one
        // message.
        for (worker, frames) in outgoing.iter_mut().enumerate() {
            if !frames.is_empty() {
                let frames = std::mem::take(frames);
                tell(worker, WorkerMsg::Send { frames });
            }
        }
    }

    // Graceful shutdown: flush durable state, let workers drain writes.
    let flush = engine.shutdown_flush();
    for worker in 0..workers {
        tell(worker, WorkerMsg::Shutdown);
    }
    for join in worker_joins {
        let _ = join.join();
    }
    let stats = engine.stats();
    ServeSummary {
        requests: stats.requests,
        connections,
        bad_frames,
        assignments_pushed: stats.assignments_pushed,
        idle_disconnects,
        overflow_disconnects,
        flush,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bytes sitting in the wake pipe right now.
    fn pending_bytes(wake: &WakeRx) -> usize {
        let mut buf = [0u8; 256];
        let mut total = 0;
        while let Ok(n) = (&wake.rx).read(&mut buf) {
            if n == 0 {
                break;
            }
            total += n;
        }
        total
    }

    /// `flush=clean` is a claim about storage, not about configuration:
    /// a disk that filled up mid-run must show in the summary line.
    #[test]
    fn the_summary_says_degraded_when_storage_refused_writes() {
        use senseaid_core::persist::{FaultingStorage, MemStorage, StorageFaultPlan};
        use senseaid_core::runtime::SimClock;

        use crate::wire::WireRequest;

        let flush_of = |preset: &str| {
            let plan = StorageFaultPlan::preset(preset, 5).unwrap();
            let storage = FaultingStorage::new(Box::new(MemStorage::new()), plan);
            let mut server = trace_server(1);
            server
                .enable_persistence(Box::new(storage), PersistConfig::default(), SimTime::ZERO)
                .unwrap();
            let mut engine = ServeEngine::new(server, Arc::new(SimClock::new()));
            // ~100 B a record against the preset's 64 KiB budget.
            for imei in 1..=1_500 {
                engine.handle(
                    1,
                    WireRequest::Register {
                        imei,
                        energy_budget_j: 400.0,
                        critical_battery_pct: 10.0,
                        battery_pct: 90.0,
                        device_type: "test-phone".to_owned(),
                        sensors: vec![senseaid_device::Sensor::Barometer],
                    },
                );
            }
            engine.shutdown_flush()
        };

        let flush = flush_of("none");
        assert_eq!(
            (flush.append_failures, flush.snapshot_write_failures),
            (0, 0)
        );
        let line = ServeSummary {
            flush,
            ..ServeSummary::default()
        }
        .render();
        assert!(line.ends_with("flush=clean"), "{line}");

        let flush = flush_of("disk-full");
        assert!(flush.persistence_armed);
        assert!(flush.append_failures > 0, "the budget never ran out");
        assert_eq!(
            flush.snapshot_write_failures, 1,
            "the closing snapshot cannot fit either"
        );
        assert_eq!(flush.journal_records + flush.append_failures, 1_500);
        let line = ServeSummary {
            flush,
            ..ServeSummary::default()
        }
        .render();
        let want = format!(
            "flush=degraded(appends={},snapshots=1)",
            flush.append_failures
        );
        assert!(line.ends_with(&want), "{line}");
    }

    #[test]
    fn a_burst_of_wakes_costs_one_byte_until_cleared() {
        let (waker, wake) = wake_pair().unwrap();
        for _ in 0..10_000 {
            waker.wake();
        }
        assert_eq!(pending_bytes(&wake), 1);
        // Not re-armed yet: further wakes are still the same burst.
        waker.wake();
        assert_eq!(pending_bytes(&wake), 0);
        wake.clear(false);
        waker.wake();
        waker.wake();
        let mut fds = [PollFd::new(wake.fd(), POLLIN)];
        assert_eq!(poll::wait(&mut fds, None).unwrap(), 1);
        wake.clear(fds[0].ready(POLLIN));
        assert_eq!(
            pending_bytes(&wake),
            0,
            "clear drains the pipe it was told is readable"
        );
    }

    /// The consumer blocks only in `wait(None)`, so one lost wake-up
    /// leaves it asleep with messages queued; the watchdog turns that
    /// into a failure instead of a hung suite.
    #[test]
    fn no_wakeup_is_lost_under_concurrent_senders() {
        const PRODUCERS: u64 = 4;
        const SENDS: u64 = 100_000;
        let (waker, wake) = wake_pair().unwrap();
        let (tx, rx) = mpsc::channel::<u64>();
        let (done, done_rx) = wake_pair().unwrap();
        let consumer = std::thread::spawn(move || {
            let (mut count, mut sum) = (0u64, 0u64);
            let mut fds = [PollFd::new(wake.fd(), POLLIN)];
            while count < PRODUCERS * SENDS {
                poll::wait(&mut fds, None).unwrap();
                wake.clear(fds[0].ready(POLLIN));
                while let Ok(v) = rx.try_recv() {
                    count += 1;
                    sum += v;
                }
            }
            done.wake();
            (count, sum)
        });
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let (tx, waker) = (tx.clone(), Arc::clone(&waker));
                std::thread::spawn(move || {
                    for i in 0..SENDS {
                        tx.send(p * SENDS + i).unwrap();
                        waker.wake();
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let mut fds = [PollFd::new(done_rx.fd(), POLLIN)];
        let finished = poll::wait(&mut fds, Some(Duration::from_secs(60))).unwrap();
        assert_eq!(
            finished, 1,
            "consumer asleep with messages queued: a wake-up was lost"
        );
        let (count, sum) = consumer.join().unwrap();
        let n = PRODUCERS * SENDS;
        assert_eq!((count, sum), (n, n * (n - 1) / 2));
    }
}
