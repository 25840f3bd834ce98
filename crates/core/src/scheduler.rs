//! Event-driven scheduling wakeups.
//!
//! The paper's prototype polled the control plane on a fixed period. That
//! wastes work when nothing is due and adds latency when something becomes
//! due between ticks. [`SenseAidServer::next_wakeup`] instead computes the
//! earliest instant at which a `poll` could possibly change state, from
//! the shard queue heads and the in-flight deadlines:
//!
//! - the earliest run-queue head's `sample_at` (a request becomes due),
//! - the earliest wait-queue head's `deadline` (a parked request expires),
//! - the earliest active deadline plus the unresponsive grace (an
//!   assignment times out and its silent devices are marked),
//! - the earliest device-lease expiry (a silent device is due for
//!   eviction — the lazy sweep that replaces a liveness polling loop),
//! - `now` itself when device/task state changed since the last poll and
//!   requests are parked (a mutation may have requalified one), and
//! - `now + wait_check_interval` as the paper-faithful fallback re-check
//!   while anything is parked.
//!
//! `None` means the server is quiescent: no queued, parked, or in-flight
//! request exists and no lease is armed, so polling is pointless until
//! the next mutation.
//! Drivers gate their polls on this — see [`WakeupDriver`] for plugging it
//! into the `senseaid-sim` event loop.
//!
//! [`SenseAidServer::next_wakeup`]: crate::server::SenseAidServer::next_wakeup

use senseaid_sim::{EventQueue, SimTime};
use senseaid_telemetry::{Attr, Lane, SpanId};

use crate::coordinator::Coordinator;
use crate::server::SenseAidServer;

impl Coordinator {
    /// The earliest instant a `poll` could change state; `None` when
    /// quiescent. See the module docs for the terms.
    pub(crate) fn next_wakeup(&self, now: SimTime) -> Option<SimTime> {
        self.next_wakeup_with_reason(now).map(|(at, _)| at)
    }

    /// [`Coordinator::next_wakeup`] plus which term won — the label the
    /// scheduler's telemetry reports.
    fn next_wakeup_with_reason(&self, now: SimTime) -> Option<(SimTime, &'static str)> {
        let mut earliest: Option<(SimTime, &'static str)> = None;
        let mut consider = |t: SimTime, reason: &'static str| {
            if earliest.is_none_or(|(e, _)| t < e) {
                earliest = Some((t, reason));
            }
        };

        for shard in self.shards() {
            if let Some((_, sample_at, _)) = shard.run_head_key() {
                consider(sample_at, "run_head");
            }
            if let Some((deadline, _, _)) = shard.wait_head_key() {
                consider(deadline, "wait_deadline");
            }
        }

        if let Some(deadline) = self.earliest_active_deadline() {
            consider(deadline + self.config().unresponsive_grace, "active_grace");
        }

        if let Some(expiry) = self.next_lease_expiry() {
            consider(expiry, "lease_expiry");
        }

        if self.shards().iter().any(|s| s.wait_queue_len() > 0) {
            if self.wait_dirty() {
                // Device or task state moved since the last poll; a parked
                // request may have requalified, so wake immediately.
                consider(now, "wait_dirty");
            } else {
                consider(now + self.config().wait_check_interval, "wait_check");
            }
        }

        // A wakeup in the past is still "due now".
        earliest.map(|(t, reason)| (t.max(now), reason))
    }

    /// Records the post-poll wakeup decision as a telemetry instant: when
    /// the scheduler next needs to run and which term armed it.
    pub(crate) fn record_next_wakeup(&self, now: SimTime, parent: SpanId) {
        if !self.telemetry().active() {
            return;
        }
        match self.next_wakeup_with_reason(now) {
            Some((at, reason)) => {
                self.telemetry().instant(
                    "wakeup.armed",
                    now,
                    Lane::control(0),
                    parent,
                    vec![
                        Attr::u64("at_us", at.as_micros()),
                        Attr::str("reason", reason),
                    ],
                );
            }
            None => {
                self.telemetry().instant(
                    "wakeup.quiescent",
                    now,
                    Lane::control(0),
                    parent,
                    Vec::new(),
                );
            }
        }
    }
}

/// Schedules server polls into a `senseaid-sim` [`EventQueue`], collapsing
/// redundant wakeups.
///
/// After every batch of mutations (and after every poll), call
/// [`WakeupDriver::arm`]; it asks the server for its next wakeup instant
/// and schedules a caller-supplied event there unless an earlier one is
/// already pending. The world's handler calls [`WakeupDriver::fire`] to
/// check whether a delivered event is still the armed one (state changes
/// may have superseded it), polls if so, and re-arms.
///
/// ```
/// use senseaid_core::config::SenseAidConfig;
/// use senseaid_core::scheduler::WakeupDriver;
/// use senseaid_core::server::SenseAidServer;
/// use senseaid_sim::EventQueue;
///
/// #[derive(Debug)]
/// enum Ev {
///     Wakeup,
/// }
///
/// let mut server = SenseAidServer::new(SenseAidConfig::default());
/// let mut queue: EventQueue<Ev> = EventQueue::new();
/// let mut driver = WakeupDriver::new();
/// // ... register devices, submit tasks ...
/// driver.arm(&server, &mut queue, || Ev::Wakeup);
/// while let Some(ev) = queue.pop() {
///     match ev.event {
///         Ev::Wakeup => {
///             if driver.fire(ev.at) {
///                 let _assignments = server.poll(ev.at).unwrap_or_default();
///                 // ... deliver assignments ...
///                 driver.arm(&server, &mut queue, || Ev::Wakeup);
///             }
///         }
///     }
/// }
/// ```
#[derive(Debug, Default)]
pub struct WakeupDriver {
    armed: Option<SimTime>,
}

impl WakeupDriver {
    /// A driver with no wakeup armed.
    pub fn new() -> Self {
        WakeupDriver { armed: None }
    }

    /// The currently armed wakeup instant, if any.
    pub fn armed(&self) -> Option<SimTime> {
        self.armed
    }

    /// Asks `server` when it next needs a poll and schedules `make_event()`
    /// then, unless an earlier wakeup is already armed. Returns the armed
    /// instant, or `None` when the server is quiescent.
    pub fn arm<E>(
        &mut self,
        server: &SenseAidServer,
        queue: &mut EventQueue<E>,
        make_event: impl FnOnce() -> E,
    ) -> Option<SimTime> {
        let at = server.next_wakeup(queue.now())?;
        if self.armed.is_some_and(|armed| armed <= at) {
            return self.armed;
        }
        queue.schedule(at, make_event());
        self.armed = Some(at);
        self.armed
    }

    /// Reports whether a wakeup event delivered at `at` is the armed one.
    /// Superseded events (re-armed earlier since) return `false` and should
    /// be ignored by the handler. Clears the armed slot on a hit.
    pub fn fire(&mut self, at: SimTime) -> bool {
        if self.armed == Some(at) {
            self.armed = None;
            true
        } else {
            // A stale event from an earlier arm; the live one is still
            // scheduled.
            false
        }
    }
}
