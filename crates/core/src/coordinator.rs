//! The cell-sharded control plane behind [`SenseAidServer`].
//!
//! The coordinator owns the task/CAS registry and the shard set. Devices
//! are partitioned across shards by serving cell (`cell % shard_count`,
//! unknown-cell devices on shard 0) and migrate when a position
//! observation reports a new cell. Requests are fanned out to the shards
//! whose cells overlap the request region — computed from the attached
//! [`CellularNetwork`] topology when one is configured, or all shards
//! otherwise — and queued on one home shard.
//!
//! Scheduling pops shard queue heads in global `(deadline, sample_at, id)`
//! order and hands the selection policy the target shards' qualified
//! candidates — streamed into its order-insensitive fold, or merged into
//! one IMEI-sorted slice for a policy that reads order — so for a given
//! workload the assignment stream is byte-identical for any shard count,
//! including the single-shard layout the paper's prototype used.
//!
//! At two or more configured workers (`SENSEAID_SHARD_WORKERS` or
//! [`SenseAidConfig::shard_workers`]), `poll` runs as a two-phase
//! pipeline: per-request qualification and selection execute in parallel
//! on a [`ShardPool`], then a single-threaded commit replays the global
//! order — see DESIGN.md §14. Output stays byte-identical at any worker
//! count.
//!
//! [`SenseAidServer`]: crate::server::SenseAidServer
//! [`SenseAidConfig::shard_workers`]: crate::config::SenseAidConfig::shard_workers

use std::collections::{BTreeMap, BTreeSet, HashSet};

use serde::{Deserialize, Serialize};

use senseaid_cellnet::{CellId, CellularNetwork};
use senseaid_device::{ImeiHash, Sensor, SensorReading};
use senseaid_geo::{CircleRegion, GeoPoint};
use senseaid_radio::ResetPolicy;
use senseaid_sim::{SimDuration, SimTime, TraceEntry, TraceLog};
use senseaid_telemetry::{Attr, Lane, SpanId, Telemetry};

use crate::active::ActiveSet;
use crate::cas::{CasId, DeliveredReading};
use crate::config::SenseAidConfig;
use crate::error::SenseAidError;
use crate::policy::{DropNewest, SelectionPolicy, ShedCandidate, ShedPolicy};
use crate::pool::ShardPool;
use crate::privacy;
use crate::request::{RejectReason, Request, RequestId, RequestStatus, ShedReason};
use crate::shard::{QueueKey, Shard};
use crate::store::device_store::{DeviceRecord, RecordView};
use crate::store::task_store::{TaskStatus, TaskStore};
use crate::store::{CandidateRow, DeviceIndex, QualificationProbe};
use crate::task::{TaskId, TaskSpec};
use crate::validation::ReadingValidator;

/// A scheduling decision handed to the client side: these devices sample
/// this sensor at this instant and upload by this deadline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Assignment {
    /// The request being served.
    pub request: RequestId,
    /// The owning task.
    pub task: TaskId,
    /// Sensor to sample.
    pub sensor: Sensor,
    /// When to sample.
    pub sample_at: SimTime,
    /// Latest useful upload instant.
    pub deadline: SimTime,
    /// The selected devices.
    pub devices: Vec<ImeiHash>,
    /// Upload payload size (bytes).
    pub payload_bytes: u64,
    /// Tail policy crowdsensing uploads must use (variant-dependent).
    pub reset_policy: ResetPolicy,
}

/// One selector execution, kept for the fairness analysis (paper Fig 9).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectionEvent {
    /// The request that triggered the selection.
    pub request: RequestId,
    /// Its task.
    pub task: TaskId,
    /// How many devices were qualified at that instant (`N`).
    pub qualified: usize,
    /// The devices picked (`n` of them).
    pub selected: Vec<ImeiHash>,
}

/// Aggregate server statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Requests scheduled onto devices.
    pub requests_assigned: u64,
    /// Requests fulfilled (density met before deadline).
    pub requests_fulfilled: u64,
    /// Requests that expired unmet.
    pub requests_expired: u64,
    /// Requests parked in the wait queue at least once.
    pub requests_waited: u64,
    /// Readings rejected by validation.
    pub readings_rejected: u64,
    /// Readings accepted and delivered.
    pub readings_accepted: u64,
    /// Envelopes whose sequence number was already accepted (retransmits
    /// that raced their ack).
    pub envelopes_duplicate: u64,
    /// Envelopes received on their second or later transmission attempt.
    pub envelopes_retried: u64,
    /// Readings deduplicated at the reading level (same device, same
    /// request) — e.g. replays across a snapshot-restore boundary.
    pub readings_duplicate: u64,
    /// Readings clients reported dropping on-device (deadline passed
    /// before sampling, or batches abandoned unacked); see
    /// [`ClientStats`](crate::client::ClientStats).
    pub client_readings_dropped: u64,
    /// Requests turned away by admission control (`Rejected{..}`).
    pub requests_rejected: u64,
    /// Requests dropped by the shed policy (`Shed{..}`).
    pub requests_shed: u64,
    /// Requests that terminated `Degraded{..}`: served best-effort below
    /// density, with at least one reading delivered.
    pub requests_degraded: u64,
    /// Devices evicted because their liveness lease expired.
    pub leases_expired: u64,
}

impl ServerStats {
    /// `(name, value)` pairs for the unified telemetry registry.
    pub fn named_counters(&self) -> [(&'static str, u64); 14] {
        [
            ("requests_assigned", self.requests_assigned),
            ("requests_fulfilled", self.requests_fulfilled),
            ("requests_expired", self.requests_expired),
            ("requests_waited", self.requests_waited),
            ("readings_rejected", self.readings_rejected),
            ("readings_accepted", self.readings_accepted),
            ("envelopes_duplicate", self.envelopes_duplicate),
            ("envelopes_retried", self.envelopes_retried),
            ("readings_duplicate", self.readings_duplicate),
            ("client_readings_dropped", self.client_readings_dropped),
            ("requests_rejected", self.requests_rejected),
            ("requests_shed", self.requests_shed),
            ("requests_degraded", self.requests_degraded),
            ("leases_expired", self.leases_expired),
        ]
    }
}

#[derive(Debug, Clone)]
pub(crate) struct ActiveRequest {
    pub(crate) request: Request,
    pub(crate) cas: CasId,
    pub(crate) assigned: Vec<ImeiHash>,
    pub(crate) received: BTreeSet<ImeiHash>,
    /// Served best-effort below density (degraded mode): on expiry with
    /// any data, the request finalises `Degraded{..}` instead of
    /// `Expired`.
    pub(crate) degraded: bool,
}

/// Per-task degraded-mode hysteresis (see [`DegradedConfig`]).
///
/// Keyed by task, not by shard: shard layouts split cells differently, so
/// any per-shard mode flag would break the shard-count byte-identity
/// invariant. Task-keyed state is layout-independent.
///
/// [`DegradedConfig`]: crate::config::DegradedConfig
#[derive(Debug, Clone, Copy, Default)]
struct DegradeState {
    degraded: bool,
    /// First failed full selection of the current stress streak.
    stressed_since: Option<SimTime>,
    /// First successful full selection of the current recovery streak.
    healthy_since: Option<SimTime>,
}

/// Per-device envelope bookkeeping: the highest contiguously accepted
/// sequence number (the cumulative ack) plus any accepted-out-of-order
/// sequence numbers still ahead of it.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct SeqLedger {
    pub(crate) floor: u64,
    pub(crate) ahead: BTreeSet<u64>,
}

impl SeqLedger {
    /// Accepts `seq` if unseen, advancing the cumulative floor over any
    /// now-contiguous run. Returns `false` for a replay.
    fn accept(&mut self, seq: u64) -> bool {
        if seq <= self.floor || self.ahead.contains(&seq) {
            return false;
        }
        self.ahead.insert(seq);
        while self.ahead.remove(&(self.floor + 1)) {
            self.floor += 1;
        }
        true
    }

    /// The cumulative ack: every sequence number ≤ this was accepted.
    fn cumulative(&self) -> u64 {
        self.floor
    }
}

/// What became of one reading inside a delivered envelope.
#[derive(Debug, Clone, PartialEq)]
pub enum DeliveryOutcome {
    /// Fresh reading, validated and queued for the CAS. `fulfilled` is
    /// true when it met the request's spatial density.
    Accepted {
        /// Whether this reading fulfilled the request.
        fulfilled: bool,
    },
    /// The server already holds this `(request, device)` reading — a
    /// retransmit or a replay across a snapshot restore. Safe to ack.
    Duplicate,
    /// The request is no longer active (fulfilled by others, expired, or
    /// cancelled); the reading is acked so the client stops retrying, but
    /// nothing is delivered.
    Obsolete,
    /// The server definitively rejected the reading (validation failure,
    /// unknown request, not assigned). Acked — retrying cannot help.
    Rejected(SenseAidError),
}

/// The server's response to one delivery envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReceipt {
    /// Cumulative ack for the sending device: every envelope sequence
    /// number ≤ this has been received.
    pub ack: u64,
    /// Per-reading outcomes, in the order submitted. Empty when the whole
    /// envelope was a duplicate.
    pub outcomes: Vec<DeliveryOutcome>,
}

/// A point-in-time copy of the control plane's durable state — what a
/// production deployment would persist at the edge. Taken periodically by
/// [`SenseAidServer::enable_snapshots`](crate::server::SenseAidServer::enable_snapshots)
/// and replayed by
/// [`recover_at`](crate::server::SenseAidServer::recover_at) after a
/// crash; anything newer than the snapshot is reconstructed from client
/// re-registration/re-announce and retransmitted envelopes.
#[derive(Debug, Clone)]
pub struct ControlSnapshot {
    pub(crate) taken_at: SimTime,
    pub(crate) tasks: TaskStore,
    pub(crate) next_request_id: u64,
    pub(crate) statuses: BTreeMap<RequestId, RequestStatus>,
    pub(crate) task_owner: BTreeMap<TaskId, CasId>,
    pub(crate) queued_run: Vec<Request>,
    pub(crate) queued_wait: Vec<Request>,
    pub(crate) active: Vec<(RequestId, ActiveRequest)>,
    /// Strictly ascending by IMEI: [`Coordinator::snapshot`] writes them
    /// so, the decoder refuses anything else, and
    /// [`Coordinator::restore_base`] bulk-loads on the strength of it.
    pub(crate) devices: Vec<DeviceRecord>,
    pub(crate) seq_ledger: BTreeMap<ImeiHash, SeqLedger>,
    pub(crate) delivered_log: BTreeSet<(RequestId, ImeiHash)>,
    pub(crate) stats: ServerStats,
    pub(crate) selections: TraceLog<SelectionEvent>,
}

/// The state a [`ControlSnapshot`] copies, borrowed where the coordinator
/// keeps it — what the persistence layer encodes a full snapshot from
/// (`persist::snapshot::write_full`), so persisting a million devices
/// clones none of them.
pub(crate) struct ControlView<'a> {
    pub(crate) taken_at: SimTime,
    pub(crate) tasks: &'a TaskStore,
    pub(crate) next_request_id: u64,
    pub(crate) statuses: &'a BTreeMap<RequestId, RequestStatus>,
    pub(crate) task_owner: &'a BTreeMap<TaskId, CasId>,
    pub(crate) active: &'a ActiveSet,
    pub(crate) seq_ledger: &'a BTreeMap<ImeiHash, SeqLedger>,
    pub(crate) delivered_log: &'a BTreeSet<(RequestId, ImeiHash)>,
    pub(crate) stats: ServerStats,
    pub(crate) selections: &'a TraceLog<SelectionEvent>,
    shards: &'a [Shard],
    home: &'a BTreeMap<ImeiHash, usize>,
}

impl<'a> ControlView<'a> {
    /// Run-queue entries, shard by shard.
    pub(crate) fn queued_run(&self) -> impl Iterator<Item = &'a Request> + use<'a> {
        self.shards.iter().flat_map(Shard::run_requests)
    }

    /// Wait-queue entries, shard by shard.
    pub(crate) fn queued_wait(&self) -> impl Iterator<Item = &'a Request> + use<'a> {
        self.shards.iter().flat_map(Shard::wait_requests)
    }

    /// How many requests [`queued_run`](Self::queued_run) yields.
    pub(crate) fn queued_run_len(&self) -> usize {
        self.shards.iter().map(Shard::run_queue_len).sum()
    }

    /// How many requests [`queued_wait`](Self::queued_wait) yields.
    pub(crate) fn queued_wait_len(&self) -> usize {
        self.shards.iter().map(Shard::wait_queue_len).sum()
    }

    /// How many records [`devices`](Self::devices) yields.
    pub(crate) fn device_count(&self) -> usize {
        self.home.len()
    }

    /// Every device record, strictly ascending by IMEI across all shards.
    ///
    /// `home` is the global IMEI order and names each device's shard, and
    /// each shard yields its own devices in IMEI order — so the next
    /// device overall is always the next one of the shard `home` names.
    /// No sort and no heap: one cursor per shard, advanced by the walk.
    pub(crate) fn devices(&self) -> impl Iterator<Item = RecordView<'a>> + use<'a> {
        let mut cursors: Vec<_> = self.shards.iter().map(Shard::device_views).collect();
        self.home.iter().map(move |(&imei, &shard)| {
            let view = cursors[shard]
                .next()
                .expect("a shard holds every device homed on it");
            assert_eq!(view.imei, imei, "home and shard walk in the same order");
            view
        })
    }
}

impl ControlSnapshot {
    /// When the snapshot was taken.
    pub fn taken_at(&self) -> SimTime {
        self.taken_at
    }

    /// How many device records the snapshot holds.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// How many requests were queued (run + wait) at snapshot time.
    pub fn queued_count(&self) -> usize {
        self.queued_run.len() + self.queued_wait.len()
    }

    /// How many requests were assigned and in flight at snapshot time.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }
}

/// Everything dirtied since the last persisted generation, plus the small
/// always-full sections — the in-memory shape of a delta snapshot. Device
/// columns (the 10^6-scale state) appear only for touched IMEIs; the
/// request-scale state rides along whole because it is orders of
/// magnitude smaller. Built by [`Coordinator::snapshot_delta`], encoded
/// by `persist::snapshot`.
#[derive(Debug, Clone)]
pub(crate) struct SnapshotDelta {
    pub(crate) taken_at: SimTime,
    pub(crate) next_request_id: u64,
    pub(crate) tasks: TaskStore,
    pub(crate) task_owner: BTreeMap<TaskId, CasId>,
    pub(crate) queued_run: Vec<Request>,
    pub(crate) queued_wait: Vec<Request>,
    pub(crate) active: Vec<(RequestId, ActiveRequest)>,
    pub(crate) stats: ServerStats,
    pub(crate) devices_changed: Vec<DeviceRecord>,
    pub(crate) devices_removed: Vec<ImeiHash>,
    pub(crate) statuses_changed: Vec<(RequestId, RequestStatus)>,
    pub(crate) seq_changed: Vec<(ImeiHash, SeqLedger)>,
    pub(crate) delivered_appended: Vec<(RequestId, ImeiHash)>,
    pub(crate) selections_base_len: usize,
    pub(crate) selections_appended: Vec<TraceEntry<SelectionEvent>>,
}

/// The set of shards a request fans out to.
///
/// For layouts up to 64 shards — every configuration the workspace runs —
/// this is one bitmask word on the stack: `target_shards` executes for
/// every request of every poll, and the per-request `Vec` it used to
/// allocate was measurable at million-device scale. Wider layouts fall
/// back to a sorted vector. Iteration always ascends, matching the sorted
/// vector the bitset replaced.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ShardTargets {
    /// Bit `i` set ⇔ shard `i` is targeted.
    Bits(u64),
    /// Sorted, deduplicated shard indices (more than 64 shards).
    Many(Vec<usize>),
}

impl ShardTargets {
    /// Ascending iterator over the targeted shard indices.
    fn iter(&self) -> ShardTargetIter<'_> {
        match self {
            ShardTargets::Bits(word) => ShardTargetIter::Bits(*word),
            ShardTargets::Many(v) => ShardTargetIter::Many(v.iter()),
        }
    }

    /// The sole targeted shard, when there is exactly one.
    fn single(&self) -> Option<usize> {
        match self {
            ShardTargets::Bits(word) if word.is_power_of_two() => {
                Some(word.trailing_zeros() as usize)
            }
            ShardTargets::Many(v) if v.len() == 1 => Some(v[0]),
            _ => None,
        }
    }
}

enum ShardTargetIter<'a> {
    Bits(u64),
    Many(std::slice::Iter<'a, usize>),
}

impl Iterator for ShardTargetIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            ShardTargetIter::Bits(word) => {
                if *word == 0 {
                    return None;
                }
                let i = word.trailing_zeros() as usize;
                *word &= *word - 1;
                Some(i)
            }
            ShardTargetIter::Many(it) => it.next().copied(),
        }
    }
}

/// The outcome of gathering and selecting for one due request — computed
/// inline by the serial loop, speculatively by the pipeline's phase 1
/// (DESIGN.md §14): everything the commit needs, and no candidate rows.
#[derive(Debug, Clone)]
struct AssignPlan {
    /// Candidate count at gather time (the `N` of the selection event).
    qualified: usize,
    /// Whether the policy fielded a complete set.
    satisfied: bool,
    /// The picked devices: the full selection when `satisfied`, otherwise
    /// the best-effort subset degraded mode would serve (possibly empty).
    picked: Vec<ImeiHash>,
}

/// The sharded scheduling core. All methods assume the surrounding server
/// facade has already checked availability.
#[derive(Debug)]
pub(crate) struct Coordinator {
    config: SenseAidConfig,
    policy: Box<dyn SelectionPolicy>,
    validator: ReadingValidator,
    /// Kept so a snapshot restore can rebuild empty shard indexes.
    index_factory: fn() -> Box<dyn DeviceIndex>,
    shards: Vec<Shard>,
    /// Which shard each registered device is homed on.
    home: BTreeMap<ImeiHash, usize>,
    /// Region→cell fan-out oracle; without it every request targets every
    /// shard (always sound, never minimal).
    topology: Option<CellularNetwork>,
    tasks: TaskStore,
    next_request_id: u64,
    active: ActiveSet,
    statuses: BTreeMap<RequestId, RequestStatus>,
    task_owner: BTreeMap<TaskId, CasId>,
    outbox: Vec<(CasId, DeliveredReading)>,
    selections: TraceLog<SelectionEvent>,
    stats: ServerStats,
    /// Per-device envelope sequence tracking for the reliable path.
    seq_ledger: BTreeMap<ImeiHash, SeqLedger>,
    /// `(request, device)` pairs already delivered — the reading-level
    /// dedup that makes retried `send_sense_data` idempotent.
    delivered_log: BTreeSet<(RequestId, ImeiHash)>,
    /// Set when device state changed in a way that could requalify a
    /// parked request; cleared by a poll that finds nothing more to do.
    wait_dirty: bool,
    /// Monotone counter bumped whenever device columns change in a way
    /// that could alter qualification (registration, state updates,
    /// position moves, evictions, responsiveness flips). The wait-queue
    /// recheck memoises per-request verdicts against it, so parked
    /// requests are only re-qualified when something actually changed.
    qual_epoch: u64,
    /// Per parked request: the epoch its last recheck ran at, and whether
    /// partial selection could field at least one device then. Entries
    /// are pruned to the currently parked set on every recheck pass.
    recheck_memo: BTreeMap<RequestId, (u64, bool)>,
    /// Victim chooser for wait-queue overflow (see `park_request`).
    shed_policy: Box<dyn ShedPolicy>,
    /// Lease bookkeeping, populated only when `config.device_lease` is
    /// set: per-device expiry instant plus a cached minimum. Renewals are
    /// the hot path (every radio contact lands here), so they do one map
    /// insert and an O(1) min update; the full map is only scanned when
    /// the minimum itself is displaced (an eviction, or the rare renewal
    /// of the earliest-expiry device). Kept at the coordinator (not per
    /// shard) so lease decisions are shard-layout invariant by
    /// construction.
    lease_expiry: BTreeMap<ImeiHash, SimTime>,
    /// Cached minimum of `lease_expiry`'s values. The scheduler's wakeup
    /// term reads this once per tick, so it must be a field load.
    earliest_lease: Option<SimTime>,
    /// Per-task degraded-mode hysteresis (see [`DegradeState`]).
    degrade_state: BTreeMap<TaskId, DegradeState>,
    /// Telemetry handle; off unless the embedding harness enables it.
    tel: Telemetry,
    /// Open request spans (assignment → fulfilment/expiry). Survives a
    /// snapshot restore so requests that outlive a crash still close.
    request_spans: BTreeMap<RequestId, SpanId>,
    /// Dirty-column tracking for delta snapshots (see `persist`). Off by
    /// default so the hot paths pay nothing; persistence turns it on and
    /// each mutation then marks what it touched.
    track_dirty: bool,
    /// Request ids whose status changed since the last persisted
    /// generation.
    dirty_statuses: BTreeSet<RequestId>,
    /// Devices whose sequence ledger changed since the last generation.
    dirty_seq: BTreeSet<ImeiHash>,
    /// `(request, device)` pairs appended to the delivered log since the
    /// last generation (the log is insert-only, so appends suffice).
    delivered_since: Vec<(RequestId, ImeiHash)>,
    /// Length of `selections` at the last persisted generation (the log
    /// is append-only, so a delta carries only entries past the mark).
    selections_mark: usize,
    /// Worker pool for the poll pipeline's parallel phase 1 (DESIGN.md
    /// §14). One worker pins the serial legacy path; output is
    /// byte-identical at any count.
    pool: ShardPool,
}

impl Coordinator {
    pub fn new(
        config: SenseAidConfig,
        policy: Box<dyn SelectionPolicy>,
        index_factory: fn() -> Box<dyn DeviceIndex>,
    ) -> Self {
        let shard_count = config.shard_count.max(1);
        let pool = ShardPool::from_config(config.shard_workers);
        Coordinator {
            config,
            policy,
            validator: ReadingValidator::new(),
            index_factory,
            shards: (0..shard_count)
                .map(|_| Shard::new(index_factory()))
                .collect(),
            home: BTreeMap::new(),
            topology: None,
            tasks: TaskStore::new(),
            next_request_id: 0,
            active: ActiveSet::default(),
            statuses: BTreeMap::new(),
            task_owner: BTreeMap::new(),
            outbox: Vec::new(),
            selections: TraceLog::new(),
            stats: ServerStats::default(),
            seq_ledger: BTreeMap::new(),
            delivered_log: BTreeSet::new(),
            wait_dirty: false,
            qual_epoch: 0,
            recheck_memo: BTreeMap::new(),
            shed_policy: Box::new(DropNewest),
            lease_expiry: BTreeMap::new(),
            earliest_lease: None,
            degrade_state: BTreeMap::new(),
            tel: Telemetry::off(),
            request_spans: BTreeMap::new(),
            track_dirty: false,
            dirty_statuses: BTreeSet::new(),
            dirty_seq: BTreeSet::new(),
            delivered_since: Vec::new(),
            selections_mark: 0,
            pool,
        }
    }

    /// The worker count the poll pipeline resolved at construction.
    pub fn shard_workers(&self) -> usize {
        self.pool.workers()
    }

    /// Swaps the wait-queue overflow victim chooser (default:
    /// [`DropNewest`]). Only consulted when `config.wait_queue_bound` is
    /// set.
    pub fn set_shed_policy(&mut self, policy: Box<dyn ShedPolicy>) {
        self.shed_policy = policy;
    }

    /// Routes this coordinator's instrumentation into `tel`.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    pub fn config(&self) -> &SenseAidConfig {
        &self.config
    }

    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    pub fn device_count(&self) -> usize {
        self.shards.iter().map(Shard::device_count).sum()
    }

    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    pub fn wait_queue_len(&self) -> usize {
        self.shards.iter().map(Shard::wait_queue_len).sum()
    }

    pub fn run_queue_len(&self) -> usize {
        self.shards.iter().map(Shard::run_queue_len).sum()
    }

    pub fn selections(&self) -> &TraceLog<SelectionEvent> {
        &self.selections
    }

    pub fn request_status(&self, id: RequestId) -> Option<RequestStatus> {
        self.statuses.get(&id).copied()
    }

    pub fn device(&self, imei: ImeiHash) -> Option<DeviceRecord> {
        let shard = *self.home.get(&imei)?;
        self.shards[shard].device(imei)
    }

    /// The shard `imei` is homed on, for telemetry lane assignment.
    pub fn device_home_shard(&self, imei: ImeiHash) -> Option<usize> {
        self.home.get(&imei).copied()
    }

    /// The device index holding `imei`, for the narrow column mutators.
    fn device_index_mut(&mut self, imei: ImeiHash) -> Option<&mut dyn DeviceIndex> {
        let shard = *self.home.get(&imei)?;
        Some(self.shards[shard].devices())
    }

    /// How many known requests are not yet in a terminal status. Zero at
    /// the end of a run means nothing was left parked forever.
    pub fn unresolved_request_count(&self) -> usize {
        self.statuses.values().filter(|s| !s.is_terminal()).count()
    }

    /// Every known request's status, in id order (for invariant checks).
    pub fn request_statuses(&self) -> impl Iterator<Item = (RequestId, RequestStatus)> + '_ {
        self.statuses.iter().map(|(id, s)| (*id, *s))
    }

    // ------------------------------------------------------------------
    // Status discipline
    // ------------------------------------------------------------------

    /// Writes `status` for `id` unless the current status is terminal.
    /// Terminal statuses (`Fulfilled`/`Expired`/`Cancelled`/`Rejected`/
    /// `Shed`/`Degraded`) are never overwritten, so a request the shed
    /// policy dropped or that finalised degraded cannot be silently
    /// resurrected by a later `update_task_param` or queue churn — the
    /// same truthfulness rule the `Cancelled` fix established. Returns
    /// whether the write happened.
    fn set_status(&mut self, id: RequestId, status: RequestStatus) -> bool {
        if self.statuses.get(&id).is_some_and(|s| s.is_terminal()) {
            return false;
        }
        self.statuses.insert(id, status);
        if self.track_dirty {
            self.dirty_statuses.insert(id);
        }
        true
    }

    // ------------------------------------------------------------------
    // Device leases
    // ------------------------------------------------------------------

    /// Grants or renews `imei`'s liveness lease from a radio contact at
    /// `contact`. No-op unless `config.device_lease` is set.
    fn renew_lease(&mut self, imei: ImeiHash, contact: SimTime) {
        let Some(lease) = self.config.device_lease else {
            return;
        };
        let expiry = contact + lease;
        let old = self.lease_expiry.insert(imei, expiry);
        // Contacts only push expiries forward, so the renewing device is
        // almost never the cached minimum; when it is, recompute.
        if old.is_some() && old == self.earliest_lease {
            self.recompute_earliest_lease();
        } else if self.earliest_lease.is_none_or(|e| expiry < e) {
            self.earliest_lease = Some(expiry);
        }
    }

    /// Forgets `imei`'s lease (deregistration or eviction).
    fn drop_lease(&mut self, imei: ImeiHash) {
        let old = self.lease_expiry.remove(&imei);
        if old.is_some() && old == self.earliest_lease {
            self.recompute_earliest_lease();
        }
    }

    /// Re-derives the cached earliest expiry by scanning the lease map —
    /// only called when the current minimum is displaced.
    fn recompute_earliest_lease(&mut self) {
        self.earliest_lease = self.lease_expiry.values().min().copied();
    }

    /// The earliest lease expiry across all devices — the scheduler's
    /// `lease_expiry` wakeup term. A cached field load: the wakeup
    /// computation runs on every driver tick, renewals only on contact.
    pub(crate) fn next_lease_expiry(&self) -> Option<SimTime> {
        self.earliest_lease
    }

    /// The lazy lease sweep, run at the top of every poll: devices whose
    /// lease expired by `now` are evicted — record removed, lease
    /// dropped, and any in-flight assignment that can no longer reach its
    /// density released back to the run queue so selection re-runs over
    /// the surviving population. Event-driven, not polled: the scheduler's
    /// `lease_expiry` term arms a wakeup at the earliest expiry, so silent
    /// devices cost nothing until one actually lapses.
    fn expire_leases(&mut self, now: SimTime) {
        // Field-load fast path: polls between expiries pay nothing.
        if self.earliest_lease.is_none_or(|e| e > now) {
            return;
        }
        // A sweep is actually due: gather the lapsed leases and evict in
        // ascending (expiry, imei) order, so eviction order is identical
        // for any shard layout.
        let mut lapsed: Vec<(SimTime, ImeiHash)> = self
            .lease_expiry
            .iter()
            .filter(|(_, &expiry)| expiry <= now)
            .map(|(&imei, &expiry)| (expiry, imei))
            .collect();
        lapsed.sort_unstable();
        for (expiry, imei) in lapsed {
            self.lease_expiry.remove(&imei);
            self.stats.leases_expired += 1;
            if let Some(shard) = self.home.remove(&imei) {
                self.shards[shard].remove_device(imei);
                self.tel.instant(
                    "lease.expired",
                    now,
                    Lane::device(shard as u64, imei.0),
                    SpanId::NONE,
                    vec![
                        Attr::u64("imei", imei.0),
                        Attr::u64("expiry_us", expiry.as_micros()),
                    ],
                );
            }
            // Strip the evictee from in-flight assignments; release any
            // assignment that lost its ability to meet density back to
            // the run queue. Progress survives the round trip: re-assign
            // seeds `received` from the delivered log.
            let mut released: Vec<RequestId> = Vec::new();
            for (id, active) in self.active.iter_mut() {
                let before = active.assigned.len();
                active.assigned.retain(|d| *d != imei);
                if active.assigned.len() == before {
                    continue;
                }
                let reachable = active.received.len()
                    + active
                        .assigned
                        .iter()
                        .filter(|d| !active.received.contains(d))
                        .count();
                if reachable < active.request.density() {
                    released.push(id);
                }
            }
            for id in released {
                let active = self.active.remove(id).expect("listed above");
                if let Some(span) = self.request_spans.remove(&id) {
                    self.tel.instant(
                        "lease.released",
                        now,
                        Lane::control(0),
                        span,
                        vec![Attr::u64("request", id.0), Attr::u64("imei", imei.0)],
                    );
                    self.tel.exit(span, now);
                }
                if self.set_status(id, RequestStatus::Pending) {
                    self.enqueue_run(active.request);
                }
            }
            self.qual_epoch += 1;
            self.wait_dirty = true;
        }
        self.recompute_earliest_lease();
    }

    // ------------------------------------------------------------------
    // Degraded-mode hysteresis
    // ------------------------------------------------------------------

    /// Notes a failed full selection for `task`. Returns whether the task
    /// is (now) in degraded mode and partial service should be attempted.
    /// Static over the split fields so callers can hold shard borrows.
    fn note_selection_failure(
        states: &mut BTreeMap<TaskId, DegradeState>,
        config: &SenseAidConfig,
        tel: &Telemetry,
        task: TaskId,
        now: SimTime,
    ) -> bool {
        let Some(cfg) = config.degraded else {
            return false;
        };
        let state = states.entry(task).or_default();
        state.healthy_since = None;
        if state.degraded {
            return true;
        }
        let since = *state.stressed_since.get_or_insert(now);
        if now >= since + cfg.enter_after {
            state.degraded = true;
            tel.instant(
                "degraded.enter",
                now,
                Lane::control(0),
                SpanId::NONE,
                vec![
                    Attr::u64("task", task.0),
                    Attr::u64("stressed_since_us", since.as_micros()),
                ],
            );
            true
        } else {
            false
        }
    }

    /// Notes a successful full selection for `task`; sustained health for
    /// `exit_after` leaves degraded mode (the hysteresis that stops a
    /// borderline cell from flapping).
    fn note_selection_success(
        states: &mut BTreeMap<TaskId, DegradeState>,
        config: &SenseAidConfig,
        tel: &Telemetry,
        task: TaskId,
        now: SimTime,
    ) {
        let Some(cfg) = config.degraded else {
            return;
        };
        let Some(state) = states.get_mut(&task) else {
            return;
        };
        state.stressed_since = None;
        if !state.degraded {
            return;
        }
        let since = *state.healthy_since.get_or_insert(now);
        if now >= since + cfg.exit_after {
            state.degraded = false;
            state.healthy_since = None;
            tel.instant(
                "degraded.exit",
                now,
                Lane::control(0),
                SpanId::NONE,
                vec![
                    Attr::u64("task", task.0),
                    Attr::u64("healthy_since_us", since.as_micros()),
                ],
            );
        }
    }

    // ------------------------------------------------------------------
    // Sharding geometry
    // ------------------------------------------------------------------

    pub fn set_topology(&mut self, network: CellularNetwork) {
        self.topology = Some(network);
        // Target-shard fan-out depends on the topology, so memoised
        // recheck verdicts are stale.
        self.qual_epoch += 1;
        self.wait_dirty = true;
    }

    fn shard_of_cell(&self, cell: Option<CellId>) -> usize {
        cell.map_or(0, |c| c.0 % self.shards.len())
    }

    /// The shards whose devices could qualify for a request over `region`.
    ///
    /// Soundness: a device qualifies only when its observed position lies
    /// inside `region`; its serving cell's tower covers that position, so
    /// that tower's coverage intersects `region` and its cell is in
    /// `cells_covering(region)`. Devices with no observed cell are homed
    /// on shard 0, which is always targeted.
    ///
    /// Runs on every request of every poll, so the common case (at most
    /// 64 shards) builds a stack bitmask via the topology's allocation-free
    /// cell visitor; only wider layouts fall back to a sorted vector.
    fn target_shards(&self, region: &CircleRegion) -> ShardTargets {
        let n = self.shards.len();
        if n == 1 {
            return ShardTargets::Bits(1);
        }
        match &self.topology {
            Some(net) if n <= 64 => {
                // Shard 0 (bit 0) is always targeted: unknown-cell devices
                // live there.
                let mut bits: u64 = 1;
                net.for_each_cell_covering(region, |c| bits |= 1u64 << (c.0 % n));
                ShardTargets::Bits(bits)
            }
            Some(net) => {
                let mut targets: Vec<usize> = vec![0];
                net.for_each_cell_covering(region, |c| targets.push(c.0 % n));
                targets.sort_unstable();
                targets.dedup();
                ShardTargets::Many(targets)
            }
            None if n <= 64 => ShardTargets::Bits(if n == 64 { u64::MAX } else { (1u64 << n) - 1 }),
            None => ShardTargets::Many((0..n).collect()),
        }
    }

    /// Qualified candidate rows across the target shards, merged into
    /// ascending IMEI-hash order (the order one unsharded store returns).
    fn candidates_across(
        shards: &[Shard],
        targets: &ShardTargets,
        probe: &QualificationProbe,
    ) -> Vec<CandidateRow> {
        // Single-target fast path: one shard's rows already arrive in
        // ascending IMEI order, straight into the output buffer.
        if let Some(only) = targets.single() {
            let mut out = Vec::new();
            shards[only].candidates_into(probe, &mut out);
            return out;
        }
        // Each shard already returns its candidates in ascending IMEI
        // order, so a k-way merge of the per-shard lists reproduces the
        // single-store order without re-sorting the concatenation.
        let per_shard: Vec<Vec<CandidateRow>> = targets
            .iter()
            .map(|s| {
                let mut rows = Vec::new();
                shards[s].candidates_into(probe, &mut rows);
                rows
            })
            .collect();
        let total = per_shard.iter().map(Vec::len).sum();
        let mut merged: Vec<CandidateRow> = Vec::with_capacity(total);
        let mut cursors = vec![0usize; per_shard.len()];
        for _ in 0..total {
            let next = per_shard
                .iter()
                .zip(&cursors)
                .enumerate()
                .filter_map(|(i, (list, &c))| list.get(c).map(|r| (i, r.imei)))
                .min_by_key(|&(_, imei)| imei)
                .map(|(i, _)| i)
                .expect("total counts remaining elements");
            merged.push(per_shard[next][cursors[next]]);
            cursors[next] += 1;
        }
        merged
    }

    pub fn qualified_devices(&self, request: &Request) -> Vec<ImeiHash> {
        let probe = QualificationProbe::for_request(request);
        let targets = self.target_shards(&probe.region);
        Self::candidates_across(&self.shards, &targets, &probe)
            .into_iter()
            .map(|r| r.imei)
            .collect()
    }

    pub fn qualified_count(&self, probe: &QualificationProbe) -> usize {
        let targets = self.target_shards(&probe.region);
        targets
            .iter()
            .map(|s| self.shards[s].qualified_count(probe))
            .sum()
    }

    /// The shard a request over `region` is homed on: the lowest-numbered
    /// shard among those serving the region's covered cells. Without a
    /// topology (or with a single shard) everything homes on shard 0.
    /// Homing places the queue entry; scheduling order is unaffected
    /// because the coordinator merge-pops heads across all shards.
    fn home_shard(&self, region: &CircleRegion) -> usize {
        match &self.topology {
            Some(net) if self.shards.len() > 1 => {
                let mut min: Option<usize> = None;
                net.for_each_cell_covering(region, |c| {
                    let s = c.0 % self.shards.len();
                    if min.is_none_or(|m| s < m) {
                        min = Some(s);
                    }
                });
                min.unwrap_or(0)
            }
            _ => 0,
        }
    }

    /// Queues `request` on its home shard's run queue.
    fn enqueue_run(&mut self, request: Request) {
        let home = self.home_shard(&request.region());
        self.shards[home].push_run(request);
    }

    /// Parks `request` on its home shard's wait queue.
    fn enqueue_wait(&mut self, request: Request) {
        let home = self.home_shard(&request.region());
        self.shards[home].push_wait(request);
    }

    /// The shard holding the globally smallest head key, per `head`.
    fn min_head(
        shards: &[Shard],
        head: impl Fn(&Shard) -> Option<QueueKey>,
    ) -> Option<(usize, QueueKey)> {
        let mut best: Option<(usize, QueueKey)> = None;
        for (i, shard) in shards.iter().enumerate() {
            if let Some(key) = head(shard) {
                if best.is_none_or(|(_, b)| key < b) {
                    best = Some((i, key));
                }
            }
        }
        best
    }

    /// Pops the globally next due request across all shard run queues,
    /// replicating a single queue's `pop_due`: the head (by key order)
    /// pops only once its sampling instant has arrived.
    fn pop_due_global(&mut self, now: SimTime) -> Option<Request> {
        let (shard, key) = Self::min_head(&self.shards, Shard::run_head_key)?;
        if key.1 > now {
            return None;
        }
        self.shards[shard].pop_run()
    }

    // ------------------------------------------------------------------
    // Device lifecycle
    // ------------------------------------------------------------------

    /// Registers a device, or — when it is already registered — refreshes
    /// its preferences and state while preserving the history the fresh
    /// record cannot know (selection count, spent energy, position/cell).
    /// A client re-`register()` after losing an ack is therefore
    /// idempotent: it never resets fairness or budget accounting.
    pub fn register_device(&mut self, record: DeviceRecord) {
        let imei = record.imei;
        let contact = record.last_comm;
        if self.home.contains_key(&imei) {
            let refreshed = self
                .device_index_mut(imei)
                .expect("home map tracks membership")
                .refresh_registration(&record);
            debug_assert!(refreshed, "home map tracks membership");
            self.renew_lease(imei, contact);
            self.qual_epoch += 1;
            self.wait_dirty = true;
            return;
        }
        let shard = self.shard_of_cell(record.cell);
        self.home.insert(imei, shard);
        self.shards[shard].insert_device(record);
        self.renew_lease(imei, contact);
        self.qual_epoch += 1;
        self.wait_dirty = true;
    }

    pub fn deregister_device(&mut self, imei: ImeiHash) -> Result<(), SenseAidError> {
        let shard = self
            .home
            .remove(&imei)
            .ok_or(SenseAidError::UnknownDevice(imei))?;
        self.shards[shard].remove_device(imei);
        self.drop_lease(imei);
        // Drop it from any in-flight assignments.
        for (_, active) in self.active.iter_mut() {
            active.assigned.retain(|d| *d != imei);
        }
        self.qual_epoch += 1;
        self.wait_dirty = true;
        Ok(())
    }

    pub fn update_preferences(
        &mut self,
        imei: ImeiHash,
        energy_budget_j: f64,
        critical_battery_pct: f64,
    ) -> Result<(), SenseAidError> {
        let updated = self
            .device_index_mut(imei)
            .is_some_and(|idx| idx.update_preferences(imei, energy_budget_j, critical_battery_pct));
        if !updated {
            return Err(SenseAidError::UnknownDevice(imei));
        }
        self.qual_epoch += 1;
        self.wait_dirty = true;
        Ok(())
    }

    pub fn update_device_state(
        &mut self,
        imei: ImeiHash,
        battery_pct: f64,
        cs_energy_j: f64,
        now: SimTime,
    ) -> Result<(), SenseAidError> {
        let updated = self
            .device_index_mut(imei)
            .is_some_and(|idx| idx.update_state(imei, battery_pct, cs_energy_j, now));
        if !updated {
            return Err(SenseAidError::UnknownDevice(imei));
        }
        self.renew_lease(imei, now);
        self.qual_epoch += 1;
        self.wait_dirty = true;
        Ok(())
    }

    /// Records an observed position/cell, migrating the device to the
    /// shard serving its new cell when that changed.
    pub fn observe_device(
        &mut self,
        imei: ImeiHash,
        position: GeoPoint,
        cell: Option<CellId>,
    ) -> Result<(), SenseAidError> {
        let current = *self
            .home
            .get(&imei)
            .ok_or(SenseAidError::UnknownDevice(imei))?;
        let target = self.shard_of_cell(cell);
        if target != current {
            let mut record = self.shards[current]
                .remove_device(imei)
                .expect("home map tracks shard membership");
            record.position = Some(position);
            record.cell = cell;
            self.shards[target].insert_device(record);
            self.home.insert(imei, target);
        } else if !self.shards[current].observe(imei, position, cell) {
            return Err(SenseAidError::UnknownDevice(imei));
        }
        self.qual_epoch += 1;
        self.wait_dirty = true;
        Ok(())
    }

    pub fn record_device_comm(
        &mut self,
        imei: ImeiHash,
        now: SimTime,
    ) -> Result<(), SenseAidError> {
        let updated = self
            .device_index_mut(imei)
            .is_some_and(|idx| idx.record_comm(imei, now));
        if !updated {
            return Err(SenseAidError::UnknownDevice(imei));
        }
        self.renew_lease(imei, now);
        self.qual_epoch += 1;
        self.wait_dirty = true;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Task lifecycle
    // ------------------------------------------------------------------

    pub fn submit_task_for(&mut self, cas: CasId, spec: TaskSpec, now: SimTime) -> TaskId {
        let id = self.tasks.insert(spec.clone(), now);
        self.task_owner.insert(id, cas);
        let next_request_id = &mut self.next_request_id;
        let requests = spec.expand_requests(id, now, || {
            *next_request_id += 1;
            RequestId(*next_request_id)
        });
        self.tasks
            .get_mut(id)
            .expect("just inserted")
            .requests_generated = requests.len();
        for r in requests {
            self.admit_run(r, now);
        }
        id
    }

    /// Admission control: queues `request` on its home run queue, or turns
    /// it away with `Rejected{QueueFull}` when the control plane's run
    /// queues are at the configured bound. The bound applies to the global
    /// run-queue population (summed over shards), not per shard slice —
    /// shard layouts split cells differently, so a per-slice bound would
    /// break the shard-count byte-identity invariant.
    fn admit_run(&mut self, request: Request, now: SimTime) {
        if let Some(bound) = self.config.run_queue_bound {
            if self.run_queue_len() >= bound {
                let id = request.id();
                self.stats.requests_rejected += 1;
                self.set_status(
                    id,
                    RequestStatus::Rejected {
                        reason: RejectReason::QueueFull,
                    },
                );
                self.tel.instant(
                    "shed.rejected",
                    now,
                    Lane::control(0),
                    SpanId::NONE,
                    vec![
                        Attr::u64("request", id.0),
                        Attr::u64("task", request.task().0),
                        Attr::u64("run_queue", self.run_queue_len() as u64),
                    ],
                );
                return;
            }
        }
        self.set_status(request.id(), RequestStatus::Pending);
        self.enqueue_run(request);
    }

    pub fn update_task_param(
        &mut self,
        task: TaskId,
        spatial_density: Option<usize>,
        sampling_period: Option<SimDuration>,
        region: Option<CircleRegion>,
        now: SimTime,
    ) -> Result<(), SenseAidError> {
        let (new_spec, submitted_at) = {
            let state = self.tasks.get_mut(task)?;
            (
                state
                    .spec
                    .with_updates(spatial_density, sampling_period, region)?,
                state.submitted_at,
            )
        };
        // Drop queued (not yet assigned) requests and regenerate the
        // future ones under the new spec. The dropped requests are
        // superseded, never served: mark them cancelled so
        // `request_status` stays truthful (as `delete_task` does).
        let superseded: Vec<RequestId> = self
            .shards
            .iter()
            .flat_map(Shard::queued_requests)
            .filter(|r| r.task() == task)
            .map(Request::id)
            .collect();
        for id in superseded {
            // `set_status` refuses terminal overwrites, so a request the
            // shed policy already dropped (or that finalised degraded)
            // stays in its truthful state instead of flipping to
            // `Cancelled`.
            self.set_status(id, RequestStatus::Cancelled);
        }
        for shard in &mut self.shards {
            shard.remove_task(task);
        }
        let next_request_id = &mut self.next_request_id;
        let regenerated: Vec<Request> = new_spec
            .expand_requests(task, submitted_at, || {
                *next_request_id += 1;
                RequestId(*next_request_id)
            })
            .into_iter()
            .filter(|r| r.sample_at() >= now)
            .collect();
        let state = self.tasks.get_mut(task)?;
        state.spec = new_spec;
        state.requests_generated += regenerated.len();
        for r in regenerated {
            self.admit_run(r, now);
        }
        Ok(())
    }

    pub fn delete_task(&mut self, task: TaskId) -> Result<(), SenseAidError> {
        self.tasks.delete(task)?;
        // Every unresolved request of the task — queued or in flight — is
        // now cancelled.
        let cancelled: Vec<RequestId> = self
            .shards
            .iter()
            .flat_map(Shard::queued_requests)
            .filter(|r| r.task() == task)
            .map(Request::id)
            .chain(
                self.active
                    .iter()
                    .filter(|(_, a)| a.request.task() == task)
                    .map(|(id, _)| id),
            )
            .collect();
        for id in cancelled {
            self.set_status(id, RequestStatus::Cancelled);
        }
        for shard in &mut self.shards {
            shard.remove_task(task);
        }
        self.active.retain(|a| a.request.task() != task);
        Ok(())
    }

    // ------------------------------------------------------------------
    // The scheduling loop (Algorithm 1)
    // ------------------------------------------------------------------

    pub fn poll(&mut self, now: SimTime) -> Vec<Assignment> {
        let stats_before = self.stats;
        let poll_span = self.enter_poll_span(now);
        self.expire_leases(now);
        self.expire_overdue(now);
        // The two-phase pipeline (DESIGN.md §14) plans on worker threads
        // and may plan a request twice, so the `selector.select` instant a
        // plan records from its fold's counts would land out of order, or
        // doubled, under recording; telemetry-active polls therefore take
        // the canonical serial path — recording is an analysis mode, and
        // this makes trace byte-identity across worker counts true by
        // construction rather than by argument.
        let pipelined = !self.pool.is_serial() && !self.tel.active();
        if pipelined {
            self.recheck_wait_queue_pipelined(now);
        } else {
            self.recheck_wait_queue(now);
        }

        let mut assignments = Vec::new();
        if pipelined {
            self.assign_due_pipelined(now, &mut assignments);
        } else {
            while let Some(request) = self.pop_due_global(now) {
                if request.deadline() <= now {
                    self.expire_request(&request, now);
                    continue;
                }
                if self
                    .tasks
                    .get(request.task())
                    .map(|t| t.status != TaskStatus::Active)
                    .unwrap_or(true)
                {
                    continue; // deleted while queued
                }
                match self.try_assign(request, now) {
                    Ok(assignment) => {
                        self.set_status(assignment.request, RequestStatus::Assigned);
                        assignments.push(assignment);
                    }
                    Err(request) => {
                        self.park_request(request, now);
                    }
                }
            }
        }
        // A round that made progress may have enabled further work (e.g.
        // freshly-marked-unresponsive devices or assignments bumping
        // fairness counters); keep wakeups hot until a round runs dry,
        // matching a fixed-period poller's behaviour. Parking a request is
        // *not* progress: counting `requests_waited` here would arm a
        // same-instant wakeup every time a request fails selection and
        // re-parks, livelocking an event-driven driver at one instant.
        let progress = ServerStats {
            requests_waited: stats_before.requests_waited,
            ..self.stats
        };
        self.wait_dirty = progress != stats_before;
        if poll_span.is_some() {
            self.record_next_wakeup(now, poll_span);
            self.tel.exit(poll_span, now);
        }
        assignments
    }

    /// Opens the per-poll scheduler span with one queue-depth instant per
    /// shard on that shard's control lane.
    fn enter_poll_span(&self, now: SimTime) -> SpanId {
        if !self.tel.active() {
            return SpanId::NONE;
        }
        let span = self.tel.enter(
            "poll",
            now,
            Lane::control(0),
            SpanId::NONE,
            vec![
                Attr::u64("run_queue", self.run_queue_len() as u64),
                Attr::u64("wait_queue", self.wait_queue_len() as u64),
                Attr::u64("active", self.active.len() as u64),
            ],
        );
        for (i, shard) in self.shards.iter().enumerate() {
            self.tel.instant(
                "shard.queues",
                now,
                Lane::control(i as u64),
                span,
                vec![
                    Attr::u64("run", shard.run_queue_len() as u64),
                    Attr::u64("wait", shard.wait_queue_len() as u64),
                    Attr::u64("devices", shard.device_count() as u64),
                ],
            );
        }
        span
    }

    /// Parks `request` in the wait queue, shedding under overload: when
    /// the global wait-queue population is at `config.wait_queue_bound`,
    /// the shed policy picks a victim — the incoming request or a parked
    /// one — which terminates `Shed{WaitQueueFull}` instead of occupying
    /// the queue. Like admission, the bound is global (summed over
    /// shards), keeping shed decisions shard-layout invariant; the parked
    /// candidates are handed to the policy in global `(deadline,
    /// sample_at, id)` order for the same reason.
    fn park_request(&mut self, request: Request, now: SimTime) {
        if let Some(bound) = self.config.wait_queue_bound {
            if self.wait_queue_len() >= bound {
                let victim = self.choose_shed_victim(&request, now);
                let (shed, parked_incoming) = if victim == request.id() {
                    (request, None)
                } else {
                    let evicted = self
                        .shards
                        .iter_mut()
                        .find_map(|s| s.remove_wait(victim))
                        .expect("victim was drawn from the parked set");
                    (evicted, Some(request))
                };
                self.stats.requests_shed += 1;
                self.set_status(
                    shed.id(),
                    RequestStatus::Shed {
                        reason: ShedReason::WaitQueueFull,
                    },
                );
                self.tel.instant(
                    "shed.dropped",
                    now,
                    Lane::control(0),
                    SpanId::NONE,
                    vec![
                        Attr::u64("request", shed.id().0),
                        Attr::u64("task", shed.task().0),
                        Attr::u64("wait_queue", self.wait_queue_len() as u64),
                    ],
                );
                let Some(request) = parked_incoming else {
                    return; // the incoming request was the victim
                };
                self.stats.requests_waited += 1;
                self.set_status(request.id(), RequestStatus::Waiting);
                self.enqueue_wait(request);
                return;
            }
        }
        self.stats.requests_waited += 1;
        self.set_status(request.id(), RequestStatus::Waiting);
        self.enqueue_wait(request);
    }

    /// Asks the shed policy for the overflow victim, feeding it the
    /// incoming request plus every parked one (global key order), each
    /// with its current qualified-device supply.
    fn choose_shed_victim(&self, incoming: &Request, now: SimTime) -> RequestId {
        let mut parked: Vec<&Request> = self.shards.iter().flat_map(Shard::wait_requests).collect();
        parked.sort_unstable_by_key(|r| (r.deadline(), r.sample_at(), r.id().0));
        let supply = |r: &Request| {
            let probe = QualificationProbe::for_request(r);
            self.qualified_count(&probe)
        };
        let incoming_candidate = ShedCandidate {
            request: incoming,
            qualified: supply(incoming),
        };
        let parked_candidates: Vec<ShedCandidate<'_>> = parked
            .into_iter()
            .map(|r| ShedCandidate {
                request: r,
                qualified: supply(r),
            })
            .collect();
        self.shed_policy
            .choose_victim(&incoming_candidate, &parked_candidates, now)
    }

    /// Assigns `request`, or returns it for parking when the policy cannot
    /// field a viable device set.
    // The Err variant hands the request back by value so the caller can
    // park it without a clone; its size is the point, not a problem.
    #[allow(clippy::result_large_err)]
    fn try_assign(&mut self, request: Request, now: SimTime) -> Result<Assignment, Request> {
        let plan = self.plan_assign(&request, now);
        self.commit_assign(request, now, plan)
    }

    /// Commits one [`AssignPlan`]: degraded gating, fairness bumps,
    /// bookkeeping — the one serial path behind both the serial loop and
    /// the pipeline. The caller vouches the plan is fresh: computed just
    /// now, or speculative with none of its picked devices bumped since
    /// (see [`assign_due_pipelined`](Self::assign_due_pipelined)).
    #[allow(clippy::result_large_err)]
    fn commit_assign(
        &mut self,
        request: Request,
        now: SimTime,
        plan: AssignPlan,
    ) -> Result<Assignment, Request> {
        let task = request.task();
        let degraded = if plan.satisfied {
            Self::note_selection_success(
                &mut self.degrade_state,
                &self.config,
                &self.tel,
                task,
                now,
            );
            false
        } else {
            // Full selection failed. Once the task's stress streak has
            // lasted `degraded.enter_after`, serve the best available
            // subset instead of parking forever; otherwise hand the
            // request back for the wait queue.
            let serve_partial = Self::note_selection_failure(
                &mut self.degrade_state,
                &self.config,
                &self.tel,
                task,
                now,
            );
            if !serve_partial || plan.picked.is_empty() {
                return Err(request);
            }
            true
        };
        let (qualified, selected) = (plan.qualified, plan.picked);
        for imei in &selected {
            if let Some(idx) = self.device_index_mut(*imei) {
                idx.bump_selected(*imei);
            }
        }
        if self.tel.active() {
            let shard = self
                .target_shards(&request.region())
                .iter()
                .next()
                .unwrap_or(0) as u64;
            let span = self.tel.enter(
                "request",
                now,
                Lane::control(shard),
                SpanId::NONE,
                vec![
                    Attr::u64("request", request.id().0),
                    Attr::u64("task", request.task().0),
                    Attr::u64("density", request.density() as u64),
                    Attr::u64("deadline_us", request.deadline().as_micros()),
                ],
            );
            self.request_spans.insert(request.id(), span);
            let selection = self.tel.instant(
                "selection",
                now,
                Lane::control(shard),
                span,
                vec![
                    Attr::u64("qualified", qualified as u64),
                    Attr::u64("selected", selected.len() as u64),
                ],
            );
            if degraded {
                self.tel.instant(
                    "degraded.assign",
                    now,
                    Lane::control(shard),
                    span,
                    vec![
                        Attr::u64("request", request.id().0),
                        Attr::u64("density", request.density() as u64),
                        Attr::u64("achieved", selected.len() as u64),
                    ],
                );
            }
            for imei in &selected {
                let home = self.home.get(imei).copied().unwrap_or(0) as u64;
                let tasking = self.tel.instant(
                    "tasking",
                    now,
                    Lane::device(home, imei.0),
                    selection,
                    vec![
                        Attr::u64("request", request.id().0),
                        Attr::u64("imei", imei.0),
                    ],
                );
                self.tel.note_tasking(request.id().0, imei.0, tasking);
            }
        }
        self.selections.push(
            now,
            SelectionEvent {
                request: request.id(),
                task: request.task(),
                qualified,
                selected: selected.clone(),
            },
        );
        let cas = self
            .task_owner
            .get(&request.task())
            .copied()
            .unwrap_or(CasId(0));
        let assignment = Assignment {
            request: request.id(),
            task: request.task(),
            sensor: request.sensor(),
            sample_at: request.sample_at(),
            deadline: request.deadline(),
            devices: selected.clone(),
            payload_bytes: self.config.payload_bytes,
            reset_policy: self.config.variant.reset_policy(),
        };
        self.stats.requests_assigned += 1;
        // Seed the received set from the delivered log: a request released
        // back to the queue after a lease eviction keeps the readings its
        // surviving contributors already delivered.
        let received: BTreeSet<ImeiHash> = self
            .delivered_log
            .range((request.id(), ImeiHash(u64::MIN))..=(request.id(), ImeiHash(u64::MAX)))
            .map(|&(_, imei)| imei)
            .collect();
        self.active.insert(
            request.id(),
            ActiveRequest {
                request,
                cas,
                assigned: selected,
                received,
                degraded,
            },
        );
        Ok(assignment)
    }

    fn expire_request(&mut self, request: &Request, now: SimTime) {
        self.stats.requests_expired += 1;
        self.set_status(request.id(), RequestStatus::Expired);
        if let Ok(t) = self.tasks.get_mut(request.task()) {
            t.requests_expired += 1;
        }
        if let Some(span) = self.request_spans.remove(&request.id()) {
            self.tel
                .instant("request.expired", now, Lane::control(0), span, Vec::new());
            self.tel.exit(span, now);
        }
    }

    /// Finalises a degraded-mode assignment that delivered *some* data by
    /// its deadline: the truthful outcome is `Degraded{achieved_density}`,
    /// not `Expired` — the CAS did receive readings, just fewer than
    /// asked.
    fn finalise_degraded(&mut self, request: &Request, achieved: usize, now: SimTime) {
        self.stats.requests_degraded += 1;
        self.set_status(
            request.id(),
            RequestStatus::Degraded {
                achieved_density: achieved,
            },
        );
        if let Some(span) = self.request_spans.remove(&request.id()) {
            self.tel.instant(
                "request.degraded",
                now,
                Lane::control(0),
                span,
                vec![
                    Attr::u64("density", request.density() as u64),
                    Attr::u64("achieved", achieved as u64),
                ],
            );
            self.tel.exit(span, now);
        }
    }

    fn expire_overdue(&mut self, now: SimTime) {
        for id in self.active.overdue(self.config.unresponsive_grace, now) {
            let active = self.active.remove(id).expect("just listed");
            // Devices that never delivered are marked unresponsive (paper
            // §3.2: excluded from future selections until they speak).
            for imei in &active.assigned {
                if !active.received.contains(imei) {
                    if let Some(idx) = self.device_index_mut(*imei) {
                        idx.set_responsive(*imei, false);
                        self.qual_epoch += 1;
                    }
                }
            }
            if active.received.len() >= active.request.density() {
                // Density was met; counted at fulfilment time already.
                continue;
            }
            if active.degraded && !active.received.is_empty() {
                self.finalise_degraded(&active.request, active.received.len(), now);
                continue;
            }
            self.expire_request(&active.request, now);
        }
    }

    /// Re-examines every parked request, in the global key order a single
    /// wait queue would use: expired ones are failed, now-satisfiable ones
    /// move to their home run queue, the rest stay parked. Candidates are
    /// gathered across all target shards, so a request parked on one
    /// shard drains when devices appear in a neighbouring cell; the
    /// policy's own [`would_select`](SelectionPolicy::would_select) is the
    /// promotion predicate, so a request is only promoted when selection
    /// will actually succeed (a raw qualified-count check would bounce
    /// requests whose candidates fail the hard cutoffs back and forth).
    fn recheck_wait_queue(&mut self, now: SimTime) {
        let mut parked: Vec<Request> = Vec::new();
        let epoch = self.qual_epoch;
        while let Some((shard, _)) = Self::min_head(&self.shards, Shard::wait_head_key) {
            let request = self.shards[shard].pop_wait().expect("head key seen");
            if request.deadline() <= now {
                self.expire_request(&request, now);
                continue;
            }
            let memo = self.recheck_memo.get(&request.id()).copied();
            let promote = match memo {
                // No device column changed since this request's last
                // recheck decided not to promote, and qualification is
                // time-independent: full selection still fails. Degraded-
                // mode entry *is* time-driven, so the failure is still
                // recorded and the memoised partial verdict gates the
                // degraded promotion — without re-gathering candidates.
                Some((e, partial)) if e == epoch => {
                    Self::note_selection_failure(
                        &mut self.degrade_state,
                        &self.config,
                        &self.tel,
                        request.task(),
                        now,
                    ) && partial
                }
                _ => {
                    let (would, partial) = self.plan_recheck(&request, now);
                    if would {
                        true
                    } else {
                        // An unsatisfiable park is selection stress: record
                        // it so a task whose requests only ever sit parked
                        // still accrues time towards degraded mode. Once
                        // degraded, promote whenever partial service could
                        // field at least one device.
                        self.recheck_memo.insert(request.id(), (epoch, partial));
                        Self::note_selection_failure(
                            &mut self.degrade_state,
                            &self.config,
                            &self.tel,
                            request.task(),
                            now,
                        ) && partial
                    }
                }
            };
            if promote {
                self.recheck_memo.remove(&request.id());
                self.enqueue_run(request);
            } else {
                parked.push(request);
            }
        }
        // Prune memo entries for requests that left the wait queue by any
        // path (promotion, expiry, shedding, task deletion).
        if !self.recheck_memo.is_empty() {
            let parked_ids: BTreeSet<RequestId> = parked.iter().map(Request::id).collect();
            self.recheck_memo.retain(|id, _| parked_ids.contains(id));
        }
        for request in parked {
            self.enqueue_wait(request);
        }
    }

    // ------------------------------------------------------------------
    // The two-phase poll pipeline (DESIGN.md §14)
    // ------------------------------------------------------------------
    //
    // Phase 1 runs the expensive, read-only per-request work — shard
    // fan-out, candidate gathering, selection scoring — in parallel on the
    // coordinator's worker pool, producing compact plans. Phase 2 is a
    // single-threaded commit that walks the requests in the exact global
    // `(deadline, sample_at, id)` order the serial loop uses, applying
    // each plan (or recomputing inline when a prior commit could have
    // invalidated it). Every observable output — assignments, statuses,
    // stats, the WAL, persistence digests — is byte-identical to the
    // serial path at any worker count.

    /// Feeds every qualified candidate of the target shards to `f`, in
    /// shard-then-walk order.
    fn for_each_candidate(
        &self,
        targets: &ShardTargets,
        probe: &QualificationProbe,
        f: &mut dyn FnMut(&CandidateRow),
    ) {
        for s in targets.iter() {
            self.shards[s].for_each_candidate(probe, f);
        }
    }

    /// Gathers and selects for one due request. A fold policy has the
    /// rows streamed from the target shards straight into its fold — no
    /// candidate vector exists at any point — and a recording run gets its
    /// `selector.select` instant from the fold's counts; a slice policy
    /// gets the canonical ascending-IMEI merge. Read-only over the control
    /// plane; safe to run concurrently with other plans.
    fn plan_assign(&self, request: &Request, now: SimTime) -> AssignPlan {
        let probe = QualificationProbe::for_request(request);
        let targets = self.target_shards(&probe.region);
        if let Some(mut fold) = self.policy.fold(request, now) {
            self.for_each_candidate(&targets, &probe, &mut |row| fold.push(row));
            fold.record(&self.tel);
            return AssignPlan {
                qualified: fold.qualified(),
                satisfied: fold.would_select(),
                picked: fold.select_partial(),
            };
        }
        let candidates = Self::candidates_across(&self.shards, &targets, &probe);
        let (satisfied, picked) = match self.policy.select(request, &candidates, now) {
            Ok(picked) => (true, picked),
            Err(_) => (false, self.policy.select_partial(request, &candidates, now)),
        };
        AssignPlan {
            qualified: candidates.len(),
            satisfied,
            picked,
        }
    }

    /// The due-request loop, pipelined. Equivalence to the serial loop:
    ///
    /// * Nothing in the loop pushes run-queue entries (success activates,
    ///   failure parks on the *wait* queue, expiry drops), so draining
    ///   every due request up front yields exactly the sequence the serial
    ///   loop would have popped.
    /// * Deadlines are data and no commit mutates a task's status, so the
    ///   expire/skip/assign classification is fixed before phase 1.
    /// * The only candidate-affecting mutation a commit performs is
    ///   `bump_selected` on the devices it assigned. A bump never changes
    ///   qualification (the gather reads flags/sensor/type only) — it
    ///   strictly *worsens* the device: the fairness score term grows and
    ///   the max-selections cutoff can only newly exclude it. So a later
    ///   satisfied plan stays valid unless a bumped device sits in its own
    ///   selection — every selected member's score is untouched and every
    ///   outsider's only got worse, so the top-k is unchanged. An
    ///   unsatisfied plan can never turn satisfied (supply only shrank),
    ///   and its best-effort subset is *every* eligible device, so it too
    ///   changes only if one of its own members was bumped. Stale plans
    ///   are recomputed serially at commit time, which is exactly the
    ///   serial computation at the serial point in time.
    fn assign_due_pipelined(&mut self, now: SimTime, assignments: &mut Vec<Assignment>) {
        let mut due: Vec<Request> = Vec::new();
        while let Some(request) = self.pop_due_global(now) {
            due.push(request);
        }
        if due.is_empty() {
            return;
        }
        #[derive(Clone, Copy, PartialEq)]
        enum Disposition {
            Expire,
            Skip,
            Assign,
        }
        let dispositions: Vec<Disposition> = due
            .iter()
            .map(|request| {
                if request.deadline() <= now {
                    Disposition::Expire
                } else if self
                    .tasks
                    .get(request.task())
                    .map(|t| t.status != TaskStatus::Active)
                    .unwrap_or(true)
                {
                    Disposition::Skip // deleted while queued
                } else {
                    Disposition::Assign
                }
            })
            .collect();
        let work: Vec<usize> = dispositions
            .iter()
            .enumerate()
            .filter(|&(_, d)| *d == Disposition::Assign)
            .map(|(i, _)| i)
            .collect();
        let plans: Vec<AssignPlan> = {
            let this: &Coordinator = self;
            let due = &due;
            this.pool
                .map(work.clone(), |_, i| this.plan_assign(&due[i], now))
        };
        let mut plan_of: Vec<Option<AssignPlan>> = vec![None; due.len()];
        for (i, plan) in work.into_iter().zip(plans) {
            plan_of[i] = Some(plan);
        }
        // Phase 2: deterministic serial commit in the drained order. A
        // speculative plan survives earlier commits unless one of them
        // bumped a device the plan picked (see the staleness argument
        // above); stale plans are recomputed here, at the serial point in
        // time.
        let mut bumped: HashSet<ImeiHash> = HashSet::new();
        for (i, request) in due.into_iter().enumerate() {
            match dispositions[i] {
                Disposition::Expire => self.expire_request(&request, now),
                Disposition::Skip => {}
                Disposition::Assign => {
                    let mut plan = plan_of[i].take().expect("planned above");
                    if plan.picked.iter().any(|d| bumped.contains(d)) {
                        plan = self.plan_assign(&request, now);
                    }
                    match self.commit_assign(request, now, plan) {
                        Ok(assignment) => {
                            bumped.extend(assignment.devices.iter().copied());
                            self.set_status(assignment.request, RequestStatus::Assigned);
                            assignments.push(assignment);
                        }
                        Err(request) => self.park_request(request, now),
                    }
                }
            }
        }
    }

    /// The promotion probes for one parked request: whether full
    /// selection would succeed and, when it would not, whether best-effort
    /// service could field anyone. Gathers like
    /// [`plan_assign`](Self::plan_assign); read-only.
    fn plan_recheck(&self, request: &Request, now: SimTime) -> (bool, bool) {
        let probe = QualificationProbe::for_request(request);
        let targets = self.target_shards(&probe.region);
        if let Some(mut fold) = self.policy.fold(request, now) {
            self.for_each_candidate(&targets, &probe, &mut |row| fold.push(row));
            let would = fold.would_select();
            return (would, !would && fold.would_select_partial());
        }
        let candidates = Self::candidates_across(&self.shards, &targets, &probe);
        if self.policy.would_select(request, &candidates, now) {
            (true, false)
        } else {
            (
                false,
                self.policy.would_select_partial(request, &candidates, now),
            )
        }
    }

    /// [`recheck_wait_queue`](Self::recheck_wait_queue), pipelined: the
    /// memo-missed qualification probes run in parallel, everything else
    /// (expiry, memo upkeep, degraded-mode accounting, promotion) replays
    /// serially in the drained global order. Sound because the recheck
    /// loop never pushes wait entries (drain-first sees the same
    /// sequence) and nothing between drain and commit mutates device
    /// columns or `qual_epoch`, so the probes cannot go stale.
    fn recheck_wait_queue_pipelined(&mut self, now: SimTime) {
        let epoch = self.qual_epoch;
        let mut waiting: Vec<Request> = Vec::new();
        while let Some((shard, _)) = Self::min_head(&self.shards, Shard::wait_head_key) {
            waiting.push(self.shards[shard].pop_wait().expect("head key seen"));
        }
        if waiting.is_empty() {
            return;
        }
        #[derive(Clone, Copy)]
        enum Verdict {
            Expire,
            MemoHit(bool),
            Fresh,
        }
        let verdicts: Vec<Verdict> = waiting
            .iter()
            .map(|request| {
                if request.deadline() <= now {
                    Verdict::Expire
                } else {
                    match self.recheck_memo.get(&request.id()).copied() {
                        Some((e, partial)) if e == epoch => Verdict::MemoHit(partial),
                        _ => Verdict::Fresh,
                    }
                }
            })
            .collect();
        let fresh: Vec<usize> = verdicts
            .iter()
            .enumerate()
            .filter(|(_, v)| matches!(v, Verdict::Fresh))
            .map(|(i, _)| i)
            .collect();
        let probes: Vec<(bool, bool)> = {
            let this: &Coordinator = self;
            let waiting = &waiting;
            this.pool
                .map(fresh.clone(), |_, i| this.plan_recheck(&waiting[i], now))
        };
        let mut probe_of: Vec<Option<(bool, bool)>> = vec![None; waiting.len()];
        for (i, p) in fresh.into_iter().zip(probes) {
            probe_of[i] = Some(p);
        }
        let mut parked: Vec<Request> = Vec::new();
        for (i, request) in waiting.into_iter().enumerate() {
            let promote = match verdicts[i] {
                Verdict::Expire => {
                    self.expire_request(&request, now);
                    continue;
                }
                Verdict::MemoHit(partial) => {
                    Self::note_selection_failure(
                        &mut self.degrade_state,
                        &self.config,
                        &self.tel,
                        request.task(),
                        now,
                    ) && partial
                }
                Verdict::Fresh => {
                    let (would, partial) = probe_of[i].take().expect("planned above");
                    if would {
                        true
                    } else {
                        self.recheck_memo.insert(request.id(), (epoch, partial));
                        Self::note_selection_failure(
                            &mut self.degrade_state,
                            &self.config,
                            &self.tel,
                            request.task(),
                            now,
                        ) && partial
                    }
                }
            };
            if promote {
                self.recheck_memo.remove(&request.id());
                self.enqueue_run(request);
            } else {
                parked.push(request);
            }
        }
        if !self.recheck_memo.is_empty() {
            let parked_ids: BTreeSet<RequestId> = parked.iter().map(Request::id).collect();
            self.recheck_memo.retain(|id, _| parked_ids.contains(id));
        }
        for request in parked {
            self.enqueue_wait(request);
        }
    }

    // ------------------------------------------------------------------
    // Data path
    // ------------------------------------------------------------------

    pub fn submit_sensed_data(
        &mut self,
        imei: ImeiHash,
        request_id: RequestId,
        reading: &SensorReading,
        now: SimTime,
    ) -> Result<bool, SenseAidError> {
        let active = self
            .active
            .get(request_id)
            .ok_or(SenseAidError::UnknownRequest(request_id))?;
        if !active.assigned.contains(&imei) {
            return Err(SenseAidError::NotAssigned(imei, request_id));
        }
        if let Err(e) = self.validator.validate(reading) {
            self.stats.readings_rejected += 1;
            if let Some(idx) = self.device_index_mut(imei) {
                idx.set_data_valid(imei, false);
                self.qual_epoch += 1;
            }
            return Err(e);
        }
        let cell = self
            .home
            .get(&imei)
            .and_then(|&s| self.shards[s].device_cell(imei));
        let active = self.active.get_mut(request_id).expect("looked up above");
        let delivered = privacy::scrub(reading, imei, &active.request, cell, active.cas);
        self.outbox.push((active.cas, delivered));
        active.received.insert(imei);
        if self.delivered_log.insert((request_id, imei)) && self.track_dirty {
            self.delivered_since.push((request_id, imei));
        }
        self.stats.readings_accepted += 1;
        let fulfilled = active.received.len() >= active.request.density();
        let task = active.request.task();
        if fulfilled {
            self.active.remove(request_id);
            self.set_status(request_id, RequestStatus::Fulfilled);
            self.stats.requests_fulfilled += 1;
            if let Ok(t) = self.tasks.get_mut(task) {
                t.requests_fulfilled += 1;
            }
            if let Some(span) = self.request_spans.remove(&request_id) {
                self.tel
                    .instant("request.fulfilled", now, Lane::control(0), span, Vec::new());
                self.tel.exit(span, now);
            }
        }
        self.record_device_comm(imei, now)?;
        Ok(fulfilled)
    }

    /// Ingests one delivery envelope: a sequenced batch of readings from
    /// `imei`. Replayed envelopes (known sequence number) and replayed
    /// readings (known `(request, device)` pair) are deduplicated, and
    /// every outcome — including definitive rejections — is covered by the
    /// returned cumulative ack, so a client never retries in vain.
    pub fn submit_batch(
        &mut self,
        imei: ImeiHash,
        seq: u64,
        attempt: u32,
        readings: &[(RequestId, SensorReading)],
        now: SimTime,
    ) -> BatchReceipt {
        if attempt > 1 {
            self.stats.envelopes_retried += 1;
        }
        let lane = Lane::device(self.home.get(&imei).copied().unwrap_or(0) as u64, imei.0);
        if self.track_dirty {
            // Mark unconditionally: even a duplicate envelope can create
            // the per-device ledger entry, and a delta must capture it.
            self.dirty_seq.insert(imei);
        }
        let ledger = self.seq_ledger.entry(imei).or_default();
        if !ledger.accept(seq) {
            self.stats.envelopes_duplicate += 1;
            self.tel.instant(
                "envelope.duplicate",
                now,
                lane,
                SpanId::NONE,
                vec![
                    Attr::u64("seq", seq),
                    Attr::u64("attempt", u64::from(attempt)),
                ],
            );
            let ack = self.seq_ledger[&imei].cumulative();
            return BatchReceipt {
                ack,
                outcomes: Vec::new(),
            };
        }
        if self.tel.active() {
            let parent = readings
                .first()
                .map(|(r, _)| self.tel.tasking_span(r.0, imei.0))
                .unwrap_or(SpanId::NONE);
            self.tel.instant(
                "envelope.recv",
                now,
                lane,
                parent,
                vec![
                    Attr::u64("seq", seq),
                    Attr::u64("attempt", u64::from(attempt)),
                    Attr::u64("readings", readings.len() as u64),
                ],
            );
        }
        let mut outcomes = Vec::with_capacity(readings.len());
        for (request_id, reading) in readings {
            let outcome = if self.delivered_log.contains(&(*request_id, imei)) {
                self.stats.readings_duplicate += 1;
                DeliveryOutcome::Duplicate
            } else {
                match self.submit_sensed_data(imei, *request_id, reading, now) {
                    Ok(fulfilled) => DeliveryOutcome::Accepted { fulfilled },
                    // The request resolved without this device (fulfilled
                    // by others, expired, cancelled): nothing to deliver,
                    // but the envelope still counts as received.
                    Err(SenseAidError::UnknownRequest(id)) if self.statuses.contains_key(&id) => {
                        let _ = self.record_device_comm(imei, now);
                        DeliveryOutcome::Obsolete
                    }
                    Err(e) => DeliveryOutcome::Rejected(e),
                }
            };
            outcomes.push(outcome);
        }
        BatchReceipt {
            ack: self.seq_ledger[&imei].cumulative(),
            outcomes,
        }
    }

    /// Folds client-side drop totals into the server statistics (clients
    /// report them inside state updates).
    pub fn note_client_drops(&mut self, dropped: u64) {
        self.stats.client_readings_dropped += dropped;
    }

    pub fn drain_outbox(&mut self) -> Vec<(CasId, DeliveredReading)> {
        std::mem::take(&mut self.outbox)
    }

    // ------------------------------------------------------------------
    // Crash snapshot / recovery
    // ------------------------------------------------------------------

    /// Copies the control plane's durable state (see [`ControlSnapshot`]).
    /// The outbox is intentionally excluded: the harness drains it every
    /// tick, so un-forwarded readings at crash time are genuinely lost and
    /// must be re-covered by client retransmission.
    pub fn snapshot(&self, now: SimTime) -> ControlSnapshot {
        let view = self.view(now);
        ControlSnapshot {
            taken_at: now,
            tasks: self.tasks.clone(),
            next_request_id: self.next_request_id,
            statuses: self.statuses.clone(),
            task_owner: self.task_owner.clone(),
            queued_run: view.queued_run().cloned().collect(),
            queued_wait: view.queued_wait().cloned().collect(),
            active: self.active.iter().map(|(id, a)| (id, a.clone())).collect(),
            devices: view.devices().map(|record| record.to_record()).collect(),
            seq_ledger: self.seq_ledger.clone(),
            delivered_log: self.delivered_log.clone(),
            stats: self.stats,
            selections: self.selections.clone(),
        }
    }

    /// The same state, borrowed (see [`ControlView`]).
    pub(crate) fn view(&self, now: SimTime) -> ControlView<'_> {
        ControlView {
            taken_at: now,
            tasks: &self.tasks,
            next_request_id: self.next_request_id,
            statuses: &self.statuses,
            task_owner: &self.task_owner,
            active: &self.active,
            seq_ledger: &self.seq_ledger,
            delivered_log: &self.delivered_log,
            stats: self.stats,
            selections: &self.selections,
            shards: &self.shards,
            home: &self.home,
        }
    }

    /// Rebuilds the control plane from `snapshot`, then reconciles against
    /// `now`: requests whose deadlines passed during the outage — queued
    /// or assigned — are expired with truthful statuses, and silent
    /// assignees are marked unresponsive. Requests are re-homed through
    /// the normal enqueue path, so recovery is shard-count invariant.
    pub fn restore(&mut self, snapshot: ControlSnapshot, now: SimTime) {
        self.restore_base(snapshot);
        self.finish_restore(now);
    }

    /// The state-loading half of [`restore`](Self::restore): rebuilds the
    /// control plane from `snapshot` but runs no reconciliation pass.
    /// Durable recovery interposes journal replay between this and
    /// [`finish_restore`](Self::finish_restore) so replayed mutations see
    /// exactly the state they originally ran against.
    pub(crate) fn restore_base(&mut self, snapshot: ControlSnapshot) {
        let shard_count = self.shards.len();
        self.shards = (0..shard_count)
            .map(|_| Shard::new((self.index_factory)()))
            .collect();
        if self.track_dirty {
            for shard in &mut self.shards {
                shard.set_dirty_tracking(true);
            }
        }
        self.dirty_statuses.clear();
        self.dirty_seq.clear();
        self.delivered_since.clear();
        self.tasks = snapshot.tasks;
        self.next_request_id = snapshot.next_request_id;
        self.statuses = snapshot.statuses;
        self.task_owner = snapshot.task_owner;
        self.stats = snapshot.stats;
        self.seq_ledger = snapshot.seq_ledger;
        self.delivered_log = snapshot.delivered_log;
        self.selections = snapshot.selections;
        self.selections_mark = self.selections.len();
        self.active = ActiveSet::default();
        for (id, active) in snapshot.active {
            self.active.insert(id, active);
        }
        // Hysteresis state is in-memory only and restarts clean.
        self.degrade_state.clear();

        // The devices arrive as one run, strictly ascending by IMEI (the
        // decoder refuses anything else), and everything here is empty:
        // each map is built once from sorted input and each shard is
        // handed its share of the run whole, instead of a million
        // registrations.
        debug_assert!(
            snapshot.devices.windows(2).all(|w| w[0].imei < w[1].imei),
            "snapshot devices are strictly ascending by IMEI"
        );
        let homes: Vec<(ImeiHash, usize)> = snapshot
            .devices
            .iter()
            .map(|record| (record.imei, self.shard_of_cell(record.cell)))
            .collect();
        // Leases are re-armed from each restored record's last contact,
        // so a device that went silent across the crash still expires on
        // schedule — restore must never mint immortal devices.
        self.lease_expiry = match self.config.device_lease {
            Some(lease) => snapshot
                .devices
                .iter()
                .map(|record| (record.imei, record.last_comm + lease))
                .collect(),
            None => BTreeMap::new(),
        };
        self.recompute_earliest_lease();
        let mut sizes = vec![0usize; shard_count];
        for &(_, shard) in &homes {
            sizes[shard] += 1;
        }
        let mut per_shard: Vec<Vec<DeviceRecord>> =
            sizes.into_iter().map(Vec::with_capacity).collect();
        for (record, &(_, shard)) in snapshot.devices.into_iter().zip(&homes) {
            per_shard[shard].push(record);
        }
        for (shard, records) in self.shards.iter_mut().zip(per_shard) {
            shard.extend_devices(records);
        }
        self.home = homes.into_iter().collect();
        for request in snapshot.queued_run {
            self.enqueue_run(request);
        }
        for request in snapshot.queued_wait {
            self.enqueue_wait(request);
        }
    }

    /// The truth-pass half of [`restore`](Self::restore): reconciles the
    /// loaded state against `now` and invalidates memoised qualification.
    pub(crate) fn finish_restore(&mut self, now: SimTime) {
        self.reconcile(now);
        self.recheck_memo.clear();
        self.qual_epoch += 1;
        self.wait_dirty = true;
    }

    /// Deterministic cold start: recovery found *no* usable snapshot, so
    /// whatever the process still holds (or nothing, on a fresh boot) is
    /// all there is. Registered devices and their leases survive —
    /// registration state is the paper's "server owns it" claim — but
    /// in-flight tasking died with the process: every assignment is
    /// cleared, requests whose deadline passed are expired truthfully
    /// (degraded ones that delivered data finalise `Degraded`), and the
    /// rest return to the run queue to be re-announced on the next poll.
    pub fn cold_start(&mut self, now: SimTime) {
        let lost: Vec<(RequestId, ActiveRequest)> = self.active.take_all().collect();
        for (id, active) in lost {
            if active.request.deadline() <= now {
                if active.received.len() >= active.request.density() {
                    continue;
                }
                if active.degraded && !active.received.is_empty() {
                    self.finalise_degraded(&active.request, active.received.len(), now);
                    continue;
                }
                self.expire_request(&active.request, now);
                continue;
            }
            if let Some(span) = self.request_spans.remove(&id) {
                self.tel
                    .instant("request.orphaned", now, Lane::control(0), span, Vec::new());
                self.tel.exit(span, now);
            }
            // Still viable: re-announce through the normal queue path.
            // Progress survives — re-assignment seeds `received` from the
            // delivered log, exactly like a lease release.
            if self.set_status(id, RequestStatus::Pending) {
                self.enqueue_run(active.request);
            }
        }
        self.degrade_state.clear();
        self.finish_restore(now);
    }

    // ------------------------------------------------------------------
    // Dirty-column tracking (delta snapshots; see `persist`)
    // ------------------------------------------------------------------

    /// Turns dirty-column tracking on or off, here and in every shard's
    /// device index. Off clears all marks.
    pub(crate) fn set_dirty_tracking(&mut self, on: bool) {
        self.track_dirty = on;
        for shard in &mut self.shards {
            shard.set_dirty_tracking(on);
        }
        if !on {
            self.dirty_statuses.clear();
            self.dirty_seq.clear();
            self.delivered_since.clear();
        }
    }

    /// Forgets all dirty marks, called after a generation persisted
    /// successfully. The next delta is relative to that generation.
    pub(crate) fn clear_dirty(&mut self) {
        for shard in &mut self.shards {
            shard.clear_dirty();
        }
        self.dirty_statuses.clear();
        self.dirty_seq.clear();
        self.delivered_since.clear();
        self.selections_mark = self.selections.len();
    }

    /// Collects everything dirtied since the last [`clear_dirty`]
    /// (Self::clear_dirty) into a delta against that generation, or
    /// `None` when tracking is off or a shard's index cannot report
    /// (the caller then falls back to a full snapshot).
    pub(crate) fn snapshot_delta(&self, now: SimTime) -> Option<SnapshotDelta> {
        if !self.track_dirty {
            return None;
        }
        let mut touched: BTreeSet<ImeiHash> = BTreeSet::new();
        for shard in &self.shards {
            touched.extend(shard.dirty_touched()?);
        }
        let mut devices_changed = Vec::new();
        let mut devices_removed = Vec::new();
        for imei in touched {
            match self.device(imei) {
                Some(record) => devices_changed.push(record),
                None => devices_removed.push(imei),
            }
        }
        let view = self.view(now);
        Some(SnapshotDelta {
            taken_at: now,
            next_request_id: self.next_request_id,
            tasks: self.tasks.clone(),
            task_owner: self.task_owner.clone(),
            queued_run: view.queued_run().cloned().collect(),
            queued_wait: view.queued_wait().cloned().collect(),
            active: self.active.iter().map(|(id, a)| (id, a.clone())).collect(),
            stats: self.stats,
            devices_changed,
            devices_removed,
            statuses_changed: self
                .dirty_statuses
                .iter()
                .filter_map(|id| self.statuses.get(id).map(|s| (*id, *s)))
                .collect(),
            seq_changed: self
                .dirty_seq
                .iter()
                .map(|imei| {
                    (
                        *imei,
                        self.seq_ledger.get(imei).cloned().unwrap_or_default(),
                    )
                })
                .collect(),
            delivered_appended: self.delivered_since.clone(),
            selections_base_len: self.selections_mark,
            selections_appended: self.selections.entries()[self.selections_mark..].to_vec(),
        })
    }

    /// Swaps the telemetry handle, returning the previous one. Journal
    /// replay silences instrumentation (the events already fired in the
    /// original timeline) and restores the caller's handle afterwards.
    pub(crate) fn swap_telemetry(&mut self, tel: Telemetry) -> Telemetry {
        std::mem::replace(&mut self.tel, tel)
    }

    /// Emits an instant on behalf of the persistence layer, which has no
    /// telemetry handle of its own.
    pub(crate) fn persist_instant(&self, name: &str, now: SimTime, attrs: Vec<Attr>) {
        self.tel
            .instant(name, now, Lane::control(0), SpanId::NONE, attrs);
    }

    /// Expires everything the outage made hopeless: in-flight assignments
    /// past their grace window and queued requests past their deadline.
    /// Also run on a recovery without a snapshot, where the surviving
    /// in-memory state needs the same truth pass.
    pub fn reconcile(&mut self, now: SimTime) {
        self.expire_leases(now);
        self.expire_overdue(now);
        while let Some((shard, key)) = Self::min_head(&self.shards, Shard::run_head_key) {
            if key.0 > now {
                break;
            }
            let request = self.shards[shard].pop_run().expect("head key seen");
            self.expire_request(&request, now);
        }
        while let Some((shard, key)) = Self::min_head(&self.shards, Shard::wait_head_key) {
            if key.0 > now {
                break;
            }
            let request = self.shards[shard].pop_wait().expect("head key seen");
            self.expire_request(&request, now);
        }
    }

    // ------------------------------------------------------------------
    // Wakeup support (see `scheduler`)
    // ------------------------------------------------------------------

    pub fn wait_dirty(&self) -> bool {
        self.wait_dirty
    }

    pub(crate) fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The earliest deadline among in-flight assignments — the base of
    /// the scheduler's `active_grace` wakeup term.
    pub(crate) fn earliest_active_deadline(&self) -> Option<SimTime> {
        self.active.earliest_deadline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ScoredPolicy;
    use crate::store::device_store::DeviceStore;
    use senseaid_geo::TowerSite;

    fn index() -> Box<dyn DeviceIndex> {
        Box::new(DeviceStore::new())
    }

    fn coordinator(shards: usize) -> Coordinator {
        let config = SenseAidConfig {
            shard_count: shards,
            ..SenseAidConfig::default()
        };
        let policy = ScoredPolicy::new(config.weights, config.cutoffs);
        Coordinator::new(config, Box::new(policy), index)
    }

    fn centre() -> GeoPoint {
        GeoPoint::new(40.4284, -86.9138)
    }

    /// Two disjoint cells 2 km apart; with two shards, cell 0 maps to
    /// shard 0 and cell 1 to shard 1.
    fn two_cell_network() -> (CellularNetwork, GeoPoint, GeoPoint) {
        let a = centre();
        let b = centre().offset_by_meters(0.0, 2000.0);
        let net = CellularNetwork::new(vec![
            TowerSite {
                index: 0,
                position: a,
                coverage_m: 900.0,
            },
            TowerSite {
                index: 1,
                position: b,
                coverage_m: 900.0,
            },
        ]);
        (net, a, b)
    }

    fn spec_at(centre: GeoPoint, radius: f64) -> TaskSpec {
        TaskSpec::builder(Sensor::Barometer)
            .region(CircleRegion::new(centre, radius))
            .spatial_density(1)
            .sampling_period(SimDuration::from_mins(5))
            .sampling_duration(SimDuration::from_mins(10))
            .build()
            .unwrap()
    }

    #[test]
    fn requests_home_on_their_regions_shard() {
        let (net, _, b) = two_cell_network();
        let mut coord = coordinator(2);
        coord.set_topology(net);

        // A region covered only by cell 1 homes its requests on shard 1,
        // not unconditionally on shard 0.
        coord.submit_task_for(CasId(0), spec_at(b, 100.0), SimTime::ZERO);
        assert_eq!(coord.shards()[0].run_queue_len(), 0);
        assert!(coord.shards()[1].run_queue_len() > 0);

        // With no qualifying device the due request parks — on that same
        // home shard.
        assert!(coord.poll(SimTime::ZERO).is_empty());
        assert_eq!(coord.shards()[0].wait_queue_len(), 0);
        assert_eq!(coord.shards()[1].wait_queue_len(), 1);
    }

    #[test]
    fn spanning_requests_home_on_lowest_covered_shard() {
        let (net, a, _) = two_cell_network();
        let mut coord = coordinator(2);
        coord.set_topology(net);

        // A region touching both cells homes on the lowest covered shard.
        let midpoint = a.offset_by_meters(0.0, 1000.0);
        coord.submit_task_for(CasId(0), spec_at(midpoint, 1900.0), SimTime::ZERO);
        assert!(coord.shards()[0].run_queue_len() > 0);
        assert_eq!(coord.shards()[1].run_queue_len(), 0);
    }

    // ---- delivery envelopes & crash recovery ----

    use crate::store::device_store::new_record;

    fn register(coord: &mut Coordinator, imei: u64) {
        coord.register_device(new_record(
            ImeiHash(imei),
            495.0,
            15.0,
            90.0,
            vec![Sensor::Barometer],
            "GalaxyS4".to_owned(),
            SimTime::ZERO,
        ));
        coord
            .observe_device(ImeiHash(imei), centre(), None)
            .unwrap();
    }

    fn reading() -> SensorReading {
        SensorReading {
            sensor: Sensor::Barometer,
            value: 1000.0,
            taken_at: SimTime::ZERO,
            position: centre(),
        }
    }

    #[test]
    fn seq_ledger_tracks_cumulative_and_out_of_order() {
        let mut ledger = SeqLedger::default();
        assert!(ledger.accept(1));
        assert!(!ledger.accept(1), "replay rejected");
        assert_eq!(ledger.cumulative(), 1);
        assert!(ledger.accept(3), "gap is held ahead");
        assert_eq!(ledger.cumulative(), 1, "gap blocks the cumulative ack");
        assert!(ledger.accept(2), "gap fills");
        assert_eq!(ledger.cumulative(), 3);
        assert!(!ledger.accept(2), "filled gap is a replay");
    }

    #[test]
    fn submit_batch_dedups_envelopes_and_readings() {
        let mut coord = coordinator(1);
        register(&mut coord, 1);
        coord.submit_task_for(CasId(0), spec_at(centre(), 500.0), SimTime::ZERO);
        let assignments = coord.poll(SimTime::ZERO);
        let request = assignments[0].request;

        let batch = [(request, reading())];
        let receipt = coord.submit_batch(ImeiHash(1), 1, 1, &batch, SimTime::ZERO);
        assert_eq!(receipt.ack, 1);
        assert!(matches!(
            receipt.outcomes[..],
            [DeliveryOutcome::Accepted { fulfilled: true }]
        ));

        // The exact retransmit is swallowed at the envelope layer.
        let replay = coord.submit_batch(ImeiHash(1), 1, 2, &batch, SimTime::ZERO);
        assert_eq!(replay.ack, 1);
        assert!(replay.outcomes.is_empty());
        assert_eq!(coord.stats().envelopes_duplicate, 1);
        assert_eq!(coord.stats().envelopes_retried, 1);
        assert_eq!(coord.stats().readings_accepted, 1, "no double count");
    }

    #[test]
    fn submit_batch_marks_resolved_requests_obsolete() {
        let mut coord = coordinator(1);
        register(&mut coord, 1);
        coord.submit_task_for(CasId(0), spec_at(centre(), 500.0), SimTime::ZERO);
        let request = coord.poll(SimTime::ZERO)[0].request;
        let batch = [(request, reading())];
        coord.submit_batch(ImeiHash(1), 1, 1, &batch, SimTime::ZERO);

        // A late copy of the fulfilled request from another device is
        // acked as obsolete, not an error — the sender must stop retrying.
        let late = coord.submit_batch(ImeiHash(2), 1, 1, &batch, SimTime::ZERO);
        assert!(matches!(late.outcomes[..], [DeliveryOutcome::Obsolete]));

        // The same device re-sending under a fresh seq dedups per reading.
        let fresh = coord.submit_batch(ImeiHash(1), 2, 1, &batch, SimTime::ZERO);
        assert_eq!(fresh.ack, 2);
        assert!(matches!(fresh.outcomes[..], [DeliveryOutcome::Duplicate]));
        assert_eq!(coord.stats().readings_duplicate, 1);
    }

    #[test]
    fn restore_rebuilds_devices_queues_and_dedup_state() {
        let mut coord = coordinator(2);
        register(&mut coord, 1);
        register(&mut coord, 2);
        coord.submit_task_for(CasId(0), spec_at(centre(), 500.0), SimTime::ZERO);
        let request = coord.poll(SimTime::ZERO)[0].request;
        let batch = [(request, reading())];
        coord.submit_batch(ImeiHash(1), 1, 1, &batch, SimTime::ZERO);

        let snapshot = coord.snapshot(SimTime::from_secs(1));
        assert_eq!(snapshot.device_count(), 2);

        // Post-snapshot state is rolled back by restore…
        register(&mut coord, 3);
        coord.restore(snapshot, SimTime::from_secs(2));
        assert!(coord.device(ImeiHash(3)).is_none());
        assert_eq!(coord.device_count(), 2);
        // …and the dedup ledgers survive the crash: the retransmit of the
        // pre-crash envelope is still swallowed.
        let replay = coord.submit_batch(ImeiHash(1), 1, 2, &batch, SimTime::from_secs(2));
        assert!(replay.outcomes.is_empty());
        // Future requests are still queued (sampling_duration 10 min).
        assert!(coord.run_queue_len() > 0);
    }

    #[test]
    fn restore_expires_requests_whose_deadlines_passed_in_the_outage() {
        let mut coord = coordinator(1);
        register(&mut coord, 1);
        let task = coord.submit_task_for(CasId(0), spec_at(centre(), 500.0), SimTime::ZERO);
        let queued_before = coord.run_queue_len();
        assert!(queued_before > 0);
        let snapshot = coord.snapshot(SimTime::ZERO);

        // Recover an hour later: every deadline passed during the outage.
        coord.restore(snapshot, SimTime::from_mins(60));
        assert_eq!(coord.run_queue_len(), 0);
        assert_eq!(coord.wait_queue_len(), 0);
        assert_eq!(
            coord.stats().requests_expired as usize,
            queued_before,
            "outage-overrun requests expire truthfully"
        );
        let state = coord.tasks.get(task).unwrap();
        assert_eq!(state.requests_expired, queued_before);
    }

    mod active_index {
        use super::*;
        use proptest::prelude::*;

        /// What the wakeup term and `expire_overdue` computed before the
        /// deadlines were indexed: a scan of every in-flight assignment.
        fn scan(coord: &Coordinator, now: SimTime) -> (Option<SimTime>, Vec<RequestId>) {
            let grace = coord.config.unresponsive_grace;
            let deadlines = coord.active.iter().map(|(_, a)| a.request.deadline());
            let overdue = coord
                .active
                .iter()
                .filter(|(_, a)| a.request.deadline() + grace <= now)
                .map(|(id, _)| id)
                .collect();
            (deadlines.min(), overdue)
        }

        proptest! {
            /// Through any sequence of assignments, fulfilments, lease
            /// evictions, expiries and task deletions, the ordered
            /// deadlines answer exactly what the scan answers.
            #[test]
            fn ordered_deadlines_equal_a_full_scan(
                ops in prop::collection::vec((0u32..7, 0usize..12, 1u64..200), 1..80),
            ) {
                let config = SenseAidConfig {
                    device_lease: Some(SimDuration::from_mins(4)),
                    ..SenseAidConfig::default()
                };
                let grace = config.unresponsive_grace;
                let policy = ScoredPolicy::new(config.weights, config.cutoffs);
                let mut coord = Coordinator::new(config, Box::new(policy), index);
                for imei in 1..=12 {
                    register(&mut coord, imei);
                }
                let mut now = SimTime::ZERO;
                let mut tasks: Vec<TaskId> = Vec::new();
                let mut outstanding: Vec<Assignment> = Vec::new();
                for (op, pick, step) in ops {
                    match op {
                        0 => {
                            let period = SimDuration::from_mins(1 + pick as u64 % 4);
                            let spec = TaskSpec::builder(Sensor::Barometer)
                                .region(CircleRegion::new(centre(), 300.0))
                                .spatial_density(1 + pick % 3)
                                .sampling_period(period)
                                .sampling_duration(period * 3)
                                .build()
                                .unwrap();
                            tasks.push(coord.submit_task_for(CasId(0), spec, now));
                        }
                        1 => outstanding.extend(coord.poll(now)),
                        2 => {
                            if !outstanding.is_empty() {
                                let a = &outstanding[pick % outstanding.len()];
                                let device = a.devices[pick % a.devices.len()];
                                let _ = coord.submit_sensed_data(device, a.request, &reading(), now);
                            }
                        }
                        3 => now += SimDuration::from_secs(step),
                        4 => {
                            let _ = coord.record_device_comm(ImeiHash(1 + pick as u64), now);
                        }
                        5 => {
                            if !tasks.is_empty() {
                                let _ = coord.delete_task(tasks[pick % tasks.len()]);
                            }
                        }
                        _ => {
                            // Far enough for leases to lapse and grace
                            // windows to close.
                            now += SimDuration::from_secs(step * 10);
                            outstanding.extend(coord.poll(now));
                        }
                    }
                    for at in [now, now + SimDuration::from_mins(1), now + SimDuration::from_mins(10)] {
                        let (earliest, overdue) = scan(&coord, at);
                        prop_assert_eq!(coord.earliest_active_deadline(), earliest);
                        prop_assert_eq!(coord.active.overdue(grace, at), overdue);
                    }
                }
            }
        }
    }
}
