//! The Sense-Aid server (paper §3.2, Algorithm 1).
//!
//! The server is deployed at the cellular edge. This module is a thin
//! availability facade over the cell-sharded control plane in
//! `coordinator`: it owns the up/down switch used for crash injection and
//! forwards every API to the coordinator, which fans work out across
//! per-cell shards.
//!
//! Each [`SenseAidServer::poll`] call:
//!
//! 1. expires overdue requests and marks silent assignees unresponsive;
//! 2. re-checks the wait queues for now-satisfiable requests
//!    (`wait_check_thread`);
//! 3. pops due requests off the run queues in global deadline order,
//!    computes the *qualified* devices for each, runs the selection
//!    policy, and emits [`Assignment`]s (or parks the request in the wait
//!    queue when `n > N`).
//!
//! Instead of polling on a fixed period, drivers can ask
//! [`SenseAidServer::next_wakeup`] when the next poll could possibly matter
//! and sleep until then (see [`crate::scheduler`]). Sensed data flows back
//! through [`SenseAidServer::submit_sensed_data`], which validates it,
//! scrubs identity (see [`crate::privacy`]), and queues it for the owning
//! application server.

use senseaid_cellnet::{CellId, CellularNetwork};
use senseaid_device::{ImeiHash, Sensor, SensorReading};
use senseaid_geo::{CircleRegion, GeoPoint};
use senseaid_sim::{SimDuration, SimTime, TraceLog};

use crate::cas::{CasId, DeliveredReading};
use crate::config::SenseAidConfig;
use crate::coordinator::Coordinator;
pub use crate::coordinator::{
    Assignment, BatchReceipt, ControlSnapshot, DeliveryOutcome, SelectionEvent, ServerStats,
};
use crate::error::SenseAidError;
use crate::persist::chain::{recover_chain, Persistor};
use crate::persist::codec::ByteWriter;
use crate::persist::journal::JournalOp;
use crate::persist::snapshot::write_full;
use crate::persist::{PersistConfig, PersistError, PersistStats, RecoveryReport, StorageBackend};
use crate::policy::{ScoredPolicy, SelectionPolicy};
use crate::request::{Request, RequestId, RequestStatus};
use crate::store::device_store::{new_record, DeviceRecord};
use crate::store::soa_store::SoaDeviceStore;
use crate::store::{DeviceIndex, QualificationProbe};
use crate::task::{TaskId, TaskSpec};

fn default_index() -> Box<dyn DeviceIndex> {
    Box::new(SoaDeviceStore::new())
}

/// The Sense-Aid middleware server. See the [crate docs](crate) for an
/// end-to-end example.
#[derive(Debug)]
pub struct SenseAidServer {
    coordinator: Coordinator,
    up: bool,
    snapshot_interval: Option<SimDuration>,
    last_snapshot_at: Option<SimTime>,
    snapshot: Option<ControlSnapshot>,
    persist: Option<Persistor>,
    last_recovery: Option<RecoveryReport>,
}

impl SenseAidServer {
    /// Creates a server with the given configuration and the paper's
    /// scored selection policy.
    pub fn new(config: SenseAidConfig) -> Self {
        let policy = ScoredPolicy::new(config.weights, config.cutoffs);
        Self::with_policy(config, Box::new(policy))
    }

    /// Creates a server with a custom selection policy (e.g. one of the
    /// comparison baselines) over the default device store.
    pub fn with_policy(config: SenseAidConfig, policy: Box<dyn SelectionPolicy>) -> Self {
        Self::with_parts(config, policy, default_index)
    }

    /// Creates a server from explicit parts: a selection policy plus a
    /// factory producing one [`DeviceIndex`] per shard.
    pub fn with_parts(
        config: SenseAidConfig,
        policy: Box<dyn SelectionPolicy>,
        index_factory: fn() -> Box<dyn DeviceIndex>,
    ) -> Self {
        SenseAidServer {
            coordinator: Coordinator::new(config, policy, index_factory),
            up: true,
            snapshot_interval: None,
            last_snapshot_at: None,
            snapshot: None,
            persist: None,
            last_recovery: None,
        }
    }

    /// Attaches the cellular topology used to prune request fan-out to the
    /// shards whose cells overlap the request region. Without a topology
    /// every request targets every shard (correct, just not minimal).
    pub fn set_topology(&mut self, network: CellularNetwork) {
        self.coordinator.set_topology(network);
    }

    /// Routes the control plane's instrumentation into `tel`. Deployment
    /// plumbing like [`set_topology`](Self::set_topology): allowed while
    /// the server is down.
    pub fn set_telemetry(&mut self, tel: senseaid_telemetry::Telemetry) {
        self.coordinator.set_telemetry(tel);
    }

    /// The shard `imei` is homed on, for telemetry lane assignment.
    /// Readable while down (lanes describe layout, not liveness).
    pub fn device_home_shard(&self, imei: senseaid_device::ImeiHash) -> Option<usize> {
        self.coordinator.device_home_shard(imei)
    }

    /// The configuration.
    pub fn config(&self) -> &SenseAidConfig {
        self.coordinator.config()
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> ServerStats {
        self.coordinator.stats()
    }

    /// How many shards the control plane runs.
    pub fn shard_count(&self) -> usize {
        self.coordinator.shard_count()
    }

    /// The worker count the poll pipeline resolved at construction
    /// ([`SenseAidConfig::shard_workers`], the `SENSEAID_SHARD_WORKERS`
    /// environment variable, or the machine's parallelism). One means the
    /// serial legacy poll path; scheduling output is byte-identical for
    /// every value.
    pub fn shard_workers(&self) -> usize {
        self.coordinator.shard_workers()
    }

    /// Registered device count.
    pub fn device_count(&self) -> usize {
        self.coordinator.device_count()
    }

    /// Stored task count.
    pub fn task_count(&self) -> usize {
        self.coordinator.task_count()
    }

    /// Requests currently waiting for devices.
    pub fn wait_queue_len(&self) -> usize {
        self.coordinator.wait_queue_len()
    }

    /// Requests queued but not yet due/assigned.
    pub fn run_queue_len(&self) -> usize {
        self.coordinator.run_queue_len()
    }

    /// A registered device's record (an owned copy materialised from the
    /// backing store's columns), or `None` if unknown.
    pub fn device(&self, imei: ImeiHash) -> Option<DeviceRecord> {
        self.coordinator.device(imei)
    }

    /// The full selection history (paper Fig 9).
    pub fn selection_history(&self) -> &TraceLog<SelectionEvent> {
        self.coordinator.selections()
    }

    /// The lifecycle status of a request, or `None` for an unknown id.
    pub fn request_status(&self, id: RequestId) -> Option<RequestStatus> {
        self.coordinator.request_status(id)
    }

    /// Every request id with its current lifecycle status, in id order.
    pub fn request_statuses(&self) -> impl Iterator<Item = (RequestId, RequestStatus)> + '_ {
        self.coordinator.request_statuses()
    }

    /// Requests whose status is not yet terminal (queued, parked, or
    /// assigned). Zero means every request ever generated has reached a
    /// truthful final status — the overload acceptance criterion.
    pub fn unresolved_request_count(&self) -> usize {
        self.coordinator.unresolved_request_count()
    }

    /// Replaces the shed policy consulted when a bounded wait queue
    /// overflows (default: [`crate::policy::DropNewest`]). Deployment
    /// plumbing like [`set_topology`](Self::set_topology): allowed while
    /// the server is down.
    pub fn set_shed_policy(&mut self, policy: Box<dyn crate::policy::ShedPolicy>) {
        self.coordinator.set_shed_policy(policy);
    }

    /// Whether the server process is up. When down every API returns
    /// [`SenseAidError::ServerUnavailable`] and the eNodeBs fall back to
    /// path-1 routing.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Crash-injects the server.
    pub fn crash(&mut self) {
        self.up = false;
    }

    /// Restarts the server. Registered state survives (persisted at the
    /// edge); in-flight assignments were lost on devices and expire.
    pub fn recover(&mut self) {
        self.up = true;
    }

    // --- Crash snapshots & truthful recovery ---

    /// Turns on periodic control-plane snapshots: once `interval` has
    /// elapsed since the last one, the next [`tick_snapshot`]
    /// (Self::tick_snapshot) call persists a fresh [`ControlSnapshot`].
    pub fn enable_snapshots(&mut self, interval: SimDuration) {
        self.snapshot_interval = Some(interval);
    }

    /// Takes a periodic snapshot if snapshots are enabled, the server is
    /// up, and the configured interval has elapsed. Returns `true` when a
    /// snapshot was taken. Drivers call this once per tick.
    pub fn tick_snapshot(&mut self, now: SimTime) -> bool {
        let Some(interval) = self.snapshot_interval else {
            return false;
        };
        if !self.up {
            return false;
        }
        let due = match self.last_snapshot_at {
            None => true,
            Some(at) => now.elapsed_since(at) >= interval,
        };
        if due {
            self.take_snapshot(now);
        }
        due
    }

    /// Unconditionally persists a control-plane snapshot at `now`.
    ///
    /// Without durable persistence this stores an in-memory
    /// [`ControlSnapshot`]. With [`enable_persistence`]
    /// (Self::enable_persistence) it writes the next generation to the
    /// storage backend instead — a delta of the columns dirtied since the
    /// last generation when possible, a full snapshot every
    /// [`PersistConfig::full_every`] generations or when delta tracking
    /// cannot report. Dirty marks are cleared only when the backend
    /// accepted the write, so a refused write retries with a superset
    /// delta next time; a state too large for the snapshot format is
    /// refused the same way (counted in
    /// [`PersistStats::snapshot_write_failures`]) and the server runs on
    /// from its previous generation and the journal.
    pub fn take_snapshot(&mut self, now: SimTime) {
        let Some(persist) = self.persist.as_mut() else {
            self.snapshot = Some(self.coordinator.snapshot(now));
            self.last_snapshot_at = Some(now);
            return;
        };
        let (result, full) = if persist.wants_full() {
            (persist.persist_full(&self.coordinator.view(now)), true)
        } else {
            match self.coordinator.snapshot_delta(now) {
                Some(delta) => (persist.persist_delta(&delta), false),
                None => (persist.persist_full(&self.coordinator.view(now)), true),
            }
        };
        if let Ok(bytes) = result {
            let generation = persist.generation();
            self.coordinator.clear_dirty();
            self.coordinator.persist_instant(
                "snapshot.persist",
                now,
                vec![
                    senseaid_telemetry::Attr::u64("generation", generation),
                    senseaid_telemetry::Attr::u64("bytes", bytes),
                    senseaid_telemetry::Attr::flag("full", full),
                ],
            );
        }
        self.last_snapshot_at = Some(now);
    }

    /// When the last snapshot was persisted, if any.
    pub fn last_snapshot_at(&self) -> Option<SimTime> {
        self.last_snapshot_at
    }

    /// Restarts the server *from its last snapshot*, reconciling against
    /// `now`: state since the snapshot is rolled back (clients re-announce
    /// on next contact and retransmit unacked batches), requests whose
    /// deadlines passed during the outage are expired with truthful
    /// statuses, and queue homing is recomputed.
    ///
    /// With durable persistence enabled this recovers from the attached
    /// storage backend instead — snapshot chain plus journal replay, see
    /// [`recover_from_storage`](Self::recover_from_storage).
    ///
    /// Without any snapshot this is a deterministic *cold start*, not a
    /// silent no-op: registered devices and their leases survive (the
    /// paper's "server owns registration" claim), but every in-flight
    /// assignment is cleared — overdue requests are expired with truthful
    /// statuses and still-viable ones return to the run queue to be
    /// re-announced on the next poll.
    pub fn recover_at(&mut self, now: SimTime) {
        self.up = true;
        if let Some(persist) = self.persist.take() {
            let config = persist.config();
            let storage = persist.into_storage();
            let _ = self.recover_from_storage(storage, config, now);
            return;
        }
        match self.snapshot.clone() {
            Some(snapshot) => self.coordinator.restore(snapshot, now),
            None => self.coordinator.cold_start(now),
        }
    }

    // --- Durable persistence (see `crate::persist`) ---

    /// Attaches a durable storage backend: writes an initial full
    /// snapshot as the next generation, turns on dirty-column tracking
    /// (so later [`take_snapshot`](Self::take_snapshot) calls can persist
    /// deltas), and starts journaling every control-plane mutation.
    ///
    /// # Errors
    ///
    /// [`PersistError::Storage`] when the initial snapshot cannot be
    /// written, [`PersistError::TooLarge`] when the state does not fit
    /// the snapshot format; the server is left without persistence, as
    /// before the call.
    pub fn enable_persistence(
        &mut self,
        storage: Box<dyn StorageBackend>,
        config: PersistConfig,
        now: SimTime,
    ) -> Result<(), PersistError> {
        self.coordinator.set_dirty_tracking(true);
        match Persistor::initialise(storage, config, &self.coordinator.view(now), 0) {
            Ok(persistor) => {
                self.coordinator.clear_dirty();
                self.persist = Some(persistor);
                self.snapshot = None;
                self.last_snapshot_at = Some(now);
                Ok(())
            }
            Err(e) => {
                self.coordinator.set_dirty_tracking(false);
                Err(e)
            }
        }
    }

    /// Recovers the control plane from `storage` and re-arms persistence
    /// on it: walks the snapshot chain newest-first skipping corrupt
    /// generations, replays the validated journal prefix through the real
    /// coordinator (with instrumentation silenced — those events already
    /// fired in the original timeline), reconciles against `now`, and
    /// writes a fresh full snapshot as the next generation. The report
    /// says exactly what was lost; the lost window is conservative (it
    /// may cover mutations that in fact survived, never the reverse).
    ///
    /// Never panics and never loads corrupt state: when nothing on disk
    /// validates, the server cold-starts truthfully and the report says
    /// so.
    ///
    /// # Errors
    ///
    /// [`PersistError::Storage`] when the post-recovery snapshot cannot
    /// be written. The in-memory recovery has still happened; persistence
    /// is simply not re-armed.
    pub fn recover_from_storage(
        &mut self,
        storage: Box<dyn StorageBackend>,
        config: PersistConfig,
        now: SimTime,
    ) -> Result<RecoveryReport, PersistError> {
        self.up = true;
        self.snapshot = None;
        let recovery = recover_chain(storage.as_ref());
        let ops_replayed = recovery.ops.len() as u64;
        let cold_start = recovery.state.is_none();
        // Recovery cannot run before its own durable state: a wall clock
        // that restarted from zero would otherwise replay leases and
        // deadlines backwards. Clamp forward to the newest instant the
        // disk attests to.
        let durable_horizon = recovery
            .state
            .as_ref()
            .map(|(snapshot, _, _)| snapshot.taken_at())
            .unwrap_or(SimTime::ZERO)
            .max(
                recovery
                    .ops
                    .iter()
                    .filter_map(|op| op.stamp())
                    .max()
                    .unwrap_or(SimTime::ZERO),
            );
        let now = now.max(durable_horizon);
        let (loaded_generation, next_seq, loss_floor) = match recovery.state {
            Some((snapshot, watermark, generation)) => {
                let loss_floor = snapshot.taken_at();
                self.coordinator.restore_base(snapshot);
                let quiet = self
                    .coordinator
                    .swap_telemetry(senseaid_telemetry::Telemetry::off());
                for op in recovery.ops {
                    op.apply(&mut self.coordinator);
                }
                let _ = self.coordinator.swap_telemetry(quiet);
                self.coordinator.finish_restore(now);
                (Some(generation), watermark + ops_replayed, loss_floor)
            }
            None => {
                self.coordinator.cold_start(now);
                (None, 0, SimTime::ZERO)
            }
        };
        let lost_window = if cold_start || recovery.journal_bytes_dropped > 0 {
            Some((loss_floor, now))
        } else {
            None
        };
        let report = RecoveryReport {
            loaded_generation,
            max_generation_seen: recovery.max_generation_seen,
            corrupt_generations: recovery.corrupt_generations,
            ops_replayed,
            journal_bytes_dropped: recovery.journal_bytes_dropped,
            cold_start,
            lost_window,
            recovered_at: now,
            durable_horizon,
        };
        self.coordinator.persist_instant(
            "recovery.complete",
            now,
            vec![
                senseaid_telemetry::Attr::u64("ops_replayed", ops_replayed),
                senseaid_telemetry::Attr::u64(
                    "journal_bytes_dropped",
                    report.journal_bytes_dropped,
                ),
                senseaid_telemetry::Attr::flag("cold_start", cold_start),
            ],
        );
        self.last_recovery = Some(report.clone());
        self.coordinator.set_dirty_tracking(true);
        match Persistor::initialise(storage, config, &self.coordinator.view(now), next_seq) {
            Ok(persistor) => {
                self.coordinator.clear_dirty();
                self.persist = Some(persistor);
                self.last_snapshot_at = Some(now);
                Ok(report)
            }
            Err(e) => {
                self.coordinator.set_dirty_tracking(false);
                Err(e)
            }
        }
    }

    /// Detaches and returns the storage backend, disabling persistence.
    /// Crash simulation uses this as "the process died, the disk
    /// survived": detach, build a fresh server, hand the backend to
    /// [`recover_from_storage`](Self::recover_from_storage). Records
    /// still held by [`hold_journal`](Self::hold_journal) are written
    /// first; to lose them, drop the server instead.
    pub fn detach_persistence(&mut self) -> Option<Box<dyn StorageBackend>> {
        self.coordinator.set_dirty_tracking(false);
        self.persist.take().map(Persistor::into_storage)
    }

    /// The report from the most recent
    /// [`recover_from_storage`](Self::recover_from_storage), if any.
    pub fn last_recovery_report(&self) -> Option<&RecoveryReport> {
        self.last_recovery.as_ref()
    }

    /// Write-side persistence counters, or `None` when persistence is
    /// not enabled.
    pub fn persist_stats(&self) -> Option<PersistStats> {
        self.persist.as_ref().map(Persistor::stats)
    }

    /// The current snapshot generation, or `None` when persistence is
    /// not enabled.
    pub fn persist_generation(&self) -> Option<u64> {
        self.persist.as_ref().map(Persistor::generation)
    }

    /// A canonical byte encoding of the entire control-plane state at
    /// `now`, independent of persistence (the journal watermark is pinned
    /// to zero). Two servers are observably equivalent iff their digests
    /// are byte-identical — the twin-server equivalence check used by the
    /// recovery tests and `senseaid recover`.
    pub fn durable_digest(&self, now: SimTime) -> Vec<u8> {
        let mut w = ByteWriter::new();
        write_full(&mut w, &self.coordinator.view(now), 0)
            .expect("a resident population's device count fits the format's u32");
        w.into_bytes()
    }

    /// The coordinator's state as a [`ControlSnapshot`], without storing
    /// or persisting it (codec tests and twin comparisons).
    #[cfg(test)]
    pub(crate) fn control_snapshot(&self, now: SimTime) -> ControlSnapshot {
        self.coordinator.snapshot(now)
    }

    /// Opens a bracket in which journal records are encoded but kept in
    /// memory; [`commit_journal`](Self::commit_journal) closes it by
    /// writing them to storage as one batch. Outside a bracket — the
    /// default, and what every caller but the live TCP server uses —
    /// each record is written before the mutating call returns.
    ///
    /// The caller owns the consequence: nothing that reveals a held
    /// mutation (a response, a push) may leave the process before the
    /// commit. A snapshot taken inside the bracket writes the held
    /// records first. A no-op without persistence.
    pub fn hold_journal(&mut self) {
        if let Some(persist) = self.persist.as_mut() {
            persist.hold();
        }
    }

    /// Closes a [`hold_journal`](Self::hold_journal) bracket. Storage
    /// refusals are counted in [`PersistStats::append_failures`], one per
    /// record. Free when nothing is pending.
    pub fn commit_journal(&mut self) {
        if let Some(persist) = self.persist.as_mut() {
            persist.commit();
        }
    }

    /// Appends one journal record when persistence is armed. The op is
    /// built lazily so the clones it captures cost nothing on the
    /// in-memory (persistence-off) hot path.
    fn journal(&mut self, op: impl FnOnce() -> JournalOp) {
        if let Some(persist) = self.persist.as_mut() {
            persist.append_op(&op());
        }
    }

    fn ensure_up(&self) -> Result<(), SenseAidError> {
        if self.up {
            Ok(())
        } else {
            Err(SenseAidError::ServerUnavailable)
        }
    }

    // --- Device-side API (driven by the client library / eNodeB observations) ---

    /// Registers a device for crowdsensing (client `register()` call).
    ///
    /// # Errors
    ///
    /// [`SenseAidError::ServerUnavailable`] when crashed.
    #[allow(clippy::too_many_arguments)]
    pub fn register_device(
        &mut self,
        imei: ImeiHash,
        energy_budget_j: f64,
        critical_battery_pct: f64,
        battery_pct: f64,
        sensors: Vec<Sensor>,
        device_type: String,
        now: SimTime,
    ) -> Result<(), SenseAidError> {
        self.ensure_up()?;
        let record = new_record(
            imei,
            energy_budget_j,
            critical_battery_pct,
            battery_pct,
            sensors,
            device_type,
            now,
        );
        self.journal(|| JournalOp::Register {
            record: record.clone(),
        });
        self.coordinator.register_device(record);
        Ok(())
    }

    /// Deregisters a device (client `deregister()` call).
    ///
    /// # Errors
    ///
    /// [`SenseAidError::ServerUnavailable`] when crashed;
    /// [`SenseAidError::UnknownDevice`] if never registered.
    pub fn deregister_device(&mut self, imei: ImeiHash) -> Result<(), SenseAidError> {
        self.ensure_up()?;
        self.journal(|| JournalOp::Deregister { imei });
        self.coordinator.deregister_device(imei)
    }

    /// Updates a device's preferences (client `update_preferences()`).
    ///
    /// # Errors
    ///
    /// [`SenseAidError::ServerUnavailable`] when crashed;
    /// [`SenseAidError::UnknownDevice`] if never registered.
    pub fn update_preferences(
        &mut self,
        imei: ImeiHash,
        energy_budget_j: f64,
        critical_battery_pct: f64,
    ) -> Result<(), SenseAidError> {
        self.ensure_up()?;
        self.journal(|| JournalOp::UpdatePreferences {
            imei,
            energy_budget_j,
            critical_battery_pct,
        });
        self.coordinator
            .update_preferences(imei, energy_budget_j, critical_battery_pct)
    }

    /// Ingests a device state report (battery, crowdsensing energy).
    ///
    /// # Errors
    ///
    /// [`SenseAidError::ServerUnavailable`] when crashed;
    /// [`SenseAidError::UnknownDevice`] if never registered.
    pub fn update_device_state(
        &mut self,
        imei: ImeiHash,
        battery_pct: f64,
        cs_energy_j: f64,
        now: SimTime,
    ) -> Result<(), SenseAidError> {
        self.ensure_up()?;
        self.journal(|| JournalOp::UpdateDeviceState {
            imei,
            battery_pct,
            cs_energy_j,
            now,
        });
        self.coordinator
            .update_device_state(imei, battery_pct, cs_energy_j, now)
    }

    /// Records a device's observed position/cell (from the eNodeB layer).
    /// A cell change migrates the device to the shard serving that cell.
    ///
    /// # Errors
    ///
    /// [`SenseAidError::ServerUnavailable`] when crashed;
    /// [`SenseAidError::UnknownDevice`] if never registered.
    pub fn observe_device(
        &mut self,
        imei: ImeiHash,
        position: GeoPoint,
        cell: Option<CellId>,
    ) -> Result<(), SenseAidError> {
        self.ensure_up()?;
        self.journal(|| JournalOp::Observe {
            imei,
            position,
            cell,
        });
        self.coordinator.observe_device(imei, position, cell)
    }

    /// Records that the eNodeB saw radio traffic from a device (feeds the
    /// selector's `TTL` term).
    ///
    /// # Errors
    ///
    /// [`SenseAidError::ServerUnavailable`] when crashed;
    /// [`SenseAidError::UnknownDevice`] if never registered.
    pub fn record_device_comm(
        &mut self,
        imei: ImeiHash,
        now: SimTime,
    ) -> Result<(), SenseAidError> {
        self.ensure_up()?;
        self.journal(|| JournalOp::RecordComm { imei, now });
        self.coordinator.record_device_comm(imei, now)
    }

    // --- CAS-side API ---

    /// Submits a task on behalf of the default application server.
    ///
    /// # Errors
    ///
    /// [`SenseAidError::ServerUnavailable`] when crashed.
    pub fn submit_task(&mut self, spec: TaskSpec, now: SimTime) -> Result<TaskId, SenseAidError> {
        self.submit_task_for(CasId(0), spec, now)
    }

    /// Submits a task owned by `cas`, expanding it into deadline-queued
    /// requests.
    ///
    /// # Errors
    ///
    /// [`SenseAidError::ServerUnavailable`] when crashed.
    pub fn submit_task_for(
        &mut self,
        cas: CasId,
        spec: TaskSpec,
        now: SimTime,
    ) -> Result<TaskId, SenseAidError> {
        self.ensure_up()?;
        self.journal(|| JournalOp::SubmitTask {
            cas,
            spec: spec.clone(),
            now,
        });
        Ok(self.coordinator.submit_task_for(cas, spec, now))
    }

    /// Updates a task's mutable parameters and re-plans its outstanding
    /// requests (the `update_task_param` API).
    ///
    /// # Errors
    ///
    /// [`SenseAidError::ServerUnavailable`] when crashed;
    /// [`SenseAidError::UnknownTask`] / validation errors otherwise.
    pub fn update_task_param(
        &mut self,
        task: TaskId,
        spatial_density: Option<usize>,
        sampling_period: Option<SimDuration>,
        region: Option<CircleRegion>,
        now: SimTime,
    ) -> Result<(), SenseAidError> {
        self.ensure_up()?;
        self.journal(|| JournalOp::UpdateTaskParam {
            task,
            spatial_density,
            sampling_period,
            region,
            now,
        });
        self.coordinator
            .update_task_param(task, spatial_density, sampling_period, region, now)
    }

    /// Deletes a task: marks it, purges its queued requests, and cancels
    /// in-flight assignments (the `delete_task` API).
    ///
    /// # Errors
    ///
    /// [`SenseAidError::ServerUnavailable`] when crashed;
    /// [`SenseAidError::UnknownTask`] if absent.
    pub fn delete_task(&mut self, task: TaskId) -> Result<(), SenseAidError> {
        self.ensure_up()?;
        self.journal(|| JournalOp::DeleteTask { task });
        self.coordinator.delete_task(task)
    }

    // --- The scheduling loop (Algorithm 1) ---

    /// Runs one scheduling round at `now`, returning fresh assignments.
    ///
    /// # Errors
    ///
    /// [`SenseAidError::ServerUnavailable`] when crashed.
    pub fn poll(&mut self, now: SimTime) -> Result<Vec<Assignment>, SenseAidError> {
        self.ensure_up()?;
        self.journal(|| JournalOp::Poll { now });
        Ok(self.coordinator.poll(now))
    }

    /// The earliest instant at which a [`poll`](Self::poll) could change
    /// state, or `None` when no queued, parked, or in-flight request
    /// exists. Event-driven drivers sleep until this instant instead of
    /// polling on a fixed period; see [`crate::scheduler`] for the terms
    /// and an event-loop integration.
    ///
    /// Availability-agnostic: a crashed server still reports when work
    /// *would* be due, so a driver can keep its clock armed across an
    /// outage and the post-recovery poll happens at the right time.
    pub fn next_wakeup(&self, now: SimTime) -> Option<SimTime> {
        self.coordinator.next_wakeup(now)
    }

    /// Qualified devices for a request right now (`N` in Algorithm 1).
    pub fn qualified_devices(&self, request: &Request) -> Vec<ImeiHash> {
        self.coordinator.qualified_devices(request)
    }

    /// Counts the devices qualified to serve `sensor` over `region` — the
    /// Fig 7 monitoring metric.
    pub fn qualified_count(&self, sensor: Sensor, region: CircleRegion) -> usize {
        self.coordinator
            .qualified_count(&QualificationProbe::new(sensor, region))
    }

    // --- Data path ---

    /// Ingests a sensed reading from a device for a request it was
    /// assigned. Validates, scrubs, and queues the reading for the owning
    /// CAS. Returns `true` when this reading fulfilled the request's
    /// spatial density.
    ///
    /// # Errors
    ///
    /// [`SenseAidError::ServerUnavailable`] when crashed;
    /// [`SenseAidError::UnknownRequest`] / [`SenseAidError::NotAssigned`]
    /// on routing mistakes; [`SenseAidError::InvalidReading`] when
    /// validation rejects the value (the device is also flagged).
    pub fn submit_sensed_data(
        &mut self,
        imei: ImeiHash,
        request_id: RequestId,
        reading: &SensorReading,
        now: SimTime,
    ) -> Result<bool, SenseAidError> {
        self.ensure_up()?;
        self.journal(|| JournalOp::SubmitData {
            imei,
            request: request_id,
            reading: *reading,
            now,
        });
        self.coordinator
            .submit_sensed_data(imei, request_id, reading, now)
    }

    /// Ingests a sequenced batch of readings carried by a delivery
    /// envelope (see `senseaid_cellnet::Envelope`). Replayed envelopes and
    /// replayed readings are deduplicated server-side, making client
    /// retransmission of `send_sense_data` idempotent. The receipt's
    /// cumulative ack tells the client which sequence numbers to release.
    ///
    /// # Errors
    ///
    /// [`SenseAidError::ServerUnavailable`] when crashed (the client's
    /// backoff clock keeps running and it retries later).
    pub fn submit_sensed_batch(
        &mut self,
        imei: ImeiHash,
        seq: u64,
        attempt: u32,
        readings: &[(RequestId, SensorReading)],
        now: SimTime,
    ) -> Result<BatchReceipt, SenseAidError> {
        self.ensure_up()?;
        self.journal(|| JournalOp::SubmitBatch {
            imei,
            seq,
            attempt,
            readings: readings.to_vec(),
            now,
        });
        Ok(self
            .coordinator
            .submit_batch(imei, seq, attempt, readings, now))
    }

    /// Folds client-reported reading drops (deadline expiry on-device,
    /// abandoned retransmissions) into [`ServerStats`]. Deliberately does
    /// not require the server to be up: totals are reconciled whenever the
    /// report arrives.
    pub fn note_client_drops(&mut self, dropped: u64) {
        self.journal(|| JournalOp::NoteClientDrops { dropped });
        self.coordinator.note_client_drops(dropped);
    }

    /// Drains the scrubbed readings queued for delivery, in order.
    pub fn drain_outbox(&mut self) -> Vec<(CasId, DeliveredReading)> {
        self.journal(|| JournalOp::DrainOutbox);
        self.coordinator.drain_outbox()
    }
}
