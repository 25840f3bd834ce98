//! One cell-group shard of the control plane.
//!
//! A shard owns the device index, the queued-request arena and the
//! run/wait queues for the cells assigned to it. Devices are homed on the
//! shard serving their last observed cell (unknown-cell devices live on
//! shard 0); requests are homed on the lowest-numbered shard their
//! region's cell coverage touches (shard 0 when no topology is attached).
//! The [`Coordinator`](crate::coordinator::Coordinator) fans requests out
//! across shards and merge-pops their queue heads in global
//! `(deadline, sample_at, id)` order, so scheduling output is identical
//! for any shard count.
//!
//! Queued requests are pinned in one [`RequestArena`] shared by both
//! queues: the heaps order POD [`QueueEntry`]s and resolve a request from
//! its slot only when it actually leaves a queue.

use senseaid_cellnet::CellId;
use senseaid_device::ImeiHash;
use senseaid_geo::GeoPoint;
use senseaid_sim::SimTime;

use crate::queues::{QueueEntry, RequestQueue};
use crate::request::Request;
use crate::store::device_store::{DeviceRecord, RecordView};
use crate::store::task_store::RequestArena;
use crate::store::{CandidateRow, DeviceIndex, QualificationProbe};
use crate::task::TaskId;

/// The heap key the queues order by; exposing it lets the coordinator
/// merge-pop shard heads in the exact order one global queue would use.
pub(crate) type QueueKey = (SimTime, SimTime, u64);

/// One shard: a device index plus its slice of the run and wait queues.
#[derive(Debug)]
pub(crate) struct Shard {
    index: Box<dyn DeviceIndex>,
    arena: RequestArena,
    run_queue: RequestQueue,
    wait_queue: RequestQueue,
}

impl Shard {
    pub fn new(index: Box<dyn DeviceIndex>) -> Self {
        Shard {
            index,
            arena: RequestArena::new(),
            run_queue: RequestQueue::new(),
            wait_queue: RequestQueue::new(),
        }
    }

    // ---- devices ----

    pub fn device_count(&self) -> usize {
        self.index.len()
    }

    pub fn insert_device(&mut self, record: DeviceRecord) {
        self.index.insert(record);
    }

    /// Loads a snapshot's share of devices, ascending by IMEI (see
    /// [`DeviceIndex::extend_sorted`]).
    pub fn extend_devices(&mut self, records: Vec<DeviceRecord>) {
        self.index.extend_sorted(records);
    }

    pub fn remove_device(&mut self, imei: ImeiHash) -> Option<DeviceRecord> {
        self.index.remove(imei)
    }

    pub fn device(&self, imei: ImeiHash) -> Option<DeviceRecord> {
        self.index.get(imei)
    }

    /// Read-and-write access to the device index's narrow mutators.
    pub fn devices(&mut self) -> &mut dyn DeviceIndex {
        self.index.as_mut()
    }

    pub fn set_dirty_tracking(&mut self, on: bool) {
        self.index.set_dirty_tracking(on);
    }

    pub fn dirty_touched(&self) -> Option<&std::collections::BTreeSet<ImeiHash>> {
        self.index.dirty_touched()
    }

    pub fn clear_dirty(&mut self) {
        self.index.clear_dirty();
    }

    pub fn device_cell(&self, imei: ImeiHash) -> Option<CellId> {
        self.index.cell_of(imei)
    }

    pub fn observe(&mut self, imei: ImeiHash, position: GeoPoint, cell: Option<CellId>) -> bool {
        self.index.observe(imei, position, cell)
    }

    /// Appends this shard's qualified candidates to `out`, ascending by
    /// IMEI hash.
    pub fn candidates_into(&self, probe: &QualificationProbe, out: &mut Vec<CandidateRow>) {
        self.index.candidates_into(probe, out);
    }

    /// Calls `f` once per qualified candidate on this shard, in the
    /// index's walk order.
    pub fn for_each_candidate(&self, probe: &QualificationProbe, f: &mut dyn FnMut(&CandidateRow)) {
        self.index.for_each_candidate(probe, f);
    }

    pub fn qualified_count(&self, probe: &QualificationProbe) -> usize {
        self.index.qualified_count(probe)
    }

    // ---- queues ----

    pub fn push_run(&mut self, request: Request) {
        let slot = self.arena.insert(request);
        let entry = QueueEntry::for_request(self.arena.get(slot).expect("just inserted"), slot);
        self.run_queue.push(entry);
    }

    pub fn push_wait(&mut self, request: Request) {
        let slot = self.arena.insert(request);
        let entry = QueueEntry::for_request(self.arena.get(slot).expect("just inserted"), slot);
        self.wait_queue.push(entry);
    }

    /// Key of the run-queue head, if any.
    pub fn run_head_key(&self) -> Option<QueueKey> {
        self.run_queue.peek().map(QueueEntry::key)
    }

    /// Key of the wait-queue head, if any.
    pub fn wait_head_key(&self) -> Option<QueueKey> {
        self.wait_queue.peek().map(QueueEntry::key)
    }

    pub fn pop_run(&mut self) -> Option<Request> {
        self.run_queue.pop().map(|e| self.arena.take(e.slot))
    }

    pub fn pop_wait(&mut self) -> Option<Request> {
        self.wait_queue.pop().map(|e| self.arena.take(e.slot))
    }

    pub fn run_queue_len(&self) -> usize {
        self.run_queue.len()
    }

    pub fn wait_queue_len(&self) -> usize {
        self.wait_queue.len()
    }

    /// Removes one parked request by id, if this shard holds it (used by
    /// the shed path to evict a victim chosen across all shards).
    pub fn remove_wait(&mut self, id: crate::request::RequestId) -> Option<Request> {
        self.wait_queue.remove(id).map(|e| self.arena.take(e.slot))
    }

    /// Purges a task's requests from both queues, releasing their slots.
    pub fn remove_task(&mut self, task: TaskId) {
        for entry in self.run_queue.remove_task(task) {
            self.arena.take(entry.slot);
        }
        for entry in self.wait_queue.remove_task(task) {
            self.arena.take(entry.slot);
        }
    }

    /// All requests queued on this shard (run then wait), for status
    /// bookkeeping.
    pub fn queued_requests(&self) -> impl Iterator<Item = &Request> {
        self.run_requests().chain(self.wait_requests())
    }

    /// Run-queue entries only (for snapshots, which must restore run and
    /// wait entries to the right queue kind).
    pub fn run_requests(&self) -> impl Iterator<Item = &Request> {
        self.run_queue
            .iter()
            .map(|e| self.arena.get(e.slot).expect("entry slots are live"))
    }

    /// Wait-queue entries only (see [`Shard::run_requests`]).
    pub fn wait_requests(&self) -> impl Iterator<Item = &Request> {
        self.wait_queue
            .iter()
            .map(|e| self.arena.get(e.slot).expect("entry slots are live"))
    }

    /// All device records on this shard (for snapshots), borrowed, in
    /// IMEI order.
    pub fn device_views(&self) -> Box<dyn Iterator<Item = RecordView<'_>> + '_> {
        self.index.records()
    }
}
