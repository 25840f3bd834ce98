//! Server-side datastores (paper §3.2) and the pluggable device-index
//! boundary.
//!
//! The control plane stores devices behind the [`DeviceIndex`] trait so a
//! shard can run over any storage that answers the qualification question.
//! [`SoaDeviceStore`](soa_store::SoaDeviceStore) — columns and one hot row
//! per device, keyed by dense slot ids — is the default implementation;
//! [`DeviceStore`](device_store::DeviceStore), a B-tree of whole records,
//! is kept as the reference the SoA layout is byte-compared against.
//!
//! Selection never walks records: qualification hands the selector the
//! handful of fields it scores as flat [`CandidateRow`]s, one at a time,
//! so the hot loop reads one 64-byte row per candidate instead of chasing
//! a pointer per device.

pub mod device_store;
pub mod soa_store;
pub mod task_store;

use std::collections::BTreeSet;
use std::fmt;

use senseaid_cellnet::CellId;
use senseaid_device::{ImeiHash, Sensor};
use senseaid_geo::{CircleRegion, GeoPoint};
use senseaid_sim::{SimDuration, SimTime};

use crate::request::Request;
use device_store::{DeviceRecord, RecordView};

/// The qualification question, first class: which registered devices could
/// serve `sensor` over `region` right now?
///
/// Scheduling and monitoring both ask it — scheduling for a concrete
/// [`Request`], monitoring (the Fig 7 metric) for an arbitrary
/// sensor/region pair. Making the probe its own type means counting no
/// longer needs a throwaway `Request` with sentinel ids.
#[derive(Debug, Clone, PartialEq)]
pub struct QualificationProbe {
    /// The area of interest.
    pub region: CircleRegion,
    /// The sensor devices must carry.
    pub sensor: Sensor,
    /// Optional device-model restriction (Table 1 `device_type`).
    pub device_type: Option<String>,
}

impl QualificationProbe {
    /// A probe with no device-type restriction.
    pub fn new(sensor: Sensor, region: CircleRegion) -> Self {
        QualificationProbe {
            region,
            sensor,
            device_type: None,
        }
    }

    /// The probe a concrete request poses.
    pub fn for_request(request: &Request) -> Self {
        QualificationProbe {
            region: request.region(),
            sensor: request.sensor(),
            device_type: request.spec().device_type().map(str::to_owned),
        }
    }
}

/// One qualified candidate, flattened to exactly the fields the selector
/// scores (paper §4 cost function) plus the identity used for tie-breaks
/// and output.
///
/// `Copy`, pointer-free and 64 bytes: the store's walk builds each row
/// from one hot row and hands it straight to the selector's fold, so
/// scoring 10⁵ devices touches dense memory instead of a `&DeviceRecord`
/// per element. Rows are snapshots — they do not observe later mutations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateRow {
    /// Hashed identity (never the raw IMEI).
    pub imei: ImeiHash,
    /// Most recently reported battery level, %.
    pub battery_pct: f64,
    /// Battery floor below which the device must not be selected, %.
    pub critical_battery_pct: f64,
    /// Remaining crowdsensing budget, Joules (precomputed, never negative).
    pub remaining_budget_j: f64,
    /// Energy already spent on crowdsensing, Joules.
    pub cs_energy_j: f64,
    /// Times the selector picked this device.
    pub times_selected: u64,
    /// Timestamp of the most recent radio communication.
    pub last_comm: SimTime,
    /// Data-reliability score in `[0, 1]`.
    pub reliability: f64,
}

impl CandidateRow {
    /// Time since the last radio communication at `now` — the selector's
    /// `TTL` term.
    pub fn ttl(&self, now: SimTime) -> SimDuration {
        now.saturating_elapsed_since(self.last_comm)
    }
}

/// Pluggable device storage for one control-plane shard.
///
/// Implementations own the records of the devices homed on their shard and
/// answer qualification probes over them through one walk,
/// [`for_each_candidate`](Self::for_each_candidate); `candidates_into`
/// appends rows in ascending IMEI-hash order so that merging across shards
/// is deterministic for any shard count.
///
/// Mutation goes through narrow, named operations (the exact state
/// transitions the coordinator performs) rather than a `&mut DeviceRecord`
/// escape hatch, so column-oriented implementations never have to
/// materialise a record to satisfy a write.
pub trait DeviceIndex: fmt::Debug + Send + Sync {
    /// Registers (or re-registers) a device record.
    fn insert(&mut self, record: DeviceRecord);

    /// Removes a device, returning its record if it was present. Used both
    /// for deregistration and for migrating a device to another shard.
    fn remove(&mut self, imei: ImeiHash) -> Option<DeviceRecord>;

    /// Number of devices held.
    fn len(&self) -> usize;

    /// Whether no devices are held.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks a device up, materialising its record. A cold-path
    /// convenience (public API reads, snapshots, tests); hot paths use
    /// [`candidates_into`](Self::candidates_into) or the narrow mutators.
    fn get(&self, imei: ImeiHash) -> Option<DeviceRecord>;

    /// The device's last observed serving cell, without materialising the
    /// whole record.
    fn cell_of(&self, imei: ImeiHash) -> Option<CellId>;

    /// Records an observed position and serving cell. Returns `false` when
    /// the device is unknown to this index.
    fn observe(&mut self, imei: ImeiHash, position: GeoPoint, cell: Option<CellId>) -> bool;

    /// Re-registration: refreshes the caller-supplied fields of an
    /// existing device (budget, floor, battery, sensors, device type,
    /// last-comm) and restores responsiveness, preserving selection
    /// history, spent energy and position. Returns `false` if unknown.
    fn refresh_registration(&mut self, record: &DeviceRecord) -> bool;

    /// Updates the user's energy budget and critical-battery floor.
    /// Returns `false` if unknown.
    fn update_preferences(
        &mut self,
        imei: ImeiHash,
        energy_budget_j: f64,
        critical_battery_pct: f64,
    ) -> bool;

    /// Updates reported battery and crowdsensing-energy state, refreshing
    /// the last-communication timestamp and responsiveness. Returns
    /// `false` if unknown.
    fn update_state(
        &mut self,
        imei: ImeiHash,
        battery_pct: f64,
        cs_energy_j: f64,
        now: SimTime,
    ) -> bool;

    /// Records a radio communication (any traffic the eNodeB sees),
    /// restoring responsiveness. Returns `false` if unknown.
    fn record_comm(&mut self, imei: ImeiHash, now: SimTime) -> bool;

    /// Increments the selection counter after an assignment. Returns
    /// `false` if unknown.
    fn bump_selected(&mut self, imei: ImeiHash) -> bool;

    /// Sets the responsiveness flag (cleared on missed deadlines).
    /// Returns `false` if unknown.
    fn set_responsive(&mut self, imei: ImeiHash, responsive: bool) -> bool;

    /// Sets the data-validity flag (cleared on implausible submissions).
    /// Returns `false` if unknown.
    fn set_data_valid(&mut self, imei: ImeiHash, valid: bool) -> bool;

    /// Calls `f` once per qualified candidate for `probe`, in whatever
    /// order the index walks them: responsive, data-valid devices inside
    /// the region that carry the sensor and match any device-type
    /// restriction. The one walk every qualification query is built on;
    /// it allocates nothing, and the row handed to `f` lives only for the
    /// call.
    fn for_each_candidate(&self, probe: &QualificationProbe, f: &mut dyn FnMut(&CandidateRow));

    /// Appends the qualified candidate rows for `probe` to `out`,
    /// ascending by IMEI hash — the canonical slice order-sensitive
    /// consumers see, identical for any shard layout.
    fn candidates_into(&self, probe: &QualificationProbe, out: &mut Vec<CandidateRow>) {
        let start = out.len();
        self.for_each_candidate(probe, &mut |row| out.push(*row));
        out[start..].sort_unstable_by_key(|r| r.imei);
    }

    /// How many devices qualify for `probe`.
    fn qualified_count(&self, probe: &QualificationProbe) -> usize {
        let mut n = 0;
        self.for_each_candidate(probe, &mut |_| n += 1);
        n
    }

    /// Every record held, borrowed where it lies, in ascending IMEI order
    /// — the crash snapshot's view of this shard's device datastore.
    fn records(&self) -> Box<dyn Iterator<Item = RecordView<'_>> + '_>;

    /// [`records`](Self::records), cloned.
    fn snapshot_records(&self) -> Vec<DeviceRecord> {
        self.records().map(|view| view.to_record()).collect()
    }

    /// Loads `records` — strictly ascending by IMEI, none of them held
    /// yet — leaving the index exactly as one [`insert`](Self::insert)
    /// per record, in order, would: the loaded-snapshot counterpart of
    /// registering devices one at a time. An index with a cheaper way to
    /// fill itself from a sorted run overrides this.
    fn extend_sorted(&mut self, records: Vec<DeviceRecord>) {
        for record in records {
            self.insert(record);
        }
    }

    /// Turns dirty-column tracking on or off. While on, every mutation
    /// (including removal) marks the touched IMEI so delta snapshots can
    /// persist only what changed. Off (the default) must cost nothing on
    /// the hot paths. Indexes that do not implement tracking may ignore
    /// this — the persistence layer then falls back to full snapshots.
    fn set_dirty_tracking(&mut self, _on: bool) {}

    /// The IMEIs touched since the last [`clear_dirty`]
    /// (Self::clear_dirty), or `None` when tracking is unsupported or
    /// off. A touched IMEI no longer present was removed; the caller
    /// resolves presence itself so cross-shard migration folds correctly.
    fn dirty_touched(&self) -> Option<&BTreeSet<ImeiHash>> {
        None
    }

    /// Forgets all dirty marks (called once a generation persists).
    fn clear_dirty(&mut self) {}
}
