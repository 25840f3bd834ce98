//! The device datastore.
//!
//! Per the paper (§3.2): "For each device, Sense-Aid keeps track of the
//! hash value of the IMEI code, remaining energy budget, current battery
//! level, number of times the device has been selected for sensing, and
//! the timestamp of the most recent radio communication." We add the facts
//! qualification needs — sensors carried, device type, last observed
//! position (cell-granularity in a real deployment, GPS-assisted in the
//! paper's prototype) — plus responsiveness and data-validity flags.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use senseaid_cellnet::CellId;
use senseaid_device::{ImeiHash, Sensor};
use senseaid_geo::{GeoPoint, GridIndex};
use senseaid_sim::{SimDuration, SimTime};

use crate::error::SenseAidError;
use crate::request::Request;
use crate::store::{CandidateRow, DeviceIndex, QualificationProbe};

/// Everything the server knows about one registered device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceRecord {
    /// Hashed identity (never the raw IMEI).
    pub imei: ImeiHash,
    /// The user's total crowdsensing energy budget, Joules.
    pub energy_budget_j: f64,
    /// Battery floor below which the device must not be selected, %.
    pub critical_battery_pct: f64,
    /// Energy this device reported spending on crowdsensing, Joules.
    pub cs_energy_j: f64,
    /// Most recently reported battery level, %.
    pub battery_pct: f64,
    /// Times the selector picked this device.
    pub times_selected: u64,
    /// Timestamp of the device's most recent radio communication.
    pub last_comm: SimTime,
    /// Last observed position.
    pub position: Option<GeoPoint>,
    /// Last observed serving cell.
    pub cell: Option<CellId>,
    /// Sensors the device carries.
    pub sensors: Vec<Sensor>,
    /// The device model string (Table 1 `device_type` matching).
    pub device_type: String,
    /// Cleared when the device misses an assignment deadline; set again on
    /// any communication (paper §3.2: unresponsive devices are excluded
    /// from future selections).
    pub responsive: bool,
    /// Cleared when the device submits implausible data.
    pub data_valid: bool,
    /// Data-reliability score in `[0, 1]` (1 = fully trusted). A hook for
    /// the truth-discovery extensions the paper's related work discusses
    /// (Ren et al., Meng et al.); the selector can weight it via `ρ`.
    pub reliability: f64,
}

impl DeviceRecord {
    /// Remaining crowdsensing energy budget, Joules (never negative).
    pub fn remaining_budget_j(&self) -> f64 {
        (self.energy_budget_j - self.cs_energy_j).max(0.0)
    }

    /// Time since the last radio communication at `now` — the selector's
    /// `TTL` term.
    pub fn ttl(&self, now: SimTime) -> SimDuration {
        now.saturating_elapsed_since(self.last_comm)
    }

    /// The flat scoring row the selector consumes for this record.
    pub fn row(&self) -> CandidateRow {
        CandidateRow {
            imei: self.imei,
            battery_pct: self.battery_pct,
            critical_battery_pct: self.critical_battery_pct,
            remaining_budget_j: self.remaining_budget_j(),
            cs_energy_j: self.cs_energy_j,
            times_selected: self.times_selected,
            last_comm: self.last_comm,
            reliability: self.reliability,
        }
    }
}

impl DeviceRecord {
    /// This record, borrowed.
    pub fn view(&self) -> RecordView<'_> {
        RecordView {
            imei: self.imei,
            energy_budget_j: self.energy_budget_j,
            critical_battery_pct: self.critical_battery_pct,
            cs_energy_j: self.cs_energy_j,
            battery_pct: self.battery_pct,
            times_selected: self.times_selected,
            last_comm: self.last_comm,
            position: self.position,
            cell: self.cell,
            sensors: &self.sensors,
            device_type: &self.device_type,
            responsive: self.responsive,
            data_valid: self.data_valid,
            reliability: self.reliability,
        }
    }
}

/// One device's record read where the store keeps it: the fields of a
/// [`DeviceRecord`], with the sensor list and the device-type string
/// borrowed instead of cloned. What [`DeviceIndex::records`] yields, so a
/// snapshot of a million devices is encoded without materialising a
/// million records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordView<'a> {
    /// See [`DeviceRecord::imei`].
    pub imei: ImeiHash,
    /// See [`DeviceRecord::energy_budget_j`].
    pub energy_budget_j: f64,
    /// See [`DeviceRecord::critical_battery_pct`].
    pub critical_battery_pct: f64,
    /// See [`DeviceRecord::cs_energy_j`].
    pub cs_energy_j: f64,
    /// See [`DeviceRecord::battery_pct`].
    pub battery_pct: f64,
    /// See [`DeviceRecord::times_selected`].
    pub times_selected: u64,
    /// See [`DeviceRecord::last_comm`].
    pub last_comm: SimTime,
    /// See [`DeviceRecord::position`].
    pub position: Option<GeoPoint>,
    /// See [`DeviceRecord::cell`].
    pub cell: Option<CellId>,
    /// See [`DeviceRecord::sensors`].
    pub sensors: &'a [Sensor],
    /// See [`DeviceRecord::device_type`].
    pub device_type: &'a str,
    /// See [`DeviceRecord::responsive`].
    pub responsive: bool,
    /// See [`DeviceRecord::data_valid`].
    pub data_valid: bool,
    /// See [`DeviceRecord::reliability`].
    pub reliability: f64,
}

impl RecordView<'_> {
    /// An owned copy of the record.
    pub fn to_record(&self) -> DeviceRecord {
        DeviceRecord {
            imei: self.imei,
            energy_budget_j: self.energy_budget_j,
            critical_battery_pct: self.critical_battery_pct,
            cs_energy_j: self.cs_energy_j,
            battery_pct: self.battery_pct,
            times_selected: self.times_selected,
            last_comm: self.last_comm,
            position: self.position,
            cell: self.cell,
            sensors: self.sensors.to_vec(),
            device_type: self.device_type.to_owned(),
            responsive: self.responsive,
            data_valid: self.data_valid,
            reliability: self.reliability,
        }
    }
}

/// The server's registry of participating devices.
///
/// Iteration order is deterministic (keyed by IMEI hash). Positions are
/// mirrored into a [`GridIndex`] so region qualification scans only the
/// grid cells a task's circle touches — the paper's §8 scalability path.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceStore {
    records: BTreeMap<ImeiHash, DeviceRecord>,
    index: GridIndex<ImeiHash>,
    // Dirty-column tracking for delta snapshots (see `DeviceIndex`).
    track_dirty: bool,
    dirty: BTreeSet<ImeiHash>,
}

impl Default for DeviceStore {
    fn default() -> Self {
        DeviceStore::new()
    }
}

impl DeviceStore {
    /// Grid cell edge for the position index, metres. Roughly the scale
    /// of the smallest task regions (100 m radius).
    const INDEX_CELL_M: f64 = 250.0;

    /// An empty store.
    pub fn new() -> Self {
        DeviceStore {
            records: BTreeMap::new(),
            index: GridIndex::new(Self::INDEX_CELL_M),
            track_dirty: false,
            dirty: BTreeSet::new(),
        }
    }

    /// Marks `imei` touched for delta snapshots, when tracking is on.
    fn mark(&mut self, imei: ImeiHash) {
        if self.track_dirty {
            self.dirty.insert(imei);
        }
    }

    /// Registers (or re-registers) a device.
    pub fn register(&mut self, record: DeviceRecord) {
        match record.position {
            Some(p) => self.index.insert(record.imei, p),
            None => {
                self.index.remove(record.imei);
            }
        }
        self.records.insert(record.imei, record);
    }

    /// Removes a device.
    ///
    /// # Errors
    ///
    /// [`SenseAidError::UnknownDevice`] if it was never registered.
    pub fn deregister(&mut self, imei: ImeiHash) -> Result<(), SenseAidError> {
        self.index.remove(imei);
        self.records
            .remove(&imei)
            .map(|_| ())
            .ok_or(SenseAidError::UnknownDevice(imei))
    }

    /// Number of registered devices.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Looks a device up.
    pub fn get(&self, imei: ImeiHash) -> Option<&DeviceRecord> {
        self.records.get(&imei)
    }

    /// Mutable lookup.
    ///
    /// # Errors
    ///
    /// [`SenseAidError::UnknownDevice`] if not registered.
    pub fn get_mut(&mut self, imei: ImeiHash) -> Result<&mut DeviceRecord, SenseAidError> {
        self.records
            .get_mut(&imei)
            .ok_or(SenseAidError::UnknownDevice(imei))
    }

    /// Iterates over all records in hash order.
    pub fn iter(&self) -> impl Iterator<Item = &DeviceRecord> {
        self.records.values()
    }

    /// Updates reported battery and crowdsensing-energy state, refreshing
    /// the last-communication timestamp.
    ///
    /// # Errors
    ///
    /// [`SenseAidError::UnknownDevice`] if not registered.
    pub fn update_state(
        &mut self,
        imei: ImeiHash,
        battery_pct: f64,
        cs_energy_j: f64,
        now: SimTime,
    ) -> Result<(), SenseAidError> {
        let rec = self.get_mut(imei)?;
        rec.battery_pct = battery_pct;
        rec.cs_energy_j = cs_energy_j;
        rec.last_comm = now;
        rec.responsive = true;
        Ok(())
    }

    /// Records an observed position and serving cell.
    ///
    /// # Errors
    ///
    /// [`SenseAidError::UnknownDevice`] if not registered.
    pub fn observe_position(
        &mut self,
        imei: ImeiHash,
        position: GeoPoint,
        cell: Option<CellId>,
    ) -> Result<(), SenseAidError> {
        let rec = self.get_mut(imei)?;
        rec.position = Some(position);
        rec.cell = cell;
        self.index.insert(imei, position);
        Ok(())
    }

    /// Records a radio communication (any traffic the eNodeB sees).
    ///
    /// # Errors
    ///
    /// [`SenseAidError::UnknownDevice`] if not registered.
    pub fn record_comm(&mut self, imei: ImeiHash, now: SimTime) -> Result<(), SenseAidError> {
        let rec = self.get_mut(imei)?;
        rec.last_comm = now;
        rec.responsive = true;
        Ok(())
    }

    /// Whether one record passes `probe`'s non-spatial predicates (paper
    /// §3 definition): carrying the sensor, matching any device-type
    /// restriction, responsive, and submitting valid data.
    fn record_qualifies(rec: &DeviceRecord, probe: &QualificationProbe) -> bool {
        rec.responsive
            && rec.data_valid
            && rec.sensors.contains(&probe.sensor)
            && probe
                .device_type
                .as_deref()
                .is_none_or(|t| rec.device_type == t)
    }

    /// The devices *qualified* for `request`, by IMEI hash.
    pub fn qualified_for(&self, request: &Request) -> Vec<ImeiHash> {
        let mut rows = Vec::new();
        self.candidates_into(&QualificationProbe::for_request(request), &mut rows);
        rows.into_iter().map(|r| r.imei).collect()
    }
}

impl DeviceIndex for DeviceStore {
    fn insert(&mut self, record: DeviceRecord) {
        self.mark(record.imei);
        self.register(record);
    }

    fn remove(&mut self, imei: ImeiHash) -> Option<DeviceRecord> {
        if self.records.contains_key(&imei) {
            self.mark(imei);
        }
        self.index.remove(imei);
        self.records.remove(&imei)
    }

    fn len(&self) -> usize {
        DeviceStore::len(self)
    }

    fn get(&self, imei: ImeiHash) -> Option<DeviceRecord> {
        self.records.get(&imei).cloned()
    }

    fn cell_of(&self, imei: ImeiHash) -> Option<CellId> {
        self.records.get(&imei).and_then(|r| r.cell)
    }

    fn observe(&mut self, imei: ImeiHash, position: GeoPoint, cell: Option<CellId>) -> bool {
        let ok = self.observe_position(imei, position, cell).is_ok();
        if ok {
            self.mark(imei);
        }
        ok
    }

    fn refresh_registration(&mut self, record: &DeviceRecord) -> bool {
        if self.records.contains_key(&record.imei) {
            self.mark(record.imei);
        }
        let Some(existing) = self.records.get_mut(&record.imei) else {
            return false;
        };
        existing.energy_budget_j = record.energy_budget_j;
        existing.critical_battery_pct = record.critical_battery_pct;
        existing.battery_pct = record.battery_pct;
        existing.sensors = record.sensors.clone();
        existing.device_type = record.device_type.clone();
        existing.last_comm = record.last_comm;
        existing.responsive = true;
        true
    }

    fn update_preferences(
        &mut self,
        imei: ImeiHash,
        energy_budget_j: f64,
        critical_battery_pct: f64,
    ) -> bool {
        if self.records.contains_key(&imei) {
            self.mark(imei);
        }
        let Some(rec) = self.records.get_mut(&imei) else {
            return false;
        };
        rec.energy_budget_j = energy_budget_j;
        rec.critical_battery_pct = critical_battery_pct;
        true
    }

    fn update_state(
        &mut self,
        imei: ImeiHash,
        battery_pct: f64,
        cs_energy_j: f64,
        now: SimTime,
    ) -> bool {
        let ok = DeviceStore::update_state(self, imei, battery_pct, cs_energy_j, now).is_ok();
        if ok {
            self.mark(imei);
        }
        ok
    }

    fn record_comm(&mut self, imei: ImeiHash, now: SimTime) -> bool {
        let ok = DeviceStore::record_comm(self, imei, now).is_ok();
        if ok {
            self.mark(imei);
        }
        ok
    }

    fn bump_selected(&mut self, imei: ImeiHash) -> bool {
        if self.records.contains_key(&imei) {
            self.mark(imei);
        }
        let Some(rec) = self.records.get_mut(&imei) else {
            return false;
        };
        rec.times_selected += 1;
        true
    }

    fn set_responsive(&mut self, imei: ImeiHash, responsive: bool) -> bool {
        if self.records.contains_key(&imei) {
            self.mark(imei);
        }
        let Some(rec) = self.records.get_mut(&imei) else {
            return false;
        };
        rec.responsive = responsive;
        true
    }

    fn set_data_valid(&mut self, imei: ImeiHash, valid: bool) -> bool {
        if self.records.contains_key(&imei) {
            self.mark(imei);
        }
        let Some(rec) = self.records.get_mut(&imei) else {
            return false;
        };
        rec.data_valid = valid;
        true
    }

    fn for_each_candidate(&self, probe: &QualificationProbe, f: &mut dyn FnMut(&CandidateRow)) {
        // The grid narrows the scan to devices inside the circle; the
        // remaining predicates filter on the record.
        self.index.for_each_in_circle(&probe.region, |imei| {
            if let Some(r) = self.records.get(&imei) {
                if Self::record_qualifies(r, probe) {
                    f(&r.row());
                }
            }
        });
    }

    fn records(&self) -> Box<dyn Iterator<Item = RecordView<'_>> + '_> {
        // `records` is a BTreeMap keyed by IMEI, so values are ordered.
        Box::new(self.records.values().map(DeviceRecord::view))
    }

    fn set_dirty_tracking(&mut self, on: bool) {
        self.track_dirty = on;
        if !on {
            self.dirty.clear();
        }
    }

    fn dirty_touched(&self) -> Option<&BTreeSet<ImeiHash>> {
        self.track_dirty.then_some(&self.dirty)
    }

    fn clear_dirty(&mut self) {
        self.dirty.clear();
    }
}

/// Builds a fresh record for a registering device.
pub fn new_record(
    imei: ImeiHash,
    energy_budget_j: f64,
    critical_battery_pct: f64,
    battery_pct: f64,
    sensors: Vec<Sensor>,
    device_type: String,
    now: SimTime,
) -> DeviceRecord {
    DeviceRecord {
        imei,
        energy_budget_j,
        critical_battery_pct,
        cs_energy_j: 0.0,
        battery_pct,
        times_selected: 0,
        last_comm: now,
        position: None,
        cell: None,
        sensors,
        device_type,
        responsive: true,
        data_valid: true,
        reliability: 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestId;
    use crate::task::{TaskId, TaskSpec};
    use senseaid_geo::CircleRegion;
    use senseaid_sim::SimDuration;

    fn centre() -> GeoPoint {
        GeoPoint::new(40.4284, -86.9138)
    }

    fn record(id: u64) -> DeviceRecord {
        new_record(
            ImeiHash(id),
            495.0,
            15.0,
            100.0,
            vec![Sensor::Barometer, Sensor::Accelerometer],
            "GalaxyS4".to_owned(),
            SimTime::ZERO,
        )
    }

    fn request(radius: f64, density: usize) -> Request {
        let spec = TaskSpec::builder(Sensor::Barometer)
            .region(CircleRegion::new(centre(), radius))
            .spatial_density(density)
            .sampling_period(SimDuration::from_mins(5))
            .sampling_duration(SimDuration::from_mins(30))
            .build()
            .unwrap();
        Request::new(
            RequestId(1),
            TaskId(1),
            spec,
            SimTime::from_mins(5),
            SimTime::from_mins(10),
        )
    }

    #[test]
    fn register_and_lookup() {
        let mut store = DeviceStore::new();
        store.register(record(1));
        assert_eq!(store.len(), 1);
        assert!(store.get(ImeiHash(1)).is_some());
        assert!(store.get(ImeiHash(2)).is_none());
        store.deregister(ImeiHash(1)).unwrap();
        assert!(store.is_empty());
        assert_eq!(
            store.deregister(ImeiHash(1)),
            Err(SenseAidError::UnknownDevice(ImeiHash(1)))
        );
    }

    #[test]
    fn state_updates_refresh_last_comm() {
        let mut store = DeviceStore::new();
        store.register(record(1));
        store
            .update_state(ImeiHash(1), 73.0, 12.0, SimTime::from_mins(9))
            .unwrap();
        let rec = store.get(ImeiHash(1)).unwrap();
        assert_eq!(rec.battery_pct, 73.0);
        assert_eq!(rec.cs_energy_j, 12.0);
        assert_eq!(rec.last_comm, SimTime::from_mins(9));
        assert_eq!(rec.ttl(SimTime::from_mins(12)), SimDuration::from_mins(3));
    }

    #[test]
    fn qualification_requires_position_in_region() {
        let mut store = DeviceStore::new();
        store.register(record(1));
        store.register(record(2));
        // Device 1 inside, device 2 outside, device 3 unknown position.
        store
            .observe_position(ImeiHash(1), centre().offset_by_meters(100.0, 0.0), None)
            .unwrap();
        store
            .observe_position(ImeiHash(2), centre().offset_by_meters(900.0, 0.0), None)
            .unwrap();
        store.register(record(3));
        let q = store.qualified_for(&request(500.0, 1));
        assert_eq!(q, vec![ImeiHash(1)]);
    }

    #[test]
    fn qualification_requires_sensor() {
        let mut store = DeviceStore::new();
        let mut no_baro = record(1);
        no_baro.sensors = vec![Sensor::Accelerometer];
        store.register(no_baro);
        store.observe_position(ImeiHash(1), centre(), None).unwrap();
        assert!(store.qualified_for(&request(500.0, 1)).is_empty());
    }

    #[test]
    fn qualification_respects_device_type_restriction() {
        let mut store = DeviceStore::new();
        store.register(record(1));
        let mut iphone = record(2);
        iphone.device_type = "iPhone6".to_owned();
        store.register(iphone);
        for id in [1, 2] {
            store
                .observe_position(ImeiHash(id), centre(), None)
                .unwrap();
        }
        let spec = TaskSpec::builder(Sensor::Barometer)
            .region(CircleRegion::new(centre(), 500.0))
            .device_type("iPhone6")
            .sampling_period(SimDuration::from_mins(5))
            .sampling_duration(SimDuration::from_mins(30))
            .build()
            .unwrap();
        let req = Request::new(
            RequestId(9),
            TaskId(9),
            spec,
            SimTime::from_mins(1),
            SimTime::from_mins(6),
        );
        assert_eq!(store.qualified_for(&req), vec![ImeiHash(2)]);
    }

    #[test]
    fn unresponsive_and_invalid_devices_are_excluded() {
        let mut store = DeviceStore::new();
        store.register(record(1));
        store.register(record(2));
        store.register(record(3));
        for id in [1, 2, 3] {
            store
                .observe_position(ImeiHash(id), centre(), None)
                .unwrap();
        }
        store.get_mut(ImeiHash(1)).unwrap().responsive = false;
        store.get_mut(ImeiHash(2)).unwrap().data_valid = false;
        assert_eq!(store.qualified_for(&request(500.0, 1)), vec![ImeiHash(3)]);
        // Any communication restores responsiveness.
        store
            .record_comm(ImeiHash(1), SimTime::from_mins(1))
            .unwrap();
        assert_eq!(
            store.qualified_for(&request(500.0, 1)),
            vec![ImeiHash(1), ImeiHash(3)]
        );
    }

    #[test]
    fn qualified_count_agrees_with_candidates() {
        let mut store = DeviceStore::new();
        for id in 1..=6 {
            store.register(record(id));
            store
                .observe_position(
                    ImeiHash(id),
                    centre().offset_by_meters(f64::from(id as u32) * 120.0, 0.0),
                    None,
                )
                .unwrap();
        }
        store.get_mut(ImeiHash(2)).unwrap().responsive = false;
        store.get_mut(ImeiHash(3)).unwrap().sensors = vec![Sensor::Accelerometer];
        for radius in [100.0, 400.0, 900.0] {
            let probe = QualificationProbe::for_request(&request(radius, 1));
            let mut rows = Vec::new();
            store.candidates_into(&probe, &mut rows);
            assert_eq!(store.qualified_count(&probe), rows.len(), "radius {radius}");
        }
    }

    #[test]
    fn remaining_budget_never_negative() {
        let mut rec = record(1);
        rec.cs_energy_j = 1000.0; // over budget
        assert_eq!(rec.remaining_budget_j(), 0.0);
    }
}
