//! The struct-of-arrays device datastore — the million-device layout.
//!
//! [`DeviceStore`](super::device_store::DeviceStore) keeps one
//! [`DeviceRecord`] per device in a B-tree: correct, but every
//! qualification probe chases a pointer per device and drags the record's
//! cold fields (sensor list, device-type string) through the cache along
//! with the handful of hot ones. At the paper's §8 city scale (10⁶
//! devices) that layout is cache-hostile.
//!
//! [`SoaDeviceStore`] stores the same facts indexed by a dense
//! [`DeviceSlot`], laid out for the two reads of a qualification probe:
//!
//! * the filter — flags, a 10-bit sensor mask, an interned device-type id
//!   — stays columnar: it is read for *every* point inside the circle and
//!   is 7 bytes per device, so a walk streams through a few lines of it;
//! * the eight fields a candidate is scored on sit together in one
//!   64-byte [`HotRow`]: they are read only for points that pass the
//!   filter, and then all at once, so a candidate costs one contiguous
//!   cache line's worth of memory instead of eight scattered lines;
//! * the original sensor list and type string are kept as cold columns
//!   for snapshot fidelity;
//! * a `BTreeMap<ImeiHash, DeviceSlot>` gives stable identity → slot
//!   lookup, and a free list recycles slots across deregister/re-register
//!   churn so the columns stay dense;
//! * positions are mirrored into the hierarchical
//!   [`GridIndex`](senseaid_geo::GridIndex) keyed by slot.
//!
//! Behaviour is byte-identical to the reference store — the equivalence
//! suite drives both through identical histories and compares snapshots,
//! assignments and statistics.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use serde::{Deserialize, Serialize};

use senseaid_cellnet::CellId;
use senseaid_device::{ImeiHash, Sensor};
use senseaid_geo::{GeoPoint, GridIndex};
use senseaid_sim::SimTime;

use crate::store::device_store::{DeviceRecord, RecordView};
use crate::store::{CandidateRow, DeviceIndex, QualificationProbe};

/// Dense index of one device's row in the column arrays. Slots are
/// recycled through a free list, so a slot id is only meaningful while its
/// device stays registered; stable identity is the [`ImeiHash`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DeviceSlot(pub u32);

/// Flag bits for the packed per-slot status column.
const LIVE: u8 = 1;
const RESPONSIVE: u8 = 1 << 1;
const DATA_VALID: u8 = 1 << 2;
/// A device qualifies only with all three set — one integer compare.
const QUALIFIES: u8 = LIVE | RESPONSIVE | DATA_VALID;

/// Bit for `sensor` in the 10-bit sensor-mask column.
fn sensor_bit(sensor: Sensor) -> u16 {
    // Position in the canonical list; `Sensor` has exactly 10 variants.
    let idx = Sensor::ALL
        .iter()
        .position(|s| *s == sensor)
        .expect("Sensor::ALL is exhaustive");
    1u16 << idx
}

fn sensor_mask(sensors: &[Sensor]) -> u16 {
    sensors.iter().fold(0, |mask, s| mask | sensor_bit(*s))
}

/// The status byte of a live slot holding `record`.
fn live_flags(record: &DeviceRecord) -> u8 {
    LIVE | if record.responsive { RESPONSIVE } else { 0 }
        | if record.data_valid { DATA_VALID } else { 0 }
}

/// Everything a candidate is scored on: 64 contiguous bytes.
///
/// Deliberately not `align(64)`: an over-aligned `Vec` cannot grow in
/// place (every doubling is allocate + copy + free), which left 48 MiB
/// more resident at a million devices (`ext_million_resident` 177 → 225
/// MiB) for no measurable gain on `live_task_push` or `core_million` — a
/// row that straddles two adjacent lines is fetched as a pair anyway.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct HotRow {
    imei: ImeiHash,
    energy_budget_j: f64,
    critical_battery_pct: f64,
    cs_energy_j: f64,
    battery_pct: f64,
    reliability: f64,
    times_selected: u64,
    last_comm: SimTime,
}

const _: () = assert!(std::mem::size_of::<HotRow>() == 64);

impl HotRow {
    const EMPTY: HotRow = HotRow {
        imei: ImeiHash(0),
        energy_budget_j: 0.0,
        critical_battery_pct: 0.0,
        cs_energy_j: 0.0,
        battery_pct: 0.0,
        reliability: 0.0,
        times_selected: 0,
        last_comm: SimTime::ZERO,
    };

    fn of(record: &DeviceRecord) -> HotRow {
        HotRow {
            imei: record.imei,
            energy_budget_j: record.energy_budget_j,
            critical_battery_pct: record.critical_battery_pct,
            cs_energy_j: record.cs_energy_j,
            battery_pct: record.battery_pct,
            reliability: record.reliability,
            times_selected: record.times_selected,
            last_comm: record.last_comm,
        }
    }

    fn candidate(&self) -> CandidateRow {
        CandidateRow {
            imei: self.imei,
            battery_pct: self.battery_pct,
            critical_battery_pct: self.critical_battery_pct,
            remaining_budget_j: (self.energy_budget_j - self.cs_energy_j).max(0.0),
            cs_energy_j: self.cs_energy_j,
            times_selected: self.times_selected,
            last_comm: self.last_comm,
            reliability: self.reliability,
        }
    }
}

/// The struct-of-arrays registry of participating devices.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SoaDeviceStore {
    // The scored fields, one row per slot.
    hot: Vec<HotRow>,
    // The qualification filter, columnar, indexed by slot.
    flags: Vec<u8>,
    sensor_mask: Vec<u16>,
    type_id: Vec<u32>,
    position: Vec<Option<GeoPoint>>,
    cell: Vec<Option<CellId>>,
    // Cold columns: exact registered sensor list (order preserved) so
    // snapshots round-trip byte-identically to the reference store.
    sensors: Vec<Vec<Sensor>>,
    // Device-type interner: qualification compares u32 ids, snapshots
    // read the name back.
    type_names: Vec<String>,
    type_ids: HashMap<String, u32>,
    // Identity and reuse.
    slot_of: BTreeMap<ImeiHash, DeviceSlot>,
    free: Vec<DeviceSlot>,
    grid: GridIndex<DeviceSlot>,
    // Dirty-column tracking for delta snapshots: off by default (one
    // branch per mutation), marks touched IMEIs while on.
    track_dirty: bool,
    dirty: BTreeSet<ImeiHash>,
}

impl Default for SoaDeviceStore {
    fn default() -> Self {
        SoaDeviceStore::new()
    }
}

impl SoaDeviceStore {
    /// Grid cell edge for the position index, metres — matches the
    /// reference store so spatial query behaviour is identical.
    const INDEX_CELL_M: f64 = 250.0;

    /// An empty store.
    pub fn new() -> Self {
        SoaDeviceStore {
            hot: Vec::new(),
            flags: Vec::new(),
            sensor_mask: Vec::new(),
            type_id: Vec::new(),
            position: Vec::new(),
            cell: Vec::new(),
            sensors: Vec::new(),
            type_names: Vec::new(),
            type_ids: HashMap::new(),
            slot_of: BTreeMap::new(),
            free: Vec::new(),
            grid: GridIndex::new(Self::INDEX_CELL_M),
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

    /// The slot holding `imei`, if registered. Exposed so slot-aware
    /// callers (benches, invariant checks) can observe reuse.
    pub fn slot_of(&self, imei: ImeiHash) -> Option<DeviceSlot> {
        self.slot_of.get(&imei).copied()
    }

    /// Total slots ever allocated (live + free) — capacity telemetry for
    /// the memory cells.
    pub fn slot_capacity(&self) -> usize {
        self.hot.len()
    }

    fn intern_type(&mut self, name: &str) -> u32 {
        if let Some(id) = self.type_ids.get(name) {
            return *id;
        }
        let id = self.type_names.len() as u32;
        self.type_names.push(name.to_owned());
        self.type_ids.insert(name.to_owned(), id);
        id
    }

    /// Allocates (or reuses) a slot for a new imei and writes `record`
    /// into its columns.
    fn alloc(&mut self, record: DeviceRecord) -> DeviceSlot {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = DeviceSlot(self.hot.len() as u32);
                self.hot.push(HotRow::EMPTY);
                self.flags.push(0);
                self.sensor_mask.push(0);
                self.type_id.push(0);
                self.position.push(None);
                self.cell.push(None);
                self.sensors.push(Vec::new());
                slot
            }
        };
        self.slot_of.insert(record.imei, slot);
        self.write(slot, record);
        slot
    }

    /// Overwrites every column of `slot` from `record` and syncs the grid.
    fn write(&mut self, slot: DeviceSlot, record: DeviceRecord) {
        let i = slot.0 as usize;
        self.hot[i] = HotRow::of(&record);
        self.flags[i] = live_flags(&record);
        self.sensor_mask[i] = sensor_mask(&record.sensors);
        self.type_id[i] = self.intern_type(&record.device_type);
        self.position[i] = record.position;
        self.cell[i] = record.cell;
        self.sensors[i] = record.sensors;
        match record.position {
            Some(p) => self.grid.insert(slot, p),
            None => {
                self.grid.remove(slot);
            }
        }
    }

    /// The full record stored at `slot`, read out of the columns.
    fn view(&self, slot: DeviceSlot) -> RecordView<'_> {
        let i = slot.0 as usize;
        let hot = &self.hot[i];
        RecordView {
            imei: hot.imei,
            energy_budget_j: hot.energy_budget_j,
            critical_battery_pct: hot.critical_battery_pct,
            cs_energy_j: hot.cs_energy_j,
            battery_pct: hot.battery_pct,
            times_selected: hot.times_selected,
            last_comm: hot.last_comm,
            position: self.position[i],
            cell: self.cell[i],
            sensors: &self.sensors[i],
            device_type: &self.type_names[self.type_id[i] as usize],
            responsive: self.flags[i] & RESPONSIVE != 0,
            data_valid: self.flags[i] & DATA_VALID != 0,
            reliability: hot.reliability,
        }
    }

    /// The qualification predicate, written once: calls `f` with the slot
    /// index of every live, responsive, data-valid device inside the
    /// probe's region that carries its sensor and matches any device-type
    /// restriction. Reads only the filter columns.
    fn for_each_qualified(&self, probe: &QualificationProbe, mut f: impl FnMut(usize)) {
        let want_type = match probe.device_type.as_deref() {
            None => None,
            Some(name) => match self.type_ids.get(name) {
                Some(id) => Some(*id),
                // No registered device has ever carried this type.
                None => return,
            },
        };
        let sbit = sensor_bit(probe.sensor);
        self.grid.for_each_in_circle(&probe.region, |slot| {
            let i = slot.0 as usize;
            if self.flags[i] & QUALIFIES == QUALIFIES
                && self.sensor_mask[i] & sbit != 0
                && want_type.is_none_or(|t| self.type_id[i] == t)
            {
                f(i);
            }
        });
    }
}

impl DeviceIndex for SoaDeviceStore {
    fn insert(&mut self, record: DeviceRecord) {
        self.mark(record.imei);
        match self.slot_of.get(&record.imei) {
            // Re-registering keeps the imei's slot: column overwrite.
            Some(&slot) => self.write(slot, record),
            None => {
                self.alloc(record);
            }
        }
    }

    fn remove(&mut self, imei: ImeiHash) -> Option<DeviceRecord> {
        self.slot_of.get(&imei)?;
        self.mark(imei);
        let slot = self.slot_of.remove(&imei)?;
        let record = self.view(slot).to_record();
        let i = slot.0 as usize;
        self.grid.remove(slot);
        self.flags[i] = 0; // dead slots can never qualify
        self.position[i] = None;
        self.cell[i] = None;
        self.sensors[i] = Vec::new();
        self.free.push(slot);
        Some(record)
    }

    fn len(&self) -> usize {
        self.slot_of.len()
    }

    fn get(&self, imei: ImeiHash) -> Option<DeviceRecord> {
        self.slot_of
            .get(&imei)
            .map(|slot| self.view(*slot).to_record())
    }

    fn cell_of(&self, imei: ImeiHash) -> Option<CellId> {
        self.slot_of
            .get(&imei)
            .and_then(|s| self.cell[s.0 as usize])
    }

    fn observe(&mut self, imei: ImeiHash, position: GeoPoint, cell: Option<CellId>) -> bool {
        let Some(&slot) = self.slot_of.get(&imei) else {
            return false;
        };
        self.mark(imei);
        let i = slot.0 as usize;
        self.position[i] = Some(position);
        self.cell[i] = cell;
        self.grid.insert(slot, position);
        true
    }

    fn refresh_registration(&mut self, record: &DeviceRecord) -> bool {
        let Some(&slot) = self.slot_of.get(&record.imei) else {
            return false;
        };
        self.mark(record.imei);
        let i = slot.0 as usize;
        let hot = &mut self.hot[i];
        hot.energy_budget_j = record.energy_budget_j;
        hot.critical_battery_pct = record.critical_battery_pct;
        hot.battery_pct = record.battery_pct;
        hot.last_comm = record.last_comm;
        self.sensor_mask[i] = sensor_mask(&record.sensors);
        self.sensors[i] = record.sensors.clone();
        self.type_id[i] = self.intern_type(&record.device_type);
        self.flags[i] |= RESPONSIVE;
        true
    }

    fn update_preferences(
        &mut self,
        imei: ImeiHash,
        energy_budget_j: f64,
        critical_battery_pct: f64,
    ) -> bool {
        let Some(&slot) = self.slot_of.get(&imei) else {
            return false;
        };
        self.mark(imei);
        let hot = &mut self.hot[slot.0 as usize];
        hot.energy_budget_j = energy_budget_j;
        hot.critical_battery_pct = critical_battery_pct;
        true
    }

    fn update_state(
        &mut self,
        imei: ImeiHash,
        battery_pct: f64,
        cs_energy_j: f64,
        now: SimTime,
    ) -> bool {
        let Some(&slot) = self.slot_of.get(&imei) else {
            return false;
        };
        self.mark(imei);
        let i = slot.0 as usize;
        let hot = &mut self.hot[i];
        hot.battery_pct = battery_pct;
        hot.cs_energy_j = cs_energy_j;
        hot.last_comm = now;
        self.flags[i] |= RESPONSIVE;
        true
    }

    fn record_comm(&mut self, imei: ImeiHash, now: SimTime) -> bool {
        let Some(&slot) = self.slot_of.get(&imei) else {
            return false;
        };
        self.mark(imei);
        let i = slot.0 as usize;
        self.hot[i].last_comm = now;
        self.flags[i] |= RESPONSIVE;
        true
    }

    fn bump_selected(&mut self, imei: ImeiHash) -> bool {
        let Some(&slot) = self.slot_of.get(&imei) else {
            return false;
        };
        self.mark(imei);
        self.hot[slot.0 as usize].times_selected += 1;
        true
    }

    fn set_responsive(&mut self, imei: ImeiHash, responsive: bool) -> bool {
        let Some(&slot) = self.slot_of.get(&imei) else {
            return false;
        };
        self.mark(imei);
        let i = slot.0 as usize;
        if responsive {
            self.flags[i] |= RESPONSIVE;
        } else {
            self.flags[i] &= !RESPONSIVE;
        }
        true
    }

    fn set_data_valid(&mut self, imei: ImeiHash, valid: bool) -> bool {
        let Some(&slot) = self.slot_of.get(&imei) else {
            return false;
        };
        self.mark(imei);
        let i = slot.0 as usize;
        if valid {
            self.flags[i] |= DATA_VALID;
        } else {
            self.flags[i] &= !DATA_VALID;
        }
        true
    }

    fn for_each_candidate(&self, probe: &QualificationProbe, f: &mut dyn FnMut(&CandidateRow)) {
        self.for_each_qualified(probe, |i| f(&self.hot[i].candidate()));
    }

    fn candidates_into(&self, probe: &QualificationProbe, out: &mut Vec<CandidateRow>) {
        // Order 16-byte keys, then materialise each row once, in place —
        // sorting the 64-byte rows themselves moves four times the bytes.
        let mut keys: Vec<(ImeiHash, u32)> = Vec::new();
        self.for_each_qualified(probe, |i| keys.push((self.hot[i].imei, i as u32)));
        keys.sort_unstable();
        out.extend(keys.iter().map(|&(_, i)| self.hot[i as usize].candidate()));
    }

    fn qualified_count(&self, probe: &QualificationProbe) -> usize {
        // Counting never needs the hot rows.
        let mut n = 0;
        self.for_each_qualified(probe, |_| n += 1);
        n
    }

    fn records(&self) -> Box<dyn Iterator<Item = RecordView<'_>> + '_> {
        // `slot_of` is keyed by IMEI, so iteration is already ordered.
        Box::new(self.slot_of.values().map(|slot| self.view(*slot)))
    }

    fn extend_sorted(&mut self, records: Vec<DeviceRecord>) {
        // The bulk build is for the job it is named after: a store no
        // slot has ever been allocated in, and a strictly ascending run.
        // Anything else is a sequence of registrations.
        if !self.hot.is_empty() || !records.windows(2).all(|w| w[0].imei < w[1].imei) {
            for record in records {
                self.insert(record);
            }
            return;
        }
        let n = records.len();
        self.hot.reserve_exact(n);
        self.flags.reserve_exact(n);
        self.sensor_mask.reserve_exact(n);
        self.type_id.reserve_exact(n);
        self.position.reserve_exact(n);
        self.cell.reserve_exact(n);
        self.sensors.reserve_exact(n);
        if self.track_dirty {
            self.dirty
                .append(&mut records.iter().map(|r| r.imei).collect());
        }
        // Slot = place in the run, as sequential inserts would assign.
        let mut placed: Vec<(DeviceSlot, GeoPoint)> = Vec::with_capacity(n);
        let mut last_type: Option<u32> = None;
        for (i, record) in records.into_iter().enumerate() {
            let type_id = match last_type {
                Some(id) if self.type_names[id as usize] == record.device_type => id,
                _ => self.intern_type(&record.device_type),
            };
            last_type = Some(type_id);
            self.hot.push(HotRow::of(&record));
            self.flags.push(live_flags(&record));
            self.sensor_mask.push(sensor_mask(&record.sensors));
            self.type_id.push(type_id);
            self.position.push(record.position);
            self.cell.push(record.cell);
            self.sensors.push(record.sensors);
            if let Some(position) = record.position {
                placed.push((DeviceSlot(i as u32), position));
            }
        }
        self.slot_of = self
            .hot
            .iter()
            .enumerate()
            .map(|(i, row)| (row.imei, DeviceSlot(i as u32)))
            .collect();
        self.grid = GridIndex::from_run(Self::INDEX_CELL_M, &placed);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::device_store::{new_record, DeviceStore};
    use senseaid_geo::CircleRegion;

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

    fn probe(radius: f64) -> QualificationProbe {
        QualificationProbe::new(Sensor::Barometer, CircleRegion::new(centre(), radius))
    }

    /// The rows `for_each_candidate` yields, put in IMEI order.
    fn walked(store: &dyn DeviceIndex, probe: &QualificationProbe) -> Vec<CandidateRow> {
        let mut rows = Vec::new();
        store.for_each_candidate(probe, &mut |row| rows.push(*row));
        rows.sort_unstable_by_key(|r| r.imei);
        rows
    }

    /// Drives the SoA store and the reference store through the same
    /// mixed history and checks every observable agrees.
    #[test]
    fn agrees_with_reference_store_through_churn() {
        let mut soa = SoaDeviceStore::new();
        let mut aos = DeviceStore::new();
        let both: &mut [&mut dyn DeviceIndex] = &mut [&mut soa, &mut aos];
        for store in both.iter_mut() {
            for id in 1..=40u64 {
                store.insert(record(id));
                store.observe(
                    ImeiHash(id),
                    centre().offset_by_meters(f64::from(id as u32) * 35.0, 0.0),
                    Some(senseaid_cellnet::CellId(id as usize % 3)),
                );
            }
            // Mixed mutations.
            store.update_state(ImeiHash(3), 42.0, 100.0, SimTime::from_mins(2));
            store.set_responsive(ImeiHash(5), false);
            store.set_data_valid(ImeiHash(6), false);
            store.bump_selected(ImeiHash(7));
            store.update_preferences(ImeiHash(8), 200.0, 30.0);
            store.record_comm(ImeiHash(9), SimTime::from_mins(4));
            // Churn: deregister some, re-register one of them.
            store.remove(ImeiHash(10));
            store.remove(ImeiHash(11));
            store.insert(record(10));
            store.observe(ImeiHash(10), centre(), None);
            // Re-registration refresh of a live device.
            let mut refreshed = record(12);
            refreshed.battery_pct = 55.0;
            refreshed.device_type = "iPhone6".to_owned();
            refreshed.last_comm = SimTime::from_mins(6);
            store.refresh_registration(&refreshed);
        }
        assert_eq!(soa.len(), aos.len());
        assert_eq!(soa.snapshot_records(), aos.snapshot_records());
        // Qualify through the trait: the reference store's *inherent*
        // `candidates`/`get` are the deprecated pointer-returning shims.
        let aos_index: &dyn DeviceIndex = &aos;
        for radius in [100.0, 400.0, 900.0, 2000.0] {
            let p = probe(radius);
            let (mut soa_rows, mut aos_rows) = (Vec::new(), Vec::new());
            soa.candidates_into(&p, &mut soa_rows);
            aos_index.candidates_into(&p, &mut aos_rows);
            assert_eq!(soa_rows, aos_rows, "radius {radius}");
            // The walk covers the same set (sorted it is the same slice).
            assert_eq!(walked(&soa, &p), soa_rows, "radius {radius} (walk)");
            assert_eq!(soa.qualified_count(&p), aos_index.qualified_count(&p));
        }
        for id in 1..=40u64 {
            assert_eq!(
                soa.get(ImeiHash(id)),
                aos_index.get(ImeiHash(id)),
                "imei {id}"
            );
            assert_eq!(soa.cell_of(ImeiHash(id)), aos_index.cell_of(ImeiHash(id)));
        }
    }

    #[test]
    fn slots_are_recycled_through_the_free_list() {
        let mut store = SoaDeviceStore::new();
        for id in 1..=4u64 {
            store.insert(record(id));
        }
        assert_eq!(store.slot_capacity(), 4);
        let freed = store.slot_of(ImeiHash(2)).unwrap();
        store.remove(ImeiHash(2));
        assert_eq!(store.len(), 3);
        // The next registration reuses the freed slot; capacity is flat.
        store.insert(record(9));
        assert_eq!(store.slot_of(ImeiHash(9)), Some(freed));
        assert_eq!(store.slot_capacity(), 4);
        // Re-registering a live imei keeps its slot.
        let slot3 = store.slot_of(ImeiHash(3)).unwrap();
        store.insert(record(3));
        assert_eq!(store.slot_of(ImeiHash(3)), Some(slot3));
        assert_eq!(store.slot_capacity(), 4);
    }

    #[test]
    fn dead_slots_never_qualify() {
        let mut store = SoaDeviceStore::new();
        store.insert(record(1));
        store.observe(ImeiHash(1), centre(), None);
        assert_eq!(store.qualified_count(&probe(500.0)), 1);
        store.remove(ImeiHash(1));
        assert_eq!(store.qualified_count(&probe(500.0)), 0);
        assert!(store.get(ImeiHash(1)).is_none());
        assert!(!store.observe(ImeiHash(1), centre(), None));
        assert!(!store.update_state(ImeiHash(1), 10.0, 0.0, SimTime::ZERO));
    }

    #[test]
    fn unknown_device_type_restriction_matches_nothing() {
        let mut store = SoaDeviceStore::new();
        store.insert(record(1));
        store.observe(ImeiHash(1), centre(), None);
        let mut p = probe(500.0);
        p.device_type = Some("NeverRegistered".to_owned());
        assert_eq!(store.qualified_count(&p), 0);
        let mut rows = Vec::new();
        store.candidates_into(&p, &mut rows);
        assert!(rows.is_empty());
        p.device_type = Some("GalaxyS4".to_owned());
        assert_eq!(store.qualified_count(&p), 1);
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        /// One step of a random history, applied to both stores.
        fn apply(store: &mut dyn DeviceIndex, (op, id, a, b): (u32, u64, f64, f64)) {
            let imei = ImeiHash(id);
            match op {
                0 | 1 => {
                    let mut r = record(id);
                    if a < 0.0 {
                        r.sensors = vec![Sensor::Accelerometer];
                    }
                    if b < -0.5 {
                        r.device_type = "iPhone6".to_owned();
                    }
                    r.battery_pct = 50.0 + 50.0 * a.abs();
                    store.insert(r);
                }
                2..=4 => {
                    store.observe(
                        imei,
                        centre().offset_by_meters(a * 900.0, b * 900.0),
                        Some(senseaid_cellnet::CellId(id as usize % 3)),
                    );
                }
                5 => {
                    store.update_state(
                        imei,
                        100.0 * a.abs(),
                        400.0 * b.abs(),
                        SimTime::from_secs(id),
                    );
                }
                6 => {
                    store.set_responsive(imei, a > 0.0);
                    store.set_data_valid(imei, b > -0.8);
                }
                7 => {
                    store.bump_selected(imei);
                    store.record_comm(imei, SimTime::from_secs(id + 7));
                }
                8 => {
                    store.update_preferences(imei, 600.0 * a.abs(), 40.0 * b.abs());
                }
                9 => {
                    let mut r = record(id);
                    r.battery_pct = 100.0 * b.abs();
                    r.last_comm = SimTime::from_secs(id + 11);
                    store.refresh_registration(&r);
                }
                _ => {
                    store.remove(imei);
                }
            }
        }

        proptest! {
            /// Any history leaves the SoA store and the reference store
            /// answering every probe identically — through the walk, the
            /// ordered slice and the count.
            #[test]
            fn soa_and_reference_answer_every_probe_alike(
                history in prop::collection::vec(
                    (0u32..11, 1u64..25, -1.0f64..1.0, -1.0f64..1.0),
                    0..120,
                ),
                radius in 50.0f64..1500.0,
                q_north in -600.0f64..600.0,
                q_east in -600.0f64..600.0,
                restrict in 0u32..3,
            ) {
                let mut soa = SoaDeviceStore::new();
                let mut aos = DeviceStore::new();
                for step in &history {
                    apply(&mut soa, *step);
                    apply(&mut aos, *step);
                }
                prop_assert_eq!(soa.snapshot_records(), aos.snapshot_records());
                let mut p = QualificationProbe::new(
                    Sensor::Barometer,
                    CircleRegion::new(centre().offset_by_meters(q_north, q_east), radius),
                );
                p.device_type = match restrict {
                    0 => None,
                    1 => Some("iPhone6".to_owned()),
                    _ => Some("NeverRegistered".to_owned()),
                };
                let aos: &dyn DeviceIndex = &aos;
                let (mut soa_rows, mut aos_rows) = (Vec::new(), Vec::new());
                soa.candidates_into(&p, &mut soa_rows);
                aos.candidates_into(&p, &mut aos_rows);
                prop_assert_eq!(&soa_rows, &aos_rows);
                prop_assert!(soa_rows.windows(2).all(|w| w[0].imei < w[1].imei));
                prop_assert_eq!(walked(&soa, &p), soa_rows.clone());
                prop_assert_eq!(walked(aos, &p), aos_rows);
                prop_assert_eq!(soa.qualified_count(&p), soa_rows.len());
                prop_assert_eq!(aos.qualified_count(&p), soa_rows.len());
            }

            /// A store loaded by `extend_sorted` is the store the same
            /// records `insert`ed in order fill: same records, same slot
            /// for every IMEI, same dirty marks, every probe answered
            /// alike and walked in the same order — and it stays so
            /// under further churn, freed slots reused alike.
            #[test]
            fn bulk_loaded_equals_inserted_one_by_one(
                shapes in prop::collection::vec(
                    (1u64..5, 0u32..4, -1.0f64..1.0, -1.0f64..1.0),
                    0..80,
                ),
                track_dirty in any::<bool>(),
                history in prop::collection::vec(
                    (0u32..11, 1u64..25, -1.0f64..1.0, -1.0f64..1.0),
                    0..40,
                ),
                radius in 50.0f64..1500.0,
            ) {
                // Ascending IMEIs over the range the churn history hits.
                let mut imei = 0u64;
                let records: Vec<DeviceRecord> = shapes
                    .iter()
                    .map(|&(gap, kind, a, b)| {
                        imei += gap;
                        let mut r = record(imei);
                        r.battery_pct = 50.0 + 50.0 * a.abs();
                        r.times_selected = kind as u64;
                        r.responsive = a > -0.9;
                        r.data_valid = b > -0.9;
                        match kind {
                            // Never observed: no position, no cell.
                            0 => {}
                            1 => {
                                r.sensors = vec![Sensor::Accelerometer];
                                r.device_type = "iPhone6".to_owned();
                                r.position = Some(centre().offset_by_meters(a * 900.0, b * 900.0));
                            }
                            _ => {
                                r.position = Some(centre().offset_by_meters(a * 900.0, b * 900.0));
                                r.cell = Some(senseaid_cellnet::CellId(kind as usize));
                            }
                        }
                        r
                    })
                    .collect();
                let mut bulk = SoaDeviceStore::new();
                let mut single = SoaDeviceStore::new();
                bulk.set_dirty_tracking(track_dirty);
                single.set_dirty_tracking(track_dirty);
                bulk.extend_sorted(records.clone());
                for r in records.clone() {
                    single.insert(r);
                }
                let probe = probe(radius);
                let walk_order = |store: &SoaDeviceStore| {
                    let mut rows = Vec::new();
                    store.for_each_candidate(&probe, &mut |row| rows.push(*row));
                    rows
                };
                let agree = |bulk: &SoaDeviceStore, single: &SoaDeviceStore| {
                    prop_assert_eq!(bulk.snapshot_records(), single.snapshot_records());
                    prop_assert_eq!(bulk.len(), single.len());
                    prop_assert_eq!(bulk.slot_capacity(), single.slot_capacity());
                    for id in 0..=imei.max(25) {
                        prop_assert_eq!(bulk.slot_of(ImeiHash(id)), single.slot_of(ImeiHash(id)));
                    }
                    prop_assert_eq!(bulk.dirty_touched(), single.dirty_touched());
                    let (mut b_rows, mut s_rows) = (Vec::new(), Vec::new());
                    bulk.candidates_into(&probe, &mut b_rows);
                    single.candidates_into(&probe, &mut s_rows);
                    prop_assert_eq!(b_rows, s_rows);
                    prop_assert_eq!(walk_order(bulk), walk_order(single));
                };
                agree(&bulk, &single);
                prop_assert_eq!(bulk.snapshot_records(), records);
                for step in &history {
                    apply(&mut bulk, *step);
                    apply(&mut single, *step);
                }
                agree(&bulk, &single);
                // Remove → re-register lands in the same freed slot.
                if let Some(first) = bulk.snapshot_records().first().map(|r| r.imei) {
                    let freed = bulk.slot_of(first);
                    bulk.remove(first);
                    single.remove(first);
                    bulk.insert(record(1_000));
                    single.insert(record(1_000));
                    prop_assert_eq!(bulk.slot_of(ImeiHash(1_000)), freed);
                    agree(&bulk, &single);
                }
            }
        }

        /// Input that is not the bulk build's job — a store that already
        /// holds devices, a run that is not ascending — is a sequence of
        /// registrations, repeats included.
        #[test]
        fn extend_sorted_outside_its_job_is_the_insert_loop() {
            let unsorted = vec![record(5), record(3), record(5), record(9)];
            let mut bulk = SoaDeviceStore::new();
            let mut single = SoaDeviceStore::new();
            bulk.extend_sorted(unsorted.clone());
            for r in unsorted {
                single.insert(r);
            }
            assert_eq!(bulk.snapshot_records(), single.snapshot_records());
            assert_eq!(bulk.slot_capacity(), 3);
            let more = vec![record(1), record(4), record(9)];
            bulk.extend_sorted(more.clone());
            for r in more {
                single.insert(r);
            }
            assert_eq!(bulk.snapshot_records(), single.snapshot_records());
            for id in 0..10 {
                assert_eq!(bulk.slot_of(ImeiHash(id)), single.slot_of(ImeiHash(id)));
            }
        }
    }
}
