//! A hierarchical spatial grid index.
//!
//! `qualified_for` is the middleware's hottest query: *which registered
//! devices are inside this circle right now?* A linear scan is fine for
//! the study's 20 devices; a city-scale deployment (the paper's §8
//! scalability goal) wants an index. [`GridIndex`] buckets positions into
//! fixed-size fine cells grouped under coarse cells
//! ([`COARSE_FACTOR`]² fine cells each) and answers circle queries by
//! walking only the coarse cells the circle's bounding box touches:
//!
//! * an *empty* coarse cell skips 256 fine-cell probes with one hash
//!   lookup, so sparse city-scale maps stay sublinear in query area;
//! * a coarse or fine cell *provably inside* the circle is emitted whole,
//!   without per-point distance checks (the bound is conservative, so the
//!   answer is always byte-identical to a brute-force scan);
//! * points of boundary cells go through a per-query [`CircleTest`] that
//!   decides almost all of them from two quadratic bounds and calls the
//!   exact (trigonometric) `contains` only in the sliver between them.
//!
//! Positions are stored inline with their keys in the fine buckets, so the
//! hot query path never chases a side map.

use std::collections::{BTreeMap, HashMap};

use serde::{Deserialize, Serialize};

use crate::point::{GeoPoint, EARTH_RADIUS_M};
use crate::region::CircleRegion;

/// Nominal metres per degree that turns `cell_m` into the fine-cell edge.
/// It only sizes cells, and is frozen: changing it would re-bucket every
/// stored position. Everything that must agree with the metric — the
/// bounding box and the circle test — uses [`M_PER_DEG`].
const CELL_M_PER_DEG: f64 = 111_320.0;

/// Metres per degree of latitude under the workspace metric
/// ([`GeoPoint::distance_to`]).
const M_PER_DEG: f64 = EARTH_RADIUS_M * std::f64::consts::PI / 180.0;

/// Relative slack on every squared-distance threshold and on the bounding
/// box: nine orders of magnitude above `f64` rounding, so a bound that
/// holds with the slack holds for the values `contains` computes.
const SLACK: f64 = 1e-9;

/// Absolute slack on the cosine bounds, covering the rounding of a
/// latitude to its cell row and of `cos` itself at any latitude.
const COS_SLACK: f64 = 1e-12;

/// Fine cells per coarse-cell edge. 16×16 fine cells per coarse cell puts
/// a 250 m fine grid under ~4 km coarse cells — one coarse lookup skips a
/// whole neighbourhood when it is empty.
const COARSE_FACTOR: i32 = 16;

/// One coarse cell: the occupied fine buckets under it plus a live count.
///
/// The fine map is a `BTreeMap` so traversal order is deterministic (the
/// workspace's shard-invariance suite byte-compares query-derived state).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CoarseCell<K: Copy + Eq + Ord + std::hash::Hash> {
    total: usize,
    fine: BTreeMap<(i32, i32), Vec<(K, GeoPoint)>>,
}

impl<K: Copy + Eq + Ord + std::hash::Hash> Default for CoarseCell<K> {
    fn default() -> Self {
        CoarseCell {
            total: 0,
            fine: BTreeMap::new(),
        }
    }
}

/// One query's circle-membership test, trig-free for almost every point.
///
/// `contains` computes `Δlon²·cos²(mean_lat) + Δlat² ≤ (r/R)²` with a
/// `cos` per point. Every point the walk filters lies in the query's
/// latitude rows, so its `mean_lat` lies in a band known up front and
/// `cos(mean_lat)` between the band's extremes `cos_lo ≤ cos_hi`. Then
///
/// * `Δlon²·cos²_hi + Δlat² ≤ (r/R)²·(1 − SLACK)` ⇒ inside, and
/// * `Δlon²·cos²_lo + Δlat² > (r/R)²·(1 + SLACK)` ⇒ outside,
///
/// because the left sides bound the exact quadratic from above and below
/// and the slack dwarfs rounding. Only points between the two bounds — a
/// ring centimetres wide at campus scale — fall through to the exact
/// `contains`, so a decided point can never disagree with it.
struct CircleTest<'a> {
    region: &'a CircleRegion,
    lat_deg: f64,
    lon_deg: f64,
    cos2_lo: f64,
    cos2_hi: f64,
    inside_below: f64,
    outside_above: f64,
}

impl CircleTest<'_> {
    fn contains(&self, p: GeoPoint) -> bool {
        let dlon = (p.lon_deg() - self.lon_deg).to_radians();
        let dlat = (p.lat_deg() - self.lat_deg).to_radians();
        let (x2, y2) = (dlon * dlon, dlat * dlat);
        if x2 * self.cos2_hi + y2 <= self.inside_below {
            true
        } else if x2 * self.cos2_lo + y2 > self.outside_above {
            false
        } else {
            self.region.contains(p)
        }
    }
}

/// A hierarchical-grid spatial index over keys of type `K`.
///
/// Keys are unique: inserting a key again moves it. Circle queries visit
/// keys in grid-bucket order; callers that need key order sort the handful
/// of matches themselves (the candidate gather does exactly that).
///
/// # Example
///
/// ```
/// use senseaid_geo::{CircleRegion, GeoPoint, GridIndex};
///
/// let mut idx = GridIndex::new(250.0);
/// let campus = GeoPoint::new(40.4284, -86.9138);
/// idx.insert(1u32, campus);
/// idx.insert(2u32, campus.offset_by_meters(2_000.0, 0.0));
/// let mut near = Vec::new();
/// idx.for_each_in_circle(&CircleRegion::new(campus, 500.0), |k| near.push(k));
/// assert_eq!(near, vec![1]);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GridIndex<K: Copy + Eq + Ord + std::hash::Hash> {
    /// Fine-cell edge length in degrees of latitude (longitude cells use
    /// the same degree size; the contains-filter restores exactness).
    cell_deg: f64,
    coarse: HashMap<(i32, i32), CoarseCell<K>>,
    positions: BTreeMap<K, GeoPoint>,
}

impl<K: Copy + Eq + Ord + std::hash::Hash> GridIndex<K> {
    /// Creates an index with roughly `cell_m`-sized fine cells.
    ///
    /// # Panics
    ///
    /// Panics if `cell_m` is not positive and finite.
    pub fn new(cell_m: f64) -> Self {
        assert!(
            cell_m.is_finite() && cell_m > 0.0,
            "cell size {cell_m} must be positive"
        );
        GridIndex {
            cell_deg: cell_m / CELL_M_PER_DEG,
            coarse: HashMap::new(),
            positions: BTreeMap::new(),
        }
    }

    /// An index over `run`, equal in every observable — bucket order
    /// included — to [`insert`](Self::insert)ing its items one by one, in
    /// order, into an empty index; the way to load a population that is
    /// already in hand (a recovered snapshot).
    ///
    /// A run in strictly ascending key order is bucketed with one sort:
    /// each item is tagged with its (coarse, fine) cell and its place in
    /// the run, and the place is the last sort key, so every bucket holds
    /// its members in insertion order and every map is built once from
    /// sorted input. Any other run takes the insert loop, which is what
    /// defines a repeated key as a move.
    ///
    /// # Panics
    ///
    /// Panics if `cell_m` is not positive and finite.
    pub fn from_run(cell_m: f64, run: &[(K, GeoPoint)]) -> Self {
        let mut idx = GridIndex::new(cell_m);
        if !run.windows(2).all(|pair| pair[0].0 < pair[1].0) {
            for &(key, position) in run {
                idx.insert(key, position);
            }
            return idx;
        }
        let mut tags: Vec<_> = run
            .iter()
            .enumerate()
            .map(|(at, &(_, position))| {
                let fine = idx.fine_cell_of(position);
                (Self::coarse_cell_of(fine), fine, at)
            })
            .collect();
        tags.sort_unstable();
        for under_coarse in tags.chunk_by(|a, b| a.0 == b.0) {
            let cell = CoarseCell {
                total: under_coarse.len(),
                fine: under_coarse
                    .chunk_by(|a, b| a.1 == b.1)
                    .map(|bucket| (bucket[0].1, bucket.iter().map(|tag| run[tag.2]).collect()))
                    .collect(),
            };
            idx.coarse.insert(under_coarse[0].0, cell);
        }
        idx.positions = run.iter().copied().collect();
        idx
    }

    fn fine_cell_of(&self, p: GeoPoint) -> (i32, i32) {
        (
            (p.lat_deg() / self.cell_deg).floor() as i32,
            (p.lon_deg() / self.cell_deg).floor() as i32,
        )
    }

    fn coarse_cell_of(fine: (i32, i32)) -> (i32, i32) {
        (
            fine.0.div_euclid(COARSE_FACTOR),
            fine.1.div_euclid(COARSE_FACTOR),
        )
    }

    /// Number of indexed keys.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The indexed position of `key`, if present.
    pub fn position(&self, key: K) -> Option<GeoPoint> {
        self.positions.get(&key).copied()
    }

    /// Inserts `key` at `position`, moving it if already present.
    ///
    /// Re-inserting a key at its current position is a no-op: the hot
    /// per-sample update path re-reports unchanged positions constantly,
    /// and rebucketing would churn the cell vectors for nothing.
    pub fn insert(&mut self, key: K, position: GeoPoint) {
        if self.positions.get(&key) == Some(&position) {
            return;
        }
        self.remove(key);
        let fine = self.fine_cell_of(position);
        let coarse = self.coarse.entry(Self::coarse_cell_of(fine)).or_default();
        coarse.fine.entry(fine).or_default().push((key, position));
        coarse.total += 1;
        self.positions.insert(key, position);
    }

    /// Removes `key`. Returns `true` if it was present.
    pub fn remove(&mut self, key: K) -> bool {
        let Some(old) = self.positions.remove(&key) else {
            return false;
        };
        let fine = self.fine_cell_of(old);
        let coarse_key = Self::coarse_cell_of(fine);
        if let Some(coarse) = self.coarse.get_mut(&coarse_key) {
            if let Some(bucket) = coarse.fine.get_mut(&fine) {
                let before = bucket.len();
                bucket.retain(|(k, _)| *k != key);
                coarse.total -= before - bucket.len();
                if bucket.is_empty() {
                    coarse.fine.remove(&fine);
                }
            }
            if coarse.total == 0 {
                self.coarse.remove(&coarse_key);
            }
        }
        true
    }

    /// Whether the fine-cell rectangle `[lat_lo..=lat_hi] × [lon_lo..=
    /// lon_hi]` lies *provably* inside `region` under the workspace's
    /// equirectangular metric. Conservative: `cos(mean_lat) ≤ 1` bounds
    /// the true distance from above for every point of the rectangle, and
    /// the relative slack swallows floating-point noise — so a `true`
    /// here can never disagree with a per-point `contains` check, while a
    /// borderline cell simply falls through to the exact filter.
    fn cells_definitely_inside(
        &self,
        region: &CircleRegion,
        lat_lo: i32,
        lat_hi: i32,
        lon_lo: i32,
        lon_hi: i32,
    ) -> bool {
        let c = region.centre();
        let lat0 = f64::from(lat_lo) * self.cell_deg;
        let lat1 = (f64::from(lat_hi) + 1.0) * self.cell_deg;
        let lon0 = f64::from(lon_lo) * self.cell_deg;
        let lon1 = (f64::from(lon_hi) + 1.0) * self.cell_deg;
        let dy = (c.lat_deg() - lat0)
            .abs()
            .max((c.lat_deg() - lat1).abs())
            .to_radians();
        let dx = (c.lon_deg() - lon0)
            .abs()
            .max((c.lon_deg() - lon1).abs())
            .to_radians();
        EARTH_RADIUS_M * (dy * dy + dx * dx).sqrt() <= region.radius_m() * (1.0 - 1e-6)
    }

    /// The traversal skeleton behind every circle query: calls `visit`
    /// once per occupied bucket the circle's bounding box touches, with
    /// `Some(test)` when the caller must still filter the bucket's points
    /// and `None` when the bucket's cell is provably inside the circle
    /// (every member matches).
    ///
    /// The box is derived from the metric itself, rounded outwards: a
    /// point inside the circle has `|Δlat| ≤ r/R` and `|Δlon| ≤
    /// r/(R·cos(mean_lat))`, and `mean_lat` of any point in the box's rows
    /// lies in the band the cosine bounds are taken over.
    fn visit_buckets(
        &self,
        region: &CircleRegion,
        mut visit: impl FnMut(&[(K, GeoPoint)], Option<&CircleTest<'_>>),
    ) {
        let centre = region.centre();
        let r_deg = region.radius_m() / M_PER_DEG * (1.0 + SLACK);
        let lat_lo = ((centre.lat_deg() - r_deg) / self.cell_deg).floor() as i32;
        let lat_hi = ((centre.lat_deg() + r_deg) / self.cell_deg).floor() as i32;
        // `mean_lat` ranges over the midpoints between the centre and the
        // outer edges of the visited rows.
        let band_lo = ((centre.lat_deg() + f64::from(lat_lo) * self.cell_deg) / 2.0).max(-90.0);
        let band_hi =
            ((centre.lat_deg() + (f64::from(lat_hi) + 1.0) * self.cell_deg) / 2.0).min(90.0);
        let (cos_a, cos_b) = (band_lo.to_radians().cos(), band_hi.to_radians().cos());
        let cos_lo = (cos_a.min(cos_b) - COS_SLACK).max(0.0);
        let cos_hi = if band_lo <= 0.0 && band_hi >= 0.0 {
            1.0
        } else {
            (cos_a.max(cos_b) + COS_SLACK).min(1.0)
        };
        let r_lon_deg = r_deg / cos_lo.max(1e-9);
        let lon_lo = ((centre.lon_deg() - r_lon_deg).max(-180.0) / self.cell_deg).floor() as i32;
        let lon_hi = ((centre.lon_deg() + r_lon_deg).min(180.0) / self.cell_deg).floor() as i32;
        let r_rad2 = (region.radius_m() / EARTH_RADIUS_M).powi(2);
        let test = CircleTest {
            region,
            lat_deg: centre.lat_deg(),
            lon_deg: centre.lon_deg(),
            cos2_lo: cos_lo * cos_lo,
            cos2_hi: cos_hi * cos_hi,
            inside_below: r_rad2 * (1.0 - SLACK),
            outside_above: r_rad2 * (1.0 + SLACK),
        };
        for c_lat in lat_lo.div_euclid(COARSE_FACTOR)..=lat_hi.div_euclid(COARSE_FACTOR) {
            for c_lon in lon_lo.div_euclid(COARSE_FACTOR)..=lon_hi.div_euclid(COARSE_FACTOR) {
                let Some(cell) = self.coarse.get(&(c_lat, c_lon)) else {
                    continue;
                };
                let base_lat = c_lat * COARSE_FACTOR;
                let base_lon = c_lon * COARSE_FACTOR;
                if self.cells_definitely_inside(
                    region,
                    base_lat,
                    base_lat + COARSE_FACTOR - 1,
                    base_lon,
                    base_lon + COARSE_FACTOR - 1,
                ) {
                    for bucket in cell.fine.values() {
                        visit(bucket, None);
                    }
                    continue;
                }
                let f_lat_lo = lat_lo.max(base_lat);
                let f_lat_hi = lat_hi.min(base_lat + COARSE_FACTOR - 1);
                let f_lon_lo = lon_lo.max(base_lon);
                let f_lon_hi = lon_hi.min(base_lon + COARSE_FACTOR - 1);
                for (&(flat, flon), bucket) in
                    cell.fine.range((f_lat_lo, i32::MIN)..=(f_lat_hi, i32::MAX))
                {
                    if flon < f_lon_lo || flon > f_lon_hi {
                        continue;
                    }
                    let covered = self.cells_definitely_inside(region, flat, flat, flon, flon);
                    visit(bucket, (!covered).then_some(&test));
                }
            }
        }
    }

    /// Calls `f` for every key inside `region`, in grid-bucket order
    /// (*not* key order). The allocation-free primitive behind every
    /// circle query; counting callers use it directly and skip the sort.
    pub fn for_each_in_circle(&self, region: &CircleRegion, mut f: impl FnMut(K)) {
        self.visit_buckets(region, |bucket, test| match test {
            Some(test) => {
                for (k, p) in bucket {
                    if test.contains(*p) {
                        f(*k);
                    }
                }
            }
            None => {
                for (k, _) in bucket {
                    f(*k);
                }
            }
        });
    }

    /// How many keys lie inside `region`, without allocating. Buckets
    /// provably inside the circle contribute their length without any
    /// per-point work.
    pub fn count_in_circle(&self, region: &CircleRegion) -> usize {
        let mut n = 0;
        self.visit_buckets(region, |bucket, test| {
            n += match test {
                Some(test) => bucket.iter().filter(|(_, p)| test.contains(*p)).count(),
                None => bucket.len(),
            };
        });
        n
    }

    /// Iterates over `(key, position)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (K, GeoPoint)> + '_ {
        self.positions.iter().map(|(k, p)| (*k, *p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn campus() -> GeoPoint {
        GeoPoint::new(40.4284, -86.9138)
    }

    /// All keys inside `region`, sorted — the brute-force-comparable view
    /// the tests assert against, built on the visitor primitive.
    fn sorted_keys(idx: &GridIndex<u32>, region: &CircleRegion) -> Vec<u32> {
        let mut out = Vec::new();
        idx.for_each_in_circle(region, |k| out.push(k));
        out.sort_unstable();
        out
    }

    #[test]
    fn insert_query_remove_round_trip() {
        let mut idx = GridIndex::new(200.0);
        idx.insert(7u32, campus());
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.position(7), Some(campus()));
        let region = CircleRegion::new(campus(), 100.0);
        assert_eq!(sorted_keys(&idx, &region), vec![7]);
        assert!(idx.remove(7));
        assert!(!idx.remove(7));
        assert!(idx.is_empty());
        assert!(sorted_keys(&idx, &region).is_empty());
    }

    #[test]
    fn reinsert_moves_the_key() {
        let mut idx = GridIndex::new(200.0);
        idx.insert(1u32, campus());
        idx.insert(1u32, campus().offset_by_meters(5_000.0, 0.0));
        assert_eq!(idx.len(), 1);
        assert!(sorted_keys(&idx, &CircleRegion::new(campus(), 1_000.0)).is_empty());
        let far = CircleRegion::new(campus().offset_by_meters(5_000.0, 0.0), 100.0);
        assert_eq!(sorted_keys(&idx, &far), vec![1]);
    }

    #[test]
    fn reinsert_at_same_position_is_a_noop() {
        let mut idx = GridIndex::new(200.0);
        idx.insert(1u32, campus());
        idx.insert(2u32, campus());
        // Re-report device 1 at its unchanged position: it must neither
        // disappear nor change its bucket ordering relative to device 2.
        idx.insert(1u32, campus());
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.position(1), Some(campus()));
        let region = CircleRegion::new(campus(), 100.0);
        assert_eq!(sorted_keys(&idx, &region), vec![1, 2]);
    }

    #[test]
    fn count_matches_query_len() {
        let mut idx = GridIndex::new(150.0);
        for i in 0..30u32 {
            idx.insert(i, campus().offset_by_meters(f64::from(i) * 40.0, 0.0));
        }
        for radius in [50.0, 300.0, 700.0, 2000.0] {
            let region = CircleRegion::new(campus(), radius);
            assert_eq!(
                idx.count_in_circle(&region),
                sorted_keys(&idx, &region).len()
            );
        }
    }

    #[test]
    fn results_are_sorted_and_exact_at_boundaries() {
        let mut idx = GridIndex::new(100.0);
        for i in 0..20u32 {
            idx.insert(i, campus().offset_by_meters(0.0, 50.0 * f64::from(i)));
        }
        // Radius 500 captures offsets 0..=500 → keys 0..=10.
        let got = sorted_keys(&idx, &CircleRegion::new(campus(), 501.0));
        assert_eq!(got, (0..=10).collect::<Vec<_>>());
    }

    #[test]
    fn covered_coarse_cells_are_emitted_whole() {
        // A big circle over a dense cluster: most cells sit provably
        // inside and skip per-point checks — the answer must not change.
        let mut idx = GridIndex::new(100.0);
        for i in 0..400u32 {
            let n = f64::from(i % 20) * 150.0 - 1500.0;
            let e = f64::from(i / 20) * 150.0 - 1500.0;
            idx.insert(i, campus().offset_by_meters(n, e));
        }
        for radius in [200.0, 900.0, 2500.0, 6000.0] {
            let region = CircleRegion::new(campus(), radius);
            let brute = (0..400u32)
                .filter(|i| region.contains(idx.position(*i).unwrap()))
                .count();
            assert_eq!(idx.count_in_circle(&region), brute, "radius {radius}");
        }
    }

    #[test]
    fn a_device_in_the_outer_sliver_of_the_radius_is_found() {
        // The metric has 111 195 m per degree, not the 111 320 m that sizes
        // the cells; a box built from the latter is 0.11 % too small. Put
        // a cell-row boundary inside that outer sliver, north of the
        // centre, and a device just beyond the boundary.
        let cell_deg = 250.0 / CELL_M_PER_DEG;
        let boundary = (40.4284f64 / cell_deg).ceil() * cell_deg;
        let centre = GeoPoint::new(boundary - 300.0 / CELL_M_PER_DEG - 1e-7, -86.9138);
        let device = GeoPoint::new(boundary + 1e-7, -86.9138);
        let region = CircleRegion::new(centre, 300.0);
        assert!(region.contains(device), "299.7 m from the centre");
        let mut idx = GridIndex::new(250.0);
        idx.insert(1u32, device);
        assert_eq!(sorted_keys(&idx, &region), vec![1]);
        assert_eq!(idx.count_in_circle(&region), 1);
    }

    /// Where a generated point goes: anywhere in the neighbourhood, or on
    /// purpose within ±0.2 % of the query radius, where the quadratic
    /// bounds hand over to the exact test and the bounding box ends.
    fn place(query: GeoPoint, radius: f64, (kind, a, b): (u32, f64, f64)) -> GeoPoint {
        if kind == 0 {
            let d = radius * (1.0 + 0.002 * b);
            let bearing = a * std::f64::consts::PI;
            query.offset_by_meters(d * bearing.cos(), d * bearing.sin())
        } else {
            query.offset_by_meters(a * 3000.0, b * 3000.0)
        }
    }

    proptest! {
        /// The index answers every circle query exactly like a brute-force
        /// scan — at any latitude the workspace's metric is used at,
        /// across the equator, and for points on the circle's rim.
        #[test]
        fn matches_brute_force(
            points in prop::collection::vec((0u32..3, -1.0f64..1.0, -1.0f64..1.0), 1..60),
            lat in -80.0f64..80.0,
            near_equator in 0u32..4,
            lon in -170.0f64..170.0,
            radius in 10.0f64..2500.0,
            cell_m in 50.0f64..1500.0,
        ) {
            // A quarter of the cases sit within a radius of the equator.
            let lat = if near_equator == 0 { lat / 80.0 * 0.02 } else { lat };
            let query = GeoPoint::new(lat, lon);
            let region = CircleRegion::new(query, radius);
            let mut idx = GridIndex::new(cell_m);
            let points: Vec<GeoPoint> = points.iter().map(|p| place(query, radius, *p)).collect();
            for (i, p) in points.iter().enumerate() {
                idx.insert(i as u32, *p);
            }
            let brute: Vec<u32> = points
                .iter()
                .enumerate()
                .filter(|(_, p)| region.contains(**p))
                .map(|(i, _)| i as u32)
                .collect();
            prop_assert_eq!(sorted_keys(&idx, &region), brute.clone());
            prop_assert_eq!(idx.count_in_circle(&region), brute.len());
        }

        /// An index built from a run is the index sequential inserts
        /// fill: same keys, same positions, and every circle walk visits
        /// the same keys in the *same order* — for the ascending run the
        /// bulk build takes and for a run with repeated keys, which moves
        /// them — and the two stay alike under further churn.
        #[test]
        fn built_from_a_run_equals_filled_by_inserts(
            points in prop::collection::vec((0u32..3, -1.0f64..1.0, -1.0f64..1.0), 0..150),
            key_gap in 1u32..4,
            repeat_keys in 0u32..4,
            lat in -80.0f64..80.0,
            lon in -170.0f64..170.0,
            radius in 10.0f64..2500.0,
            cell_m in 50.0f64..1500.0,
            churn in prop::collection::vec((0u32..400, -1.0f64..1.0, -1.0f64..1.0), 0..20),
        ) {
            let query = GeoPoint::new(lat, lon);
            let run: Vec<(u32, GeoPoint)> = points
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let key = if repeat_keys == 0 { i as u32 % 11 } else { i as u32 * key_gap };
                    (key, place(query, radius, *p))
                })
                .collect();
            let mut built = GridIndex::from_run(cell_m, &run);
            let mut filled = GridIndex::new(cell_m);
            for &(key, position) in &run {
                filled.insert(key, position);
            }
            let walk = |idx: &GridIndex<u32>, region: &CircleRegion| {
                let mut order = Vec::new();
                idx.for_each_in_circle(region, |k| order.push(k));
                order
            };
            // The query circle, and one wide enough that whole coarse
            // cells are emitted without a per-point test.
            let regions = [CircleRegion::new(query, radius), CircleRegion::new(query, 20_000.0)];
            for region in &regions {
                prop_assert_eq!(walk(&built, region), walk(&filled, region));
                prop_assert_eq!(built.count_in_circle(region), filled.count_in_circle(region));
            }
            prop_assert_eq!(built.len(), filled.len());
            prop_assert_eq!(built.iter().collect::<Vec<_>>(), filled.iter().collect::<Vec<_>>());
            for &(key, a, b) in &churn {
                if a < -0.5 {
                    prop_assert_eq!(built.remove(key), filled.remove(key));
                } else {
                    let position = place(query, radius, (1, a, b));
                    built.insert(key, position);
                    filled.insert(key, position);
                }
            }
            for region in &regions {
                prop_assert_eq!(walk(&built, region), walk(&filled, region));
            }
            prop_assert_eq!(built.iter().collect::<Vec<_>>(), filled.iter().collect::<Vec<_>>());
        }
    }
}
