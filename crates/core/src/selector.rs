//! The device selector (paper §3.2).
//!
//! Each qualified device gets a score
//!
//! ```text
//! Score(i) = α·E_i + β·U_i + γ·(100 − CBL_i) + φ·TTL_i [+ ρ·(1 − R_i)]
//! ```
//!
//! where `E` is the energy the device has spent on crowdsensing, `U` the
//! number of times it has been selected, `CBL` its current battery level
//! in percent, and `TTL` the time since its most recent radio
//! communication (a small TTL means the radio may still be in its tail, so
//! the upload will be cheap). The optional `ρ` term is the reliability
//! hook the paper's related-work section points at. **Lower scores win.**
//!
//! Hard cutoffs run before scoring: a device is ineligible once it has
//! been selected more than `max_selections` times, once its crowdsensing
//! budget is exhausted, or when its battery is below the user's critical
//! level (paper: "there are also hard cutoffs for the first three
//! criteria").
//!
//! Selection is one pass: a [`SelectFold`] takes flat [`CandidateRow`]s one
//! at a time — straight from the store's walk, or from a slice — applies
//! the cutoffs, scores the survivors and keeps the best `n` in a small
//! sorted buffer. Nothing is collected per candidate, and because
//! `(score, imei)` is a total order the result does not depend on the
//! order the rows arrive in.

use serde::{Deserialize, Serialize};

use senseaid_device::ImeiHash;
use senseaid_sim::SimTime;
use senseaid_telemetry::{Attr, Lane, SpanId, Telemetry};

use crate::store::CandidateRow;

/// Scoring weights (α, β, γ, φ, ρ).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SelectorWeights {
    /// Weight on energy already spent on crowdsensing (per Joule).
    pub alpha: f64,
    /// Weight on times already selected (per selection).
    pub beta: f64,
    /// Weight on battery depletion, `100 − CBL` (per percentage point).
    pub gamma: f64,
    /// Weight on time since last radio communication (per second).
    pub phi: f64,
    /// Weight on unreliability, `1 − R` (0 disables the hook).
    pub rho: f64,
}

impl Default for SelectorWeights {
    fn default() -> Self {
        SelectorWeights {
            alpha: 1.0,
            beta: 5.0,
            gamma: 0.2,
            // Small enough that TTL (seconds-scale) breaks ties but never
            // outweighs a single fairness increment (β) — the paper's
            // Fig 9 shows strict rotation, so fairness dominates.
            phi: 0.001,
            rho: 0.0,
        }
    }
}

impl SelectorWeights {
    /// Weights that ignore everything except fairness (`β` only) — used by
    /// the ablation benches.
    pub fn fairness_only() -> Self {
        SelectorWeights {
            alpha: 0.0,
            beta: 1.0,
            gamma: 0.0,
            phi: 0.0,
            rho: 0.0,
        }
    }
}

/// Hard eligibility cutoffs applied before scoring.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HardCutoffs {
    /// A device may not be selected more than this many times.
    pub max_selections: u64,
    /// Global battery floor, %; the per-device critical level also applies,
    /// whichever is higher.
    pub min_battery_pct: f64,
    /// Minimum remaining crowdsensing budget, Joules, to stay eligible.
    pub min_remaining_budget_j: f64,
}

impl Default for HardCutoffs {
    fn default() -> Self {
        HardCutoffs {
            max_selections: 10_000,
            min_battery_pct: 5.0,
            min_remaining_budget_j: 1.0,
        }
    }
}

/// Why a selection could not be completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsufficientDevices {
    /// Devices the request needs.
    pub needed: usize,
    /// Eligible devices actually available.
    pub available: usize,
}

impl std::fmt::Display for InsufficientDevices {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "need {} devices but only {} eligible",
            self.needed, self.available
        )
    }
}

impl std::error::Error for InsufficientDevices {}

/// The scoring selector.
///
/// # Example
///
/// ```
/// use senseaid_core::{DeviceSelector, HardCutoffs, SelectorWeights};
///
/// let sel = DeviceSelector::new(SelectorWeights::default(), HardCutoffs::default());
/// assert_eq!(sel.weights().beta, 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceSelector {
    weights: SelectorWeights,
    cutoffs: HardCutoffs,
}

impl DeviceSelector {
    /// Creates a selector.
    pub fn new(weights: SelectorWeights, cutoffs: HardCutoffs) -> Self {
        DeviceSelector { weights, cutoffs }
    }

    /// The weights in use.
    pub fn weights(&self) -> SelectorWeights {
        self.weights
    }

    /// The cutoffs in use.
    pub fn cutoffs(&self) -> HardCutoffs {
        self.cutoffs
    }

    /// The paper's linear score; lower is better.
    pub fn score(&self, row: &CandidateRow, now: SimTime) -> f64 {
        let w = self.weights;
        w.alpha * row.cs_energy_j
            + w.beta * row.times_selected as f64
            + w.gamma * (100.0 - row.battery_pct)
            + w.phi * row.ttl(now).as_secs_f64()
            + w.rho * (1.0 - row.reliability)
    }

    /// Whether a device passes the hard cutoffs.
    pub fn eligible(&self, row: &CandidateRow) -> bool {
        let battery_floor = self.cutoffs.min_battery_pct.max(row.critical_battery_pct);
        row.times_selected < self.cutoffs.max_selections
            && row.remaining_budget_j >= self.cutoffs.min_remaining_budget_j
            && row.battery_pct > battery_floor
    }

    /// Starts a selection of the best `n` devices at `now`; feed it every
    /// qualified row with [`SelectFold::push`].
    pub fn fold(&self, n: usize, now: SimTime) -> SelectFold {
        SelectFold {
            selector: *self,
            needed: n,
            now,
            qualified: 0,
            eligible: 0,
            best: Vec::new(),
        }
    }

    /// Chooses the best `n` devices from `candidates`.
    ///
    /// Ties break on IMEI hash so selection is deterministic.
    ///
    /// # Errors
    ///
    /// [`InsufficientDevices`] when fewer than `n` candidates pass the hard
    /// cutoffs — the caller moves the request to the wait queue (Algorithm
    /// 1, `n > N` branch).
    pub fn select(
        &self,
        n: usize,
        candidates: &[CandidateRow],
        now: SimTime,
    ) -> Result<Vec<ImeiHash>, InsufficientDevices> {
        let mut fold = self.fold(n, now);
        for row in candidates {
            fold.push(row);
        }
        fold.select()
    }
}

/// Whether `a` is selected before `b`: lower score, then lower IMEI hash.
/// A total order — scores are finite and IMEIs unique.
fn precedes(a: &(f64, ImeiHash), b: &(f64, ImeiHash)) -> bool {
    a.0.partial_cmp(&b.0)
        .expect("scores are finite")
        .then(a.1.cmp(&b.1))
        .is_lt()
}

/// One selection in progress: a single pass over the qualified rows that
/// counts them, counts the ones passing the hard cutoffs, and keeps the
/// best `n` of those ordered by `(score, imei)`.
///
/// Every answer the control plane needs about a candidate pool falls out
/// of the same pass — the full selection, the best-effort subset, whether
/// either would succeed, and the counts the `selector.select` telemetry
/// instant reports — and none of them depends on the order rows were
/// pushed in, so rows can be streamed from shards in walk order.
#[derive(Debug, Clone)]
pub struct SelectFold {
    selector: DeviceSelector,
    needed: usize,
    now: SimTime,
    qualified: usize,
    eligible: usize,
    /// The best `needed` eligible rows so far, ascending.
    best: Vec<(f64, ImeiHash)>,
}

impl SelectFold {
    /// Takes one qualified row.
    pub fn push(&mut self, row: &CandidateRow) {
        self.qualified += 1;
        if !self.selector.eligible(row) {
            return;
        }
        self.eligible += 1;
        let entry = (self.selector.score(row, self.now), row.imei);
        if self.best.len() == self.needed {
            match self.best.last() {
                Some(worst) if precedes(&entry, worst) => self.best.pop(),
                _ => return,
            };
        }
        let at = self.best.partition_point(|kept| precedes(kept, &entry));
        self.best.insert(at, entry);
    }

    /// Rows pushed so far — the pool size `N`.
    pub fn qualified(&self) -> usize {
        self.qualified
    }

    /// Rows so far that passed the hard cutoffs.
    pub fn eligible(&self) -> usize {
        self.eligible
    }

    /// Whether [`select`](Self::select) would succeed.
    pub fn would_select(&self) -> bool {
        self.eligible >= self.needed
    }

    /// Whether any row passed the hard cutoffs, i.e. best-effort service
    /// could field at least one device.
    pub fn would_select_partial(&self) -> bool {
        self.eligible > 0
    }

    /// The best `n` devices, best first.
    ///
    /// # Errors
    ///
    /// [`InsufficientDevices`] when fewer than `n` rows passed the hard
    /// cutoffs.
    pub fn select(&self) -> Result<Vec<ImeiHash>, InsufficientDevices> {
        if self.would_select() {
            Ok(self.select_partial())
        } else {
            Err(InsufficientDevices {
                needed: self.needed,
                available: self.eligible,
            })
        }
    }

    /// The best `min(n, eligible)` devices, best first — degraded mode's
    /// best-effort subset. Equal to [`select`](Self::select)'s devices
    /// whenever that succeeds.
    pub fn select_partial(&self) -> Vec<ImeiHash> {
        self.best.iter().map(|&(_, imei)| imei).collect()
    }

    /// Records the `selector.select` telemetry instant for this execution:
    /// pool size, eligible count, outcome.
    pub fn record(&self, tel: &Telemetry) {
        if tel.active() {
            tel.instant(
                "selector.select",
                self.now,
                Lane::control(0),
                SpanId::NONE,
                vec![
                    Attr::u64("needed", self.needed as u64),
                    Attr::u64("pool", self.qualified as u64),
                    Attr::u64("eligible", self.eligible as u64),
                    Attr::flag("satisfied", self.would_select()),
                ],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::device_store::{new_record, DeviceRecord};
    use senseaid_device::Sensor;

    fn rec(id: u64) -> DeviceRecord {
        new_record(
            ImeiHash(id),
            495.0,
            15.0,
            100.0,
            vec![Sensor::Barometer],
            "GalaxyS4".to_owned(),
            SimTime::ZERO,
        )
    }

    fn row(id: u64) -> CandidateRow {
        rec(id).row()
    }

    fn selector() -> DeviceSelector {
        DeviceSelector::new(SelectorWeights::default(), HardCutoffs::default())
    }

    #[test]
    fn fresh_identical_devices_tie_break_on_imei() {
        let sel = selector();
        let picked = sel
            .select(2, &[row(3), row(1), row(2)], SimTime::ZERO)
            .unwrap();
        assert_eq!(picked, vec![ImeiHash(1), ImeiHash(2)]);
    }

    #[test]
    fn previously_selected_devices_score_worse() {
        let mut used = rec(1);
        used.times_selected = 3;
        let used = used.row();
        let fresh = row(2);
        let sel = selector();
        let now = SimTime::from_mins(10);
        assert!(sel.score(&used, now) > sel.score(&fresh, now));
        assert_eq!(
            sel.select(1, &[used, fresh], now).unwrap(),
            vec![ImeiHash(2)]
        );
    }

    #[test]
    fn energy_spent_scores_worse() {
        let mut spent = rec(1);
        spent.cs_energy_j = 50.0;
        let sel = selector();
        assert!(sel.score(&spent.row(), SimTime::ZERO) > sel.score(&row(2), SimTime::ZERO));
    }

    #[test]
    fn low_battery_scores_worse() {
        let mut low = rec(1);
        low.battery_pct = 40.0;
        let sel = selector();
        assert!(sel.score(&low.row(), SimTime::ZERO) > sel.score(&row(2), SimTime::ZERO));
    }

    #[test]
    fn recent_communication_scores_better() {
        let now = SimTime::from_mins(30);
        let mut recent = rec(1);
        recent.last_comm = SimTime::from_mins(29); // 1 min ago
        let mut stale = rec(2);
        stale.last_comm = SimTime::ZERO; // 30 min ago
        let sel = selector();
        assert!(sel.score(&recent.row(), now) < sel.score(&stale.row(), now));
    }

    #[test]
    fn reliability_hook_disabled_by_default() {
        let mut flaky = rec(1);
        flaky.reliability = 0.2;
        let flaky = flaky.row();
        let solid = row(2);
        let sel = selector();
        assert_eq!(
            sel.score(&flaky, SimTime::ZERO),
            sel.score(&solid, SimTime::ZERO)
        );
        // With ρ > 0 the flaky device scores worse.
        let sel2 = DeviceSelector::new(
            SelectorWeights {
                rho: 10.0,
                ..SelectorWeights::default()
            },
            HardCutoffs::default(),
        );
        assert!(sel2.score(&flaky, SimTime::ZERO) > sel2.score(&solid, SimTime::ZERO));
    }

    #[test]
    fn hard_cutoff_max_selections() {
        let mut maxed = rec(1);
        maxed.times_selected = 2;
        let maxed = maxed.row();
        let sel = DeviceSelector::new(
            SelectorWeights::default(),
            HardCutoffs {
                max_selections: 2,
                ..HardCutoffs::default()
            },
        );
        assert!(!sel.eligible(&maxed));
        let err = sel.select(1, &[maxed], SimTime::ZERO).unwrap_err();
        assert_eq!(
            err,
            InsufficientDevices {
                needed: 1,
                available: 0
            }
        );
    }

    #[test]
    fn hard_cutoff_budget_exhausted() {
        let mut broke = rec(1);
        broke.cs_energy_j = broke.energy_budget_j; // spent it all
        assert!(!selector().eligible(&broke.row()));
    }

    #[test]
    fn hard_cutoff_critical_battery() {
        let mut low = rec(1);
        low.battery_pct = 10.0; // below the 15 % user critical level
        assert!(!selector().eligible(&low.row()));
        let mut ok = rec(2);
        ok.battery_pct = 20.0;
        assert!(selector().eligible(&ok.row()));
    }

    #[test]
    fn global_battery_floor_applies_when_higher() {
        let sel = DeviceSelector::new(
            SelectorWeights::default(),
            HardCutoffs {
                min_battery_pct: 50.0,
                ..HardCutoffs::default()
            },
        );
        let mut rec = rec(1);
        rec.battery_pct = 40.0; // above user critical (15) but below global
        assert!(!sel.eligible(&rec.row()));
    }

    #[test]
    fn selection_is_fair_over_rounds() {
        // Round-robin emerges: with β dominating, repeatedly selecting 2 of
        // 6 devices and updating counts must spread selections evenly.
        let mut records: Vec<DeviceRecord> = (1..=6).map(rec).collect();
        let sel = selector();
        for round in 0..9 {
            let now = SimTime::from_mins(round * 10);
            let rows: Vec<CandidateRow> = records.iter().map(DeviceRecord::row).collect();
            let picked = sel.select(2, &rows, now).unwrap();
            for imei in picked {
                let r = records.iter_mut().find(|r| r.imei == imei).unwrap();
                r.times_selected += 1;
                r.cs_energy_j += 0.5;
            }
        }
        let counts: Vec<u64> = records.iter().map(|r| r.times_selected).collect();
        assert_eq!(
            counts,
            vec![3, 3, 3, 3, 3, 3],
            "18 selections over 6 devices"
        );
    }

    #[test]
    fn insufficient_devices_error_reports_counts() {
        let err = selector().select(3, &[row(1)], SimTime::ZERO).unwrap_err();
        assert_eq!(err.needed, 3);
        assert_eq!(err.available, 1);
        assert!(err.to_string().contains("need 3"));
    }

    #[test]
    fn zero_needed_always_succeeds() {
        let picked = selector().select(0, &[], SimTime::ZERO).unwrap();
        assert!(picked.is_empty());
    }

    mod equivalence {
        use super::*;
        use proptest::prelude::*;

        /// The pre-optimisation algorithm: score everything, full sort,
        /// take the first `n`. The production top-k path must match it
        /// byte for byte on every input.
        fn full_sort_select(
            sel: &DeviceSelector,
            n: usize,
            candidates: &[CandidateRow],
            now: SimTime,
        ) -> Result<Vec<ImeiHash>, InsufficientDevices> {
            let mut eligible: Vec<(ImeiHash, f64)> = candidates
                .iter()
                .filter(|r| sel.eligible(r))
                .map(|r| (r.imei, sel.score(r, now)))
                .collect();
            if eligible.len() < n {
                return Err(InsufficientDevices {
                    needed: n,
                    available: eligible.len(),
                });
            }
            eligible.sort_by(|(ia, sa), (ib, sb)| {
                sa.partial_cmp(sb)
                    .expect("scores are finite")
                    .then(ia.cmp(ib))
            });
            Ok(eligible.into_iter().take(n).map(|(imei, _)| imei).collect())
        }

        /// Rows over the whole eligibility range; a third of them are
        /// drawn from a handful of coarse values, so equal scores — ties
        /// the IMEI hash must break — are common.
        fn arb_row() -> impl Strategy<Value = CandidateRow> {
            (
                1u64..500,
                0.0f64..600.0,
                0.0f64..100.0,
                0u64..12,
                0u64..3600,
                0.0f64..1.0,
            )
                .prop_map(
                    |(id, cs_energy, battery, selections, comm_s, reliability)| {
                        let mut r = rec(id);
                        r.cs_energy_j = cs_energy;
                        r.battery_pct = battery;
                        r.times_selected = selections;
                        r.last_comm = SimTime::from_secs(comm_s);
                        r.reliability = reliability;
                        if id % 3 == 0 {
                            r.cs_energy_j = (cs_energy / 300.0).floor() * 300.0;
                            r.battery_pct = if battery < 20.0 { 10.0 } else { 90.0 };
                            r.times_selected = selections % 2;
                            r.last_comm = SimTime::ZERO;
                        }
                        r.row()
                    },
                )
        }

        proptest! {
            /// The fold is `select`: it returns what a full sort returns —
            /// same devices, same order, same shortfall report — for any
            /// `n` from 0 to beyond the pool, in any push order, and the
            /// probes derived from it are the counts they replaced.
            #[test]
            fn top_k_matches_full_sort(
                rows in prop::collection::vec(arb_row(), 0..40),
                n in 0usize..45,
                now_s in 0u64..7200,
            ) {
                // IMEIs must be unique for the tiebreak to be total.
                let mut rows = rows;
                rows.sort_by_key(|r| r.imei);
                rows.dedup_by_key(|r| r.imei);
                let sel = selector();
                let now = SimTime::from_secs(now_s);
                let expected = full_sort_select(&sel, n, &rows, now);
                prop_assert_eq!(sel.select(n, &rows, now), expected.clone());

                let eligible = rows.iter().filter(|r| sel.eligible(r)).count();
                let expected_partial = full_sort_select(&sel, n.min(eligible), &rows, now)
                    .expect("asks for no more than are eligible");
                // Ascending, descending and interleaved push orders.
                let mut interleaved = rows.clone();
                interleaved.sort_by_key(|r| (r.imei.0 % 7, r.imei));
                let reversed: Vec<CandidateRow> = rows.iter().rev().copied().collect();
                for order in [&rows, &reversed, &interleaved] {
                    let mut fold = sel.fold(n, now);
                    for row in order {
                        fold.push(row);
                    }
                    prop_assert_eq!(fold.qualified(), rows.len());
                    prop_assert_eq!(fold.eligible(), eligible);
                    prop_assert_eq!(fold.select(), expected.clone());
                    prop_assert_eq!(fold.select_partial(), expected_partial.clone());
                    prop_assert_eq!(fold.would_select(), eligible >= n);
                    prop_assert_eq!(fold.would_select_partial(), eligible > 0);
                }
            }
        }
    }
}
