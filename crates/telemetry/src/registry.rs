//! The unified metrics registry: one snapshotable, serializable view over
//! the counters and histograms scattered across the stack.
//!
//! [`RegistrySnapshot`] absorbs any `(name, value)` counter source
//! (`ServerStats`, per-client drop stats) and raw sample sets
//! ([`HistogramSummary::from_samples`]). Keys are namespaced by the caller
//! (`server.`, `client.`, `harness.`); iteration order is the `BTreeMap`
//! order, so [`RegistrySnapshot::to_json`] is deterministic.

use std::collections::BTreeMap;

use crate::export::{esc, fmt_f64};

/// A fixed summary of one distribution.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Minimum sample (0 when empty).
    pub min: f64,
    /// Maximum sample (0 when empty).
    pub max: f64,
    /// Median by nearest rank (0 when empty).
    pub p50: f64,
    /// 95th percentile by nearest rank (0 when empty).
    pub p95: f64,
}

impl HistogramSummary {
    /// Summarizes a raw sample set. Non-finite samples are ignored; the
    /// mean is Welford's running mean, the sum adds in insertion order and
    /// the percentiles are exact nearest-rank.
    pub fn from_samples(samples: &[f64]) -> HistogramSummary {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
        let sum = sorted.iter().sum();
        let mut mean = 0.0;
        for (i, &x) in sorted.iter().enumerate() {
            mean += (x - mean) / (i + 1) as f64;
        }
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-finite samples filtered"));
        let n = sorted.len();
        let rank = |q: f64| match n {
            0 => 0.0,
            _ => sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1],
        };
        HistogramSummary {
            count: n as u64,
            sum,
            mean,
            min: sorted.first().copied().unwrap_or(0.0),
            max: sorted.last().copied().unwrap_or(0.0),
            p50: rank(0.5),
            p95: rank(0.95),
        }
    }
}

/// A point-in-time view of every metric the run produced.
///
/// # Example
///
/// ```
/// use senseaid_telemetry::{HistogramSummary, RegistrySnapshot};
///
/// let mut snap = RegistrySnapshot::new();
/// snap.set_counter("harness.uploads", 3);
/// snap.set_histogram("harness.delay_s", HistogramSummary::from_samples(&[1.5]));
/// snap.absorb_counters("server.", [("requests_assigned", 7u64)]);
/// assert_eq!(snap.counter("harness.uploads"), Some(3));
/// assert_eq!(snap.counter("server.requests_assigned"), Some(7));
/// assert!(snap.to_json().contains("\"harness.delay_s\""));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegistrySnapshot {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistogramSummary>,
}

impl RegistrySnapshot {
    /// Creates an empty snapshot.
    pub fn new() -> RegistrySnapshot {
        RegistrySnapshot::default()
    }

    /// Sets (or overwrites) one counter.
    pub fn set_counter(&mut self, name: impl Into<String>, value: u64) {
        self.counters.insert(name.into(), value);
    }

    /// Adds to one counter, creating it at zero first.
    pub fn add_counter(&mut self, name: impl Into<String>, value: u64) {
        *self.counters.entry(name.into()).or_default() += value;
    }

    /// Sets (or overwrites) one histogram summary.
    pub fn set_histogram(&mut self, name: impl Into<String>, summary: HistogramSummary) {
        self.histograms.insert(name.into(), summary);
    }

    /// Absorbs `(name, value)` counter pairs under `prefix`; repeated names
    /// accumulate, so per-client stats can be folded in directly.
    pub fn absorb_counters<'a>(
        &mut self,
        prefix: &str,
        counters: impl IntoIterator<Item = (&'a str, u64)>,
    ) {
        for (name, value) in counters {
            self.add_counter(format!("{prefix}{name}"), value);
        }
    }

    /// Reads one counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Reads one histogram summary.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.get(name)
    }

    /// `(name, value)` counter pairs in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// `(name, summary)` histogram pairs in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &HistogramSummary)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Serializes the snapshot as one deterministic JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, value)) in self.counters().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", esc(name), value));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"sum\":{},\"mean\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{}}}",
                esc(name),
                h.count,
                fmt_f64(h.sum),
                fmt_f64(h.mean),
                fmt_f64(h.min),
                fmt_f64(h.max),
                fmt_f64(h.p50),
                fmt_f64(h.p95),
            ));
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_counter_names_accumulate() {
        let mut snap = RegistrySnapshot::new();
        snap.absorb_counters("client.", [("dropped", 2u64)]);
        snap.absorb_counters("client.", [("dropped", 3u64)]);
        assert_eq!(snap.counter("client.dropped"), Some(5));
    }

    #[test]
    fn json_is_name_ordered_and_stable() {
        let mut snap = RegistrySnapshot::new();
        snap.set_counter("z", 1);
        snap.set_counter("a", 2);
        snap.set_histogram("d", HistogramSummary::from_samples(&[2.0]));
        let json = snap.to_json();
        assert!(json.find("\"a\":2").unwrap() < json.find("\"z\":1").unwrap());
        assert_eq!(json, snap.clone().to_json());
        assert!(json.contains("\"count\":1"));
    }

    /// Golden bits captured from the `simcore::Histogram`-backed
    /// implementation this replaced: registry JSON must not move.
    #[test]
    fn from_samples_matches_the_golden_bits() {
        let mut rng = senseaid_sim::SimRng::from_seed(0x05EE_DA1D);
        let seeded: Vec<f64> = (0..1000).map(|_| rng.normal(40.0, 250.0)).collect();
        // (samples, count, [sum, mean, min, max, p50, p95])
        let cases: [(&[f64], u64, [u64; 6]); 4] = [
            // An empty `f64` sum is -0.0.
            (&[], 0, [0x8000000000000000, 0, 0, 0, 0, 0]),
            (&[2.5], 1, [0x4004000000000000; 6]),
            (
                &[f64::NAN, 3.0, f64::INFINITY, -1.25, f64::NEG_INFINITY, 0.1],
                3,
                [
                    0x3ffd99999999999a,
                    0x3fe3bbbbbbbbbbbc,
                    0xbff4000000000000,
                    0x4008000000000000,
                    0x3fb999999999999a,
                    0x4008000000000000,
                ],
            ),
            (
                &seeded,
                1000,
                [
                    0x40e6150d269104d1,
                    0x40469cb97f8e5af2,
                    0xc084530c6857fe7e,
                    0x408826da47f4279d,
                    0x40458d371d819b58,
                    0x407bfcece02b3d08,
                ],
            ),
        ];
        for (samples, count, bits) in cases {
            let s = HistogramSummary::from_samples(samples);
            assert_eq!(s.count, count);
            let got = [s.sum, s.mean, s.min, s.max, s.p50, s.p95].map(f64::to_bits);
            assert_eq!(got, bits, "n={}", samples.len());
        }
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let s = HistogramSummary::from_samples(&[]);
        assert_eq!(s, HistogramSummary::default());
    }
}
