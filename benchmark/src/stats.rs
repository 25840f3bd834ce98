//! Order statistics the benchmark reports: medians, quartiles, and the
//! tail rule from the metrics guide — a timing is reported as its median
//! and *the highest percentile that still has at least ten samples beyond
//! it*, so a tail figure is never one or two outliers.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_GUARD: usize = 10;

/// Sorts ascending. Benchmark samples are never NaN (they are durations
/// and counts), so the total order exists.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are never NaN"));
}

/// Linear-interpolated quantile of an ascending slice, `q` in `[0, 1]`.
/// An empty slice reads 0.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of an unsorted sample (sorts a copy).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    quantile_sorted(&v, 0.5)
}

/// `(q1, median, q3)` by the *exclusive* method — the same numbers
/// Python's `statistics.quantiles(values, n=4)` gives, which is what the
/// acceptance rule for this benchmark is stated in.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks, clamped to the sample.
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    (at(1), at(2), at(3))
}

/// A picked tail: the 0-based index into the ascending sample and the
/// percentile it stands for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailPick {
    /// Index into the ascending sample.
    pub index: usize,
    /// The percentile reported, in `[0, 100]`.
    pub percentile: f64,
}

/// The highest percentile, at most `cap_q` (e.g. `0.99`), with at least
/// [`TAIL_GUARD`] samples strictly beyond it. When the sample is too small
/// for any percentile above the median to qualify, the median is reported
/// instead, labelled as p50.
pub fn tail_pick(n: usize, cap_q: f64) -> TailPick {
    let median = TailPick {
        index: n.saturating_sub(1) / 2,
        percentile: 50.0,
    };
    if n <= TAIL_GUARD {
        return median;
    }
    // Nearest-rank index of the capped percentile…
    let capped = ((cap_q * n as f64).ceil() as usize).clamp(1, n) - 1;
    // …pulled down until ten samples lie beyond it…
    let index = capped.min(n - 1 - TAIL_GUARD);
    // …but a "tail" below the median is no tail.
    if index <= median.index {
        return median;
    }
    TailPick {
        index,
        percentile: 100.0 * (index + 1) as f64 / n as f64,
    }
}

/// Median and guarded tail of one timing sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The guarded tail value.
    pub tail: f64,
    /// Which percentile `tail` is.
    pub tail_percentile: f64,
}

/// Summarises a timing sample (any unit) as median + guarded tail.
pub fn timing(values: &[f64], cap_q: f64) -> Timing {
    let mut v = values.to_vec();
    sort(&mut v);
    let pick = tail_pick(v.len(), cap_q);
    Timing {
        n: v.len(),
        p50: quantile_sorted(&v, 0.5),
        tail: v.get(pick.index).copied().unwrap_or(0.0),
        tail_percentile: pick.percentile,
    }
}

/// The guarded tail of a timing taken in `blocks` consecutive stretches
/// (server instances, or runs of rounds): each stretch's own guarded tail,
/// then the median of those.
///
/// Interference on a shared host comes in bursts of a second or two. A
/// tail over the whole run then reads "was there a burst", because every
/// burst lands beyond any high percentile; the median of per-stretch tails
/// reads the program, because a burst spoils one stretch and is outvoted.
pub fn block_tail(blocks: &[Vec<f64>], cap_q: f64) -> Timing {
    let per_block: Vec<Timing> = blocks
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| timing(b, cap_q))
        .collect();
    let tails: Vec<f64> = per_block.iter().map(|t| t.tail).collect();
    let pooled: Vec<f64> = blocks.iter().flatten().copied().collect();
    Timing {
        n: pooled.len(),
        p50: median(&pooled),
        tail: median(&tails),
        // Blocks are the same size to within a few samples; report the
        // lowest percentile any of them supported.
        tail_percentile: per_block
            .iter()
            .map(|t| t.tail_percentile)
            .fold(f64::INFINITY, f64::min),
    }
}

/// Splits a time-ordered sample into `blocks` consecutive stretches of
/// near-equal length.
pub fn split_blocks(values: &[f64], blocks: usize) -> Vec<Vec<f64>> {
    let blocks = blocks.clamp(1, values.len().max(1));
    (0..blocks)
        .map(|b| values[b * values.len() / blocks..(b + 1) * values.len() / blocks].to_vec())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_pick_keeps_ten_samples_beyond() {
        // 60 samples: p99 would be the maximum; the guard pulls it down to
        // index 49, which has exactly ten samples (50..=59) beyond it.
        let pick = tail_pick(60, 0.99);
        assert_eq!(pick.index, 49);
        assert!((pick.percentile - 100.0 * 50.0 / 60.0).abs() < 1e-9);
        assert_eq!(60 - 1 - pick.index, TAIL_GUARD);
    }

    #[test]
    fn tail_pick_honours_the_cap_when_the_sample_supports_it() {
        // 10 000 samples: p99 (index 9 899) has 100 beyond it; the cap wins.
        let pick = tail_pick(10_000, 0.99);
        assert_eq!(pick.index, 9_899);
        assert!((pick.percentile - 99.0).abs() < 1e-9);
        // Exactly at the boundary: 1 000 samples, p99 index 989 has ten beyond.
        assert_eq!(tail_pick(1_000, 0.99).index, 989);
        // One fewer and the guard binds.
        assert_eq!(tail_pick(999, 0.99).index, 988);
    }

    #[test]
    fn tail_pick_degrades_to_the_median_on_tiny_samples() {
        for n in 0..=2 * TAIL_GUARD + 1 {
            assert_eq!(tail_pick(n, 0.99).percentile, 50.0, "n={n}");
        }
        // 22 samples: index 11 has ten beyond it and sits above the median.
        assert_eq!(tail_pick(22, 0.99).index, 11);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn block_tail_outvotes_a_burst_that_spoils_one_stretch() {
        // Three stretches of 100 samples at ~1.0; a burst lifts twenty
        // samples of the middle stretch to 9.0.
        let quiet: Vec<f64> = (0..100).map(|i| 1.0 + f64::from(i) * 0.001).collect();
        let mut burst = quiet.clone();
        for v in burst.iter_mut().skip(40).take(20) {
            *v = 9.0;
        }
        let blocks = vec![quiet.clone(), burst, quiet.clone()];
        let pooled: Vec<f64> = blocks.iter().flatten().copied().collect();
        // Over the whole run the guarded tail (p96.7 of 300) is the burst…
        assert_eq!(timing(&pooled, 0.99).tail, 9.0);
        // …the median of per-stretch tails is the quiet program.
        let t = block_tail(&blocks, 0.99);
        assert!(t.tail < 1.1, "tail {}", t.tail);
        assert_eq!(t.n, 300);
        assert!((t.tail_percentile - 90.0).abs() < 1e-9);
        assert!((t.p50 - median(&pooled)).abs() < 1e-12);
    }

    #[test]
    fn split_blocks_covers_the_sample_in_order() {
        let v: Vec<f64> = (0..10).map(f64::from).collect();
        let blocks = split_blocks(&v, 3);
        assert_eq!(
            blocks.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![3, 3, 4]
        );
        assert_eq!(blocks.concat(), v);
        assert_eq!(split_blocks(&v, 50).len(), 10);
        assert_eq!(split_blocks(&[], 3), vec![Vec::<f64>::new()]);
    }

    #[test]
    fn timing_reports_median_tail_and_count() {
        let v: Vec<f64> = (0..2_000).map(f64::from).collect();
        let t = timing(&v, 0.99);
        assert_eq!(t.n, 2_000);
        assert!((t.p50 - 999.5).abs() < 1e-9);
        assert_eq!(t.tail, 1_979.0);
        assert!((t.tail_percentile - 99.0).abs() < 1e-9);
    }
}
