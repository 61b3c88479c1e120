//! Order statistics, the tail-percentile rule and the regression-bound
//! comparison the benchmark reports with.

/// Median of `values` (mean of the middle pair for even counts).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest rank `ceil(n * p / 100)` of percentile `p`, in exact integer
/// arithmetic on thousandths of a percent (`99.9 * 10_000 / 100` is not
/// exactly 9990 in floating point).
fn rank(n: usize, p: f64) -> usize {
    let milli = (p * 1000.0).round() as usize;
    (n * milli).div_ceil(100_000)
}

/// Nearest-rank percentile `p` (0 < p <= 100) of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1])
}

/// Percentiles tried, in ascending order, by [`tail_percentile`].
const LADDER: [f64; 9] = [75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99, 99.999];

/// Fewest samples for which a tail beyond the median is reported.
pub const MIN_TAIL_SAMPLES: usize = 40;

/// Samples strictly beyond percentile `p` of `n` samples under the
/// nearest-rank rule.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p).min(n)
}

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it. With fewer than [`MIN_TAIL_SAMPLES`] samples only
/// the median is a meaningful summary, so the answer is `50`.
pub fn tail_percentile(n: usize) -> f64 {
    if n < MIN_TAIL_SAMPLES {
        return 50.0;
    }
    LADDER
        .iter()
        .copied()
        .filter(|&p| samples_beyond(n, p) >= 10)
        .fold(50.0, f64::max)
}

/// A latency summary as the per-run report prints it.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySummary {
    /// Samples summarized.
    pub samples: usize,
    /// Median.
    pub p50: f64,
    /// The percentile chosen by [`tail_percentile`].
    pub tail_p: f64,
    /// Its value.
    pub tail: f64,
}

/// Summarize latency samples; `None` when there are none.
pub fn summarize(values: &[f64]) -> Option<LatencySummary> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let p50 = median(&v)?;
    let tail_p = tail_percentile(v.len());
    let tail = if tail_p == 50.0 {
        p50
    } else {
        percentile_sorted(&v, tail_p)?
    };
    Some(LatencySummary {
        samples: v.len(),
        p50,
        tail_p,
        tail,
    })
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) computes them. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    Some(out)
}

/// Run-to-run spread: inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let q = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q[2] - q[0]) / med.abs())
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, sizes).
    Lower,
    /// Larger values are better (throughputs).
    Higher,
}

impl Better {
    /// Parse the `better` field of `BENCHMARK.json`.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// Whether `new` is worse than `base` by more than `bound`, a share of
/// `base`.
pub fn regressed(base: f64, new: f64, better: Better, bound: f64) -> bool {
    match better {
        Better::Lower => new > base * (1.0 + bound),
        Better::Higher => new < base * (1.0 - bound),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), Some(50.0));
        assert_eq!(percentile_sorted(&v, 99.0), Some(99.0));
        assert_eq!(percentile_sorted(&v, 100.0), Some(100.0));
        assert_eq!(percentile_sorted(&[7.0], 99.9), Some(7.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // Fewer than forty samples: the median alone.
        assert_eq!(tail_percentile(39), 50.0);
        // Forty samples leave exactly ten beyond p75.
        assert_eq!(samples_beyond(40, 75.0), 10);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(99), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(999), 95.0);
        // 1000 samples: exactly ten beyond p99.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(1_999), 99.0);
        assert_eq!(tail_percentile(2_000), 99.5);
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(10_000_000), 99.999);
    }

    #[test]
    fn summary_reports_median_alone_when_short() {
        let s = summarize(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!((s.samples, s.p50, s.tail_p, s.tail), (3, 3.0, 50.0, 3.0));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.tail_p, s.tail), (99.0, 990.0));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // Reference values from `statistics.quantiles(data, n=4)`.
        let a: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&a), Some([2.75, 5.5, 8.25]));
        let b = [3.5, 1.25, 9.0, 2.0, 7.0, 7.0, 8.5, 0.5, 4.0, 6.0];
        assert_eq!(quartiles(&b), Some([1.8125, 5.0, 7.375]));
        assert_eq!(quartiles(&[5.0, 1.0, 4.0]), Some([1.0, 4.0, 5.0]));
        assert_eq!(quartiles(&[1.0]), None);
        let s = spread(&a).unwrap();
        assert!((s - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn bound_comparison_respects_direction() {
        // Lower is better: 10% worse passes a 0.1 bound, 10.1% fails.
        assert!(!regressed(100.0, 110.0, Better::Lower, 0.1));
        assert!(regressed(100.0, 110.1, Better::Lower, 0.1));
        assert!(!regressed(100.0, 50.0, Better::Lower, 0.1));
        // Higher is better: a drop beyond the bound is the regression.
        assert!(!regressed(100.0, 90.0, Better::Higher, 0.1));
        assert!(regressed(100.0, 89.9, Better::Higher, 0.1));
        assert!(!regressed(100.0, 150.0, Better::Higher, 0.1));
        assert_eq!(Better::parse("lower"), Some(Better::Lower));
        assert_eq!(Better::parse("up"), None);
    }
}
