//! Order statistics for the benchmark's reports: medians, quartiles by
//! the same rule as Python's `statistics.quantiles(values, n=4)` (the
//! rule the PR driver applies to this benchmark's outputs, so `compare`
//! and the driver agree on what "spread" means), and the percentile
//! ladder with the "at least ten samples beyond it" rule.

/// Median, quartiles and sample count of one metric's repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A metric read once per process (peak RSS, an exact count).
    pub fn single(value: f64) -> Summary {
        Summary {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Inter-quartile distance as a share of the median — the run-to-run
    /// spread `compare` holds against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            ((self.q3 - self.q1) / self.median).abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Summarise `values` (at least one). Quartiles follow Python's default
/// "exclusive" method: the i-th of the three cut points sits at position
/// `i·(n+1)/4` (1-based) with linear interpolation, clamped to the data.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summarize needs at least one value");
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return Summary::single(v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        // The clamp can push `j` past the cut, so delta is signed.
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        median: cut(2),
        q1: cut(1),
        q3: cut(3),
        n,
    }
}

/// The `p`-th percentile (0–100) of `values`, linear interpolation
/// between closest ranks.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile needs at least one value");
    let v = sorted(values);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Percentiles this benchmark reports, highest first.
const LADDER: [u32; 5] = [99, 95, 90, 80, 50];

/// The highest percentile of [`LADDER`] that still has at least ten of
/// `n` samples beyond it (`None` below 20 samples, where even the
/// median has fewer than ten on its far side).
pub fn highest_supported_percentile(n: usize) -> Option<u32> {
    LADDER
        .into_iter()
        .find(|&p| n * (100 - p as usize) >= 10 * 100)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = summarize(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
    }

    #[test]
    fn single_value_has_zero_spread() {
        let s = summarize(&[7.0]);
        assert_eq!(s, Summary::single(7.0));
        assert_eq!(s.spread(), 0.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((summarize(&v).spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 50.0), 30.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        assert_eq!(percentile(&v, 80.0), 42.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50));
        assert_eq!(highest_supported_percentile(49), Some(50));
        assert_eq!(highest_supported_percentile(50), Some(80));
        // The traced pass cuts a run into 64 windows: p80 is the highest
        // reportable percentile, which is why the metric is named p80.
        assert_eq!(highest_supported_percentile(64), Some(80));
        assert_eq!(highest_supported_percentile(100), Some(90));
        assert_eq!(highest_supported_percentile(200), Some(95));
        assert_eq!(highest_supported_percentile(1000), Some(99));
    }
}
