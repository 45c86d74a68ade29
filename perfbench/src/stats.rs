//! Order statistics for latency samples.
//!
//! Every timing is reported as a median plus a tail percentile, and a
//! percentile is only trusted when at least [`MIN_BEYOND`] samples lie
//! beyond it: with fewer, the tail is a handful of outliers, not a
//! distribution.

/// Samples that must lie strictly above a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The percentiles a tail may be reported at, lowest first.
const TAIL_LADDER: [(&str, f64); 5] =
    [("p90", 0.9), ("p99", 0.99), ("p99.9", 0.999), ("p99.99", 0.9999), ("p99.999", 0.99999)];

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank quantile of an ascending slice; 0 when empty.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// How many of `n` samples lie beyond the nearest-rank quantile `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it, as `(label, q)`; `None` when even p90 has too few.
pub fn tail_choice(n: usize) -> Option<(&'static str, f64)> {
    TAIL_LADDER.iter().rev().find(|&&(_, q)| beyond(n, q) >= MIN_BEYOND).copied()
}

/// Median of unsorted values (mean of the middle two for even counts);
/// NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A latency sample set, sorted once for any number of quantiles.
#[derive(Default)]
pub struct Samples {
    values: Vec<u64>,
    sorted: bool,
}

impl From<Vec<u64>> for Samples {
    fn from(values: Vec<u64>) -> Self {
        Self { values, sorted: false }
    }
}

impl Samples {
    pub fn record(&mut self, v: u64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    fn sorted(&mut self) -> &[u64] {
        if !self.sorted {
            self.values.sort_unstable();
            self.sorted = true;
        }
        &self.values
    }

    pub fn quantile(&mut self, q: f64) -> u64 {
        quantile(self.sorted(), q)
    }

    pub fn mean(&self) -> f64 {
        self.values.iter().map(|&v| v as f64).sum::<f64>() / self.values.len().max(1) as f64
    }

    /// `n=…, p50=…, <tail>=…` with the unit appended — the line every
    /// timing is printed as.
    pub fn describe(&mut self, scale: f64, unit: &str) -> String {
        let n = self.len();
        let p50 = self.quantile(0.5) as f64 / scale;
        match tail_choice(n) {
            Some((label, q)) => {
                let t = self.quantile(q) as f64 / scale;
                format!("n={n} p50={p50:.3}{unit} {label}={t:.3}{unit} ({} beyond)", beyond(n, q))
            }
            None => format!("n={n} p50={p50:.3}{unit} (too few samples for a tail)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&v, 0.0), 1);
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(quantile(&[7], 0.99), 7);
    }

    #[test]
    fn samples_beyond_a_quantile() {
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(0, 0.5), 0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_choice(99), None, "p90 of 99 samples leaves only 9 beyond");
        assert_eq!(tail_choice(100), Some(("p90", 0.9)));
        assert_eq!(tail_choice(999), Some(("p90", 0.9)));
        assert_eq!(tail_choice(1000), Some(("p99", 0.99)));
        assert_eq!(tail_choice(10_000), Some(("p99.9", 0.999)));
        assert_eq!(tail_choice(99_999), Some(("p99.9", 0.999)));
        assert_eq!(tail_choice(1_000_000), Some(("p99.999", 0.99999)));
        assert_eq!(tail_choice(50_000_000), Some(("p99.999", 0.99999)));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
