//! Seeded input order and the summary statistics every metric uses.

use std::time::Duration;

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// SplitMix64: a tiny deterministic generator, so one `--seed` always
/// yields the same design orders and client offsets.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream derived from this seed (one per client).
    pub fn fork(&self, stream: u64) -> Self {
        let mut r = Rng(self.0 ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Median (mean of the middle pair for even counts); `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Smallest sample; `NaN` when empty.
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// Every sample of each group replaced by `stat` of its group. A group is
/// one design's requests: the flows are deterministic, so their spread
/// within a design is host noise. A percentile over these values lands on
/// the cost of the design at that rank, not on an extreme of its noise or
/// in the gap between two designs.
pub fn at_design(groups: &[Vec<f64>], stat: fn(&[f64]) -> f64) -> Vec<f64> {
    groups
        .iter()
        .flat_map(|g| std::iter::repeat_n(stat(g), g.len()))
        .collect()
}

/// Nearest-rank `q`-quantile, reported only when at least ten samples lie
/// beyond it: a tail percentile resting on fewer samples is noise.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < 10 {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some(s[rank - 1])
}

/// [`percentile`], falling back to the largest sample when the tail is too
/// thin (the caller flags the value as unsupported).
pub fn percentile_or_max(samples: &[f64], q: f64) -> (f64, bool) {
    match percentile(samples, q) {
        Some(v) => (v, true),
        None => (samples.iter().copied().fold(f64::NAN, f64::max), false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_order() {
        let order = |seed| {
            let mut rng = Rng::new(seed);
            let mut v: Vec<usize> = (0..16).collect();
            rng.shuffle(&mut v);
            (v, rng.fork(1).below(7), rng.fork(2).below(7))
        };
        assert_eq!(order(7), order(7));
        assert_ne!(order(7).0, order(8).0);
        let (v, _, _) = order(7);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>(), "a permutation");
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank 90 of 100 leaves exactly ten samples beyond it.
        assert_eq!(percentile(&s, 0.9), Some(90.0));
        assert_eq!(percentile(&s[..99], 0.9), None);
        // The median of 20 has ten beyond it; of 19 only nine.
        assert_eq!(percentile(&s[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&s[..19], 0.5), None);
        assert_eq!(percentile_or_max(&s[..19], 0.9), (19.0, false));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(min(&[3.0, 1.0, 2.0]), 1.0);
        assert!(min(&[]).is_nan());
    }

    #[test]
    fn design_statistics_keep_percentiles_off_cluster_edges() {
        let groups = vec![vec![1.0, 2.0, 9.0], vec![11.0, 20.0, 21.0], vec![]];
        // The plain median sits on the clusters' inner edges.
        assert_eq!(median(&groups.concat()), 10.0);
        assert_eq!(
            at_design(&groups, median),
            [2.0, 2.0, 2.0, 20.0, 20.0, 20.0]
        );
        assert_eq!(at_design(&groups, min), [1.0, 1.0, 1.0, 11.0, 11.0, 11.0]);
    }
}
