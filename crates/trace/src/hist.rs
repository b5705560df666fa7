//! Deterministic log₂-bucket histograms.
//!
//! Buckets are fixed powers of two — bucket `i` counts values `v` with
//! `⌊log₂(v)⌋ = i − 1` (bucket 0 holds `v = 0`) — so two runs that see
//! the same multiset of values produce bit-identical histograms on every
//! platform: no floats, no sampling, no environment sensitivity.
//! Quantiles are computed by integer rank walk and report the bucket's
//! *upper bound*, a conservative estimate.

/// Number of buckets: one for zero plus one per possible `⌊log₂⌋` of a
/// `u64` (0..=63).
pub const BUCKETS: usize = 65;

/// A fixed-shape log₂ histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for a value: 0 for 0, else `⌊log₂(v)⌋ + 1`.
    #[must_use]
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive upper bound of a bucket (`2^i − 1` for bucket `i > 0`).
    #[must_use]
    pub fn bucket_upper(bucket: usize) -> u64 {
        if bucket == 0 {
            0
        } else if bucket >= 64 {
            u64::MAX
        } else {
            (1u64 << bucket) - 1
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 when empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Integer mean (rounded down), or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Per-bucket counts (index = [`Histogram::bucket_of`]).
    #[must_use]
    pub fn counts(&self) -> &[u64; BUCKETS] {
        &self.counts
    }

    /// Conservative quantile: the upper bound of the bucket containing
    /// the sample at rank `⌈q·count⌉` (with `q` in per-mille to stay in
    /// integer math: `500` = median, `990` = p99). Returns 0 when empty.
    #[must_use]
    pub fn quantile_permille(&self, permille: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let permille = permille.min(1000);
        // Rank of the target sample, 1-based, rounded up.
        let rank = (self.count * permille).div_ceil(1000).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Exact value known when the bucket is degenerate.
                if i == Self::bucket_of(self.max) {
                    return self.max;
                }
                return Self::bucket_upper(i);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn stats_track_samples() {
        let mut h = Histogram::new();
        for v in [5u64, 9, 1, 0, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 115);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 100);
        assert_eq!(h.mean(), 23);
    }

    #[test]
    fn empty_is_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.quantile_permille(500), 0);
    }

    #[test]
    fn quantiles_walk_ranks() {
        let mut h = Histogram::new();
        // 9 samples in bucket(1)=1, 1 sample at 1000 (bucket 10: 512..1023).
        for _ in 0..9 {
            h.record(1);
        }
        h.record(1000);
        assert_eq!(h.quantile_permille(500), 1);
        // p99 ⇒ rank 10 ⇒ the 1000 sample's bucket; max is in that bucket
        // so the exact max is reported.
        assert_eq!(h.quantile_permille(990), 1000);
        assert_eq!(h.quantile_permille(1000), 1000);
    }

    #[test]
    fn merge_is_additive() {
        let mut a = Histogram::new();
        a.record(3);
        let mut b = Histogram::new();
        b.record(300);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 3);
        assert_eq!(a.max(), 300);
    }

    #[test]
    fn determinism_across_orderings() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let vals = [7u64, 99, 0, 12345, 3, 3, 8];
        for &v in &vals {
            a.record(v);
        }
        for &v in vals.iter().rev() {
            b.record(v);
        }
        assert_eq!(a, b);
    }
}
