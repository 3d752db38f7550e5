//! Fixed-log2-bucket histograms.
//!
//! Bucket `0` holds the value `0`; bucket `i ≥ 1` holds values whose bit
//! width is `i`, i.e. the half-open magnitude range `(2^(i-1) - 1, 2^i - 1]`
//! expressed as inclusive upper bounds `2^i - 1`. With 65 buckets the full
//! `u64` domain is covered exactly and the bounds are strictly monotone —
//! `0, 1, 3, 7, …, 2^63 - 1, u64::MAX` — so no `+Inf` overflow bucket is
//! needed at the storage level (the Prometheus renderer still emits the
//! conventional `le="+Inf"` line).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::span::Span;

/// Number of buckets: the value 0, plus one per `u64` bit width.
pub const NUM_BUCKETS: usize = 65;

/// The bucket a value lands in: 0 for 0, otherwise the value's bit width.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i`. Strictly monotone in `i`.
///
/// # Panics
///
/// Panics if `i >= NUM_BUCKETS`.
pub fn bucket_bound(i: usize) -> u64 {
    assert!(i < NUM_BUCKETS, "bucket index {i} out of range");
    if i == 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

#[derive(Debug)]
struct Inner {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Inner {
    fn default() -> Self {
        Inner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A histogram over `u64` samples with fixed log2 buckets.
///
/// Cloning yields another handle to the same underlying buckets; an
/// observation is three relaxed atomic adds.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    inner: Arc<Inner>,
}

/// A point-in-time copy of a histogram: count, exact sum, and the
/// non-empty buckets as `(inclusive upper bound, count)` pairs in bound
/// order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values (wrapping on overflow).
    pub sum: u64,
    /// Non-empty buckets, ascending by bound.
    pub buckets: Vec<(u64, u64)>,
}

impl Histogram {
    /// Creates a standalone histogram (registry-less; mostly for tests).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.inner.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Records a duration as integer microseconds.
    #[inline]
    pub fn observe_duration(&self, d: Duration) {
        self.observe(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Starts a span timer; the elapsed time is recorded (as microseconds)
    /// when the returned [`Span`] drops.
    pub fn start_span(&self) -> Span {
        Span::new(self.clone())
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations so far.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts, indexed by [`bucket_index`].
    pub fn bucket_counts(&self) -> [u64; NUM_BUCKETS] {
        std::array::from_fn(|i| self.inner.buckets[i].load(Ordering::Relaxed))
    }

    /// Adds every observation of `other` into `self`. Addition is
    /// commutative and associative, so `a.merge_from(b)` and
    /// `b.merge_from(a)` produce identical snapshots from identical inputs.
    pub fn merge_from(&self, other: &Histogram) {
        for i in 0..NUM_BUCKETS {
            let n = other.inner.buckets[i].load(Ordering::Relaxed);
            if n != 0 {
                self.inner.buckets[i].fetch_add(n, Ordering::Relaxed);
            }
        }
        self.inner.count.fetch_add(other.count(), Ordering::Relaxed);
        self.inner.sum.fetch_add(other.sum(), Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts = self.bucket_counts();
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets: counts
                .iter()
                .enumerate()
                .filter(|(_, &n)| n != 0)
                .map(|(i, &n)| (bucket_bound(i), n))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_matches_bounds() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        // Every bound is the largest value of its own bucket.
        for i in 0..NUM_BUCKETS {
            assert_eq!(bucket_index(bucket_bound(i)), i, "bound {i}");
        }
    }

    #[test]
    fn observations_land_and_sum() {
        let h = Histogram::new();
        h.observe(0);
        h.observe(5);
        h.observe(5);
        h.observe(1 << 40);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 10 + (1 << 40));
        let snap = h.snapshot();
        assert_eq!(snap.buckets, vec![(0, 1), (7, 2), ((1u64 << 41) - 1, 1)]);
    }

    #[test]
    fn merge_adds_everything() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.observe(1);
        b.observe(1);
        b.observe(100);
        a.merge_from(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 102);
        assert_eq!(a.snapshot().buckets, vec![(1, 2), (127, 1)]);
    }

    #[test]
    fn duration_is_recorded_in_micros() {
        let h = Histogram::new();
        h.observe_duration(Duration::from_millis(3));
        assert_eq!(h.sum(), 3000);
    }
}
