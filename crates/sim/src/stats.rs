//! Streaming statistics and latency histograms.
//!
//! Two accumulators cover everything the experiment harnesses need:
//!
//! * [`Summary`] — count / mean / standard deviation / min / max via
//!   Welford's online algorithm (the paper reports mean ± stddev of five
//!   runs; the harnesses do the same),
//! * [`Histogram`] — an HDR-style log-bucketed histogram for request
//!   latencies, supporting arbitrary quantiles with bounded relative error.

use std::fmt;

use crate::time::Nanos;

/// Streaming count / mean / variance / extrema accumulator.
///
/// # Example
///
/// ```
/// use xc_sim::stats::Summary;
///
/// let mut s = Summary::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.record(x);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.stddev() - 2.138089935).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    /// Same as [`Summary::new`]: a derived `Default` would zero `min`/`max`
    /// instead of installing the ±infinity sentinels, silently corrupting
    /// the extrema of anything recorded afterwards.
    fn default() -> Self {
        Self::new()
    }
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0 for an empty summary.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation (n−1 denominator), or 0 with fewer than two
    /// observations.
    pub fn stddev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).sqrt()
        }
    }

    /// Smallest observation, or 0 for an empty summary.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation, or 0 for an empty summary.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }

    /// Merges another summary into this one (parallel Welford combination).
    ///
    /// Empty operands are handled by explicit count checks — an empty
    /// `other` leaves `self` untouched and an empty `self` copies `other`
    /// wholesale — so the result never depends on the ±infinity min/max
    /// sentinels an empty summary carries. The observation count saturates
    /// instead of wrapping when the combined total would exceed `u64::MAX`.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            // Nothing to fold in; in particular other's sentinel extrema
            // must not leak into ours.
            return;
        }
        if self.count == 0 {
            // Our own sentinels are equally meaningless: adopt other as-is.
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count = self.count.saturating_add(other.count);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Folds `others` into `self` in slice order.
    ///
    /// Welford combination is a float computation, so unlike
    /// [`Histogram::merge_many`] the order matters for bit-identity: this
    /// is defined as the exact sequential left fold the callers previously
    /// spelled out, kept as a method so sharded reducers have one entry
    /// point for both statistic kinds.
    pub fn merge_many(&mut self, others: &[&Summary]) {
        for other in others {
            self.merge(other);
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} sd={:.3} min={:.3} max={:.3}",
            self.count,
            self.mean(),
            self.stddev(),
            self.min(),
            self.max()
        )
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.record(x);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.record(x);
        }
    }
}

/// Number of linear sub-buckets per power-of-two bucket.
///
/// 32 sub-buckets bound the relative quantile error to about 3%.
const SUB_BUCKETS: usize = 32;
const SUB_BITS: u32 = 5; // log2(SUB_BUCKETS)

/// HDR-style log-bucketed histogram over `u64` values (typically
/// nanoseconds).
///
/// Values are grouped into power-of-two magnitude buckets, each split into
/// `SUB_BUCKETS` linear sub-buckets, giving ~3% relative error on reported
/// quantiles regardless of the value range — the same design HdrHistogram
/// uses, reimplemented minimally here to keep the core dependency-free.
///
/// # Example
///
/// ```
/// use xc_sim::stats::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let p50 = h.quantile(0.50);
/// assert!((450..=550).contains(&p50), "p50 was {p50}");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    max: u64,
    min: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        // 64 magnitude buckets × SUB_BUCKETS covers the full u64 range.
        Histogram {
            counts: vec![0; 64 * SUB_BUCKETS],
            total: 0,
            sum: 0,
            max: 0,
            min: u64::MAX,
        }
    }

    /// Branch-free bucket index. Indices 0..2·SUB_BUCKETS are exactly
    /// `value` (bucket 1's shift is zero, so its formula degenerates to
    /// the identity), which lets the small-value case fall out of the
    /// general formula: `value | 1` makes `leading_zeros` well-defined
    /// at zero, and the two saturating clamps (compiled to cmov, not
    /// branches) pin sub-`SUB_BUCKETS` magnitudes to shift 0 / base 0.
    #[inline]
    fn index_of(value: u64) -> usize {
        let magnitude = 63 - (value | 1).leading_zeros();
        let shift = magnitude.saturating_sub(SUB_BITS);
        let base = (magnitude + 1).saturating_sub(SUB_BITS) as usize * SUB_BUCKETS;
        base + ((value >> shift) as usize & (SUB_BUCKETS - 1))
    }

    /// Representative (midpoint-ish upper bound) value for a bucket index.
    fn value_of(index: usize) -> u64 {
        let bucket = index / SUB_BUCKETS;
        let sub = (index % SUB_BUCKETS) as u64;
        if bucket == 0 {
            sub
        } else {
            let magnitude = bucket as u32 + SUB_BITS - 1;
            let base = (SUB_BUCKETS as u64 + sub) << (magnitude - SUB_BITS);
            // Upper edge of the sub-bucket minus one, i.e. the largest value
            // mapping to this index.
            base + ((1u64 << (magnitude - SUB_BITS)) - 1)
        }
    }

    /// Resets to the empty state while keeping the bucket allocation —
    /// the reuse hook world arenas call instead of building a fresh
    /// histogram (2 048 buckets) per simulation.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
        self.sum = 0;
        self.max = 0;
        self.min = u64::MAX;
    }

    /// Records a single value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[Self::index_of(value)] += 1;
        self.total += 1;
        self.sum += u128::from(value);
        self.max = self.max.max(value);
        self.min = self.min.min(value);
    }

    /// Records `n` occurrences of `value` at once, saturating the bucket
    /// count and total instead of wrapping (an `n` near `u64::MAX` is how
    /// merge saturation is exercised without `u64::MAX` calls to
    /// [`record`](Self::record)).
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let slot = &mut self.counts[Self::index_of(value)];
        *slot = slot.saturating_add(n);
        self.total = self.total.saturating_add(n);
        self.sum = self.sum.saturating_add(u128::from(value) * u128::from(n));
        self.max = self.max.max(value);
        self.min = self.min.min(value);
    }

    /// Records a [`Nanos`] duration.
    #[inline]
    pub fn record_nanos(&mut self, value: Nanos) {
        self.record(value.as_nanos());
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether the histogram is empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact mean of recorded values (sums are exact; only bucket *positions*
    /// are approximate).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Exact maximum recorded value, or 0 if empty.
    pub fn max(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.max
        }
    }

    /// Exact minimum recorded value, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Value at quantile `q` in `[0, 1]`, within ~3% relative error.
    ///
    /// Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]` or NaN.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Clamp the bucket's representative value into the exactly
                // tracked [min, max] envelope.
                return Self::value_of(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Convenience: the median.
    pub fn median(&self) -> u64 {
        self.quantile(0.5)
    }

    /// Merges another histogram into this one.
    ///
    /// Counts saturate instead of wrapping, and the bucket loop is the
    /// same lane-chunked pass as [`merge_many`](Self::merge_many).
    pub fn merge(&mut self, other: &Histogram) {
        self.merge_many(&[other]);
    }

    /// Width of the fixed lane arrays the merge loops accumulate into.
    ///
    /// Eight u64 lanes fill two AVX2 registers; the loops below are plain
    /// array arithmetic over `[u64; LANES]` chunks with no per-bucket
    /// branching, which LLVM autovectorizes.
    const LANES: usize = 8;

    /// Sparse checkpoint view for crash-safe serialization: the exact
    /// raw counters — including the `u64::MAX`/`0` min/max sentinels an
    /// empty histogram carries — plus every non-zero `(bucket, count)`
    /// pair in ascending bucket order. [`from_checkpoint`] rebuilds a
    /// structurally identical histogram from this view, which is what
    /// lets the bench journal replay a checkpointed cell result
    /// bit-for-bit (`PartialEq` compares the raw fields).
    ///
    /// [`from_checkpoint`]: Self::from_checkpoint
    pub fn checkpoint(&self) -> HistogramCheckpoint {
        HistogramCheckpoint {
            total: self.total,
            sum: self.sum,
            min: self.min,
            max: self.max,
            counts: self
                .counts
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c != 0)
                .map(|(i, &c)| (i as u32, c))
                .collect(),
        }
    }

    /// Rebuilds a histogram from a [`checkpoint`](Self::checkpoint)
    /// view. Returns `None` when the view is structurally invalid — a
    /// bucket index out of range, a duplicated or unsorted index, or a
    /// zero count (which the sparse form never produces) — so corrupted
    /// journal payloads degrade to re-execution instead of silently
    /// reconstructing a different distribution.
    pub fn from_checkpoint(view: &HistogramCheckpoint) -> Option<Histogram> {
        let mut h = Histogram::new();
        let mut prev: Option<u32> = None;
        for &(index, count) in &view.counts {
            if index as usize >= h.counts.len() || count == 0 || prev.is_some_and(|p| p >= index) {
                return None;
            }
            h.counts[index as usize] = count;
            prev = Some(index);
        }
        h.total = view.total;
        h.sum = view.sum;
        h.min = view.min;
        h.max = view.max;
        Some(h)
    }

    /// Merges every histogram in `others` into `self` in one pass over the
    /// bucket array.
    ///
    /// Integer bucket counts are exact and order-independent, so unlike
    /// [`Summary`] this is safe for tree reduction: folding N shards here
    /// touches each of the 2 048 buckets once (sources inner, buckets
    /// outer) instead of N times, and produces bytes identical to N
    /// sequential [`merge`](Self::merge) calls in any order. All counters
    /// saturate instead of wrapping.
    pub fn merge_many(&mut self, others: &[&Histogram]) {
        let n = self.counts.len();
        let mut i = 0;
        while i + Self::LANES <= n {
            let mut acc = [0u64; Self::LANES];
            acc.copy_from_slice(&self.counts[i..i + Self::LANES]);
            for other in others {
                debug_assert_eq!(other.counts.len(), n);
                let src = &other.counts[i..i + Self::LANES];
                for (a, &b) in acc.iter_mut().zip(src) {
                    *a = a.saturating_add(b);
                }
            }
            self.counts[i..i + Self::LANES].copy_from_slice(&acc);
            i += Self::LANES;
        }
        while i < n {
            let mut a = self.counts[i];
            for other in others {
                a = a.saturating_add(other.counts[i]);
            }
            self.counts[i] = a;
            i += 1;
        }
        for other in others {
            self.total = self.total.saturating_add(other.total);
            self.sum = self.sum.saturating_add(other.sum);
            self.max = self.max.max(other.max);
            self.min = self.min.min(other.min);
        }
    }
}

/// The exact serializable state of a [`Histogram`]: raw counters plus
/// sparse non-zero buckets (see [`Histogram::checkpoint`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramCheckpoint {
    /// Recorded-value count (saturating).
    pub total: u64,
    /// Exact sum of recorded values.
    pub sum: u128,
    /// Raw minimum (the `u64::MAX` sentinel when empty).
    pub min: u64,
    /// Raw maximum (0 when empty).
    pub max: u64,
    /// Non-zero `(bucket index, count)` pairs, ascending.
    pub counts: Vec<(u32, u64)>,
}

/// Items shard `index` owns when `total` items split across `shards`
/// equal partitions: the remainder goes to the lowest-indexed shards, so
/// the split is a pure function of `(total, shards)` — the contract
/// every deterministic sharded merge in the workspace relies on (the
/// parallel bench runner, the per-worker closed loop, the cluster
/// study's client partition).
///
/// # Panics
///
/// Panics if `shards == 0`.
pub fn shard_share(total: u64, shards: u64, index: u64) -> u64 {
    assert!(shards > 0, "shard_share over zero shards");
    total / shards + u64::from(index < total % shards)
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} p50={} p99={} max={}",
            self.total,
            self.mean(),
            self.quantile(0.5),
            self.quantile(0.99),
            self.max()
        )
    }
}

impl Extend<u64> for Histogram {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        for v in iter {
            self.record(v);
        }
    }
}

impl FromIterator<u64> for Histogram {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut h = Histogram::new();
        h.extend(iter);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let s: Summary = [1.0, 2.0, 3.0, 4.0, 5.0].into_iter().collect();
        assert_eq!(s.count(), 5);
        assert!((s.mean() - 3.0).abs() < 1e-12);
        assert!((s.stddev() - (2.5f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 5.0);
        assert!((s.sum() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn summary_default_matches_new() {
        // A derived Default would zero the extrema sentinels; recording
        // through a default-constructed summary must behave like new().
        let mut d = Summary::default();
        d.record(7.0);
        assert_eq!(d.min(), 7.0);
        assert_eq!(d.max(), 7.0);
        let mut m = Summary::default();
        m.merge(&d);
        assert_eq!(m.min(), 7.0);
    }

    #[test]
    fn summary_count_saturates_on_merge() {
        let mut a = Summary::new();
        a.count = u64::MAX - 1;
        a.mean = 1.0;
        a.min = 1.0;
        a.max = 1.0;
        let b: Summary = [2.0, 3.0, 4.0].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.count(), u64::MAX);
    }

    #[test]
    fn summary_merge_many_is_sequential_fold() {
        let parts: Vec<Summary> = (0..5)
            .map(|i| (i * 50..(i + 1) * 50).map(f64::from).collect())
            .collect();
        let mut seq = Summary::new();
        for p in &parts {
            seq.merge(p);
        }
        let mut many = Summary::new();
        many.merge_many(&parts.iter().collect::<Vec<_>>());
        assert_eq!(seq, many);
    }

    #[test]
    fn summary_empty_is_safe() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn summary_merge_matches_sequential() {
        let mut a: Summary = (0..100).map(f64::from).collect();
        let b: Summary = (100..250).map(f64::from).collect();
        let all: Summary = (0..250).map(f64::from).collect();
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.stddev() - all.stddev()).abs() < 1e-9);
    }

    #[test]
    fn summary_merge_with_empty() {
        let mut a = Summary::new();
        let b: Summary = [7.0].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.count(), 1);
        assert_eq!(a.mean(), 7.0);
        let mut c = a;
        c.merge(&Summary::new());
        assert_eq!(c.count(), 1);
    }

    #[test]
    fn histogram_small_values_exact() {
        let mut h = Histogram::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(v);
        }
        // Small values land in dedicated unit buckets: quantiles are exact.
        assert_eq!(h.quantile(1.0), SUB_BUCKETS as u64 - 1);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn histogram_quantile_error_bounded() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for &(q, expect) in &[(0.5, 50_000u64), (0.9, 90_000), (0.99, 99_000)] {
            let got = h.quantile(q);
            let err = (got as f64 - expect as f64).abs() / expect as f64;
            assert!(err < 0.04, "q={q} got={got} expect={expect} err={err}");
        }
    }

    #[test]
    fn histogram_mean_is_exact() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40] {
            h.record(v);
        }
        assert_eq!(h.mean(), 25.0);
        assert_eq!(h.max(), 40);
        assert_eq!(h.min(), 10);
    }

    #[test]
    fn histogram_merge_equals_union() {
        let a: Histogram = (1..1000u64).collect();
        let b: Histogram = (1000..5000u64).collect();
        let mut merged = a.clone();
        merged.merge(&b);
        let union: Histogram = (1..5000u64).collect();
        assert_eq!(merged.count(), union.count());
        assert_eq!(merged.quantile(0.5), union.quantile(0.5));
        assert_eq!(merged.max(), union.max());
    }

    #[test]
    fn histogram_clear_restores_empty_state() {
        let mut h: Histogram = (1..5000u64).collect();
        h.clear();
        assert_eq!(h, Histogram::new());
        h.record(9);
        assert_eq!(h.min(), 9);
        assert_eq!(h.max(), 9);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn histogram_record_n_matches_repeated_record() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [3u64, 900, 70_000] {
            a.record_n(v, 5);
            for _ in 0..5 {
                b.record(v);
            }
        }
        a.record_n(42, 0); // no-op, must not disturb min/max/total
        assert_eq!(a, b);
    }

    #[test]
    fn histogram_merge_saturates_counts() {
        let mut a = Histogram::new();
        a.record_n(5, u64::MAX - 3);
        let mut b = Histogram::new();
        b.record_n(5, 10);
        b.record_n(1 << 40, 10); // an overflow-range bucket too
        a.merge(&b);
        assert_eq!(a.count(), u64::MAX, "total must saturate, not wrap");
        assert_eq!(
            a.counts[Histogram::index_of(5)],
            u64::MAX,
            "bucket count must saturate, not wrap"
        );
        assert_eq!(a.counts[Histogram::index_of(1 << 40)], 10);
        assert_eq!(a.max(), 1 << 40);
    }

    #[test]
    fn histogram_merge_many_matches_sequential() {
        let parts: Vec<Histogram> = (0..7)
            .map(|i| {
                (i * 1000..(i + 1) * 1000 + 13)
                    .map(|v| v * 31 + 1)
                    .collect()
            })
            .collect();
        let mut seq = Histogram::new();
        for p in &parts {
            seq.merge(p);
        }
        let mut many = Histogram::new();
        many.merge_many(&parts.iter().collect::<Vec<_>>());
        // Full structural equality: identical buckets, totals, extrema.
        assert_eq!(seq, many);
        assert_eq!(seq.quantile(0.999), many.quantile(0.999));
    }

    #[test]
    fn histogram_merge_many_with_empties() {
        let mut a = Histogram::new();
        let b: Histogram = (1..100u64).collect();
        let empty = Histogram::new();
        a.merge_many(&[&empty, &b, &empty]);
        assert_eq!(a, b);
    }

    #[test]
    fn histogram_empty_quantile_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.99), 0);
        assert!(h.is_empty());
    }

    #[test]
    fn histogram_handles_huge_values() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        // Quantile clamps into the observed envelope.
        assert!(h.quantile(0.5) >= u64::MAX / 2);
    }

    #[test]
    fn histogram_checkpoint_roundtrips_exactly() {
        let mut h = Histogram::new();
        for v in (0..50_000u64).map(|v| v * 97 + 3) {
            h.record(v);
        }
        h.record(u64::MAX);
        let back = Histogram::from_checkpoint(&h.checkpoint()).expect("valid view");
        assert_eq!(back, h, "structural equality, raw fields included");
        // The empty histogram's sentinels survive the trip too.
        let empty = Histogram::new();
        assert_eq!(
            Histogram::from_checkpoint(&empty.checkpoint()).expect("valid"),
            empty
        );
    }

    #[test]
    fn histogram_checkpoint_rejects_corrupt_views() {
        let h: Histogram = (1..100u64).collect();
        let good = h.checkpoint();
        let mut out_of_range = good.clone();
        out_of_range.counts.push((1 << 20, 1));
        assert!(Histogram::from_checkpoint(&out_of_range).is_none());
        let mut zero_count = good.clone();
        zero_count.counts[0].1 = 0;
        assert!(Histogram::from_checkpoint(&zero_count).is_none());
        let mut unsorted = good.clone();
        unsorted.counts.swap(0, 1);
        assert!(Histogram::from_checkpoint(&unsorted).is_none());
        let mut duplicated = good;
        duplicated.counts[1].0 = duplicated.counts[0].0;
        assert!(Histogram::from_checkpoint(&duplicated).is_none());
    }

    #[test]
    fn index_value_monotone() {
        // value_of(index_of(v)) >= v and indices are monotone in v.
        let mut prev_idx = 0;
        for v in (0..2_000_000u64).step_by(997) {
            let idx = Histogram::index_of(v);
            assert!(idx >= prev_idx, "index must be monotone at v={v}");
            prev_idx = idx;
            assert!(Histogram::value_of(idx) >= v);
        }
    }

    #[test]
    fn branch_free_index_matches_branching_reference() {
        // The original early-return formula, kept verbatim as the
        // reference the branch-free rewrite must reproduce bit-for-bit.
        fn reference(value: u64) -> usize {
            if value < SUB_BUCKETS as u64 {
                return value as usize;
            }
            let magnitude = 63 - value.leading_zeros();
            let bucket = magnitude - SUB_BITS + 1;
            let sub = (value >> (magnitude - SUB_BITS)) as usize & (SUB_BUCKETS - 1);
            (bucket as usize) * SUB_BUCKETS + sub
        }
        for v in 0..10_000u64 {
            assert_eq!(Histogram::index_of(v), reference(v), "v={v}");
        }
        for shift in 0..64u32 {
            for delta in [-1i64, 0, 1] {
                let v = (1u64 << shift).wrapping_add_signed(delta);
                assert_eq!(Histogram::index_of(v), reference(v), "v={v}");
            }
        }
        assert_eq!(Histogram::index_of(u64::MAX), reference(u64::MAX));
    }
}
