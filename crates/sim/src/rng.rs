//! Deterministic pseudo-random number generation.
//!
//! Every experiment harness carries an explicit seed; all stochastic workload
//! decisions (request inter-arrival jitter, key distributions, SET/GET mixes)
//! flow from a [`Rng`] derived from that seed, making every figure
//! regeneration byte-for-byte reproducible.
//!
//! The generator is xoshiro256\*\* (Blackman & Vigna), seeded through
//! SplitMix64 as its authors recommend. Both are implemented here directly so
//! the simulation core has no external dependencies.

/// A deterministic xoshiro256\*\* pseudo-random number generator.
///
/// # Example
///
/// ```
/// use xc_sim::rng::Rng;
///
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    state: [u64; 4],
}

/// SplitMix64 step, used for seeding and for hash-style stream derivation.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// Any seed (including zero) produces a valid, full-period stream: the
    /// internal state is expanded through SplitMix64, which never yields the
    /// all-zero state for four consecutive outputs.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        Rng {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Creates the `stream`-th generator of the family rooted at `seed`
    /// (SplitMix64 stream-splitting).
    ///
    /// Parallel experiment runners hand shard `i` of a sharded experiment
    /// `Rng::substream(seed, i)`: every shard gets a decorrelated stream
    /// that depends only on `(seed, stream)`, never on which worker thread
    /// runs it or in what order — so sharded results merge bit-for-bit
    /// identically regardless of parallelism.
    ///
    /// `substream(seed, s)` never equals `Rng::new(seed)` for any `s`:
    /// the stream index is pushed through an extra SplitMix64 scramble
    /// before seeding.
    pub fn substream(seed: u64, stream: u64) -> Rng {
        // Scramble the stream index on its own first, then mix with the
        // seed through a second SplitMix64 pass. Two rounds decorrelate
        // (seed, stream) pairs that differ in few bits (0, 1, 2, …).
        let mut s = stream.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let scrambled = splitmix64(&mut s);
        let mut mixed = seed ^ scrambled.rotate_left(23);
        Rng::new(splitmix64(&mut mixed))
    }

    /// Derives an independent child generator for a named subsystem.
    ///
    /// Deriving (rather than sharing) generators keeps experiment components
    /// order-independent: adding a draw in one workload does not perturb the
    /// stream seen by another.
    pub fn derive(&self, label: &str) -> Rng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        // Mix the label hash with this generator's current state without
        // advancing it.
        let mut seed = h ^ self.state[0].rotate_left(17) ^ self.state[2];
        Rng::new(splitmix64(&mut seed))
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.state[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below bound must be positive");
        // Lemire 2019: unbiased bounded generation.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform value in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range_inclusive requires lo <= hi");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_below(hi - lo + 1)
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * GRID_SCALE
    }

    /// Fills `out` with uniform `f64`s in `[0, 1)` — the exact sequence
    /// `out.len()` calls to [`Rng::next_f64`] would produce, drawn in
    /// one pass. Hot loops that consume one uniform per event (e.g. the
    /// closed-loop service jitter) refill a small slab through this
    /// instead of paying a generator round-trip per draw.
    #[inline]
    pub fn next_f64_batch(&mut self, out: &mut [f64]) {
        for slot in out {
            *slot = (self.next_u64() >> 11) as f64 * GRID_SCALE;
        }
    }

    /// Bernoulli trial: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Exponentially distributed value with the given mean.
    ///
    /// Used for open-loop arrival processes (Poisson arrivals).
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean >= 0.0);
        // Avoid ln(0); next_f64 is in [0,1) so 1-x is in (0,1].
        -mean * (1.0 - self.next_f64()).ln()
    }

    /// Zipf-like rank selection over `n` items with skew `theta` in `(0,1)`.
    ///
    /// Approximated by inverse-power sampling; adequate for key-popularity
    /// workload generation (YCSB-style) where only the popularity *shape*
    /// matters.
    ///
    /// When the same `(n, theta)` is drawn from many times over a small
    /// `n`, [`ZipfTable`] returns the same ranks without the `powf`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn zipf(&mut self, n: u64, theta: f64) -> u64 {
        assert!(n > 0, "zipf over empty domain");
        zipf_rank(n, zipf_exponent(theta), self.next_u64() >> 11)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.next_below(items.len() as u64) as usize]
    }

    /// Samples an index according to a slice of non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn pick_weighted(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "pick_weighted from empty weights");
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "pick_weighted requires positive total weight");
        let mut x = self.next_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

/// Number of points on the 53-bit grid [`Rng::next_f64`] draws from.
const GRID: u64 = 1 << 53;

/// Scale from a grid index to its uniform value in `[0, 1)`.
const GRID_SCALE: f64 = 1.0 / GRID as f64;

/// The exponent [`Rng::zipf`] raises its uniform draw to.
#[inline]
fn zipf_exponent(theta: f64) -> f64 {
    1.0 / (1.0 - theta.clamp(0.0, 0.999))
}

/// The rank [`Rng::zipf`] returns for grid index `grid` (the top 53
/// bits of the raw draw) — the definition every [`ZipfTable`] entry is
/// derived from and checked against.
#[inline]
fn zipf_rank(n: u64, exp: f64, grid: u64) -> u64 {
    let u = grid as f64 * GRID_SCALE;
    let rank = ((n as f64) * u.powf(exp)).floor() as u64;
    rank.min(n - 1)
}

/// A precomputed [`Rng::zipf`] for one `(n, theta)`: same single
/// `next_u64` per draw, same rank for every draw, no `powf`.
///
/// The draw's 53-bit grid index is compared against `n - 1` thresholds,
/// threshold `r - 1` being the first index whose rank is at least `r`.
/// Each one is found by binary search over the grid with the very
/// expression [`Rng::zipf`] evaluates. A draw within 64 grid steps of
/// any threshold is recomputed with that expression, so a `powf` that
/// wobbles by an ulp or two around a crossing cannot make the table
/// disagree; away from the crossings a draw's rank is pinned by the
/// thresholds on both sides of it.
///
/// Building costs about `53 × (n - 1)` `powf` calls and `8 × n` bytes,
/// so the table suits small ranges drawn from often (the cluster study's
/// domains per host); large key spaces keep calling [`Rng::zipf`].
///
/// ```
/// use xc_sim::rng::{Rng, ZipfTable};
///
/// let table = ZipfTable::new(24, 0.2);
/// let (mut a, mut b) = (Rng::new(5), Rng::new(5));
/// for _ in 0..1_000 {
///     assert_eq!(table.sample(&mut a), b.zipf(24, 0.2));
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfTable {
    n: u64,
    theta: f64,
    exp: f64,
    /// `thresholds[r - 1]`: the first grid index whose rank is ≥ `r`
    /// (`GRID` when no index reaches it). Non-decreasing.
    thresholds: Vec<u64>,
}

impl ZipfTable {
    /// Grid steps on either side of a threshold within which a draw is
    /// recomputed with `powf`.
    const GUARD: u64 = 64;

    /// Builds the table for `n` ranks at skew `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipf over empty domain");
        let exp = zipf_exponent(theta);
        let mut thresholds = Vec::with_capacity((n - 1) as usize);
        let mut lo = 0;
        for r in 1..n {
            // First index in [lo, GRID] with rank ≥ r, GRID standing in
            // for "never".
            let mut hi = GRID;
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if zipf_rank(n, exp, mid) >= r {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            thresholds.push(lo);
        }
        ZipfTable {
            n,
            theta,
            exp,
            thresholds,
        }
    }

    /// Number of ranks.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The skew the table was built for.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draws a rank: exactly `rng.zipf(self.n(), self.theta())`.
    #[inline]
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        self.rank_of(rng.next_u64() >> 11)
    }

    /// The rank of grid index `grid`.
    #[inline]
    fn rank_of(&self, grid: u64) -> u64 {
        let t = &self.thresholds;
        let r = t.partition_point(|&x| x <= grid);
        let near_below = r > 0 && grid - t[r - 1] < Self::GUARD;
        let near_above = r < t.len() && t[r] - grid <= Self::GUARD;
        if near_below || near_above {
            zipf_rank(self.n, self.exp, grid)
        } else {
            r as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should be nearly disjoint");
    }

    #[test]
    fn derive_is_stable_and_independent() {
        let root = Rng::new(99);
        let mut c1 = root.derive("net");
        let mut c2 = root.derive("net");
        let mut c3 = root.derive("disk");
        assert_eq!(c1.next_u64(), c2.next_u64());
        assert_ne!(c1.next_u64(), c3.next_u64());
    }

    #[test]
    fn substreams_are_deterministic_and_disjoint() {
        let mut a = Rng::substream(2019, 3);
        let mut b = Rng::substream(2019, 3);
        let mut c = Rng::substream(2019, 4);
        let mut d = Rng::substream(2020, 3);
        let mut same_c = 0;
        let mut same_d = 0;
        for _ in 0..64 {
            let x = a.next_u64();
            assert_eq!(x, b.next_u64(), "same (seed, stream) must agree");
            if x == c.next_u64() {
                same_c += 1;
            }
            if x == d.next_u64() {
                same_d += 1;
            }
        }
        assert!(same_c < 4, "adjacent streams must be nearly disjoint");
        assert!(same_d < 4, "adjacent seeds must be nearly disjoint");
    }

    #[test]
    fn substream_is_not_the_root_stream() {
        let first = Rng::new(7).next_u64();
        for stream in 0..32 {
            assert_ne!(
                Rng::substream(7, stream).next_u64(),
                first,
                "stream {stream} collides with Rng::new"
            );
        }
    }

    #[test]
    fn bounded_values_in_range() {
        let mut r = Rng::new(5);
        for _ in 0..10_000 {
            assert!(r.next_below(10) < 10);
            let v = r.range_inclusive(5, 9);
            assert!((5..=9).contains(&v));
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::new(11);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn bounded_uniformity_rough() {
        let mut r = Rng::new(17);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.next_below(8) as usize] += 1;
        }
        for c in counts {
            // Each bucket expects 10_000; allow 5% deviation.
            assert!((9_500..10_500).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn exponential_mean_rough() {
        let mut r = Rng::new(23);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.exponential(250.0)).sum();
        let mean = sum / n as f64;
        assert!((240.0..260.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let mut r = Rng::new(31);
        let mut head = 0u32;
        for _ in 0..10_000 {
            let v = r.zipf(1000, 0.9);
            assert!(v < 1000);
            if v < 100 {
                head += 1;
            }
        }
        // With strong skew, the top decile should absorb most draws.
        assert!(head > 5_000, "head draws {head}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::new(41);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn weighted_pick_respects_weights() {
        let mut r = Rng::new(43);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0u32; 3];
        for _ in 0..40_000 {
            counts[r.pick_weighted(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((2.7..3.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn zipf_table_matches_zipf_around_every_threshold() {
        let guard = ZipfTable::GUARD;
        for n in [1u64, 2, 6, 24, 100] {
            for theta in [0.0, 0.2, 0.4, 0.9, 0.9999] {
                let table = ZipfTable::new(n, theta);
                let exp = zipf_exponent(theta);
                assert_eq!(table.thresholds.len() as u64, n - 1);
                for &t in &table.thresholds {
                    let lo = t.saturating_sub(2 * guard);
                    let hi = (t + 2 * guard).min(GRID - 1);
                    for g in lo..=hi {
                        assert_eq!(
                            table.rank_of(g),
                            zipf_rank(n, exp, g),
                            "n={n} theta={theta} grid={g} threshold={t}"
                        );
                    }
                }
                for g in [0, 1, GRID / 2, GRID - 2, GRID - 1] {
                    assert_eq!(table.rank_of(g), zipf_rank(n, exp, g), "n={n} grid={g}");
                }
                let mut a = Rng::new(n ^ theta.to_bits());
                let mut b = a.clone();
                for _ in 0..1_000_000 {
                    assert_eq!(
                        table.sample(&mut a),
                        b.zipf(n, theta),
                        "n={n} theta={theta}"
                    );
                }
                assert_eq!(a, b, "one next_u64 per draw");
            }
        }
    }

    #[test]
    fn zipf_table_over_one_rank_has_no_thresholds() {
        let table = ZipfTable::new(1, 0.4);
        assert!(table.thresholds.is_empty());
        let mut r = Rng::new(9);
        assert!((0..1_000).all(|_| table.sample(&mut r) == 0));
    }

    #[test]
    #[should_panic(expected = "zipf over empty domain")]
    fn zipf_table_over_no_ranks_panics() {
        let _ = ZipfTable::new(0, 0.2);
    }
}
