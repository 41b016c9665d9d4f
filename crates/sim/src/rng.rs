//! Deterministic, forkable random-number generation.
//!
//! Every experiment in the workspace must be exactly reproducible from a single
//! seed: the paper averages ten simulation runs per data point, which we reproduce
//! by running the same experiment with seeds `base..base + 10`.  [`DetRng`] is a
//! small xoshiro256++ generator seeded through SplitMix64.  It deliberately avoids
//! depending on the `rand` crate's evolving API surface so that the bit streams
//! produced by a given seed never change underneath an experiment.

use std::fmt;

/// SplitMix64 step, used for seeding and for cheap stream derivation.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256++ random number generator.
///
/// * Seedable from a single `u64`.
/// * [`DetRng::fork`] derives an independent child stream from a textual label,
///   so different components (trace generation, node-id assignment, churn
///   scheduling, …) never perturb each other's random sequences even when the
///   order of calls between components changes.
#[derive(Clone)]
pub struct DetRng {
    s: [u64; 4],
    seed: u64,
}

impl fmt::Debug for DetRng {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DetRng(seed={})", self.seed)
    }
}

impl DetRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s, seed }
    }

    /// The seed this generator (or its fork chain root) was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent generator for a named sub-component.
    ///
    /// The child stream depends only on the parent's *seed* and the label, not on
    /// how many numbers the parent has already produced, which keeps component
    /// streams stable as code evolves.
    pub fn fork(&self, label: &str) -> DetRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        DetRng::new(self.seed ^ h.rotate_left(17))
    }

    /// Derive an independent generator for a numbered sub-stream (e.g. a run index).
    pub fn fork_indexed(&self, label: &str, index: u64) -> DetRng {
        let mut child = self.fork(label);
        child.seed = child
            .seed
            .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut sm = child.seed;
        child.s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        child
    }

    /// Next raw 64-bit output (xoshiro256++).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Next 32-bit output.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. `bound` must be non-zero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "next_below bound must be non-zero");
        // Lemire's multiply-shift rejection method (unbiased).
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` in `[0, bound)`.
    #[inline]
    pub fn index(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Bernoulli trial with success probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        if items.len() < 2 {
            return;
        }
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Choose a uniformly random element of a slice, `None` if the slice is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.index(items.len())])
        }
    }

    /// Sample `k` distinct indices from `0..n` (reservoir-free partial shuffle);
    /// returns fewer if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let k = k.min(n);
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.index(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// Standard normal variate via the Marsaglia polar method.
    pub fn standard_normal(&mut self) -> f64 {
        loop {
            let u = 2.0 * self.next_f64() - 1.0;
            let v = 2.0 * self.next_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams from different seeds should diverge");
    }

    #[test]
    fn fork_is_stable_under_parent_consumption() {
        let mut parent = DetRng::new(7);
        let child_before = parent.fork("trace");
        let _ = parent.next_u64();
        let _ = parent.next_u64();
        let child_after = parent.fork("trace");
        let mut a = child_before;
        let mut b = child_after;
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_with_different_labels_differ() {
        let parent = DetRng::new(7);
        let mut a = parent.fork("alpha");
        let mut b = parent.fork("beta");
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn fork_indexed_produces_distinct_streams() {
        let parent = DetRng::new(9);
        let mut a = parent.fork_indexed("run", 0);
        let mut b = parent.fork_indexed("run", 1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = DetRng::new(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_is_bounded_and_covers() {
        let mut rng = DetRng::new(11);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let x = rng.next_below(10) as usize;
            assert!(x < 10);
            seen[x] = true;
        }
        assert!(seen.iter().all(|s| *s), "all residues should appear");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = DetRng::new(17);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "100 elements should not stay sorted"
        );
    }

    #[test]
    fn sample_indices_distinct() {
        let mut rng = DetRng::new(19);
        let sample = rng.sample_indices(50, 20);
        assert_eq!(sample.len(), 20);
        let mut unique = sample.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 20);
        assert!(sample.iter().all(|&i| i < 50));
        assert_eq!(rng.sample_indices(5, 100).len(), 5);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = DetRng::new(23);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let x = rng.standard_normal();
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.03, "variance {var} too far from 1");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = DetRng::new(31);
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }
}
