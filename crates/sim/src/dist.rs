//! Statistical distributions used to synthesise the paper's workloads.
//!
//! The evaluation relies on three distributions:
//!
//! * node contributed capacity ~ *Normal(45 GB, σ = 10 GB)* (Section 6.1),
//! * file sizes ~ a large-file trace with mean 243 MB, σ = 55 MB, truncated below
//!   at 50 MB (Section 6.1) — modelled as a truncated normal,
//! * Condor-pool contributed capacity ~ *Uniform(2 GB, 15 GB)* (Section 6.4).
//!
//! An exponential sampler is additionally provided for inter-arrival modelling.

use crate::rng::DetRng;

/// A sampling distribution over `f64`.
pub trait Distribution {
    /// Draw one sample.
    fn sample(&self, rng: &mut DetRng) -> f64;
}

/// Normal distribution parameterised by mean and standard deviation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    /// Mean of the distribution.
    pub mean: f64,
    /// Standard deviation (must be non-negative).
    pub std_dev: f64,
}

impl Normal {
    /// Create a normal distribution. Panics if `std_dev` is negative or not finite.
    pub fn new(mean: f64, std_dev: f64) -> Self {
        assert!(
            std_dev >= 0.0 && std_dev.is_finite(),
            "std_dev must be finite and >= 0"
        );
        assert!(mean.is_finite(), "mean must be finite");
        Normal { mean, std_dev }
    }
}

impl Distribution for Normal {
    fn sample(&self, rng: &mut DetRng) -> f64 {
        self.mean + self.std_dev * rng.standard_normal()
    }
}

/// Normal distribution truncated to `[lo, hi]` by resampling.
///
/// Used for the file-size trace (minimum 50 MB — the paper filters smaller files
/// out of its collected trace) and for node capacities (which cannot be negative).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedNormal {
    inner: Normal,
    lo: f64,
    hi: f64,
}

impl TruncatedNormal {
    /// Create a truncated normal over `[lo, hi]`.
    ///
    /// Panics if the interval is empty or if it lies implausibly far (> 8 σ) from
    /// the mean, which would make rejection sampling pathological.
    pub fn new(mean: f64, std_dev: f64, lo: f64, hi: f64) -> Self {
        assert!(lo < hi, "truncation interval must be non-empty");
        let inner = Normal::new(mean, std_dev);
        if std_dev > 0.0 {
            let dist = if mean < lo {
                (lo - mean) / std_dev
            } else if mean > hi {
                (mean - hi) / std_dev
            } else {
                0.0
            };
            assert!(
                dist <= 8.0,
                "truncation interval is more than 8 sigma away from the mean"
            );
        } else {
            assert!(
                (lo..=hi).contains(&mean),
                "degenerate (sigma=0) distribution must have its mean inside the interval"
            );
        }
        TruncatedNormal { inner, lo, hi }
    }
}

impl Distribution for TruncatedNormal {
    fn sample(&self, rng: &mut DetRng) -> f64 {
        loop {
            let x = self.inner.sample(rng);
            if x >= self.lo && x <= self.hi {
                return x;
            }
        }
    }
}

/// Continuous uniform distribution over `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Create a uniform distribution over `[lo, hi)`. Panics if the interval is empty.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo < hi, "uniform interval must be non-empty");
        Uniform { lo, hi }
    }
}

impl Distribution for Uniform {
    fn sample(&self, rng: &mut DetRng) -> f64 {
        rng.range_f64(self.lo, self.hi)
    }
}

/// Exponential distribution with the given rate (events per unit time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Create an exponential distribution. Panics if the rate is not positive.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        Exponential { rate }
    }
}

impl Distribution for Exponential {
    fn sample(&self, rng: &mut DetRng) -> f64 {
        // Inverse CDF; guard against ln(0).
        let u = (1.0 - rng.next_f64()).max(f64::MIN_POSITIVE);
        -u.ln() / self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats<D: Distribution>(d: &D, n: usize, seed: u64) -> (f64, f64) {
        let mut rng = DetRng::new(seed);
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let x = d.sample(&mut rng);
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        (mean, var.max(0.0).sqrt())
    }

    #[test]
    fn normal_matches_parameters() {
        let d = Normal::new(45.0, 10.0);
        let (mean, sd) = sample_stats(&d, 100_000, 1);
        assert!((mean - 45.0).abs() < 0.2, "mean {mean}");
        assert!((sd - 10.0).abs() < 0.2, "sd {sd}");
    }

    #[test]
    fn truncated_normal_respects_bounds() {
        // The paper's file-size distribution: mean 243 MB, sd 55 MB, min 50 MB.
        let d = TruncatedNormal::new(243.0, 55.0, 50.0, 4096.0);
        let mut rng = DetRng::new(2);
        for _ in 0..50_000 {
            let x = d.sample(&mut rng);
            assert!((50.0..=4096.0).contains(&x));
        }
        let (mean, sd) = sample_stats(&d, 100_000, 3);
        assert!((mean - 243.0).abs() < 2.0, "mean {mean}");
        assert!((sd - 55.0).abs() < 2.0, "sd {sd}");
    }

    #[test]
    #[should_panic(expected = "8 sigma")]
    fn truncated_normal_rejects_unreachable_interval() {
        let _ = TruncatedNormal::new(0.0, 1.0, 100.0, 200.0);
    }

    #[test]
    fn uniform_matches_range() {
        let d = Uniform::new(2.0, 15.0);
        let mut rng = DetRng::new(4);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((2.0..15.0).contains(&x));
        }
        let (mean, _) = sample_stats(&d, 100_000, 5);
        assert!((mean - 8.5).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn exponential_mean() {
        let d = Exponential::new(0.25);
        let (mean, _) = sample_stats(&d, 200_000, 6);
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
    }
}
