//! Contributed-capacity distributions.
//!
//! Two populations appear in the paper's evaluation:
//!
//! * the 10 000-node simulation assigns each node a contributed capacity drawn
//!   from a normal distribution with mean 45 GB and standard deviation 10 GB,
//!   following published studies of free desktop disk space (Section 6.1) —
//!   439.1 TB in aggregate;
//! * the 32-machine Condor pool contributes between 2 GB and 15 GB per node,
//!   uniformly distributed (Section 6.4).

use peerstripe_sim::dist::{Distribution, TruncatedNormal, Uniform};
use peerstripe_sim::{ByteSize, DetRng};

/// A distribution of per-node contributed storage capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CapacityModel {
    /// Normal distribution (truncated at zero and at `mean + 6σ`).
    Normal {
        /// Mean contributed capacity.
        mean: ByteSize,
        /// Standard deviation of contributed capacity.
        std_dev: ByteSize,
    },
    /// Uniform distribution over `[lo, hi]`.
    Uniform {
        /// Minimum contributed capacity.
        lo: ByteSize,
        /// Maximum contributed capacity.
        hi: ByteSize,
    },
    /// Every node contributes exactly the same capacity.
    Fixed(ByteSize),
}

impl CapacityModel {
    /// The 10 000-node simulation model: N(45 GB, 10 GB).
    pub fn paper_desktop_grid() -> Self {
        CapacityModel::Normal {
            mean: ByteSize::gb(45),
            std_dev: ByteSize::gb(10),
        }
    }

    /// The Condor case-study model: Uniform(2 GB, 15 GB).
    pub fn paper_condor_pool() -> Self {
        CapacityModel::Uniform {
            lo: ByteSize::gb(2),
            hi: ByteSize::gb(15),
        }
    }

    /// Sample capacities for `n` nodes.
    pub fn sample(&self, n: usize, rng: &mut DetRng) -> Vec<ByteSize> {
        let mut rng = rng.fork("capacity");
        match *self {
            CapacityModel::Normal { mean, std_dev } => {
                let dist = TruncatedNormal::new(
                    mean.as_u64() as f64,
                    std_dev.as_u64() as f64,
                    0.0,
                    mean.as_u64() as f64 + 6.0 * std_dev.as_u64() as f64,
                );
                (0..n)
                    .map(|_| ByteSize::bytes(dist.sample(&mut rng).round() as u64))
                    .collect()
            }
            CapacityModel::Uniform { lo, hi } => {
                let dist = Uniform::new(lo.as_u64() as f64, hi.as_u64() as f64 + 1.0);
                (0..n)
                    .map(|_| ByteSize::bytes(dist.sample(&mut rng).floor() as u64))
                    .collect()
            }
            CapacityModel::Fixed(size) => vec![size; n],
        }
    }

    /// Expected mean of the model.
    pub fn expected_mean(&self) -> ByteSize {
        match *self {
            CapacityModel::Normal { mean, .. } => mean,
            CapacityModel::Uniform { lo, hi } => ByteSize::bytes((lo.as_u64() + hi.as_u64()) / 2),
            CapacityModel::Fixed(size) => size,
        }
    }
}

/// Aggregate capacity of a sampled population.
pub fn total_capacity(capacities: &[ByteSize]) -> ByteSize {
    capacities.iter().copied().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn desktop_grid_population_matches_paper_aggregate() {
        // The paper reports a total simulated capacity of 439.1 TB for 10 000
        // nodes at N(45 GB, 10 GB); mean 45 GB/node → ~439 TB.  Use 10 000 nodes
        // to check the aggregate is in the right ballpark.
        let mut rng = DetRng::new(1);
        let caps = CapacityModel::paper_desktop_grid().sample(10_000, &mut rng);
        let total = total_capacity(&caps).as_tb();
        assert!((total - 439.0).abs() < 10.0, "total {total} TB");
        assert!(caps.iter().all(|c| !c.is_zero()));
    }

    #[test]
    fn condor_pool_is_within_bounds() {
        let mut rng = DetRng::new(2);
        let model = CapacityModel::paper_condor_pool();
        let caps = model.sample(32, &mut rng);
        assert_eq!(caps.len(), 32);
        for c in &caps {
            assert!(*c >= ByteSize::gb(2) && *c <= ByteSize::gb(15) + ByteSize::bytes(1));
        }
        // Expected mean 8.5 GB.
        assert_eq!(
            model.expected_mean(),
            ByteSize::bytes((2 * 1024u64.pow(3) + 15 * 1024u64.pow(3)) / 2)
        );
    }

    #[test]
    fn fixed_model_is_constant() {
        let mut rng = DetRng::new(3);
        let caps = CapacityModel::Fixed(ByteSize::gb(10)).sample(5, &mut rng);
        assert_eq!(caps, vec![ByteSize::gb(10); 5]);
        assert_eq!(
            CapacityModel::Fixed(ByteSize::gb(10)).expected_mean(),
            ByteSize::gb(10)
        );
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let model = CapacityModel::paper_desktop_grid();
        let mut r1 = DetRng::new(9);
        let mut r2 = DetRng::new(9);
        assert_eq!(model.sample(100, &mut r1), model.sample(100, &mut r2));
    }

    #[test]
    fn normal_capacities_are_never_negative() {
        // A model whose mean is close to zero exercises the truncation.
        let model = CapacityModel::Normal {
            mean: ByteSize::gb(2),
            std_dev: ByteSize::gb(2),
        };
        let mut rng = DetRng::new(4);
        let caps = model.sample(10_000, &mut rng);
        assert!(caps.iter().all(|c| c.as_u64() < ByteSize::gb(20).as_u64()));
    }
}
