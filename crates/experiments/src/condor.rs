//! The Condor `bigCopy` case study: Table 4.
//!
//! A thin wrapper around `peerstripe_gridsim::table4` that selects the file-size
//! sweep per scale and renders the paper's table layout.

use crate::scale::Scale;
use peerstripe_gridsim::{table4, table4_sizes, PoolConfig, Table4Row};
use peerstripe_sim::ByteSize;

/// Configuration of the Table 4 reproduction.
#[derive(Debug, Clone)]
pub struct CondorConfig {
    /// File sizes to copy.
    pub sizes: Vec<ByteSize>,
    /// Pool configuration (32 machines, Uniform(2, 15) GB, 100 Mb/s).
    pub pool: PoolConfig,
    /// Random seed.
    pub seed: u64,
}

impl CondorConfig {
    /// Configuration for a given scale: the paper sweep is 1–128 GB; smaller
    /// scales stop earlier so tests stay fast.
    pub fn at_scale(scale: Scale, seed: u64) -> Self {
        let sizes = match scale {
            Scale::Small => vec![ByteSize::gb(1), ByteSize::gb(2), ByteSize::gb(4)],
            Scale::Medium => (0..6).map(|i| ByteSize::gb(1 << i)).collect(),
            Scale::Paper => table4_sizes(),
        };
        CondorConfig {
            sizes,
            pool: PoolConfig::paper(),
            seed,
        }
    }
}

/// Run the Table 4 experiment.
pub fn run_table4(config: &CondorConfig) -> Vec<Table4Row> {
    table4(&config.sizes, &config.pool, config.seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_reproduces_the_crossover() {
        let rows = run_table4(&CondorConfig::at_scale(Scale::Small, 1));
        assert_eq!(rows.len(), 3);
        // Every scheme that can store the file reports a finite time.
        for row in &rows {
            assert!(row.fixed.succeeded && row.varying.succeeded);
            assert!(row.fixed.elapsed_secs.is_finite());
            assert!(row.varying.elapsed_secs.is_finite());
        }
        // At 4 GB the varying-chunk scheme must beat the fixed-chunk scheme
        // (Table 4 shows it winning from 2 GB onward).
        let last = rows.last().unwrap();
        assert!(last.varying.elapsed_secs < last.fixed.elapsed_secs);
    }

    #[test]
    fn paper_sizes_include_cases_whole_file_cannot_serve() {
        let config = CondorConfig::at_scale(Scale::Paper, 2);
        assert_eq!(config.sizes.len(), 8);
        // Only check the largest size to keep the test quick.
        let rows = run_table4(&CondorConfig {
            sizes: vec![ByteSize::gb(128)],
            ..config
        });
        let row = &rows[0];
        assert!(
            !row.whole.succeeded,
            "128 GB cannot be stored whole on any machine"
        );
        assert!(row.varying.succeeded);
        assert!(row.fixed.succeeded);
        assert!(row.varying.elapsed_secs < row.fixed.elapsed_secs);
    }
}
