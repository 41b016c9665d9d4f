//! A Condor-like desktop-grid pool.
//!
//! The case study of Section 6.4 interfaces PeerStripe with Condor: jobs run on
//! pool machines, and an LD_PRELOAD library interposes on their I/O,
//! redirecting it to the distributed storage (Section 5, Figure 6).  A
//! [`PoolConfig`] describes the 32-machine pool — uniformly distributed
//! contributed storage, a submit machine's disk, and the network model that
//! prices transfers, lookups and the interposition — and builds its
//! contributed storage as a [`StorageCluster`].

use crate::network::NetworkModel;
use peerstripe_core::{ClusterConfig, StorageCluster};
use peerstripe_sim::{ByteSize, DetRng};
use peerstripe_trace::CapacityModel;

/// Configuration of the simulated Condor pool.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Number of worker machines in the pool (the paper uses 32).
    pub machines: usize,
    /// Contributed-capacity distribution of the workers.
    pub contributed: CapacityModel,
    /// Free disk space on the submission machine (bounds the whole-file scheme).
    pub submit_machine_disk: ByteSize,
    /// Network/overhead model.
    pub network: NetworkModel,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            machines: 32,
            contributed: CapacityModel::paper_condor_pool(),
            submit_machine_disk: ByteSize::gb(12),
            network: NetworkModel::paper_condor(),
        }
    }
}

impl PoolConfig {
    /// The paper's 32-machine laboratory pool.
    pub fn paper() -> Self {
        Self::default()
    }

    /// Build the workers' contributed storage (deterministic in the seed).
    pub fn build(&self, seed: u64) -> StorageCluster {
        let mut rng = DetRng::new(seed).fork("condor-pool");
        ClusterConfig {
            nodes: self.machines,
            capacity: self.contributed,
            report_fraction: 1.0,
            track_objects: true,
        }
        .build(&mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_matches_paper_parameters() {
        let config = PoolConfig::paper();
        let cluster = config.build(1);
        assert_eq!(cluster.node_count(), 32);
        let total = cluster.total_capacity();
        // 32 machines contributing U(2,15) GB: expect roughly 32 × 8.5 ≈ 272 GB.
        assert!(
            total > ByteSize::gb(150) && total < ByteSize::gb(400),
            "total {total}"
        );
        assert!(config.submit_machine_disk >= ByteSize::gb(8));
    }
}
