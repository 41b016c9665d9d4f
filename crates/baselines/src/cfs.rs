//! CFS-style fixed-size-block placement (Dabek et al., SOSP'01), as compared
//! against in the paper.
//!
//! CFS chops every file into fixed-size blocks, names each block by a hash, and
//! stores it on the successor of its key; the paper's simulations keep one
//! copy.  Large files therefore always find *somewhere* to put each small
//! block — but the number of blocks (and hence DHT lookups) grows linearly with
//! the file size, and a single unplaceable block fails the whole file
//! (Section 3 of the paper quantifies how quickly that compounds).
//!
//! The paper's simulations use a [`BLOCK_SIZE`] of 4 MB "to reduce unnecessary
//! DHT look-ups" (the classic CFS value is 8 KB).  A block whose successor is
//! full is renamed with a new salt, which maps it to another successor, up to
//! the instance's per-block retry budget.

use peerstripe_core::{ObjectName, StorageCluster, StorageSystem, StoreMetrics, StoreOutcome};
use peerstripe_sim::ByteSize;
use peerstripe_trace::FileRecord;
use std::sync::Arc;

/// The fixed size files are chopped into.
pub const BLOCK_SIZE: ByteSize = ByteSize::mb(4);

/// The CFS baseline storage system.
pub struct Cfs {
    cluster: StorageCluster,
    retries_per_block: u32,
    metrics: StoreMetrics,
}

impl Cfs {
    /// Create a CFS instance over an existing cluster that re-salts a block
    /// whose successor refuses it up to `retries_per_block` times.
    pub fn new(cluster: StorageCluster, retries_per_block: u32) -> Self {
        Cfs {
            cluster,
            retries_per_block,
            metrics: StoreMetrics::new(),
        }
    }

    /// Number of fixed-size blocks a file of the given size is chopped into.
    pub fn blocks_for(size: ByteSize) -> u64 {
        size.div_ceil(BLOCK_SIZE)
    }

    /// Place one block on the successor of its key, re-salting on a refusal.
    /// Returns the node it went to and its name, or `None` when every salt
    /// failed (a full successor, or no live node at all).  Every name shares
    /// `file`'s allocation.
    fn place_block(
        &mut self,
        file: &Arc<str>,
        block: u32,
        size: ByteSize,
    ) -> Option<(usize, ObjectName)> {
        (0..=self.retries_per_block).find_map(|salt| {
            let name = ObjectName::block(Arc::clone(file), block, salt);
            let key = name.key();
            let (_, node) = self.cluster.overlay().ring().successor(key)?;
            // One routed lookup per placement attempt (accounting only).
            let _ = self.cluster.locate(&name);
            self.cluster.store_object_at(node, key, size, None).ok()?;
            Some((node, name))
        })
    }
}

impl StorageSystem for Cfs {
    fn name(&self) -> &str {
        "CFS"
    }

    fn store_file(&mut self, file: &FileRecord) -> StoreOutcome {
        let block_count = Self::blocks_for(file.size);
        let file_name: Arc<str> = Arc::from(file.name.as_str());
        let mut placed = Vec::with_capacity(block_count as usize);
        let mut remaining = file.size;
        for block in 0..block_count as u32 {
            let size = remaining.min(BLOCK_SIZE);
            let Some((node, name)) = self.place_block(&file_name, block, size) else {
                // A single unplaceable block fails the whole file; roll back.
                for (node, name, size) in &placed {
                    self.cluster.rollback_object(*node, name, *size);
                }
                self.metrics.record_failure(file.size);
                return StoreOutcome::Failed {
                    reason: format!(
                        "block {block} of {block_count} unplaceable after {} retries",
                        self.retries_per_block
                    ),
                };
            };
            placed.push((node, name, size));
            remaining -= size;
        }
        let sizes = placed.iter().map(|&(_, _, size)| size);
        self.metrics.record_success(file.size, sizes, file.size);
        StoreOutcome::Stored
    }

    fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }

    fn cluster(&self) -> &StorageCluster {
        &self.cluster
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peerstripe_core::ClusterConfig;
    use peerstripe_sim::DetRng;
    use peerstripe_trace::CapacityModel;

    fn cluster(nodes: usize, capacity: ByteSize, seed: u64) -> StorageCluster {
        let mut rng = DetRng::new(seed);
        ClusterConfig {
            nodes,
            capacity: CapacityModel::Fixed(capacity),
            track_objects: true,
        }
        .build(&mut rng)
    }

    fn object_count(cluster: &StorageCluster) -> u64 {
        (0..cluster.node_count())
            .map(|n| cluster.node(n).object_count())
            .sum()
    }

    #[test]
    fn chops_files_into_fixed_blocks() {
        let mut cfs = Cfs::new(cluster(50, ByteSize::gb(1), 1), 5);
        assert!(cfs
            .store_file(&FileRecord::new("f", ByteSize::mb(243)))
            .is_stored());
        // 243 MB / 4 MB = 60.75 → 61 blocks, matching Table 1's ~61 chunks per file.
        assert_eq!(object_count(cfs.cluster()), 61);
        assert_eq!(cfs.cluster().total_used(), ByteSize::mb(243));
        assert!((cfs.metrics().mean_chunks_per_file() - 61.0).abs() < 1e-9);
        assert!(cfs.metrics().mean_chunk_size() <= BLOCK_SIZE);
        assert_eq!(cfs.metrics().bytes_placed, ByteSize::mb(243));
    }

    #[test]
    fn stores_files_larger_than_any_single_node() {
        // Unlike PAST, CFS can spread a big file over many nodes.
        let mut cfs = Cfs::new(cluster(60, ByteSize::mb(100), 2), 5);
        assert!(cfs
            .store_file(&FileRecord::new("big", ByteSize::gb(2)))
            .is_stored());
        let cluster = cfs.cluster();
        let holders = (0..cluster.node_count())
            .filter(|&n| !cluster.node(n).used().is_zero())
            .count();
        assert!(holders > 10, "blocks must be spread over many nodes");
        assert_eq!(cluster.total_used(), ByteSize::gb(2));
    }

    #[test]
    fn blocks_for_counts_partial_blocks() {
        assert_eq!(Cfs::blocks_for(ByteSize::mb(8)), 2);
        assert_eq!(Cfs::blocks_for(ByteSize::mb(9)), 3);
        assert_eq!(Cfs::blocks_for(ByteSize::ZERO), 0);
        assert_eq!(Cfs::blocks_for(ByteSize::bytes(1)), 1);
    }

    #[test]
    fn a_refused_store_leaves_no_block_behind() {
        // Tiny system: 3 nodes x 16 MB.  A 64 MB file (16 blocks) cannot fit.
        let retries = 5;
        let mut cfs = Cfs::new(cluster(3, ByteSize::mb(16), 4), retries);
        let outcome = cfs.store_file(&FileRecord::new("toobig", ByteSize::mb(64)));
        assert!(!outcome.is_stored());
        assert_eq!(cfs.metrics().files_failed, 1);
        let cluster = cfs.cluster();
        assert_eq!(cluster.total_used(), ByteSize::ZERO, "rollback frees bytes");
        assert_eq!(object_count(cluster), 0);
        // The rollback removes the objects themselves, not just their bytes.
        for block in 0..16 {
            for salt in 0..=retries {
                let key = ObjectName::block("toobig", block, salt).key();
                for n in 0..cluster.node_count() {
                    assert!(
                        !cluster.node(n).has(key),
                        "node {n} keeps block {block}/{salt}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_store_with_no_live_node_fails() {
        let mut c = cluster(3, ByteSize::gb(1), 7);
        for n in 0..3 {
            c.fail_node(n);
        }
        let mut cfs = Cfs::new(c, 5);
        let outcome = cfs.store_file(&FileRecord::new("orphan", ByteSize::mb(10)));
        assert!(!outcome.is_stored());
        assert_eq!(cfs.metrics().files_failed, 1);
        assert_eq!(cfs.cluster().total_used(), ByteSize::ZERO);
    }

    #[test]
    fn each_block_is_placed_once_on_its_keys_successor() {
        let mut cfs = Cfs::new(cluster(30, ByteSize::gb(1), 5), 5);
        assert!(cfs
            .store_file(&FileRecord::new("r", ByteSize::mb(10)))
            .is_stored());
        let cluster = cfs.cluster();
        assert_eq!(object_count(cluster), 3);
        for (block, size) in [
            (0, ByteSize::mb(4)),
            (1, ByteSize::mb(4)),
            (2, ByteSize::mb(2)),
        ] {
            let key = ObjectName::block("r", block, 0).key();
            let (_, successor) = cluster.overlay().ring().successor(key).unwrap();
            assert_eq!(cluster.node(successor).get(key).unwrap().size, size);
        }
        assert_eq!(cfs.metrics().bytes_placed, ByteSize::mb(10));
    }

    #[test]
    fn lookup_count_grows_with_file_size() {
        let mut cfs = Cfs::new(cluster(100, ByteSize::gb(10), 6), 5);
        cfs.store_file(&FileRecord::new("small", ByteSize::mb(40)));
        let lookups_small = cfs.cluster().overlay().stats().lookups;
        cfs.store_file(&FileRecord::new("large", ByteSize::mb(400)));
        let lookups_large = cfs.cluster().overlay().stats().lookups - lookups_small;
        assert!(
            lookups_large >= 9 * lookups_small,
            "a 10x bigger file needs ~10x the lookups ({lookups_small} vs {lookups_large})"
        );
    }
}
