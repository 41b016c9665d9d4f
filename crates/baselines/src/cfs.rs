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
//! The paper's simulations use a 4 MB block size "to reduce unnecessary DHT
//! look-ups" (the classic CFS value is 8 KB).

use peerstripe_core::{
    BlockPlacement, ChunkPlacement, FileManifest, ManifestStore, ObjectName, StorageCluster,
    StorageSystem, StoreMetrics, StoreOutcome,
};
use peerstripe_sim::ByteSize;
use peerstripe_trace::FileRecord;
use serde::{Deserialize, Serialize};

/// Configuration of the CFS baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CfsConfig {
    /// Fixed block size files are chopped into.
    pub block_size: ByteSize,
    /// Number of placement retries per block (rehash with a new salt).
    pub retries_per_block: u32,
    /// Whether per-file manifests are recorded (adds one placement record per
    /// block, so large sweeps turn this off).
    pub track_manifests: bool,
}

impl CfsConfig {
    /// The configuration used in the paper's simulations: 4 MB blocks.
    pub fn paper_simulation() -> Self {
        CfsConfig {
            block_size: ByteSize::mb(4),
            retries_per_block: 5,
            track_manifests: true,
        }
    }
}

impl Default for CfsConfig {
    fn default() -> Self {
        Self::paper_simulation()
    }
}

/// The CFS baseline storage system.
pub struct Cfs {
    cluster: StorageCluster,
    config: CfsConfig,
    manifests: ManifestStore,
    metrics: StoreMetrics,
}

impl Cfs {
    /// Create a CFS instance over an existing cluster.
    pub fn new(cluster: StorageCluster, config: CfsConfig) -> Self {
        assert!(!config.block_size.is_zero(), "block size must be positive");
        Cfs {
            cluster,
            config,
            manifests: ManifestStore::new(),
            metrics: StoreMetrics::new(),
        }
    }

    /// The instance's configuration.
    pub fn config(&self) -> &CfsConfig {
        &self.config
    }

    /// Consume the system and return its cluster.
    pub fn into_cluster(self) -> StorageCluster {
        self.cluster
    }

    /// Number of fixed-size blocks a file of the given size is chopped into.
    pub fn blocks_for(&self, size: ByteSize) -> u64 {
        size.div_ceil(self.config.block_size)
            .max(if size.is_zero() { 0 } else { 1 })
    }
}

impl StorageSystem for Cfs {
    fn name(&self) -> &str {
        "CFS"
    }

    fn store_file(&mut self, file: &FileRecord) -> StoreOutcome {
        let block_count = self.blocks_for(file.size);
        let mut placements: Vec<ChunkPlacement> = Vec::with_capacity(block_count as usize);
        let mut chunk_sizes: Vec<ByteSize> = Vec::with_capacity(block_count as usize);
        let mut placed_bytes = ByteSize::ZERO;
        let mut remaining = file.size;

        'blocks: for block_no in 0..block_count {
            let this_block = remaining.min(self.config.block_size);
            for salt in 0..=self.config.retries_per_block {
                // CFS identifies blocks by content hash; retries are modelled by
                // salting the name, which maps the block to a different successor.
                let name = ObjectName::block(&file.name, block_no as u32, salt);
                let key = name.key();
                // CFS places a block on the successor of its key (Chord
                // semantics).
                let Some((_, node)) = self.cluster.overlay().ring().successor(key) else {
                    break 'blocks;
                };
                // One routed lookup per placement attempt (accounting only).
                let _ = self.cluster.locate(&name);
                if self
                    .cluster
                    .store_object_at(node, key, name.clone(), this_block, None)
                    .is_err()
                {
                    continue;
                }
                placed_bytes += this_block;
                chunk_sizes.push(this_block);
                placements.push(ChunkPlacement {
                    chunk: block_no as u32,
                    size: this_block,
                    blocks: vec![BlockPlacement {
                        name,
                        node,
                        size: this_block,
                        domain: None,
                    }],
                    min_blocks_needed: 1,
                });
                remaining -= this_block;
                continue 'blocks;
            }
            // A single unplaceable block fails the whole file; roll back.
            for placement in &placements {
                for b in &placement.blocks {
                    // Releasing by size keeps the accounting exact regardless of
                    // tracking mode.
                    self.cluster.release_at(b.node, b.size);
                }
            }
            self.metrics.record_failure(file.size);
            return StoreOutcome::Failed {
                reason: format!(
                    "block {block_no} of {} unplaceable after {} retries",
                    block_count, self.config.retries_per_block
                ),
            };
        }

        self.metrics
            .record_success(file.size, &chunk_sizes, placed_bytes);
        if self.config.track_manifests {
            self.manifests.insert(FileManifest {
                name: file.name.clone(),
                size: file.size,
                chunks: placements,
                cat_nodes: Vec::new(),
            });
        }
        StoreOutcome::Stored
    }

    fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }

    fn cluster(&self) -> &StorageCluster {
        &self.cluster
    }

    fn cluster_mut(&mut self) -> &mut StorageCluster {
        &mut self.cluster
    }

    fn manifest(&self, name: &str) -> Option<&FileManifest> {
        self.manifests.get(name)
    }

    fn manifests(&self) -> &ManifestStore {
        &self.manifests
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

    #[test]
    fn chops_files_into_fixed_blocks() {
        let mut cfs = Cfs::new(
            cluster(50, ByteSize::gb(1), 1),
            CfsConfig::paper_simulation(),
        );
        assert!(cfs
            .store_file(&FileRecord::new("f", ByteSize::mb(243)))
            .is_stored());
        let manifest = cfs.manifest("f").unwrap();
        // 243 MB / 4 MB = 60.75 → 61 blocks, matching Table 1's ~61 chunks per file.
        assert_eq!(manifest.chunks.len(), 61);
        assert!(manifest.chunks[..60]
            .iter()
            .all(|c| c.size == ByteSize::mb(4)));
        assert_eq!(manifest.chunks[60].size, ByteSize::mb(3));
        assert!((cfs.metrics().mean_chunks_per_file() - 61.0).abs() < 1e-9);
        assert!(cfs.metrics().mean_chunk_size() <= ByteSize::mb(4));
    }

    #[test]
    fn stores_files_larger_than_any_single_node() {
        // Unlike PAST, CFS can spread a big file over many nodes.
        let mut cfs = Cfs::new(
            cluster(60, ByteSize::mb(100), 2),
            CfsConfig::paper_simulation(),
        );
        assert!(cfs
            .store_file(&FileRecord::new("big", ByteSize::gb(2)))
            .is_stored());
        let manifest = cfs.manifest("big").unwrap();
        let nodes: std::collections::BTreeSet<_> = manifest.all_blocks().map(|b| b.node).collect();
        assert!(nodes.len() > 10, "blocks must be spread over many nodes");
    }

    #[test]
    fn blocks_for_counts_partial_blocks() {
        let cfs = Cfs::new(
            cluster(5, ByteSize::gb(1), 3),
            CfsConfig::paper_simulation(),
        );
        assert_eq!(cfs.blocks_for(ByteSize::mb(8)), 2);
        assert_eq!(cfs.blocks_for(ByteSize::mb(9)), 3);
        assert_eq!(cfs.blocks_for(ByteSize::ZERO), 0);
        assert_eq!(cfs.blocks_for(ByteSize::bytes(1)), 1);
    }

    #[test]
    fn store_fails_and_rolls_back_when_a_block_cannot_be_placed() {
        // Tiny system: 3 nodes x 16 MB.  A 64 MB file (16 blocks) cannot fit.
        let mut cfs = Cfs::new(
            cluster(3, ByteSize::mb(16), 4),
            CfsConfig::paper_simulation(),
        );
        let used_before = cfs.cluster().total_used();
        let outcome = cfs.store_file(&FileRecord::new("toobig", ByteSize::mb(64)));
        assert!(!outcome.is_stored());
        assert_eq!(cfs.metrics().files_failed, 1);
        assert_eq!(
            cfs.cluster().total_used(),
            used_before,
            "rollback must free blocks"
        );
        assert!(cfs.manifest("toobig").is_none());
    }

    #[test]
    fn each_block_is_placed_once_on_its_keys_successor() {
        let mut cfs = Cfs::new(
            cluster(30, ByteSize::gb(1), 5),
            CfsConfig::paper_simulation(),
        );
        assert!(cfs
            .store_file(&FileRecord::new("r", ByteSize::mb(10)))
            .is_stored());
        let manifest = cfs.manifest("r").unwrap();
        assert_eq!(manifest.chunks.len(), 3);
        for (i, chunk) in manifest.chunks.iter().enumerate() {
            let name = ObjectName::block("r", i as u32, 0);
            let (_, successor) = cfs
                .cluster()
                .overlay()
                .ring()
                .successor(name.key())
                .unwrap();
            assert_eq!(chunk.blocks.len(), 1);
            assert_eq!(
                (chunk.blocks[0].node, &chunk.blocks[0].name),
                (successor, &name)
            );
            assert!(cfs.cluster().node(successor).has(name.key()));
        }
        assert_eq!(cfs.metrics().bytes_placed, ByteSize::mb(10));
    }

    #[test]
    fn lookup_count_grows_with_file_size() {
        let mut cfs = Cfs::new(
            cluster(100, ByteSize::gb(10), 6),
            CfsConfig::paper_simulation(),
        );
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
