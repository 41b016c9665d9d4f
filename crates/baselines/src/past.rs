//! PAST-style whole-file placement (Rowstron & Druschel, SOSP'01), as compared
//! against in the paper.
//!
//! PAST stores each file *in its entirety* on the node whose identifier is
//! numerically closest to the file's key; the paper's simulations keep one
//! copy.  When the chosen node lacks space, PAST retries by rehashing the
//! file name with a new salt, which maps the file to a different node
//! (Section 3 of the paper).  The consequence the paper highlights: no file
//! larger than the free space of some single node can ever be stored, and as
//! utilization grows the retry budget is exhausted more and more often.

use peerstripe_core::{
    BlockPlacement, ChunkPlacement, FileManifest, ManifestStore, ObjectName, StorageCluster,
    StorageSystem, StoreMetrics, StoreOutcome,
};
use peerstripe_trace::FileRecord;
use serde::{Deserialize, Serialize};

/// Configuration of the PAST baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PastConfig {
    /// Number of salted retries after the first placement attempt fails.
    pub retries: u32,
    /// Whether per-file manifests are recorded.
    pub track_manifests: bool,
}

impl Default for PastConfig {
    fn default() -> Self {
        PastConfig {
            retries: 5,
            track_manifests: true,
        }
    }
}

/// The PAST baseline storage system.
pub struct Past {
    cluster: StorageCluster,
    config: PastConfig,
    manifests: ManifestStore,
    metrics: StoreMetrics,
}

impl Past {
    /// Create a PAST instance over an existing cluster.
    pub fn new(cluster: StorageCluster, config: PastConfig) -> Self {
        Past {
            cluster,
            config,
            manifests: ManifestStore::new(),
            metrics: StoreMetrics::new(),
        }
    }

    /// The instance's configuration.
    pub fn config(&self) -> &PastConfig {
        &self.config
    }

    /// Consume the system and return its cluster.
    pub fn into_cluster(self) -> StorageCluster {
        self.cluster
    }
}

impl StorageSystem for Past {
    fn name(&self) -> &str {
        "PAST"
    }

    fn store_file(&mut self, file: &FileRecord) -> StoreOutcome {
        for salt in 0..=self.config.retries {
            let name = ObjectName::whole_file(&file.name, salt);
            let Some((primary, report)) = self.cluster.get_capacity(name.key()) else {
                break;
            };
            if report < file.size {
                continue;
            }
            // A refusal (space consumed since the probe) is treated like a
            // failed probe: re-salt.
            if self
                .cluster
                .store_object_at(primary, name.key(), name.clone(), file.size, None)
                .is_err()
            {
                continue;
            }
            self.metrics
                .record_success(file.size, &[file.size], file.size);
            if self.config.track_manifests {
                self.manifests.insert(FileManifest {
                    name: file.name.clone(),
                    size: file.size,
                    chunks: vec![ChunkPlacement {
                        chunk: 0,
                        size: file.size,
                        blocks: vec![BlockPlacement {
                            name,
                            node: primary,
                            size: file.size,
                            domain: None,
                        }],
                        min_blocks_needed: 1,
                    }],
                    cat_nodes: Vec::new(),
                });
            }
            return StoreOutcome::Stored;
        }
        self.metrics.record_failure(file.size);
        StoreOutcome::Failed {
            reason: format!(
                "no node with {} free space after {} salted retries",
                file.size, self.config.retries
            ),
        }
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
    use peerstripe_sim::{ByteSize, DetRng};
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
    fn stores_whole_files_on_single_nodes() {
        let mut past = Past::new(cluster(50, ByteSize::gb(1), 1), PastConfig::default());
        assert!(past
            .store_file(&FileRecord::new("a", ByteSize::mb(400)))
            .is_stored());
        let manifest = past.manifest("a").unwrap();
        assert_eq!(manifest.chunks.len(), 1);
        assert_eq!(manifest.chunks[0].blocks.len(), 1);
        assert_eq!(manifest.chunks[0].blocks[0].size, ByteSize::mb(400));
        assert!(past.is_file_available("a"));
    }

    #[test]
    fn cannot_store_files_larger_than_a_node() {
        // The defining limitation the paper calls out: a file bigger than every
        // individual node's capacity can never be stored, even though the
        // aggregate capacity is ample.
        let mut past = Past::new(cluster(50, ByteSize::gb(1), 2), PastConfig::default());
        let outcome = past.store_file(&FileRecord::new("huge", ByteSize::gb(4)));
        assert!(!outcome.is_stored());
        assert_eq!(past.metrics().files_failed, 1);
    }

    #[test]
    fn retries_rehash_to_other_nodes() {
        // One nearly full node plus roomy others: the salted retry must find a
        // node with space even if the first attempt lands on the full one.
        let mut past = Past::new(cluster(10, ByteSize::gb(1), 3), PastConfig::default());
        // Fill up a few nodes.
        for i in 0..6 {
            let _ = past.store_file(&FileRecord::new(format!("filler-{i}"), ByteSize::mb(900)));
        }
        let stored_before = past.metrics().files_attempted - past.metrics().files_failed;
        assert!(stored_before > 0);
        // This store may need retries; with 6 attempts over 10 nodes it should
        // find one of the remaining roomy nodes.
        let outcome = past.store_file(&FileRecord::new("late", ByteSize::mb(500)));
        assert!(outcome.is_stored());
    }

    #[test]
    fn a_file_is_placed_once_on_the_node_its_probe_reached() {
        let mut past = Past::new(cluster(30, ByteSize::gb(1), 4), PastConfig::default());
        let name = ObjectName::whole_file("r", 0);
        let probed = past.cluster().overlay().route_quiet(name.key()).unwrap();
        assert!(past
            .store_file(&FileRecord::new("r", ByteSize::mb(100)))
            .is_stored());
        let blocks = &past.manifest("r").unwrap().chunks[0].blocks;
        assert_eq!(blocks.len(), 1);
        assert_eq!((blocks[0].node, &blocks[0].name), (probed, &name));
        assert!(past.cluster().node(probed).has(name.key()));
        assert_eq!(past.metrics().bytes_placed, ByteSize::mb(100));
    }

    #[test]
    fn failure_percentage_grows_as_system_fills() {
        let mut past = Past::new(cluster(20, ByteSize::gb(1), 5), PastConfig::default());
        let mut failures_early = 0;
        for i in 0..20 {
            if !past
                .store_file(&FileRecord::new(format!("e{i}"), ByteSize::mb(700)))
                .is_stored()
            {
                failures_early += 1;
            }
        }
        let mut failures_late = 0;
        for i in 0..20 {
            if !past
                .store_file(&FileRecord::new(format!("l{i}"), ByteSize::mb(700)))
                .is_stored()
            {
                failures_late += 1;
            }
        }
        assert!(
            failures_late > failures_early,
            "late failures {failures_late} should exceed early failures {failures_early}"
        );
    }
}
