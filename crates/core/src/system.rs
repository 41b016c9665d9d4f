//! The common interface of the storage systems under evaluation.
//!
//! PeerStripe and the two baselines (PAST, CFS) all expose the same operations
//! to the experiment drivers that compare them (Figures 7–9, Tables 1 and 4):
//! insert a file, report metrics, and show the cluster it filled.
//! [`StorageSystem`] captures that interface and nothing more.
//!
//! [`FileManifest`] records where a file's pieces were placed so that
//! availability can be evaluated as nodes fail (Figure 10, Table 3); its
//! chunk rows are also the file's chunk allocation table (CAT).  Only
//! PeerStripe keeps manifests, and answering availability questions is its
//! job (`PeerStripe::{manifest, manifests, is_file_available}`), not the
//! trait's.

use crate::cluster::StorageCluster;
use crate::metrics::StoreMetrics;
use crate::naming::ObjectName;
use peerstripe_overlay::NodeRef;
use peerstripe_placement::ClusterView;
use peerstripe_sim::ByteSize;
use peerstripe_trace::FileRecord;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Result of attempting to store one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreOutcome {
    /// The whole file was stored.
    Stored,
    /// The store failed (and any partially stored pieces were released).
    Failed {
        /// Human-readable reason, e.g. "exceeded consecutive zero-sized chunk limit".
        reason: String,
    },
}

impl StoreOutcome {
    /// True if the file was stored.
    pub fn is_stored(&self) -> bool {
        matches!(self, StoreOutcome::Stored)
    }
}

/// Placement record of one stored object (block, chunk, or whole file).
#[derive(Debug, Clone)]
pub struct BlockPlacement {
    /// The object's name.
    pub name: ObjectName,
    /// The node the object was placed on.
    pub node: NodeRef,
    /// The object's size.
    pub size: ByteSize,
    /// The failure domain the node belonged to at placement time (`None` for
    /// deployments without a topology).  Recorded so spread accounting and
    /// domain-aware repair can reason about a manifest without re-resolving
    /// nodes against a topology that may have changed since.
    pub domain: Option<peerstripe_placement::DomainId>,
}

/// Placement record of one chunk: every encoded block that was placed for it.
#[derive(Debug, Clone)]
pub struct ChunkPlacement {
    /// Chunk number.
    pub chunk: u32,
    /// Bytes of user data in this chunk.
    pub size: ByteSize,
    /// The placed encoded blocks.
    pub blocks: Vec<BlockPlacement>,
    /// Minimum number of surviving blocks required to recover the chunk.
    pub min_blocks_needed: usize,
}

impl ChunkPlacement {
    /// True if enough of this chunk's blocks are on live nodes to recover it.
    ///
    /// Generic over [`ClusterView`] so availability can be judged against any
    /// backend — the in-process simulator or a live ring of TCP daemons.
    pub fn is_recoverable<V: ClusterView + ?Sized>(&self, view: &V) -> bool {
        if self.size.is_zero() {
            return true;
        }
        let alive = self.blocks.iter().filter(|b| view.is_alive(b.node)).count();
        alive >= self.min_blocks_needed
    }

    /// The blocks of this chunk that live on a particular node.
    pub fn blocks_on(&self, node: NodeRef) -> impl Iterator<Item = &BlockPlacement> {
        self.blocks.iter().filter(move |b| b.node == node)
    }
}

/// Where every piece of a stored file ended up.
#[derive(Debug, Clone)]
pub struct FileManifest {
    /// File name: the one allocation the catalogue key and every chunk,
    /// block and CAT name of the file share.
    pub name: Arc<str>,
    /// File size.
    pub size: ByteSize,
    /// Chunk placements, in chunk order (zero-sized chunks included with no blocks).
    pub chunks: Vec<ChunkPlacement>,
    /// Nodes holding the CAT and its replicas (empty for systems without a CAT).
    pub cat_nodes: Vec<NodeRef>,
}

impl FileManifest {
    /// True if every non-empty chunk is recoverable from live nodes.
    ///
    /// This is the availability criterion of Section 6.2: "We counted a file as
    /// available only if all the chunks of the file could be retrieved."
    pub fn is_available<V: ClusterView + ?Sized>(&self, view: &V) -> bool {
        self.chunks.iter().all(|c| c.is_recoverable(view))
    }

    /// Every placed block of the file (all chunks).
    pub fn all_blocks(&self) -> impl Iterator<Item = &BlockPlacement> {
        self.chunks.iter().flat_map(|c| c.blocks.iter())
    }

    /// Size of one copy of the file's chunk allocation table (CAT): one
    /// Figure 3 row per chunk, zero-sized chunks included — "(1) 0,5242880"
    /// is roughly 32 bytes.
    pub fn cat_size(&self) -> ByteSize {
        ByteSize::bytes(32 * self.chunks.len() as u64)
    }
}

/// A catalogue of manifests, keyed by file name.
///
/// Backed by a `BTreeMap` so iteration (and everything derived from it:
/// availability trackers, damage ledgers, regeneration order) is
/// deterministic — a `HashMap` would reshuffle per process and break
/// fixed-seed reproducibility of the churn experiments.
#[derive(Debug, Clone, Default)]
pub struct ManifestStore {
    manifests: BTreeMap<Arc<str>, FileManifest>,
}

impl ManifestStore {
    /// Create an empty catalogue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (or replace) a manifest.
    pub fn insert(&mut self, manifest: FileManifest) {
        self.manifests.insert(Arc::clone(&manifest.name), manifest);
    }

    /// Look up a manifest by file name.
    pub fn get(&self, name: &str) -> Option<&FileManifest> {
        self.manifests.get(name)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut FileManifest> {
        self.manifests.get_mut(name)
    }

    /// Number of manifests.
    pub fn len(&self) -> usize {
        self.manifests.len()
    }

    /// True if no manifests are stored.
    pub fn is_empty(&self) -> bool {
        self.manifests.is_empty()
    }

    /// Iterate over all manifests.
    pub fn iter(&self) -> impl Iterator<Item = &FileManifest> {
        self.manifests.values()
    }

    /// Iterate mutably over all manifests.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut FileManifest> {
        self.manifests.values_mut()
    }

    /// Count how many stored files are currently available.
    pub fn available_count<V: ClusterView + ?Sized>(&self, view: &V) -> usize {
        self.manifests
            .values()
            .filter(|m| m.is_available(view))
            .count()
    }
}

/// The interface shared by PeerStripe and the baseline systems.
pub trait StorageSystem {
    /// System name as used in figure legends ("Our System", "PAST", "CFS").
    fn name(&self) -> &str;

    /// Attempt to store a file described by a trace record.
    fn store_file(&mut self, file: &FileRecord) -> StoreOutcome;

    /// Store metrics accumulated so far.
    fn metrics(&self) -> &StoreMetrics;

    /// The underlying storage cluster.
    fn cluster(&self) -> &StorageCluster;

    /// Overall utilization of the cluster, in `[0, 1]` (Figure 9's y-axis).
    fn utilization(&self) -> f64 {
        self.cluster().utilization()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use peerstripe_sim::DetRng;
    use peerstripe_trace::CapacityModel;

    fn cluster() -> StorageCluster {
        let mut rng = DetRng::new(1);
        ClusterConfig {
            nodes: 20,
            capacity: CapacityModel::Fixed(ByteSize::gb(1)),
            track_objects: true,
        }
        .build(&mut rng)
    }

    fn manifest_with_blocks(nodes: &[NodeRef], min_needed: usize) -> FileManifest {
        FileManifest {
            name: "f".into(),
            size: ByteSize::mb(10),
            chunks: vec![ChunkPlacement {
                chunk: 0,
                size: ByteSize::mb(10),
                blocks: nodes
                    .iter()
                    .enumerate()
                    .map(|(i, &n)| BlockPlacement {
                        name: ObjectName::block("f", 0, i as u32),
                        node: n,
                        size: ByteSize::mb(5),
                        domain: None,
                    })
                    .collect(),
                min_blocks_needed: min_needed,
            }],
            cat_nodes: vec![],
        }
    }

    #[test]
    fn availability_respects_min_blocks() {
        let mut cluster = cluster();
        let m = manifest_with_blocks(&[0, 1, 2], 2);
        assert!(m.is_available(&cluster));
        cluster.fail_node(0);
        assert!(m.is_available(&cluster), "one loss tolerated");
        cluster.fail_node(1);
        assert!(!m.is_available(&cluster), "two losses exceed tolerance");
    }

    #[test]
    fn zero_sized_chunks_are_always_recoverable() {
        let cluster = cluster();
        let m = FileManifest {
            name: "empty".into(),
            size: ByteSize::ZERO,
            chunks: vec![ChunkPlacement {
                chunk: 0,
                size: ByteSize::ZERO,
                blocks: vec![],
                min_blocks_needed: 1,
            }],
            cat_nodes: vec![],
        };
        assert!(m.is_available(&cluster));
    }

    #[test]
    fn manifest_store_crud() {
        let cluster = cluster();
        let mut store = ManifestStore::new();
        assert!(store.is_empty());
        let manifest = manifest_with_blocks(&[0, 1], 1);
        let name = Arc::clone(&manifest.name);
        store.insert(manifest);
        assert_eq!(store.len(), 1);
        let key = store.manifests.keys().next().unwrap();
        assert!(Arc::ptr_eq(key, &name), "the key is the manifest's name");
        assert!(store.get("f").is_some());
        assert!(store.get("missing").is_none());
        assert_eq!(store.available_count(&cluster), 1);
    }

    #[test]
    fn blocks_on_filters_by_node() {
        let m = manifest_with_blocks(&[3, 4, 3], 2);
        let on3: Vec<_> = m.chunks[0].blocks_on(3).collect();
        assert_eq!(on3.len(), 2);
        assert_eq!(m.all_blocks().count(), 3);
    }

    #[test]
    fn store_outcome_helpers() {
        assert!(StoreOutcome::Stored.is_stored());
        assert!(!StoreOutcome::Failed {
            reason: "full".into()
        }
        .is_stored());
    }
}
