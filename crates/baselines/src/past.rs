//! PAST-style whole-file placement (Rowstron & Druschel, SOSP'01), as compared
//! against in the paper.
//!
//! PAST stores each file *in its entirety* on the node whose identifier is
//! numerically closest to the file's key (the key's root); the paper's
//! simulations keep one copy.  The consequence the paper highlights: no file
//! larger than the free space of some single node can ever be stored, and as
//! utilization grows more and more roots are full.
//!
//! Here PAST makes one attempt per file: it probes the root of
//! `ObjectName::whole_file(name, 0)` and stores there or fails.  Published
//! PAST does not keep re-salting an insert that hit a full node (it diverts
//! the file's replicas, then fails), and the paper's 36 % failure level is
//! only reachable without a deep retry budget.

use peerstripe_core::{ObjectName, StorageCluster, StorageSystem, StoreMetrics, StoreOutcome};
use peerstripe_trace::FileRecord;

/// The PAST baseline storage system.
pub struct Past {
    cluster: StorageCluster,
    metrics: StoreMetrics,
}

impl Past {
    /// Create a PAST instance over an existing cluster.
    pub fn new(cluster: StorageCluster) -> Self {
        Past {
            cluster,
            metrics: StoreMetrics::new(),
        }
    }
}

impl StorageSystem for Past {
    fn name(&self) -> &str {
        "PAST"
    }

    fn store_file(&mut self, file: &FileRecord) -> StoreOutcome {
        let key = ObjectName::whole_file(file.name.as_str(), 0).key();
        let stored = match self.cluster.get_capacity(key) {
            Some((root, free)) if free >= file.size => self
                .cluster
                .store_object_at(root, key, file.size, None)
                .is_ok(),
            _ => false,
        };
        if stored {
            self.metrics
                .record_success(file.size, [file.size], file.size);
            StoreOutcome::Stored
        } else {
            self.metrics.record_failure(file.size);
            StoreOutcome::Failed {
                reason: format!("the root of its key lacks {} free space", file.size),
            }
        }
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

    fn root_of(past: &Past, file: &str) -> usize {
        let key = ObjectName::whole_file(file, 0).key();
        past.cluster().overlay().route_quiet(key).unwrap()
    }

    #[test]
    fn a_file_is_placed_whole_once_on_its_keys_root() {
        let mut past = Past::new(cluster(30, ByteSize::gb(1), 4));
        let root = root_of(&past, "r");
        assert!(past
            .store_file(&FileRecord::new("r", ByteSize::mb(100)))
            .is_stored());
        let cluster = past.cluster();
        let key = ObjectName::whole_file("r", 0).key();
        assert!(cluster.node(root).has(key));
        assert_eq!(cluster.node(root).used(), ByteSize::mb(100));
        let objects: u64 = (0..30).map(|n| cluster.node(n).object_count()).sum();
        assert_eq!(objects, 1);
        assert_eq!(cluster.total_used(), ByteSize::mb(100));
        assert_eq!(past.metrics().bytes_placed, ByteSize::mb(100));
        assert!((past.metrics().mean_chunks_per_file() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cannot_store_files_larger_than_a_node() {
        // The defining limitation the paper calls out: a file bigger than every
        // individual node's capacity can never be stored, even though the
        // aggregate capacity is ample.
        let mut past = Past::new(cluster(50, ByteSize::gb(1), 2));
        let outcome = past.store_file(&FileRecord::new("huge", ByteSize::gb(4)));
        assert!(!outcome.is_stored());
        assert_eq!(past.metrics().files_failed, 1);
        assert_eq!(past.cluster().total_used(), ByteSize::ZERO);
    }

    #[test]
    fn a_full_root_fails_the_store_without_trying_another_node() {
        let mut past = Past::new(cluster(10, ByteSize::gb(1), 3));
        let root = root_of(&past, "late");
        // Fill the root behind PAST's back; every other node stays empty.
        let filler = ObjectName::chunk("filler", 0).key();
        past.cluster
            .store_object_at(root, filler, ByteSize::mb(900), None)
            .unwrap();
        let outcome = past.store_file(&FileRecord::new("late", ByteSize::mb(500)));
        assert!(!outcome.is_stored());
        assert_eq!(past.metrics().files_failed, 1);
        let cluster = past.cluster();
        assert_eq!(cluster.total_used(), ByteSize::mb(900));
        let key = ObjectName::whole_file("late", 0).key();
        assert!((0..10).all(|n| !cluster.node(n).has(key)));
    }

    #[test]
    fn failure_percentage_grows_as_system_fills() {
        let mut past = Past::new(cluster(20, ByteSize::gb(1), 5));
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
