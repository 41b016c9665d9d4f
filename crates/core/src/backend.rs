//! The backend seam: the narrow storage interface the [`PeerStripe`] client
//! drives.
//!
//! Everything the store / retrieve / recover paths need from the world is
//! captured here: capacity probes (via [`ProbeView`]), block placement and
//! retrieval, rollback, and ring-neighbour selection for CAT replication.
//! [`StorageCluster`] implements it in-process (the simulator, the default
//! backend), and `peerstripe-net`'s gateway implements it against live
//! `peerstripe-node` daemons over TCP — so the placement, erasure, and repair
//! stacks run unchanged against real processes.
//!
//! [`PeerStripe`]: crate::client::PeerStripe

use crate::cluster::{ClusterStoreError, StorageCluster};
use crate::naming::ObjectName;
use peerstripe_overlay::{Id, NodeRef};
use peerstripe_placement::{ProbeView, Topology};
use peerstripe_sim::ByteSize;
use std::sync::Arc;

/// An object fetched from a backend, returned by value.
///
/// The simulator hands out `&StoredObject` internally, but a networked
/// backend receives bytes off the wire and cannot lend references into a
/// node's store — so the seam returns owned data.  The payload is shared,
/// so the sim impl's clone is a reference count, never a byte copy.
#[derive(Debug, Clone)]
pub struct FetchedBlock {
    /// The object's recorded size.
    pub size: ByteSize,
    /// The object's payload bytes, when the byte path stored any.
    pub payload: Option<Arc<Vec<u8>>>,
}

/// The storage operations a [`PeerStripe`] client drives against its backend.
///
/// Supertrait [`ProbeView`] (and its supertrait `ClusterView`) supplies the
/// paper's `getCapacity` probe plus routing/liveness queries; this trait adds
/// the data-plane verbs.
///
/// [`PeerStripe`]: crate::client::PeerStripe
pub trait StorageBackend: ProbeView {
    /// Route a key to the node currently responsible for it, charging one
    /// overlay lookup message (the simulator's accounting; networked backends
    /// route against their membership ring).
    fn route_lookup(&mut self, key: Id) -> Option<NodeRef>;

    /// Store an object on an explicit node under `key`.
    fn store_block(
        &mut self,
        node: NodeRef,
        key: Id,
        name: ObjectName,
        size: ByteSize,
        payload: Option<Vec<u8>>,
    ) -> Result<NodeRef, ClusterStoreError>;

    /// Fetch an object from a specific node, by value.
    fn fetch_block(&self, node: NodeRef, name: &ObjectName) -> Option<FetchedBlock>;

    /// Undo a store: remove the object if the node tracks it, otherwise
    /// release its reserved space.
    fn rollback_block(&mut self, node: NodeRef, name: &ObjectName, size: ByteSize);

    /// The `k` ring members numerically closest to `key` (leaf-set targets
    /// for CAT replication).  No lookup message is charged.
    fn replica_targets(&self, key: Id, k: usize) -> Vec<(Id, NodeRef)>;

    /// Told once, by the client that will place blocks with it, which
    /// failure-domain topology decisions are made under.  A backend that can
    /// answer per-domain questions faster knowing it (the simulator indexes
    /// its nodes by domain) prepares here; the default does nothing.
    fn adopt_topology(&mut self, _topology: &Topology) {}
}

impl StorageBackend for StorageCluster {
    fn route_lookup(&mut self, key: Id) -> Option<NodeRef> {
        self.route(key)
    }

    fn store_block(
        &mut self,
        node: NodeRef,
        key: Id,
        name: ObjectName,
        size: ByteSize,
        payload: Option<Vec<u8>>,
    ) -> Result<NodeRef, ClusterStoreError> {
        self.store_object_at(node, key, name, size, payload)
    }

    fn fetch_block(&self, node: NodeRef, name: &ObjectName) -> Option<FetchedBlock> {
        self.fetch_from(node, name).map(|obj| FetchedBlock {
            size: obj.size,
            payload: obj.payload.clone(),
        })
    }

    fn rollback_block(&mut self, node: NodeRef, name: &ObjectName, size: ByteSize) {
        self.rollback_object(node, name, size);
    }

    fn replica_targets(&self, key: Id, k: usize) -> Vec<(Id, NodeRef)> {
        self.overlay().ring().k_closest(key, k)
    }

    fn adopt_topology(&mut self, topology: &Topology) {
        StorageCluster::adopt_topology(self, topology);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use peerstripe_sim::DetRng;
    use peerstripe_trace::CapacityModel;

    fn cluster() -> StorageCluster {
        let mut rng = DetRng::new(3);
        ClusterConfig {
            nodes: 30,
            capacity: CapacityModel::Fixed(ByteSize::mb(100)),
            report_fraction: 1.0,
            track_objects: true,
        }
        .build(&mut rng)
    }

    #[test]
    fn sim_backend_round_trips_through_the_seam() {
        let mut backend = cluster();
        let name = ObjectName::block("f", 0, 1);
        let node = backend.route_lookup(name.key()).unwrap();
        backend
            .store_block(
                node,
                name.key(),
                name.clone(),
                ByteSize::mb(1),
                Some(vec![7, 8, 9]),
            )
            .unwrap();
        let fetched = backend.fetch_block(node, &name).unwrap();
        assert_eq!(fetched.size, ByteSize::mb(1));
        assert_eq!(fetched.payload.as_deref(), Some(&vec![7u8, 8, 9]));
        backend.rollback_block(node, &name, ByteSize::mb(1));
        assert!(backend.fetch_block(node, &name).is_none());
    }

    #[test]
    fn replica_targets_are_distinct_ring_members() {
        let backend = cluster();
        let targets = backend.replica_targets(Id::hash("cat"), 3);
        assert_eq!(targets.len(), 3);
        let nodes: std::collections::BTreeSet<_> = targets.iter().map(|(_, n)| *n).collect();
        assert_eq!(nodes.len(), 3);
    }
}
