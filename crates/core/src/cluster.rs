//! The contributory storage pool: overlay + per-node storage.
//!
//! [`StorageCluster`] combines the [`peerstripe_overlay::OverlaySim`] (which
//! decides *where* a key lives and models churn) with a [`StorageNode`] per
//! participant (which decides *whether* the object fits).  All three storage
//! systems evaluated in the paper — PeerStripe, PAST and CFS — are built on this
//! substrate, so their comparison differs only in placement policy, exactly as in
//! the paper's simulations.

use crate::naming::ObjectName;
use crate::storage::{NodeStoreError, StorageNode, StoredObject};
use peerstripe_overlay::{Id, NodeRef, OverlaySim, Takeover};
use peerstripe_placement::{ClusterView, DomainIndex, NodeState, ProbeView, Topology};
use peerstripe_sim::{ByteSize, DetRng};
use peerstripe_trace::CapacityModel;
use std::sync::Arc;

/// Configuration of a storage cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of participating nodes.
    pub nodes: usize,
    /// Distribution of contributed capacity.
    pub capacity: CapacityModel,
    /// Whether nodes record size-only objects, for the callers that read a
    /// block's size back (a size-only repair, CAT reconstruction).  Objects
    /// with a payload are recorded either way; see [`StorageNode::new`].
    pub track_objects: bool,
}

impl ClusterConfig {
    /// The paper's 10 000-node simulation population.  Its nodes keep no
    /// record of size-only objects: the paper's experiments ask a node only
    /// how much it holds and whether it is up.
    pub fn paper_desktop_grid() -> Self {
        ClusterConfig {
            nodes: 10_000,
            capacity: CapacityModel::paper_desktop_grid(),
            track_objects: false,
        }
    }

    /// A scaled-down population with the same capacity distribution.
    pub fn scaled(nodes: usize) -> Self {
        ClusterConfig {
            nodes,
            ..Self::paper_desktop_grid()
        }
    }

    /// Build the cluster.
    pub fn build(&self, rng: &mut DetRng) -> StorageCluster {
        let mut overlay_rng = rng.fork("overlay");
        let overlay = OverlaySim::new(self.nodes, &mut overlay_rng);
        let capacities = self.capacity.sample(self.nodes, rng);
        let nodes = capacities
            .into_iter()
            .map(|c| StorageNode::new(c, self.track_objects))
            .collect();
        StorageCluster {
            overlay,
            nodes,
            index: None,
        }
    }
}

/// Why a cluster-level store failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterStoreError {
    /// The overlay has no live nodes.
    NoLiveNodes,
    /// The target node refused the object (insufficient space, duplicate key).
    Refused(NodeStoreError),
}

/// The shared storage pool all systems in the evaluation run on.
///
/// Once a failure-domain topology has been handed to it
/// ([`StorageCluster::adopt_topology`]) the cluster also keeps a
/// [`DomainIndex`] of its nodes, which it lends to placement strategies.
/// Nothing outside the cluster can change a node's space or liveness — the
/// overlay and the nodes are reachable read-only — so every such change goes
/// through a method below that brings the node's index slot up to date.
#[derive(Debug, Clone)]
pub struct StorageCluster {
    overlay: OverlaySim,
    nodes: Vec<StorageNode>,
    index: Option<DomainIndex>,
}

// Sweeps clone a base cluster into worker threads.
const _: fn() = || {
    fn shareable<T: Send + Sync + Clone>() {}
    shareable::<StorageCluster>();
};

impl StorageCluster {
    /// Read-only access to the overlay.
    pub fn overlay(&self) -> &OverlaySim {
        &self.overlay
    }

    /// Number of nodes (live and failed).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Read-only access to one node's storage.
    pub fn node(&self, node: NodeRef) -> &StorageNode {
        &self.nodes[node]
    }

    /// Serve placement decisions made with `topology` from a per-domain
    /// index, kept current from here on.  A topology that does not cover
    /// exactly this cluster's nodes gets no index (decisions walk the
    /// cluster, as they do for any topology other than the adopted one);
    /// adopting the topology already served changes nothing.
    pub fn adopt_topology(&mut self, topology: &Topology) {
        if !self.index.as_ref().is_some_and(|ix| ix.serves(topology)) {
            self.index =
                DomainIndex::build(topology, self.nodes.len(), |node| self.node_state(node));
        }
    }

    fn node_state(&self, node: NodeRef) -> NodeState {
        NodeState {
            alive: self.overlay.is_alive(node),
            free: self.nodes[node].free(),
        }
    }

    /// Bring a node's index slot up to date after its space or liveness
    /// changed.
    fn sync(&mut self, node: NodeRef) {
        let state = self.node_state(node);
        if let Some(index) = self.index.as_mut() {
            index.update(node, state);
        }
    }

    /// True if the maintained index equals one built from scratch now (or
    /// there is none) — the consistency check tests and the maintenance
    /// engine's debug builds lean on.
    pub fn index_is_consistent(&self) -> bool {
        self.index
            .as_ref()
            .is_none_or(|index| index.rebuilt(|node| self.node_state(node)).as_ref() == Some(index))
    }

    /// Total contributed capacity across all nodes (live and failed).
    pub fn total_capacity(&self) -> ByteSize {
        self.nodes.iter().map(StorageNode::capacity).sum()
    }

    /// Total bytes stored on live nodes.
    pub fn total_used(&self) -> ByteSize {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| self.overlay.is_alive(*i))
            .map(|(_, n)| n.used())
            .sum()
    }

    /// Overall utilization of the live capacity, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        let capacity: ByteSize = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| self.overlay.is_alive(*i))
            .map(|(_, n)| n.capacity())
            .sum();
        self.total_used().fraction_of(capacity)
    }

    /// Send a `getCapacity` probe for a prospective object: routes the key and
    /// returns the target node together with its reported capacity (Figure 4).
    ///
    /// The report is *not* a reservation.
    pub fn get_capacity(&mut self, key: Id) -> Option<(NodeRef, ByteSize)> {
        let target = self.overlay.route(key)?;
        Some((target, self.nodes[target].free()))
    }

    /// Route a key to the node currently responsible for it, charging one
    /// lookup message.
    pub fn route(&mut self, key: Id) -> Option<NodeRef> {
        self.overlay.route(key)
    }

    /// Charge one lookup message for a node found without routing (CFS reads
    /// its block's successor off the ring).
    pub fn charge_lookup(&mut self) {
        self.overlay.charge_lookup();
    }

    /// Store an object at the node its key routes to.
    ///
    /// One routed lookup message is charged; the data transfer itself happens
    /// over IP and is not overlay traffic (Section 4.1).
    pub fn store_object(
        &mut self,
        name: &ObjectName,
        size: ByteSize,
        payload: Option<Vec<u8>>,
    ) -> Result<NodeRef, ClusterStoreError> {
        let key = name.key();
        let target = self.route(key).ok_or(ClusterStoreError::NoLiveNodes)?;
        self.store_object_at(target, key, size, payload)
    }

    /// Store an object on an explicit node (replica placement, takeover
    /// regeneration).  No lookup message is charged.
    pub fn store_object_at(
        &mut self,
        node: NodeRef,
        key: Id,
        size: ByteSize,
        payload: Option<Vec<u8>>,
    ) -> Result<NodeRef, ClusterStoreError> {
        if !self.overlay.is_alive(node) {
            return Err(ClusterStoreError::NoLiveNodes);
        }
        let payload = payload.map(Arc::new);
        self.nodes[node]
            .store(key, StoredObject { size, payload })
            .map_err(ClusterStoreError::Refused)?;
        self.sync(node);
        Ok(node)
    }

    /// Fetch a recorded object from a specific node: one with a payload, or
    /// a size-only one on a tracking node.
    pub fn fetch_from(&self, node: NodeRef, name: &ObjectName) -> Option<&StoredObject> {
        if !self.overlay.is_alive(node) {
            return None;
        }
        self.nodes[node].get(name.key())
    }

    /// Remove an object from a node, freeing its space.
    pub fn remove_from(&mut self, node: NodeRef, name: &ObjectName) -> Option<ByteSize> {
        let removed = self.nodes[node].remove(name.key());
        self.sync(node);
        removed
    }

    /// Release bytes without naming an object: the inverse of
    /// [`reserve`](Self::reserve).
    pub fn release_at(&mut self, node: NodeRef, size: ByteSize) {
        self.nodes[node].release(size);
        self.sync(node);
    }

    /// Roll back a stored object: remove it if recorded, otherwise release its size.
    pub fn rollback_object(&mut self, node: NodeRef, name: &ObjectName, size: ByteSize) {
        if self.nodes[node].remove(name.key()).is_none() {
            self.nodes[node].release(size);
        }
        self.sync(node);
    }

    /// Charge `size` bytes to a node without storing an identified object
    /// (regenerated blocks tracked in a ledger rather than as node objects).
    /// Fails like a store when the space is not there.
    pub fn reserve(&mut self, node: NodeRef, size: ByteSize) -> Result<(), NodeStoreError> {
        self.nodes[node].reserve(size)?;
        self.sync(node);
        Ok(())
    }

    /// Drop everything a node stores; its capacity stays, so it can serve as
    /// an empty contributor.
    pub fn wipe(&mut self, node: NodeRef) {
        self.nodes[node].wipe();
        self.sync(node);
    }

    /// Fail a node: its identifier leaves the overlay and its disk contents
    /// are unreachable.  Returns the key-space takeover description for
    /// recovery.  The stored objects are kept, so recovery code can inspect
    /// what was lost; wiping ([`StorageCluster::wipe`]) is the caller's
    /// decision once the loss has been accounted.
    pub fn fail_node(&mut self, node: NodeRef) -> Option<Takeover> {
        let takeover = self.overlay.fail(node);
        self.sync(node);
        takeover
    }

    /// Uniformly sample and fail `count` live nodes; returns them with takeovers.
    pub fn fail_random(
        &mut self,
        count: usize,
        rng: &mut DetRng,
    ) -> Vec<(NodeRef, Option<Takeover>)> {
        let failed = self.overlay.fail_random(count, rng);
        for &(node, _) in &failed {
            self.sync(node);
        }
        failed
    }

    /// Bring a failed node back into the overlay under its old identifier,
    /// with whatever it still stores.
    pub fn rejoin(&mut self, node: NodeRef) {
        self.overlay.rejoin(node);
        self.sync(node);
    }
}

// The narrow interface placement strategies consult: routing, liveness, and
// capacity reports, without exposing the rest of the cluster.
impl ClusterView for StorageCluster {
    fn route_quiet(&self, key: Id) -> Option<NodeRef> {
        self.overlay.route_quiet(key)
    }

    fn is_alive(&self, node: NodeRef) -> bool {
        self.overlay.is_alive(node)
    }

    fn can_store(&self, node: NodeRef, size: ByteSize) -> bool {
        self.nodes[node].can_store(size)
    }

    fn report_of(&self, node: NodeRef) -> ByteSize {
        self.nodes[node].free()
    }

    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn alive_nodes(&self) -> Vec<NodeRef> {
        self.overlay.alive_nodes().collect()
    }

    fn domain_index(&self) -> Option<&DomainIndex> {
        self.index.as_ref()
    }
}

impl ProbeView for StorageCluster {
    fn probe(&mut self, key: Id) -> Option<(NodeRef, ByteSize)> {
        self.get_capacity(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cluster(seed: u64) -> StorageCluster {
        let mut rng = DetRng::new(seed);
        ClusterConfig {
            nodes: 100,
            capacity: CapacityModel::Fixed(ByteSize::gb(1)),
            track_objects: true,
        }
        .build(&mut rng)
    }

    #[test]
    fn build_assigns_capacity_to_every_node() {
        let mut rng = DetRng::new(1);
        let cluster = ClusterConfig::scaled(50).build(&mut rng);
        assert_eq!(cluster.node_count(), 50);
        assert!(cluster.total_capacity() > ByteSize::gb(1024));
        assert_eq!(cluster.total_used(), ByteSize::ZERO);
        assert_eq!(cluster.utilization(), 0.0);
    }

    #[test]
    fn store_and_fetch_round_trip() {
        let mut cluster = small_cluster(2);
        let name = ObjectName::block("genome", 0, 1);
        let node = cluster
            .store_object(&name, ByteSize::mb(100), Some(vec![1, 2, 3]))
            .unwrap();
        let fetched = cluster.fetch_from(node, &name).unwrap();
        assert_eq!(fetched.size, ByteSize::mb(100));
        assert_eq!(fetched.payload.as_deref(), Some(&vec![1u8, 2, 3]));
        assert_eq!(cluster.total_used(), ByteSize::mb(100));
        // The object landed on the node its key routes to.
        assert_eq!(cluster.route(name.key()), Some(node));
    }

    #[test]
    fn get_capacity_reports_free_space_without_reserving() {
        let mut cluster = small_cluster(3);
        let name = ObjectName::chunk("f", 0);
        let (node, report) = cluster.get_capacity(name.key()).unwrap();
        assert_eq!(report, ByteSize::gb(1));
        // Fill the node behind the report's back; the report was not a reservation.
        cluster
            .store_object_at(node, Id(42), ByteSize::gb(1), None)
            .unwrap();
        let (_, report2) = cluster.get_capacity(name.key()).unwrap();
        assert_eq!(report2, ByteSize::ZERO);
    }

    #[test]
    fn store_fails_when_target_is_full() {
        let mut cluster = small_cluster(4);
        let name = ObjectName::chunk("huge", 0);
        let err = cluster
            .store_object(&name, ByteSize::gb(2), None)
            .unwrap_err();
        assert!(matches!(
            err,
            ClusterStoreError::Refused(NodeStoreError::InsufficientSpace)
        ));
    }

    #[test]
    fn failed_nodes_lose_objects_for_lookup_purposes() {
        let mut cluster = small_cluster(5);
        let name = ObjectName::chunk("data", 0);
        let node = cluster.store_object(&name, ByteSize::mb(10), None).unwrap();
        let takeover = cluster.fail_node(node).unwrap();
        assert!(cluster.fetch_from(node, &name).is_none());
        // The key now routes to one of the takeover inheritors.
        let new_target = cluster.route(name.key()).unwrap();
        assert!(new_target == takeover.predecessor.1 || new_target == takeover.successor.1);
    }

    #[test]
    fn utilization_counts_only_live_nodes() {
        let mut cluster = small_cluster(6);
        let name = ObjectName::chunk("x", 0);
        let node = cluster
            .store_object(&name, ByteSize::mb(500), None)
            .unwrap();
        assert!(cluster.utilization() > 0.0);
        cluster.fail_node(node);
        assert_eq!(cluster.total_used(), ByteSize::ZERO);
    }

    #[test]
    fn an_index_exists_exactly_for_an_adopted_topology_over_these_nodes() {
        let mut cluster = small_cluster(8);
        assert!(cluster.domain_index().is_none(), "no topology, no index");
        let topology = Topology::uniform_groups(100, 10);
        cluster.adopt_topology(&topology);
        assert!(cluster.domain_index().unwrap().serves(&topology));
        // Space and liveness changes reach it.
        let name = ObjectName::chunk("x", 0);
        let node = cluster
            .store_object(&name, ByteSize::mb(500), None)
            .unwrap();
        cluster.fail_node((node + 1) % 100);
        assert!(cluster.index_is_consistent());
        // An equal topology built apart is not the adopted one.
        assert!(!cluster
            .domain_index()
            .unwrap()
            .serves(&Topology::uniform_groups(100, 10)));
        // Neither a larger topology nor one that leaves nodes out is indexed.
        cluster.adopt_topology(&Topology::uniform_groups(120, 10));
        assert!(cluster.domain_index().is_none());
        cluster.adopt_topology(&Topology::uniform_groups(90, 10));
        assert!(cluster.domain_index().is_none());
    }

    #[test]
    fn lookup_messages_are_counted() {
        let mut cluster = small_cluster(7);
        let before = cluster.overlay().stats().lookups;
        let _ = cluster.get_capacity(Id::hash("a"));
        let _ = cluster.store_object(&ObjectName::chunk("a", 0), ByteSize::mb(1), None);
        let _ = cluster.route(Id::hash("b"));
        cluster.charge_lookup();
        assert_eq!(cluster.overlay().stats().lookups, before + 4);
    }
}
