//! The overlay network simulator.
//!
//! [`OverlaySim`] plays the role of FreePastry's "simulator mode" used in the
//! paper (Section 6.1): a population of directly connected nodes, each running
//! an instance of the protocol code, with instantaneous message delivery but
//! faithful *routing semantics* (key → numerically closest live node),
//! neighbour takeover, proximity, and scripted churn.  The storage systems
//! (PeerStripe, PAST, CFS) are layered on top of this simulator; it records
//! lookup-message statistics so the experiments can charge per-lookup
//! overheads.

use crate::id::Id;
use crate::node::{Coord, NodeInfo};
use crate::ring::{IdRing, NodeRef, Takeover};
use peerstripe_sim::DetRng;

/// Statistics about overlay traffic accumulated by a simulation run.
#[derive(Debug, Clone, Default)]
pub struct OverlayStats {
    /// Number of `lookUp` / `getCapacity`-style routed messages issued.
    pub lookups: u64,
}

/// A simulated structured overlay of contributory nodes.
#[derive(Debug, Clone)]
pub struct OverlaySim {
    nodes: Vec<NodeInfo>,
    ring: IdRing,
    stats: OverlayStats,
}

impl OverlaySim {
    /// Create an overlay with `n` nodes with uniformly random ids and coordinates:
    /// the overlay, and the draws from `rng`, of `n` [`OverlaySim::join`]s on an
    /// empty one, its ring built in one sort (or join by join, should two ids collide).
    pub fn new(n: usize, rng: &mut DetRng) -> Self {
        let start = rng.clone();
        let nodes = (0..n)
            .map(|_| {
                let id = Id::random(rng);
                NodeInfo::new(id, Coord::random(rng))
            })
            .collect();
        OverlaySim::from_table(nodes).unwrap_or_else(|| {
            *rng = start;
            let mut sim = OverlaySim::empty();
            for _ in 0..n {
                sim.join(rng);
            }
            sim
        })
    }

    /// An overlay of `nodes`, all live; `None` if two share an id.
    fn from_table(nodes: Vec<NodeInfo>) -> Option<Self> {
        let members = nodes.iter().enumerate().map(|(i, n)| (n.id, i)).collect();
        Some(OverlaySim {
            ring: IdRing::from_members(members)?,
            nodes,
            stats: OverlayStats::default(),
        })
    }

    /// Create an empty overlay.
    pub fn empty() -> Self {
        OverlaySim {
            nodes: Vec::new(),
            ring: IdRing::new(),
            stats: OverlayStats::default(),
        }
    }

    /// Iterator over the [`NodeRef`]s of live nodes.
    pub fn alive_nodes(&self) -> impl Iterator<Item = NodeRef> + '_ {
        self.ring.iter().map(|(_, n)| n)
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> &OverlayStats {
        &self.stats
    }

    /// Direct access to the id ring (read-only).
    pub fn ring(&self) -> &IdRing {
        &self.ring
    }

    /// A new node joins the overlay (Figure 1 of the paper): it is assigned a
    /// random id and coordinate and becomes immediately reachable.
    pub fn join(&mut self, rng: &mut DetRng) -> NodeRef {
        loop {
            let id = Id::random(rng);
            if !self.ring.contains(id) {
                let node_ref = self.nodes.len();
                self.nodes.push(NodeInfo::new(id, Coord::random(rng)));
                self.ring.insert(id, node_ref);
                return node_ref;
            }
        }
    }

    /// A previously failed node rejoins with its old identifier.
    pub fn rejoin(&mut self, node: NodeRef) {
        if !self.nodes[node].alive {
            self.nodes[node].alive = true;
            self.ring.insert(self.nodes[node].id, node);
        }
    }

    /// Fail a node, removing it from the ring.  Returns the takeover description
    /// (who inherits its key space), or `None` if the node was already dead or is
    /// the last live node.
    pub fn fail(&mut self, node: NodeRef) -> Option<Takeover> {
        if !self.nodes[node].alive {
            return None;
        }
        self.nodes[node].alive = false;
        self.ring
            .remove_with_takeover(self.nodes[node].id)
            .and_then(|(_, takeover)| takeover)
    }

    /// Fail `count` distinct, uniformly chosen live nodes; returns the failed refs
    /// in failure order (paired with their takeovers).
    pub fn fail_random(
        &mut self,
        count: usize,
        rng: &mut DetRng,
    ) -> Vec<(NodeRef, Option<Takeover>)> {
        let mut live: Vec<NodeRef> = self.alive_nodes().collect();
        rng.shuffle(&mut live);
        live.truncate(count);
        live.into_iter()
            .map(|n| {
                let t = self.fail(n);
                (n, t)
            })
            .collect()
    }

    /// True if a node is live.
    pub fn is_alive(&self, node: NodeRef) -> bool {
        self.nodes[node].alive
    }

    /// Route a key to the live node numerically closest to it.
    ///
    /// Increments the lookup-message counter: every chunk/block store or retrieve
    /// in the storage systems costs one routed `lookUp` message (Section 4.1).
    pub fn route(&mut self, key: Id) -> Option<NodeRef> {
        self.charge_lookup();
        self.route_quiet(key)
    }

    /// Count one lookup message for a node the caller found without routing.
    pub fn charge_lookup(&mut self) {
        self.stats.lookups += 1;
    }

    /// Route a key without counting it as protocol traffic (internal queries).
    pub fn route_quiet(&self, key: Id) -> Option<NodeRef> {
        self.ring.route(key).map(|(_, n)| n)
    }

    /// Proximity (synthetic latency metric) between two nodes.
    pub fn proximity(&self, a: NodeRef, b: NodeRef) -> f64 {
        self.nodes[a].coord.distance(&self.nodes[b].coord)
    }

    /// From `candidates`, the `k` nodes closest (by proximity) to `from`.
    pub fn closest_by_proximity(
        &self,
        from: NodeRef,
        candidates: &[NodeRef],
        k: usize,
    ) -> Vec<NodeRef> {
        let origin = self.nodes[from].coord;
        let mut with_dist: Vec<(f64, NodeRef)> = candidates
            .iter()
            .filter(|&&c| c != from)
            .map(|&c| (origin.distance(&self.nodes[c].coord), c))
            .collect();
        with_dist.sort_by(|a, b| a.0.total_cmp(&b.0));
        with_dist.into_iter().take(k).map(|(_, c)| c).collect()
    }

    /// A uniformly random live node, if any: the same draw as
    /// [`DetRng::choose`] over [`OverlaySim::alive_nodes`].
    pub fn random_alive(&self, rng: &mut DetRng) -> Option<NodeRef> {
        if self.ring.is_empty() {
            return None;
        }
        self.alive_nodes().nth(rng.index(self.ring.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creates_requested_population() {
        let mut rng = DetRng::new(1);
        let sim = OverlaySim::new(1000, &mut rng);
        assert_eq!(sim.nodes.len(), 1000);
        assert_eq!(sim.alive_nodes().count(), 1000);
    }

    /// `(id, coordinate, alive)` of every node, in node-table order.
    fn table(sim: &OverlaySim) -> Vec<(Id, Coord, bool)> {
        sim.nodes.iter().map(|n| (n.id, n.coord, n.alive)).collect()
    }

    #[test]
    fn bulk_build_equals_one_join_at_a_time() {
        for n in [0, 1, 2, 1000] {
            let mut bulk_rng = DetRng::new(11);
            let bulk = OverlaySim::new(n, &mut bulk_rng);
            let mut joined_rng = DetRng::new(11);
            let mut joined = OverlaySim::empty();
            for i in 0..n {
                assert_eq!(joined.join(&mut joined_rng), i);
            }
            assert_eq!(table(&bulk), table(&joined), "{n} nodes");
            assert!(bulk.ring().iter().eq(joined.ring().iter()), "{n} nodes");
            assert_eq!(bulk.ring().len(), n);
            assert_eq!(bulk_rng.next_u64(), joined_rng.next_u64(), "{n} nodes");
        }
    }

    #[test]
    fn a_duplicate_id_takes_the_sequential_path() {
        let node = |id| NodeInfo::new(Id(id), Coord { x: 0.5, y: 0.5 });
        assert!(OverlaySim::from_table(vec![node(3), node(9), node(3)]).is_none());
        let sim = OverlaySim::from_table(vec![node(9), node(3)]).unwrap();
        assert_eq!(
            sim.ring().iter().collect::<Vec<_>>(),
            [(Id(3), 1), (Id(9), 0)]
        );
    }

    #[test]
    fn random_alive_draws_like_choose_over_the_live_nodes() {
        let mut rng = DetRng::new(12);
        let mut sim = OverlaySim::new(300, &mut rng);
        sim.fail_random(120, &mut rng);
        let live: Vec<NodeRef> = sim.alive_nodes().collect();
        for seed in 0..50 {
            let mut a = DetRng::new(seed);
            let mut b = DetRng::new(seed);
            assert_eq!(sim.random_alive(&mut a), b.choose(&live).copied());
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut empty_rng = DetRng::new(1);
        assert_eq!(OverlaySim::empty().random_alive(&mut empty_rng), None);
        assert_eq!(empty_rng.next_u64(), DetRng::new(1).next_u64());
    }

    #[test]
    fn route_counts_lookups() {
        let mut rng = DetRng::new(2);
        let mut sim = OverlaySim::new(100, &mut rng);
        for i in 0..50 {
            assert!(sim.route(Id::hash(&format!("file_{i}"))).is_some());
        }
        assert_eq!(sim.stats().lookups, 50);
        sim.route_quiet(Id::hash("quiet"));
        assert_eq!(sim.stats().lookups, 50);
    }

    #[test]
    fn failed_nodes_not_routed_to() {
        let mut rng = DetRng::new(3);
        let mut sim = OverlaySim::new(200, &mut rng);
        let failed = sim.fail_random(50, &mut rng);
        assert_eq!(failed.len(), 50);
        assert_eq!(sim.alive_nodes().count(), 150);
        for i in 0..200 {
            let target = sim.route(Id::hash(&format!("k{i}"))).unwrap();
            assert!(sim.is_alive(target), "lookups must land on live nodes");
        }
    }

    #[test]
    fn fail_and_rejoin_round_trip() {
        let mut rng = DetRng::new(4);
        let mut sim = OverlaySim::new(10, &mut rng);
        let victim = 3;
        let takeover = sim.fail(victim);
        assert!(takeover.is_some());
        assert!(!sim.is_alive(victim));
        assert_eq!(sim.alive_nodes().count(), 9);
        assert!(sim.fail(victim).is_none(), "double-fail is a no-op");
        sim.rejoin(victim);
        assert!(sim.is_alive(victim));
        assert_eq!(sim.alive_nodes().count(), 10);
    }

    #[test]
    fn keys_remap_to_takeover_inheritors() {
        let mut rng = DetRng::new(5);
        let mut sim = OverlaySim::new(500, &mut rng);
        // Pick a key, find its root, fail the root, and check the new root is one
        // of the takeover inheritors.
        let key = Id::hash("big-file_0_1");
        let root = sim.route_quiet(key).unwrap();
        let takeover = sim.fail(root).unwrap();
        let new_root = sim.route_quiet(key).unwrap();
        let inheritor = takeover.inheritor_of(key).1;
        assert_eq!(new_root, inheritor);
    }

    #[test]
    fn proximity_selection_is_sorted() {
        let mut rng = DetRng::new(7);
        let sim = OverlaySim::new(100, &mut rng);
        let from = 0;
        let candidates: Vec<NodeRef> = (1..100).collect();
        let nearest = sim.closest_by_proximity(from, &candidates, 10);
        assert_eq!(nearest.len(), 10);
        for w in nearest.windows(2) {
            assert!(sim.proximity(from, w[0]) <= sim.proximity(from, w[1]));
        }
        // Every non-selected candidate is at least as far as the furthest selected.
        let max_sel = sim.proximity(from, *nearest.last().unwrap());
        for c in candidates.iter().filter(|c| !nearest.contains(c)) {
            assert!(sim.proximity(from, *c) >= max_sel - 1e-12);
        }
    }
}
