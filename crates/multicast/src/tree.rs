//! Multicast tree construction.
//!
//! PeerStripe creates the replicas of an encoded block *simultaneously* by
//! multicasting the block over an overlay tree whose root is the storing node
//! and whose leaves are the chosen replica holders (Section 4.4.1, Figure 5).
//! The tree is built greedily from Pastry's proximity-aware routing state: at
//! every step the closest available nodes (by the proximity metric) become the
//! children, which gives strong locality at each hop even though the overall
//! tree is not guaranteed shortest-path.
//!
//! The evaluation of Figures 11 and 12 uses a fixed binary tree of height five
//! (63 nodes, 32 leaf replicas); [`MulticastTree::binary`] builds exactly that.

use peerstripe_overlay::{NodeRef, OverlaySim};

/// A rooted multicast tree over overlay nodes.
#[derive(Debug, Clone)]
pub struct MulticastTree {
    /// Parent of each tree member (`None` for the root), indexed by member slot.
    parents: Vec<Option<usize>>,
    /// Children of each member, indexed by member slot.
    children: Vec<Vec<usize>>,
    /// The overlay node each member slot corresponds to.
    nodes: Vec<NodeRef>,
}

impl MulticastTree {
    /// Build a complete binary tree of the given height (height 0 = root only).
    ///
    /// Member slots are assigned in breadth-first order; the overlay node of slot
    /// `i` is simply `i` unless a node list is supplied via
    /// [`MulticastTree::binary_over_nodes`].
    pub fn binary(height: u32) -> Self {
        let count = (1usize << (height + 1)) - 1;
        Self::binary_over_nodes((0..count).collect())
    }

    /// Build a complete binary tree whose breadth-first slots map to the given
    /// overlay nodes (the first node is the root/source).
    pub fn binary_over_nodes(nodes: Vec<NodeRef>) -> Self {
        let count = nodes.len();
        assert!(count > 0, "tree needs at least a root");
        let mut parents = vec![None; count];
        let mut children = vec![Vec::new(); count];
        for (i, parent) in parents.iter_mut().enumerate().skip(1) {
            let p = (i - 1) / 2;
            *parent = Some(p);
            children[p].push(i);
        }
        MulticastTree {
            parents,
            children,
            nodes,
        }
    }

    /// Build a locality-aware tree from `source` over the `replicas`, attaching at
    /// most `fanout` children per node, always choosing the proximity-closest
    /// unattached node next (the greedy construction of Section 4.4.1).
    pub fn locality_aware(
        overlay: &OverlaySim,
        source: NodeRef,
        replicas: &[NodeRef],
        fanout: usize,
    ) -> Self {
        assert!(fanout > 0, "fanout must be positive");
        let mut remaining: Vec<NodeRef> =
            replicas.iter().copied().filter(|r| *r != source).collect();
        let mut nodes = vec![source];
        let mut parents = vec![None];
        let mut children: Vec<Vec<usize>> = vec![Vec::new()];
        let mut frontier = vec![0usize];
        while !remaining.is_empty() {
            let mut next_frontier = Vec::new();
            for &slot in &frontier {
                if remaining.is_empty() {
                    break;
                }
                let picked = overlay.closest_by_proximity(nodes[slot], &remaining, fanout);
                for node in picked {
                    remaining.retain(|r| *r != node);
                    let child_slot = nodes.len();
                    nodes.push(node);
                    parents.push(Some(slot));
                    children.push(Vec::new());
                    children[slot].push(child_slot);
                    next_frontier.push(child_slot);
                }
            }
            if next_frontier.is_empty() {
                // Should not happen (fanout ≥ 1 always consumes a node), but keep
                // the loop well founded.
                break;
            }
            frontier = next_frontier;
        }
        MulticastTree {
            parents,
            children,
            nodes,
        }
    }

    /// Number of members (including the root).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree holds no member: never, as it always holds its root.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The root slot (always 0).
    pub fn root(&self) -> usize {
        0
    }

    /// Parent slot of a member (None for the root).
    pub fn parent(&self, slot: usize) -> Option<usize> {
        self.parents[slot]
    }

    /// Children slots of a member.
    pub fn children(&self, slot: usize) -> &[usize] {
        &self.children[slot]
    }

    /// Member slots in breadth-first order starting at the root.
    pub fn bfs_order(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.len());
        let mut queue = std::collections::VecDeque::from([self.root()]);
        while let Some(slot) = queue.pop_front() {
            order.push(slot);
            queue.extend(self.children(slot).iter().copied());
        }
        order
    }

    /// Leaf slots (members with no children).
    pub fn leaves(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&s| self.children[s].is_empty())
            .collect()
    }

    /// Depth of a slot (root = 0).
    pub fn depth(&self, slot: usize) -> usize {
        let mut d = 0;
        let mut cur = slot;
        while let Some(p) = self.parents[cur] {
            d += 1;
            cur = p;
        }
        d
    }

    /// Height of the tree (maximum depth over all slots).
    pub fn height(&self) -> usize {
        (0..self.len()).map(|s| self.depth(s)).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peerstripe_sim::DetRng;

    #[test]
    fn binary_tree_of_height_five_matches_paper_setup() {
        // "We used a binary tree with a height of five … a total of 63 nodes",
        // 32 of which are the replica-holding leaves.
        let tree = MulticastTree::binary(5);
        assert_eq!(tree.len(), 63);
        assert_eq!(tree.leaves().len(), 32);
        assert_eq!(tree.height(), 5);
        assert_eq!(tree.root(), 0);
        assert_eq!(tree.children(0).len(), 2);
        assert_eq!(tree.parent(0), None);
        assert_eq!(tree.parent(1), Some(0));
        assert_eq!(tree.parent(62), Some(30));
    }

    #[test]
    fn bfs_order_visits_every_member_once() {
        let tree = MulticastTree::binary(4);
        let order = tree.bfs_order();
        assert_eq!(order.len(), tree.len());
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..tree.len()).collect::<Vec<_>>());
        // BFS visits shallower slots first.
        for w in order.windows(2) {
            assert!(tree.depth(w[0]) <= tree.depth(w[1]));
        }
    }

    #[test]
    fn single_node_tree() {
        let tree = MulticastTree::binary(0);
        assert_eq!(tree.len(), 1);
        assert!(!tree.is_empty());
        assert_eq!(tree.leaves(), vec![0]);
        assert_eq!(tree.height(), 0);
    }

    #[test]
    fn locality_aware_tree_spans_all_replicas() {
        let mut rng = DetRng::new(1);
        let overlay = OverlaySim::new(200, &mut rng);
        let source = 0;
        let replicas: Vec<NodeRef> = (1..33).collect();
        let tree = MulticastTree::locality_aware(&overlay, source, &replicas, 2);
        assert_eq!(tree.len(), 33);
        let mut members: Vec<NodeRef> = (0..tree.len()).map(|s| tree.nodes[s]).collect();
        members.sort_unstable();
        let mut expected: Vec<NodeRef> = std::iter::once(source).chain(replicas.clone()).collect();
        expected.sort_unstable();
        assert_eq!(members, expected);
        // Fanout is respected.
        for s in 0..tree.len() {
            assert!(tree.children(s).len() <= 2);
        }
    }

    #[test]
    fn locality_aware_tree_prefers_close_children() {
        let mut rng = DetRng::new(2);
        let overlay = OverlaySim::new(300, &mut rng);
        let source = 5;
        let replicas: Vec<NodeRef> = (10..74).collect();
        let tree = MulticastTree::locality_aware(&overlay, source, &replicas, 2);
        // The root's children must be the proximity-closest replicas overall.
        let child_nodes: Vec<NodeRef> = tree.children(0).iter().map(|&c| tree.nodes[c]).collect();
        let best = overlay.closest_by_proximity(source, &replicas, 2);
        assert_eq!(child_nodes, best);
        // Average parent-child proximity must beat average all-pairs proximity
        // (the whole point of the locality-aware construction).
        let mut tree_dist = 0.0;
        let mut tree_edges = 0usize;
        for s in 1..tree.len() {
            let p = tree.parent(s).unwrap();
            tree_dist += overlay.proximity(tree.nodes[p], tree.nodes[s]);
            tree_edges += 1;
        }
        let mut rng2 = DetRng::new(3);
        let mut rand_dist = 0.0;
        for _ in 0..1000 {
            let a = replicas[rng2.index(replicas.len())];
            let b = replicas[rng2.index(replicas.len())];
            rand_dist += overlay.proximity(a, b);
        }
        assert!(
            tree_dist / tree_edges as f64 <= rand_dist / 1000.0,
            "locality-aware edges should be shorter than random pairs"
        );
    }

    #[test]
    fn locality_aware_handles_source_in_replica_list() {
        let mut rng = DetRng::new(4);
        let overlay = OverlaySim::new(50, &mut rng);
        let replicas: Vec<NodeRef> = (0..10).collect();
        let tree = MulticastTree::locality_aware(&overlay, 0, &replicas, 3);
        assert_eq!(tree.len(), 10, "the source is not duplicated");
    }
}
