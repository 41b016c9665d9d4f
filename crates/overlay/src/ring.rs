//! The circular identifier ring and its proximity queries.
//!
//! [`IdRing`] maintains the set of *live* node identifiers and answers the
//! queries the storage systems need:
//!
//! * `route(key)` — the live node numerically closest to a key (Pastry/PAST
//!   placement semantics, Section 4.1 of the paper);
//! * `k_closest(key, k)` — the `k` numerically closest live nodes (the CAT's
//!   leaf-set replica placement);
//! * `successor(key)` — the first node at or after the key clockwise (CFS
//!   places a block on the successor of its key);
//! * `neighbors(id, l)` — the leaf set (l/2 counter-clockwise, l/2 clockwise);
//! * takeover queries describing which neighbour inherits which part of a failed
//!   node's key range (Section 4.4).

use crate::id::Id;
use std::collections::BTreeMap;

/// A reference to a node registered in the ring (index into the owner's node table).
pub type NodeRef = usize;

/// The set of live node identifiers, ordered on the circular id space.
#[derive(Debug, Clone, Default)]
pub struct IdRing {
    members: BTreeMap<Id, NodeRef>,
}

impl IdRing {
    /// Create an empty ring.
    pub fn new() -> Self {
        IdRing {
            members: BTreeMap::new(),
        }
    }

    /// Number of live members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Insert a node. Returns `false` (and leaves the ring unchanged) if the id
    /// is already present — node ids must be unique.
    pub fn insert(&mut self, id: Id, node: NodeRef) -> bool {
        if self.members.contains_key(&id) {
            return false;
        }
        self.members.insert(id, node);
        true
    }

    /// Remove a node by id. Returns the node reference if it was present.
    pub fn remove(&mut self, id: Id) -> Option<NodeRef> {
        self.members.remove(&id)
    }

    /// True if the id is a live member.
    pub fn contains(&self, id: Id) -> bool {
        self.members.contains_key(&id)
    }

    /// Look up the node reference for an exact member id.
    pub fn get(&self, id: Id) -> Option<NodeRef> {
        self.members.get(&id).copied()
    }

    /// Iterate over `(id, node)` pairs in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = (Id, NodeRef)> + '_ {
        self.members.iter().map(|(k, v)| (*k, *v))
    }

    /// The first member at or after `key` (wrapping to the smallest id).
    pub fn successor(&self, key: Id) -> Option<(Id, NodeRef)> {
        self.members
            .range(key..)
            .next()
            .or_else(|| self.members.iter().next())
            .map(|(k, v)| (*k, *v))
    }

    /// The last member strictly before `key` (wrapping to the largest id).
    pub fn predecessor(&self, key: Id) -> Option<(Id, NodeRef)> {
        self.members
            .range(..key)
            .next_back()
            .or_else(|| self.members.iter().next_back())
            .map(|(k, v)| (*k, *v))
    }

    /// The live node numerically closest to `key` on the circular space.
    ///
    /// Ties (exactly equidistant neighbours) resolve to the clockwise successor,
    /// which keeps the mapping deterministic.
    pub fn route(&self, key: Id) -> Option<(Id, NodeRef)> {
        // A member equal to the key is its successor, at distance 0.
        let succ = self.successor(key)?;
        let pred = self.predecessor(key)?;
        if succ.0 == pred.0 {
            return Some(succ);
        }
        let ds = key.distance(succ.0);
        let dp = key.distance(pred.0);
        Some(if ds <= dp { succ } else { pred })
    }

    /// The `k` live nodes numerically closest to `key`, ordered by circular distance.
    pub fn k_closest(&self, key: Id, k: usize) -> Vec<(Id, NodeRef)> {
        let n = self.members.len();
        let k = k.min(n);
        if k == 0 {
            return Vec::new();
        }
        // Walk outward from the key in both directions simultaneously.
        let mut result = Vec::with_capacity(k);
        let mut up = self.successor(key);
        let mut down = self.predecessor(key);
        let mut taken = std::collections::BTreeSet::new();
        while result.len() < k {
            let du = up.map(|(id, _)| key.distance(id)).unwrap_or(u128::MAX);
            let dd = down.map(|(id, _)| key.distance(id)).unwrap_or(u128::MAX);
            let pick_up = du <= dd;
            let Some((id, node)) = (if pick_up { up } else { down }) else {
                break;
            };
            if taken.insert(id) {
                result.push((id, node));
            } else if taken.len() >= n {
                break;
            }
            if pick_up {
                up = self.next_clockwise(id);
                if let Some((uid, _)) = up {
                    if taken.contains(&uid) {
                        up = None;
                    }
                }
            } else {
                down = self.next_counter_clockwise(id);
                if let Some((did, _)) = down {
                    if taken.contains(&did) {
                        down = None;
                    }
                }
            }
            if up.is_none() && down.is_none() {
                break;
            }
        }
        result
    }

    /// The member immediately clockwise of `id` (excluding `id` itself), wrapping.
    pub fn next_clockwise(&self, id: Id) -> Option<(Id, NodeRef)> {
        if self.members.len() <= 1 {
            return None;
        }
        self.members
            .range(Id(id.0.wrapping_add(1))..)
            .next()
            .or_else(|| self.members.iter().next())
            .map(|(k, v)| (*k, *v))
            .filter(|(k, _)| *k != id)
    }

    /// The member immediately counter-clockwise of `id` (excluding `id`), wrapping.
    pub fn next_counter_clockwise(&self, id: Id) -> Option<(Id, NodeRef)> {
        if self.members.len() <= 1 {
            return None;
        }
        self.members
            .range(..id)
            .next_back()
            .or_else(|| self.members.iter().next_back())
            .map(|(k, v)| (*k, *v))
            .filter(|(k, _)| *k != id)
    }

    /// The leaf set of a member: up to `l/2` counter-clockwise and `l/2` clockwise
    /// neighbours, nearest first within each side, excluding the member itself.
    pub fn leaf_set(&self, id: Id, l: usize) -> LeafSet {
        let half = l / 2;
        let mut cw = Vec::with_capacity(half);
        let mut cursor = id;
        for _ in 0..half {
            match self.next_clockwise(cursor) {
                Some((next, node)) if next != id && !cw.iter().any(|(i, _)| *i == next) => {
                    cw.push((next, node));
                    cursor = next;
                }
                _ => break,
            }
        }
        let mut ccw = Vec::with_capacity(half);
        cursor = id;
        for _ in 0..half {
            match self.next_counter_clockwise(cursor) {
                Some((next, node))
                    if next != id
                        && !ccw.iter().any(|(i, _)| *i == next)
                        && !cw.iter().any(|(i, _)| *i == next) =>
                {
                    ccw.push((next, node));
                    cursor = next;
                }
                _ => break,
            }
        }
        LeafSet {
            owner: id,
            clockwise: cw,
            counter_clockwise: ccw,
        }
    }

    /// Which keys move where when the node `failed` leaves the ring.
    ///
    /// In Pastry the identifier space mapped to a failed node is split between its
    /// two immediate neighbours: keys counter-clockwise of the failed id (up to the
    /// old midpoint with the predecessor) now map to the predecessor, keys clockwise
    /// map to the successor.  The returned [`Takeover`] describes both inheritors;
    /// they are the nodes that must regenerate the failed node's lost blocks.
    ///
    /// Must be called *before* removing the node from the ring.
    pub fn takeover_on_failure(&self, failed: Id) -> Option<Takeover> {
        if !self.contains(failed) || self.members.len() < 2 {
            return None;
        }
        let (pred, pred_node) = self.next_counter_clockwise(failed)?;
        let (succ, succ_node) = self.next_clockwise(failed)?;
        Some(Takeover {
            failed,
            predecessor: (pred, pred_node),
            successor: (succ, succ_node),
        })
    }
}

/// A member's leaf set: its nearest neighbours on each side of the ring.
#[derive(Debug, Clone)]
pub struct LeafSet {
    /// The node the leaf set belongs to.
    pub owner: Id,
    /// Clockwise neighbours, nearest first.
    pub clockwise: Vec<(Id, NodeRef)>,
    /// Counter-clockwise neighbours, nearest first.
    pub counter_clockwise: Vec<(Id, NodeRef)>,
}

impl LeafSet {
    /// All leaf-set members (both sides), nearest-first interleaved clockwise-first.
    pub fn all(&self) -> Vec<(Id, NodeRef)> {
        let mut out = Vec::with_capacity(self.clockwise.len() + self.counter_clockwise.len());
        let mut cw = self.clockwise.iter();
        let mut ccw = self.counter_clockwise.iter();
        loop {
            match (cw.next(), ccw.next()) {
                (None, None) => break,
                (a, b) => {
                    if let Some(x) = a {
                        out.push(*x);
                    }
                    if let Some(x) = b {
                        out.push(*x);
                    }
                }
            }
        }
        out
    }

    /// Number of members across both sides.
    pub fn len(&self) -> usize {
        self.clockwise.len() + self.counter_clockwise.len()
    }

    /// True if the leaf set is empty (singleton ring).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if `id` is in the leaf set.
    pub fn contains(&self, id: Id) -> bool {
        self.clockwise.iter().any(|(i, _)| *i == id)
            || self.counter_clockwise.iter().any(|(i, _)| *i == id)
    }
}

/// Result of a node failure: which neighbours inherit the failed node's key range.
#[derive(Debug, Clone, Copy)]
pub struct Takeover {
    /// The id of the failed node.
    pub failed: Id,
    /// The immediate counter-clockwise neighbour (inherits the counter-clockwise half).
    pub predecessor: (Id, NodeRef),
    /// The immediate clockwise neighbour (inherits the clockwise half).
    pub successor: (Id, NodeRef),
}

impl Takeover {
    /// Which of the two inheritors a particular key (previously mapped to the
    /// failed node) now belongs to, by numerically-closest routing among the two.
    pub fn inheritor_of(&self, key: Id) -> (Id, NodeRef) {
        let dp = key.distance(self.predecessor.0);
        let ds = key.distance(self.successor.0);
        if ds <= dp {
            self.successor
        } else {
            self.predecessor
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peerstripe_sim::DetRng;

    fn ring_with(ids: &[u128]) -> IdRing {
        let mut ring = IdRing::new();
        for (i, &v) in ids.iter().enumerate() {
            assert!(ring.insert(Id(v), i));
        }
        ring
    }

    #[test]
    fn insert_remove_contains() {
        let mut ring = ring_with(&[10, 20, 30]);
        assert_eq!(ring.len(), 3);
        assert!(ring.contains(Id(20)));
        assert!(!ring.insert(Id(20), 9), "duplicate ids rejected");
        assert_eq!(ring.remove(Id(20)), Some(1));
        assert!(!ring.contains(Id(20)));
        assert_eq!(ring.remove(Id(20)), None);
        assert_eq!(ring.len(), 2);
    }

    #[test]
    fn route_picks_numerically_closest() {
        let ring = ring_with(&[100, 200, 300]);
        assert_eq!(ring.route(Id(100)).unwrap().0, Id(100));
        assert_eq!(ring.route(Id(140)).unwrap().0, Id(100));
        assert_eq!(ring.route(Id(160)).unwrap().0, Id(200));
        assert_eq!(
            ring.route(Id(150)).unwrap().0,
            Id(200),
            "tie resolves clockwise"
        );
        // Wrap-around: a key near the top of the space is closest to Id(100).
        assert_eq!(ring.route(Id(u128::MAX - 5)).unwrap().0, Id(100));
    }

    #[test]
    fn a_member_id_routes_to_that_member() {
        let ring = ring_with(&[100, 200, 300, u128::MAX]);
        for (node, id) in [100, 200, 300, u128::MAX].into_iter().enumerate() {
            assert_eq!(ring.route(Id(id)), Some((Id(id), node)));
        }
        // Equidistant from two members, also across the wrap: clockwise wins.
        assert_eq!(ring.route(Id(150)), Some((Id(200), 1)));
        let ring = ring_with(&[u128::MAX, 1]);
        assert_eq!(ring.route(Id(0)), Some((Id(1), 1)));
        assert_eq!(ring_with(&[7]).route(Id(7)), Some((Id(7), 0)));
    }

    #[test]
    fn route_matches_brute_force() {
        let mut rng = DetRng::new(42);
        let ids: Vec<Id> = (0..200).map(|_| Id::random(&mut rng)).collect();
        let mut ring = IdRing::new();
        for (i, id) in ids.iter().enumerate() {
            ring.insert(*id, i);
        }
        for _ in 0..500 {
            let key = Id::random(&mut rng);
            let (got, _) = ring.route(key).unwrap();
            let best = ids
                .iter()
                .copied()
                .min_by_key(|id| (key.distance(*id), id.raw()))
                .unwrap();
            assert_eq!(
                key.distance(got),
                key.distance(best),
                "route distance must equal brute-force minimum"
            );
        }
    }

    #[test]
    fn successor_predecessor_wrap() {
        let ring = ring_with(&[100, 200, 300]);
        assert_eq!(ring.successor(Id(250)).unwrap().0, Id(300));
        assert_eq!(ring.successor(Id(301)).unwrap().0, Id(100), "wraps");
        assert_eq!(ring.predecessor(Id(250)).unwrap().0, Id(200));
        assert_eq!(ring.predecessor(Id(50)).unwrap().0, Id(300), "wraps");
    }

    #[test]
    fn k_closest_ordering_and_size() {
        let ring = ring_with(&[100, 200, 300, 400, 500]);
        let close = ring.k_closest(Id(310), 3);
        let ids: Vec<u128> = close.iter().map(|(i, _)| i.raw()).collect();
        assert_eq!(ids, vec![300, 400, 200]);
        assert_eq!(ring.k_closest(Id(310), 10).len(), 5, "capped at ring size");
        assert!(ring.k_closest(Id(310), 0).is_empty());
    }

    #[test]
    fn clockwise_and_counter_clockwise_neighbours() {
        let ring = ring_with(&[100, 200, 300]);
        assert_eq!(ring.next_clockwise(Id(100)).unwrap().0, Id(200));
        assert_eq!(ring.next_clockwise(Id(300)).unwrap().0, Id(100));
        assert_eq!(ring.next_counter_clockwise(Id(100)).unwrap().0, Id(300));
        assert_eq!(ring.next_counter_clockwise(Id(300)).unwrap().0, Id(200));
        let singleton = ring_with(&[42]);
        assert!(singleton.next_clockwise(Id(42)).is_none());
    }

    #[test]
    fn leaf_set_sizes_and_membership() {
        let ring = ring_with(&[10, 20, 30, 40, 50, 60, 70, 80]);
        let ls = ring.leaf_set(Id(40), 4);
        assert_eq!(ls.len(), 4);
        assert!(ls.contains(Id(50)) && ls.contains(Id(60)));
        assert!(ls.contains(Id(30)) && ls.contains(Id(20)));
        assert!(!ls.contains(Id(40)));
        assert!(!ls.contains(Id(80)));
        assert_eq!(ls.all().len(), 4);
        // Small ring: leaf set never duplicates or includes the owner.
        let small = ring_with(&[1, 2, 3]);
        let ls = small.leaf_set(Id(2), 8);
        assert_eq!(ls.len(), 2);
        assert!(ls.contains(Id(1)) && ls.contains(Id(3)));
    }

    #[test]
    fn takeover_assigns_keys_to_nearest_survivor() {
        let ring = ring_with(&[100, 200, 300]);
        let t = ring.takeover_on_failure(Id(200)).unwrap();
        assert_eq!(t.predecessor.0, Id(100));
        assert_eq!(t.successor.0, Id(300));
        // A key that used to map to 200 but is nearer 100 goes to the predecessor.
        assert_eq!(t.inheritor_of(Id(180)).0, Id(100));
        assert_eq!(t.inheritor_of(Id(260)).0, Id(300));
        assert!(ring.takeover_on_failure(Id(999)).is_none());
    }

    #[test]
    fn empty_ring_queries() {
        let ring = IdRing::new();
        assert!(ring.is_empty());
        assert!(ring.route(Id(1)).is_none());
        assert!(ring.successor(Id(1)).is_none());
        assert!(ring.k_closest(Id(1), 3).is_empty());
    }
}
