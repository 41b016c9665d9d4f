//! RanSub: epoch-driven random-subset dissemination (Kostić et al., USITS'03).
//!
//! Bullet relies on RanSub to give every tree member, each epoch, a uniformly
//! random *subset* of the other members together with summaries of what data
//! they hold.  An epoch has two phases (Section 2.3 of the paper):
//!
//! * **distribute** — messages flow down the tree carrying the sending node's
//!   random subset (plus its parent's and siblings' subsets);
//! * **collect** — messages flow back up, each node compacting its own candidate
//!   set and its children's into a fixed-size uniform sample for its parent.
//!
//! The implementation below runs those two phases literally: collect builds,
//! bottom-up, a uniform reservoir sample of each subtree; distribute then hands
//! every node a sample drawn from the root's global reservoir plus its local
//! neighbourhood.  The resulting per-node views are the "RanSub sets" whose size
//! (as a percentage of the tree) is the x-parameter of Figure 11.

use crate::tree::MulticastTree;
use peerstripe_sim::DetRng;

/// Per-node random-subset views for one epoch.
#[derive(Debug, Clone)]
pub struct RanSubViews {
    views: Vec<Vec<usize>>,
}

impl RanSubViews {
    /// The member slots visible to `slot` this epoch (never contains `slot` itself).
    pub fn view(&self, slot: usize) -> &[usize] {
        &self.views[slot]
    }
}

/// The RanSub engine: runs one distribute/collect cycle per epoch.
#[derive(Debug, Clone)]
pub struct RanSub {
    /// Size of the per-node subset, as a number of members.
    subset_size: usize,
}

impl RanSub {
    /// Create an engine whose per-node views contain `subset_size` members.
    pub fn new(subset_size: usize) -> Self {
        assert!(subset_size > 0, "RanSub subset size must be positive");
        RanSub { subset_size }
    }

    /// Create an engine whose views cover `fraction` of the tree (Figure 11
    /// parameterises RanSub as a percentage of the total nodes in the tree).
    pub fn with_fraction(tree_size: usize, fraction: f64) -> Self {
        assert!(fraction > 0.0 && fraction <= 1.0);
        let size = ((tree_size as f64) * fraction).round().max(1.0) as usize;
        RanSub::new(size)
    }

    /// Run one epoch (collect then distribute) and return every node's view.
    pub fn epoch(&self, tree: &MulticastTree, rng: &mut DetRng) -> RanSubViews {
        let n = tree.len();
        // ---- Collect phase: bottom-up reservoir sampling of each subtree. ----
        // `subtree_sample[s]` is a uniform sample (≤ subset_size) of the members
        // of the subtree rooted at s, together with the subtree's true size so
        // that merging keeps the sample uniform.
        let mut subtree_sample: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut subtree_size: Vec<usize> = vec![0; n];
        let order = tree.bfs_order();
        for &slot in order.iter().rev() {
            let mut pool: Vec<(usize, usize)> = vec![(slot, 1)]; // (member, weight)
            for &child in tree.children(slot) {
                pool.push((child, 0)); // child itself is inside its sample already
                for &m in &subtree_sample[child] {
                    pool.push((m, 0));
                }
            }
            // Flatten: candidates are this node plus all sampled descendants.
            let mut candidates: Vec<usize> = vec![slot];
            for &child in tree.children(slot) {
                candidates.extend(subtree_sample[child].iter().copied());
                candidates.push(child);
            }
            candidates.sort_unstable();
            candidates.dedup();
            let total: usize = 1 + tree
                .children(slot)
                .iter()
                .map(|&c| subtree_size[c])
                .sum::<usize>();
            subtree_size[slot] = total;
            // Weighted-uniform compaction: keep at most subset_size candidates.
            rng.shuffle(&mut candidates);
            candidates.truncate(self.subset_size);
            subtree_sample[slot] = candidates;
            let _ = pool;
        }
        // ---- Distribute phase: top-down delivery of global samples. ----
        // Each node's view is drawn from the root's global sample plus the
        // samples of its parent and siblings (what the distribute message carries).
        let global = &subtree_sample[tree.root()];
        let mut views: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &slot in &order {
            let mut candidates: Vec<usize> = global.clone();
            if let Some(parent) = tree.parent(slot) {
                candidates.push(parent);
                for &sib in tree.children(parent) {
                    if sib != slot {
                        candidates.push(sib);
                        candidates.extend(subtree_sample[sib].iter().copied());
                    }
                }
            }
            candidates.retain(|&m| m != slot);
            candidates.sort_unstable();
            candidates.dedup();
            rng.shuffle(&mut candidates);
            candidates.truncate(self.subset_size);
            views[slot] = candidates;
        }
        RanSubViews { views }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_have_requested_size_and_exclude_self() {
        let tree = MulticastTree::binary(5);
        let engine = RanSub::with_fraction(tree.len(), 0.16);
        assert_eq!(engine.subset_size, 10);
        let mut rng = DetRng::new(1);
        let views = engine.epoch(&tree, &mut rng);
        assert_eq!(views.views.len(), 63);
        for slot in 0..tree.len() {
            let v = views.view(slot);
            assert!(v.len() <= 10);
            assert!(!v.is_empty());
            assert!(!v.contains(&slot), "a node never appears in its own view");
            let mut sorted = v.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), v.len(), "views contain no duplicates");
        }
    }

    #[test]
    fn fraction_parameterisation_matches_paper_range() {
        // 3% of 63 nodes ≈ 2 members, 16% ≈ 10 members.
        assert_eq!(RanSub::with_fraction(63, 0.03).subset_size, 2);
        assert_eq!(RanSub::with_fraction(63, 0.08).subset_size, 5);
        assert_eq!(RanSub::with_fraction(63, 0.16).subset_size, 10);
    }

    #[test]
    fn views_change_between_epochs() {
        let tree = MulticastTree::binary(4);
        let engine = RanSub::with_fraction(tree.len(), 0.2);
        let mut rng = DetRng::new(2);
        let a = engine.epoch(&tree, &mut rng);
        let b = engine.epoch(&tree, &mut rng);
        let differing = (0..tree.len()).filter(|&s| a.view(s) != b.view(s)).count();
        assert!(
            differing > tree.len() / 2,
            "views should be re-randomised every epoch"
        );
    }

    #[test]
    fn views_cover_distant_parts_of_the_tree() {
        // Over many epochs a leaf should see members outside its own branch —
        // the whole point of RanSub's uniform sampling.
        let tree = MulticastTree::binary(5);
        let engine = RanSub::with_fraction(tree.len(), 0.1);
        let mut rng = DetRng::new(3);
        let leaf = 62; // right-most leaf
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            let views = engine.epoch(&tree, &mut rng);
            seen.extend(views.view(leaf).iter().copied());
        }
        assert!(
            seen.len() > 30,
            "a leaf should eventually see most of the tree, saw {}",
            seen.len()
        );
        // Includes members of the opposite subtree.
        assert!(seen
            .iter()
            .any(|&m| (31..=46).contains(&m) || (1..=2).contains(&m)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_subset_rejected() {
        let _ = RanSub::new(0);
    }
}
