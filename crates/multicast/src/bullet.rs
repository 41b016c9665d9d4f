//! Bullet-style packet dissemination over the multicast tree.
//!
//! Bullet (Kostić et al., SOSP'03) distributes a large object by pushing
//! *disjoint* packet subsets down an overlay tree while every node also *pulls*
//! missing packets from the peers it learns about through RanSub.  The paper
//! adopts exactly this mechanism to create all replicas of an encoded block
//! simultaneously (Section 4.4.1) and evaluates it in Figures 11 and 12: a
//! 63-node binary tree, a chunk split into 1 000 packets, and RanSub set sizes
//! between 3 % and 16 % of the tree.
//!
//! [`BulletSim`] reproduces that experiment: each epoch every node may receive a
//! bounded number of packets, drawn from what its parent and its current RanSub
//! view had *at the start of the epoch* (one overlay hop per epoch).  The
//! simulator reports the average / minimum / maximum number of packets per node
//! over time, the quantities plotted in the two figures.

use crate::ransub::RanSub;
use crate::tree::MulticastTree;
use peerstripe_sim::{DetRng, Series};

/// Configuration of a Bullet dissemination run.
#[derive(Debug, Clone)]
pub struct BulletConfig {
    /// Number of packets the chunk is divided into (the paper uses 1 000).
    pub packets: usize,
    /// RanSub view size as a fraction of the tree (3 %–16 % in Figure 11).
    pub ransub_fraction: f64,
    /// Maximum packets a node can receive per epoch (its download budget).
    pub per_epoch_budget: usize,
    /// Maximum packets a node can serve per epoch (its upload budget).
    pub upload_budget: usize,
    /// Hard stop for the simulation.
    pub max_epochs: usize,
}

impl Default for BulletConfig {
    fn default() -> Self {
        BulletConfig {
            packets: 1000,
            ransub_fraction: 0.16,
            per_epoch_budget: 4,
            // Tighter than the combined demand of a node's children, so the
            // parent push alone cannot saturate the tree and peers learned via
            // RanSub carry real load — the effect Figures 11/12 measure.
            upload_budget: 6,
            max_epochs: 2000,
        }
    }
}

/// Progress statistics for one epoch.
#[derive(Debug, Clone, Copy)]
pub struct EpochStats {
    /// Epoch number (1-based).
    pub epoch: usize,
    /// Mean number of packets held per non-root node.
    pub avg: f64,
    /// Minimum packets held by any non-root node.
    pub min: usize,
    /// Maximum packets held by any non-root node.
    pub max: usize,
}

/// Result of a full dissemination run.
#[derive(Debug, Clone)]
pub struct BulletRun {
    /// Per-epoch statistics, in order.
    pub epochs: Vec<EpochStats>,
    /// Epoch at which every node held every packet (`None` if the run hit
    /// `max_epochs` first).
    pub completed_at: Option<usize>,
}

impl BulletRun {
    /// The average-packets-per-node curve (Figure 11's y-axis over epochs).
    pub fn avg_series(&self, label: impl Into<String>) -> Series {
        let mut s = Series::new(label);
        for e in &self.epochs {
            s.push(e.epoch as f64, e.avg);
        }
        s
    }

    /// The min / avg / max curves of Figure 12.
    pub fn spread_series(&self) -> (Series, Series, Series) {
        let mut min = Series::new("Min");
        let mut avg = Series::new("Average");
        let mut max = Series::new("Max");
        for e in &self.epochs {
            min.push(e.epoch as f64, e.min as f64);
            avg.push(e.epoch as f64, e.avg);
            max.push(e.epoch as f64, e.max as f64);
        }
        (min, avg, max)
    }
}

/// The Bullet dissemination simulator.
pub struct BulletSim {
    tree: MulticastTree,
    config: BulletConfig,
    ransub: RanSub,
    /// have[slot][packet]
    have: Vec<Vec<bool>>,
    counts: Vec<usize>,
}

impl BulletSim {
    /// Create a simulator for one chunk dissemination over the given tree.
    pub fn new(tree: MulticastTree, config: BulletConfig) -> Self {
        assert!(config.packets > 0, "at least one packet required");
        assert!(
            config.per_epoch_budget > 0,
            "download budget must be positive"
        );
        let n = tree.len();
        let ransub = RanSub::with_fraction(n, config.ransub_fraction);
        let mut have = vec![vec![false; config.packets]; n];
        // The root (source) starts with the whole chunk.
        have[tree.root()] = vec![true; config.packets];
        let mut counts = vec![0; n];
        counts[tree.root()] = config.packets;
        BulletSim {
            tree,
            config,
            ransub,
            have,
            counts,
        }
    }

    /// True when every node holds every packet.
    pub fn is_complete(&self) -> bool {
        self.counts.iter().all(|&c| c == self.config.packets)
    }

    /// Statistics over the non-root members.
    fn stats(&self, epoch: usize) -> EpochStats {
        let receivers: Vec<usize> = (0..self.tree.len())
            .filter(|&s| s != self.tree.root())
            .collect();
        let min = receivers.iter().map(|&s| self.counts[s]).min().unwrap_or(0);
        let max = receivers.iter().map(|&s| self.counts[s]).max().unwrap_or(0);
        let sum: usize = receivers.iter().map(|&s| self.counts[s]).sum();
        EpochStats {
            epoch,
            avg: if receivers.is_empty() {
                0.0
            } else {
                sum as f64 / receivers.len() as f64
            },
            min,
            max,
        }
    }

    /// Run one epoch: refresh RanSub views, then let every node pull up to its
    /// budget of missing packets from its parent and its view, based on what the
    /// sources held at the start of the epoch.
    pub fn run_epoch(&mut self, epoch: usize, rng: &mut DetRng) -> EpochStats {
        let views = self.ransub.epoch(&self.tree, rng);
        let snapshot_counts = self.counts.clone();
        let snapshot: Vec<Vec<bool>> = self.have.clone();
        let mut uploads_left = vec![self.config.upload_budget; self.tree.len()];

        for slot in self.tree.bfs_order() {
            if slot == self.tree.root() {
                continue;
            }
            if self.counts[slot] == self.config.packets {
                continue;
            }
            let mut budget = self.config.per_epoch_budget;
            // Sources: parent first (the push path), then RanSub peers (the pull path).
            let mut sources: Vec<usize> = Vec::new();
            if let Some(p) = self.tree.parent(slot) {
                sources.push(p);
            }
            sources.extend(views.view(slot).iter().copied());
            for src in sources {
                if budget == 0 {
                    break;
                }
                if uploads_left[src] == 0 || snapshot_counts[src] == 0 {
                    continue;
                }
                // Candidate packets the source had (at epoch start) and we lack.
                // Scan from a random offset so different children of the same
                // parent pull different (diverse) packets — Bullet's disjointness.
                let start = rng.index(self.config.packets);
                let mut taken_from_src = 0usize;
                for i in 0..self.config.packets {
                    if budget == 0 || uploads_left[src] == 0 {
                        break;
                    }
                    let p = (start + i) % self.config.packets;
                    if snapshot[src][p] && !self.have[slot][p] {
                        self.have[slot][p] = true;
                        self.counts[slot] += 1;
                        budget -= 1;
                        uploads_left[src] -= 1;
                        taken_from_src += 1;
                    }
                }
                let _ = taken_from_src;
            }
        }
        self.stats(epoch)
    }

    /// Run until completion or the epoch limit, collecting per-epoch statistics.
    pub fn run(mut self, rng: &mut DetRng) -> BulletRun {
        let mut epochs = Vec::new();
        let mut completed_at = None;
        for epoch in 1..=self.config.max_epochs {
            let stats = self.run_epoch(epoch, rng);
            epochs.push(stats);
            if self.is_complete() {
                completed_at = Some(epoch);
                break;
            }
        }
        BulletRun {
            epochs,
            completed_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_tree() -> MulticastTree {
        MulticastTree::binary(5)
    }

    fn small_config(fraction: f64) -> BulletConfig {
        BulletConfig {
            packets: 200,
            ransub_fraction: fraction,
            per_epoch_budget: 4,
            upload_budget: 6,
            max_epochs: 2000,
        }
    }

    #[test]
    fn dissemination_completes() {
        let mut rng = DetRng::new(1);
        let run = BulletSim::new(paper_tree(), small_config(0.16)).run(&mut rng);
        assert!(
            run.completed_at.is_some(),
            "all 63 nodes must eventually hold all packets"
        );
        let last = run.epochs.last().unwrap();
        assert_eq!(last.min, 200);
        assert_eq!(last.max, 200);
        assert!((last.avg - 200.0).abs() < 1e-9);
    }

    #[test]
    fn packet_counts_grow_monotonically() {
        let mut rng = DetRng::new(2);
        let run = BulletSim::new(paper_tree(), small_config(0.08)).run(&mut rng);
        for w in run.epochs.windows(2) {
            assert!(w[1].avg >= w[0].avg);
            assert!(w[1].min >= w[0].min);
            assert!(w[1].max >= w[0].max);
        }
        // Max is bounded by the per-epoch budget times epochs.
        for e in &run.epochs {
            assert!(e.max <= e.epoch * 4);
        }
    }

    #[test]
    fn larger_ransub_is_not_slower() {
        // Figure 11: increasing the RanSub set size speeds dissemination up to a
        // point.  Compare 3% against 16%.
        let mut rng_a = DetRng::new(3);
        let slow = BulletSim::new(paper_tree(), small_config(0.03)).run(&mut rng_a);
        let mut rng_b = DetRng::new(3);
        let fast = BulletSim::new(paper_tree(), small_config(0.16)).run(&mut rng_b);
        let slow_done = slow.completed_at.unwrap();
        let fast_done = fast.completed_at.unwrap();
        assert!(
            fast_done <= slow_done,
            "16% RanSub ({fast_done} epochs) must not be slower than 3% ({slow_done} epochs)"
        );
        // And at the halfway point of the slow run the fast run holds more data.
        let mid = slow_done / 2;
        let slow_mid = slow.epochs[mid - 1].avg;
        let fast_mid = fast.epochs[(mid - 1).min(fast.epochs.len() - 1)].avg;
        assert!(fast_mid >= slow_mid);
    }

    #[test]
    fn effect_of_ransub_saturates() {
        // Figure 11's second observation: beyond ~8% the benefit levels off.
        let mut done = Vec::new();
        for fraction in [0.08, 0.16] {
            let mut rng = DetRng::new(4);
            let run = BulletSim::new(paper_tree(), small_config(fraction)).run(&mut rng);
            done.push(run.completed_at.unwrap() as f64);
        }
        let ratio = done[0] / done[1];
        assert!(
            ratio < 1.35,
            "8% → 16% should change completion time only marginally (ratio {ratio})"
        );
    }

    #[test]
    fn spread_series_have_equal_length_and_order() {
        let mut rng = DetRng::new(5);
        let run = BulletSim::new(paper_tree(), small_config(0.16)).run(&mut rng);
        let (min, avg, max) = run.spread_series();
        assert_eq!(min.points.len(), run.epochs.len());
        assert_eq!(avg.points.len(), run.epochs.len());
        assert_eq!(max.points.len(), run.epochs.len());
        for i in 0..min.points.len() {
            assert!(min.points[i].1 <= avg.points[i].1 + 1e-9);
            assert!(avg.points[i].1 <= max.points[i].1 + 1e-9);
        }
        let series = run.avg_series("RanSub = 16%");
        assert_eq!(series.name, "RanSub = 16%");
    }

    #[test]
    fn source_is_never_counted_as_a_receiver() {
        let sim = BulletSim::new(paper_tree(), small_config(0.1));
        assert_eq!(sim.counts[0], 200);
        let stats = sim.stats(0);
        assert_eq!(stats.max, 0, "receivers start empty");
    }
}
