//! The repair scheduler: charges every regeneration against per-node
//! upload/download bandwidth budgets so concurrent repairs queue and
//! interfere, and batches multi-block rebuilds of one chunk behind a single
//! set of decode reads.
//!
//! A repair of `b` blocks of one chunk works like the paper's Section 4.4
//! regeneration, made bandwidth-aware: a *rebuilder* node downloads the
//! chunk's decode threshold worth of surviving blocks (each source charges its
//! upload budget, the rebuilder its download budget), re-encodes the missing
//! blocks locally, keeps the first and pushes the remaining `b − 1` to other
//! targets (charging its upload and their downloads).  The repair completes
//! when the last of those transfers drains — so a node already busy with other
//! repairs stretches every repair it participates in.

use crate::config::{BandwidthBudget, RepairPolicy};
use peerstripe_overlay::NodeRef;
use peerstripe_sim::{ByteSize, RateLimiter, SimTime};

/// A scheduled regeneration: what it moves and when it is done.
#[derive(Debug, Clone, Copy)]
pub struct PlannedRepair {
    /// Network bytes this repair moves (decode reads + pushed blocks).
    pub traffic: ByteSize,
    /// When the last transfer drains.
    pub done_at: SimTime,
}

/// Bandwidth-budgeted repair scheduling.
#[derive(Debug, Clone)]
pub struct RepairScheduler {
    policy: RepairPolicy,
    upload: Vec<RateLimiter>,
    download: Vec<RateLimiter>,
    in_flight_blocks: u64,
}

impl RepairScheduler {
    /// Create a scheduler with one upload and one download budget per node.
    pub fn new(nodes: usize, budget: BandwidthBudget, policy: RepairPolicy) -> Self {
        RepairScheduler {
            policy,
            upload: vec![RateLimiter::new(budget.upload); nodes],
            download: vec![RateLimiter::new(budget.download); nodes],
            in_flight_blocks: 0,
        }
    }

    /// The trigger policy this scheduler applies.
    pub fn policy(&self) -> &RepairPolicy {
        &self.policy
    }

    /// Blocks currently being rebuilt across all chunks.
    pub fn in_flight(&self) -> u64 {
        self.in_flight_blocks
    }

    /// Charge the transfers for rebuilding `targets.len()` blocks of a chunk
    /// (each of `block_size`) on `targets[0]`, reading one block from every
    /// node in `sources`.
    pub fn schedule(
        &mut self,
        block_size: ByteSize,
        sources: &[NodeRef],
        targets: &[NodeRef],
        now: SimTime,
    ) -> PlannedRepair {
        assert!(!targets.is_empty(), "a repair needs at least one target");
        assert!(!sources.is_empty(), "a repair needs at least one source");
        let rebuilder = targets[0];
        let mut done = now;
        // Decode reads: every source uploads one block, the rebuilder downloads
        // them all.
        for &s in sources {
            done = done.max(self.upload[s].reserve(block_size, now).done);
        }
        let read_bytes = block_size * sources.len() as u64;
        done = done.max(self.download[rebuilder].reserve(read_bytes, now).done);
        // Rebuilt blocks beyond the rebuilder's own copy are pushed out.
        let mut traffic = read_bytes;
        for &t in &targets[1..] {
            done = done.max(self.upload[rebuilder].reserve(block_size, now).done);
            done = done.max(self.download[t].reserve(block_size, now).done);
            traffic += block_size;
        }
        self.in_flight_blocks += targets.len() as u64;
        PlannedRepair {
            traffic,
            done_at: done,
        }
    }

    /// Mark `blocks` rebuilt blocks as no longer in flight.
    pub fn complete(&mut self, blocks: u64) {
        self.in_flight_blocks = self.in_flight_blocks.saturating_sub(blocks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheduler(rate: ByteSize) -> RepairScheduler {
        RepairScheduler::new(8, BandwidthBudget::symmetric(rate), RepairPolicy::Eager)
    }

    #[test]
    fn single_block_repair_times_the_slowest_pipe() {
        let mut s = scheduler(ByteSize::mb(1));
        let now = SimTime::from_secs(0);
        // 4 sources of 1 MB each: sources upload in parallel (1 s each), the
        // rebuilder downloads 4 MB serially (4 s) — the bottleneck.
        let plan = s.schedule(ByteSize::mb(1), &[1, 2, 3, 4], &[0], now);
        assert_eq!(plan.done_at, SimTime::from_secs(4));
        assert_eq!(plan.traffic, ByteSize::mb(4));
        assert_eq!(s.in_flight(), 1);
        s.complete(1);
        assert_eq!(s.in_flight(), 0);
    }

    #[test]
    fn batched_repair_amortises_the_decode_reads() {
        // Rebuilding two blocks in one batch: 4 MB of reads + 1 MB push,
        // versus 8 MB of reads for two eager single-block repairs.
        let mut batched = scheduler(ByteSize::mb(1));
        let plan = batched.schedule(ByteSize::mb(1), &[1, 2, 3, 4], &[0, 5], SimTime::ZERO);
        assert_eq!(plan.traffic, ByteSize::mb(5));
        assert_eq!(batched.in_flight(), 2);
        let mut eager = scheduler(ByteSize::mb(1));
        let a = eager.schedule(ByteSize::mb(1), &[1, 2, 3, 4], &[0], SimTime::ZERO);
        let b = eager.schedule(ByteSize::mb(1), &[1, 2, 3, 4], &[5], SimTime::ZERO);
        assert_eq!(a.traffic + b.traffic, ByteSize::mb(8));
    }

    #[test]
    fn concurrent_repairs_queue_on_shared_budgets() {
        let mut s = scheduler(ByteSize::mb(1));
        let now = SimTime::ZERO;
        let first = s.schedule(ByteSize::mb(2), &[1], &[0], now);
        assert_eq!(first.done_at, SimTime::from_secs(2));
        // The second repair reads from the same source, whose upload pipe is
        // still draining the first: it cannot finish before second 4.
        let second = s.schedule(ByteSize::mb(2), &[1], &[2], now);
        assert_eq!(second.done_at, SimTime::from_secs(4));
        // An unrelated pair of nodes is unaffected.
        let third = s.schedule(ByteSize::mb(2), &[5], &[6], now);
        assert_eq!(third.done_at, SimTime::from_secs(2));
    }
}
