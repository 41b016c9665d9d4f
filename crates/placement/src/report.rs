//! Spread accounting: how diverse did placement actually come out?
//!
//! [`SpreadReport`] aggregates, over every chunk of a deployment, how its
//! blocks distribute across failure domains: the worst per-domain
//! concentration, the number of chunks violating the per-domain cap (the
//! chunks a single-domain outage can make unrecoverable), and the mean number
//! of distinct domains per chunk.  The `repro placement-sweep` experiment
//! prints one per strategy, which is the causal link between placement policy
//! and the durability numbers the sweep reports.

use crate::topology::DomainId;
use peerstripe_sim::OnlineStats;
use std::collections::BTreeMap;

/// Achieved placement diversity, accumulated chunk by chunk.
#[derive(Debug, Clone)]
pub struct SpreadReport {
    /// The per-domain block cap the deployment was asked to respect.
    pub domain_cap: usize,
    /// Chunks accounted.
    pub chunks: u64,
    /// Blocks accounted.
    pub blocks: u64,
    /// Blocks on nodes outside the topology (no domain to attribute).
    pub undomained_blocks: u64,
    /// The worst per-domain concentration seen in any single chunk.
    pub max_in_one_domain: usize,
    /// Chunks keeping more than `domain_cap` blocks in some single domain —
    /// each one is a chunk a whole-domain outage can take below its decode
    /// threshold.
    pub cap_violations: u64,
    /// Distribution of distinct domains used per chunk.
    pub distinct_domains: OnlineStats,
}

impl SpreadReport {
    /// Start an empty report for a deployment with the given per-domain cap.
    pub fn new(domain_cap: usize) -> Self {
        SpreadReport {
            domain_cap,
            chunks: 0,
            blocks: 0,
            undomained_blocks: 0,
            max_in_one_domain: 0,
            cap_violations: 0,
            distinct_domains: OnlineStats::new(),
        }
    }

    /// Account one chunk's blocks by the domain each landed in (`None` for
    /// blocks on nodes outside the topology).
    pub fn record_chunk<I>(&mut self, domains: I)
    where
        I: IntoIterator<Item = Option<DomainId>>,
    {
        let mut counts: BTreeMap<DomainId, usize> = BTreeMap::new();
        let mut blocks = 0u64;
        for d in domains {
            blocks += 1;
            match d {
                Some(d) => *counts.entry(d).or_default() += 1,
                None => self.undomained_blocks += 1,
            }
        }
        if blocks == 0 {
            return;
        }
        self.chunks += 1;
        self.blocks += blocks;
        let worst = counts.values().copied().max().unwrap_or(0);
        self.max_in_one_domain = self.max_in_one_domain.max(worst);
        if worst > self.domain_cap {
            self.cap_violations += 1;
        }
        self.distinct_domains.push(counts.len() as f64);
    }

    /// Mean number of distinct domains a chunk's blocks landed in.
    pub fn mean_distinct_domains(&self) -> f64 {
        if self.distinct_domains.count() == 0 {
            0.0
        } else {
            self.distinct_domains.mean()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_concentration_and_violations() {
        let mut report = SpreadReport::new(2);
        // Chunk A: 3 blocks in domain 0 (violation), 1 in domain 1.
        report.record_chunk([Some(0), Some(0), Some(0), Some(1)]);
        // Chunk B: spread 2-2 (at the cap, no violation).
        report.record_chunk([Some(0), Some(0), Some(1), Some(1)]);
        // Chunk C: one undomained block.
        report.record_chunk([Some(2), None]);
        assert_eq!(report.chunks, 3);
        assert_eq!(report.blocks, 10);
        assert_eq!(report.max_in_one_domain, 3);
        assert_eq!(report.cap_violations, 1);
        assert_eq!(report.undomained_blocks, 1);
        assert!((report.mean_distinct_domains() - (2.0 + 2.0 + 1.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_chunks_are_ignored() {
        let mut report = SpreadReport::new(1);
        report.record_chunk(std::iter::empty());
        assert_eq!(report.chunks, 0);
        assert_eq!(report.mean_distinct_domains(), 0.0);
    }
}
