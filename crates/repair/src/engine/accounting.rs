//! Chunk write-offs and the wasted-repair attribution ledger.
//!
//! Availability itself is not kept here: the live-block, failed-chunk and
//! unavailable-file counts live in [`peerstripe_core::DamageLedger`], which
//! the engine tells about every departure, return, declaration and placed
//! block.  [`MaintenanceEngine::accounting_is_consistent`] has the ledger
//! recompute them against the overlay's liveness and is the oracle the
//! property tests compare against.
//!
//! [`WriteOffAccounting`] answers the question the outage-aware detector
//! exists for: *how much repair traffic did we spend regenerating blocks of
//! nodes that were never actually gone?*  Every block a declaration writes
//! off is queued against its chunk with the declared owner; every regenerated
//! block pops one queued write-off and attributes its share of the repair's
//! traffic to that owner.  If the owner later returns (a false declaration),
//! the attributed bytes — plus any share attributed after the return, since
//! the written-off blocks stay lost either way — are flushed into
//! `wasted_repair_bytes`.  Traffic attributed to owners that never return is
//! genuine repair work and is never counted wasted.

use super::core::MaintenanceEngine;
use peerstripe_overlay::NodeRef;
use peerstripe_sim::{ByteSize, SimTime};
use peerstripe_telemetry::TraceRecord;
use std::collections::VecDeque;

/// Attribution of regenerated blocks to the declarations that caused them.
#[derive(Debug, Clone)]
pub(super) struct WriteOffAccounting {
    /// Per chunk: the declared owners of its written-off blocks, oldest first
    /// (one entry per block the declaration deregistered).
    pending: Vec<VecDeque<NodeRef>>,
    /// Per node: repair bytes attributed to its written-off blocks while the
    /// node is still declared-away.  Flushed to "wasted" on a false return;
    /// dropped (genuine repair work) if the node never returns.
    attributed: Vec<ByteSize>,
    /// Per node: true once the node's last declaration was falsified by a
    /// return — later regenerations of its written-off blocks count as wasted
    /// immediately.
    falsified: Vec<bool>,
}

impl WriteOffAccounting {
    pub(super) fn new(chunks: usize, nodes: usize) -> Self {
        WriteOffAccounting {
            pending: vec![VecDeque::new(); chunks],
            attributed: vec![ByteSize::ZERO; nodes],
            falsified: vec![false; nodes],
        }
    }

    /// A declaration deregistered one of `owner`'s blocks on `chunk`.
    pub(super) fn block_written_off(&mut self, chunk: u32, owner: NodeRef) {
        self.pending[chunk as usize].push_back(owner);
        // A fresh declaration starts a fresh attribution cycle.
        self.falsified[owner] = false;
    }

    /// `chunk` was written off entirely: no repair will ever regenerate its
    /// blocks, so its queued write-offs can never be attributed.
    pub(super) fn chunk_lost(&mut self, chunk: u32) {
        self.pending[chunk as usize].clear();
    }

    /// One block of `chunk` was regenerated at a traffic cost of `share`.
    /// Returns the bytes that are *already known* to be wasted (the causing
    /// declaration was falsified before this repair landed).
    pub(super) fn block_regenerated(
        &mut self,
        chunk: u32,
        share: ByteSize,
        declared: &[bool],
    ) -> ByteSize {
        let Some(owner) = self.pending[chunk as usize].pop_front() else {
            // A top-up beyond the queued write-offs (e.g. re-running after a
            // dropped placement already consumed the entry): unattributable.
            return ByteSize::ZERO;
        };
        if declared[owner] {
            // Owner still away: park the bytes until we learn whether the
            // declaration was right.
            self.attributed[owner] += share;
            ByteSize::ZERO
        } else if self.falsified[owner] {
            // Owner already came back: this regeneration exists only because
            // of a declaration we know was false.
            share
        } else {
            ByteSize::ZERO
        }
    }

    /// `node` returned after being declared dead: every byte attributed so
    /// far was wasted, and future attributions to this declaration will be
    /// too.  Returns the bytes to flush into the wasted counter.
    pub(super) fn settle_false_return(&mut self, node: NodeRef) -> ByteSize {
        self.falsified[node] = true;
        std::mem::take(&mut self.attributed[node])
    }
}

impl MaintenanceEngine {
    /// Verify the ledger's incremental availability accounting against a full
    /// recomputation from its holder lists and the overlay's liveness (see
    /// [`peerstripe_core::DamageLedger::is_consistent`]).  O(blocks); used by
    /// the grouped-churn conservation property tests.
    pub fn accounting_is_consistent(&self) -> bool {
        self.ledger
            .is_consistent(|node| self.cluster.overlay().is_alive(node))
    }

    /// `chunk` fell below its decode threshold with its lost blocks written
    /// off: the data is gone for good.  `cause` is the declared node whose
    /// write-off pushed the chunk under — every chunk loss is caused by a
    /// declaration (this is only called from the declare path), which is what
    /// lets `repro trace-summary` attribute each lost file to a concrete
    /// declaration and, transitively, to the outage that provoked it.
    pub(super) fn write_off(&mut self, now: SimTime, chunk: u32, cause: NodeRef) {
        if self.ledger.is_lost(chunk) {
            return;
        }
        let file_newly_lost = self.ledger.mark_lost(chunk);
        self.writeoffs.chunk_lost(chunk);
        if file_newly_lost {
            self.report.files_lost += 1;
        }
        if self.tracing() {
            let file = self.ledger.file_of(chunk);
            let outage = self.down_outage.get(cause).copied().flatten();
            self.trace(
                now,
                TraceRecord::ChunkLost {
                    chunk,
                    file,
                    cause_node: cause,
                    outage,
                },
            );
            if file_newly_lost {
                self.trace(
                    now,
                    TraceRecord::FileLost {
                        file,
                        chunk,
                        cause_node: cause,
                        outage,
                    },
                );
            }
        }
    }
}
