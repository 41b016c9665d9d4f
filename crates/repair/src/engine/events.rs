//! The maintenance event alphabet and its handlers: departures, returns,
//! whole-domain outages, declaration verdicts (including held-declaration
//! release and cancellation), repair completions and periodic samples.

use super::core::MaintenanceEngine;
use crate::detection::DeclarationVerdict;
use peerstripe_core::{commit_rebuilt, Verdict};
use peerstripe_overlay::NodeRef;
use peerstripe_sim::dist::{Distribution, Exponential};
use peerstripe_sim::{ByteSize, EventQueue, SimTime};
use peerstripe_telemetry::TraceRecord;

/// Events the maintenance engine processes.
#[derive(Debug, Clone)]
pub enum MaintenanceEvent {
    /// A node leaves the overlay (transient or permanent; nobody knows yet).
    Depart {
        /// The departing node.
        node: NodeRef,
        /// The session generation the event belongs to.  A group outage that
        /// cuts a node's session short bumps the generation, so the stale
        /// per-node event chain dies instead of double-driving the node.
        session: u64,
    },
    /// A transiently departed node returns.
    Return {
        /// The returning node.
        node: NodeRef,
        /// The session generation the event belongs to.
        session: u64,
    },
    /// A whole failure domain goes down at once (grouped churn mode).
    GroupDepart {
        /// The affected topology domain.
        group: u32,
    },
    /// A group outage ends: exactly the members it took down return.
    GroupReturn {
        /// The affected topology domain.
        group: u32,
        /// The members the outage took down (nodes already down individually
        /// at outage start are *not* included — their own return drives them).
        members: Vec<NodeRef>,
    },
    /// A scheduled declaration comes due for a node: the detection policy
    /// decides whether to declare, cancel (stale generation — the node
    /// returned), or hold and re-schedule this same event (outage-aware
    /// policy riding out a correlated absence).
    DeclareDead {
        /// The absent node.
        node: NodeRef,
        /// The down generation the declaration belongs to (stale ones are
        /// ignored — the node returned in the meantime).
        generation: u64,
    },
    /// A scheduled regeneration finishes its transfers.
    RepairDone {
        /// The repaired chunk.
        chunk: u32,
        /// Where the rebuilt blocks land.
        targets: Vec<NodeRef>,
        /// Network bytes the repair moved.
        traffic: ByteSize,
    },
    /// Re-attempt a repair that was deferred (not enough live decode sources
    /// or placement targets at the time).
    RetryRepair(u32),
    /// Periodic availability/durability sample.
    Sample,
}

impl MaintenanceEngine {
    pub(super) fn handle(
        &mut self,
        q: &mut EventQueue<MaintenanceEvent>,
        now: SimTime,
        event: MaintenanceEvent,
    ) {
        match event {
            MaintenanceEvent::Depart { node, session } => {
                if session == self.session_gen[node] {
                    self.on_depart(q, now, node);
                }
            }
            MaintenanceEvent::Return { node, session } => {
                if session == self.session_gen[node] {
                    self.on_return(q, now, node);
                }
            }
            MaintenanceEvent::GroupDepart { group } => self.on_group_depart(q, now, group),
            MaintenanceEvent::GroupReturn { group, members } => {
                self.on_group_return(q, now, group, members)
            }
            MaintenanceEvent::DeclareDead { node, generation } => {
                self.on_declare(q, now, node, generation)
            }
            MaintenanceEvent::RepairDone {
                chunk,
                targets,
                traffic,
            } => self.on_repair_done(q, now, chunk, targets, traffic),
            MaintenanceEvent::RetryRepair(chunk) => {
                self.retry_pending[chunk as usize] = false;
                self.maybe_repair(q, now, chunk);
            }
            MaintenanceEvent::Sample => self.on_sample(q, now),
        }
    }

    fn on_depart(&mut self, q: &mut EventQueue<MaintenanceEvent>, now: SimTime, node: NodeRef) {
        if !self.cluster.overlay().is_alive(node) {
            return;
        }
        self.cluster.fail_node(node);
        if self.rng.next_f64() < self.churn.permanent_fraction {
            // The disk is gone; the node never returns.
            self.permanent[node] = true;
            self.report.permanent_failures += 1;
        } else {
            self.report.transient_departures += 1;
            let downtime = self.churn.sessions.sample_downtime(&mut self.rng);
            q.schedule_after(
                SimTime::from_secs_f64(downtime),
                MaintenanceEvent::Return {
                    node,
                    session: self.session_gen[node],
                },
            );
        }
        self.ledger.node_down(node);
        self.down_outage[node] = None;
        if self.tracing() {
            let domain = self.topology.as_ref().and_then(|t| t.domain_of(node));
            let permanent = self.permanent[node];
            self.trace(
                now,
                TraceRecord::NodeDown {
                    node,
                    domain,
                    outage: None,
                    permanent,
                },
            );
        }
        let pending = self.detector.node_down(node, now);
        q.schedule_at(
            pending.declare_at,
            MaintenanceEvent::DeclareDead {
                node,
                generation: pending.generation,
            },
        );
    }

    /// A whole failure domain goes down at once: every live member departs,
    /// with its individual session chain invalidated (the outage cut it
    /// short).  Members already down individually are untouched — their own
    /// return event still drives them, deferred past the outage end.
    fn on_group_depart(&mut self, q: &mut EventQueue<MaintenanceEvent>, now: SimTime, group: u32) {
        let Some(grouped) = self.churn.grouped.as_ref() else {
            return;
        };
        let members = grouped.topology.members(group).to_vec();
        let downtime_rate = 1.0 / grouped.mean_outage_downtime_secs;
        let outage = self.next_outage_id;
        self.next_outage_id += 1;
        self.group_outage_id[group as usize] = outage;
        let mut taken = Vec::new();
        for node in members {
            if !self.cluster.overlay().is_alive(node) {
                continue;
            }
            self.session_gen[node] += 1;
            self.cluster.fail_node(node);
            self.down_outage[node] = Some(outage);
            self.report.group_departures += 1;
            self.ledger.node_down(node);
            // The detection policy decides what the correlated absence means:
            // the per-node timeout starts counting exactly as for any other
            // departure, while the outage-aware policy will notice at
            // declaration time that the whole domain vanished together.
            let pending = self.detector.node_down(node, now);
            q.schedule_at(
                pending.declare_at,
                MaintenanceEvent::DeclareDead {
                    node,
                    generation: pending.generation,
                },
            );
            taken.push(node);
        }
        self.report.group_outages += 1;
        if self.tracing() {
            self.trace(
                now,
                TraceRecord::OutageStart {
                    outage,
                    group,
                    members: taken.len(),
                },
            );
            for &node in &taken {
                self.trace(
                    now,
                    TraceRecord::NodeDown {
                        node,
                        domain: Some(group),
                        outage: Some(outage),
                        permanent: false,
                    },
                );
            }
        }
        let downtime = Exponential::new(downtime_rate).sample(&mut self.grouped_rng);
        let until = now + SimTime::from_secs_f64(downtime);
        self.group_down_until[group as usize] = until;
        q.schedule_at(
            until,
            MaintenanceEvent::GroupReturn {
                group,
                members: taken,
            },
        );
    }

    /// A group outage ends: exactly the members it took down return (dead
    /// disks and overlapping individual downtimes excepted), and the domain's
    /// next outage is drawn.
    fn on_group_return(
        &mut self,
        q: &mut EventQueue<MaintenanceEvent>,
        now: SimTime,
        group: u32,
        members: Vec<NodeRef>,
    ) {
        self.group_down_until[group as usize] = now;
        if self.tracing() {
            let outage = self
                .group_outage_id
                .get(group as usize)
                .copied()
                .unwrap_or(0);
            self.trace(now, TraceRecord::OutageEnd { outage, group });
        }
        for node in members {
            self.return_node(q, now, node);
        }
        if let Some(grouped) = self.churn.grouped.as_ref() {
            let rate = 1.0 / grouped.mean_outage_interval_secs;
            let wait = Exponential::new(rate).sample(&mut self.grouped_rng);
            q.schedule_after(
                SimTime::from_secs_f64(wait),
                MaintenanceEvent::GroupDepart { group },
            );
        }
    }

    fn on_return(&mut self, q: &mut EventQueue<MaintenanceEvent>, now: SimTime, node: NodeRef) {
        // A member of a domain in outage cannot come back up on its own — the
        // power is out; its individual return is deferred past the outage.
        if let Some(grouped) = self.churn.grouped.as_ref() {
            if let Some(domain) = grouped.topology.domain_of(node) {
                let until = self.group_down_until[domain as usize];
                if now < until {
                    q.schedule_at(
                        until + SimTime::from_secs(1),
                        MaintenanceEvent::Return {
                            node,
                            session: self.session_gen[node],
                        },
                    );
                    return;
                }
            }
        }
        self.return_node(q, now, node);
    }

    /// A down node comes back up: rejoin, reconcile with the failure
    /// detector, and start its next session.
    fn return_node(&mut self, q: &mut EventQueue<MaintenanceEvent>, now: SimTime, node: NodeRef) {
        if self.permanent[node] || self.cluster.overlay().is_alive(node) {
            return;
        }
        self.cluster.rejoin(node);
        self.ledger.node_up(node);
        self.detector.node_up(node, now);
        if self.tracing() {
            let false_declaration = self.declared[node];
            self.trace(
                now,
                TraceRecord::NodeReturn {
                    node,
                    false_declaration,
                },
            );
            if self.hold_active[node] {
                self.trace(
                    now,
                    TraceRecord::HoldReleased {
                        node,
                        declared: false,
                    },
                );
            }
        }
        self.down_outage[node] = None;
        if self.hold_active[node] {
            // A held declaration resolves by cancellation: the domain (or at
            // least this node) came back before the hold cap, the generation
            // bump above killed the pending DeclareDead, and no blocks were
            // ever written off — the regeneration wave never started.
            self.hold_active[node] = false;
            self.report.held_cancelled += 1;
        }
        if self.declared[node] {
            // Falsely written off: the node is back, but its blocks were
            // already deregistered (and possibly re-created elsewhere), so it
            // rejoins as an empty contributor — including its capacity
            // accounting, or the orphaned objects would pin space forever and
            // starve placement on exactly the nodes that churn the most.
            self.cluster.wipe(node);
            self.declared[node] = false;
            self.report.false_declarations += 1;
            // Every repair byte attributed to this node's written-off blocks
            // is now known to have been wasted — and repairs for the still
            // missing ones will be too.
            let wasted = self.writeoffs.settle_false_return(node);
            self.report.wasted_repair_bytes += wasted;
        } else {
            // Redundancy (and decode sources) came back: deferred repairs of
            // the chunks this node participates in may be able to run now.
            let mut seen = std::collections::BTreeSet::new();
            for chunk in self.ledger.chunks_on(node).to_vec() {
                if seen.insert(chunk) {
                    self.maybe_repair(q, now, chunk);
                }
            }
        }
        let session = self.churn.sessions.sample_session(&mut self.rng);
        q.schedule_after(
            SimTime::from_secs_f64(session),
            MaintenanceEvent::Depart {
                node,
                session: self.session_gen[node],
            },
        );
    }

    /// A declaration comes due: ask the detection policy for its verdict.
    /// `Cancel` drops a stale event, `Hold` re-schedules this declaration for
    /// a later re-decision (and counts the down period as held once), and
    /// `Declare` writes the node's blocks off and triggers regeneration.
    fn on_declare(
        &mut self,
        q: &mut EventQueue<MaintenanceEvent>,
        now: SimTime,
        node: NodeRef,
        generation: u64,
    ) {
        match self.detector.decide(node, generation, now) {
            DeclarationVerdict::Cancel => {
                self.trace_verdict(now, node, generation, "cancel");
                return;
            }
            DeclarationVerdict::Hold { until } => {
                debug_assert!(until > now, "holds must move forward");
                self.trace_verdict(now, node, generation, "hold");
                if !self.hold_active[node] {
                    self.hold_active[node] = true;
                    self.report.declarations_held += 1;
                }
                q.schedule_at(until, MaintenanceEvent::DeclareDead { node, generation });
                return;
            }
            DeclarationVerdict::Declare => {}
        }
        self.trace_verdict(now, node, generation, "declare");
        if self.tracing() && self.hold_active[node] {
            let released = TraceRecord::HoldReleased {
                node,
                declared: true,
            };
            self.trace(now, released);
        }
        // A held declaration released past its cap (or an absence that
        // stopped looking correlated) is a declaration like any other.
        self.hold_active[node] = false;
        self.declared[node] = true;
        for loss in self.ledger.remove_node(node) {
            for _ in 0..loss.blocks {
                self.writeoffs.block_written_off(loss.chunk, node);
            }
            if self.tracing() {
                self.trace(
                    now,
                    TraceRecord::BlocksWrittenOff {
                        chunk: loss.chunk,
                        node,
                        blocks: loss.blocks,
                    },
                );
            }
            match self.ledger.damage(loss.chunk).verdict(&self.cluster) {
                Verdict::WriteOff => self.write_off(now, loss.chunk, node),
                Verdict::Defer | Verdict::Rebuild => self.maybe_repair(q, now, loss.chunk),
            }
        }
    }

    /// Trace the detection policy's verdict on `node`'s declaration.
    fn trace_verdict(&mut self, now: SimTime, node: NodeRef, generation: u64, verdict: &str) {
        if self.tracing() {
            let record = TraceRecord::DeclarationVerdict {
                node,
                generation,
                verdict: verdict.to_string(),
                outage: self.down_outage[node],
            };
            self.trace(now, record);
        }
    }

    fn on_repair_done(
        &mut self,
        q: &mut EventQueue<MaintenanceEvent>,
        now: SimTime,
        chunk: u32,
        targets: Vec<NodeRef>,
        traffic: ByteSize,
    ) {
        let blocks = targets.len() as u64;
        self.scheduler.complete(blocks);
        // Each rebuilt block carries an equal share of the repair's traffic
        // for the wasted-repair attribution.
        let share = ByteSize::bytes(traffic.as_u64() / blocks.max(1));
        let mut placed = 0u64;
        let mut dropped = 0u64;
        for node in targets {
            // The planner's commit: alive, still no holder, still room (the
            // block is charged to the node, so later can_store probes see
            // it), and the chunk not written off meanwhile.
            if commit_rebuilt(&mut self.ledger, &mut self.cluster, chunk, node) {
                placed += 1;
                let wasted = self
                    .writeoffs
                    .block_regenerated(chunk, share, &self.declared);
                self.report.wasted_repair_bytes += wasted;
            } else {
                dropped += 1;
            }
        }
        // The transfers happened whether or not every placement stuck.
        self.report.repair_bytes += traffic;
        self.report.blocks_regenerated += placed;
        if self.tracing() {
            self.trace(
                now,
                TraceRecord::RepairCompleted {
                    chunk,
                    placed,
                    dropped,
                    traffic: traffic.as_u64(),
                },
            );
        }
        if !self.ledger.is_lost(chunk) {
            self.maybe_repair(q, now, chunk);
        }
    }

    fn on_sample(&mut self, q: &mut EventQueue<MaintenanceEvent>, now: SimTime) {
        let unavailable = self.ledger.files_unavailable() as u64;
        let files = self.ledger.file_count() as u64;
        if files > 0 {
            let available = files.saturating_sub(unavailable);
            self.availability
                .push(100.0 * available as f64 / files as f64);
        }
        if self.tracing() {
            self.trace(
                now,
                TraceRecord::Sample {
                    files_unavailable: unavailable,
                    files_lost: self.report.files_lost,
                    repair_bytes: self.report.repair_bytes.as_u64(),
                    repairs_in_flight: self.scheduler.in_flight(),
                },
            );
        }
        q.schedule_after(self.sample_period, MaintenanceEvent::Sample);
    }
}
