//! Wrappers that time the program's layers from outside: a backend and a
//! placement strategy that delegate every call and record a span around it.

use crate::span::{count, enter, exit, SharedRecorder};
use peerstripe_core::{ClusterStoreError, FetchedBlock, ObjectName, StorageBackend};
use peerstripe_net::RingGateway;
use peerstripe_overlay::{Id, NodeRef};
use peerstripe_placement::{ClusterView, PlacementStrategy, ProbeView, RepairRequest, Topology};
use peerstripe_sim::{ByteSize, DetRng};

/// A backend that records a span around every call that can reach a node.
/// Pure ring-table lookups (`route_quiet`, `is_alive`, ...) are delegated
/// unrecorded: they cost less than the span would.
pub struct TracedBackend<B> {
    inner: B,
    rec: SharedRecorder,
}

impl<B> TracedBackend<B> {
    pub fn new(inner: B, rec: SharedRecorder) -> Self {
        TracedBackend { inner, rec }
    }

    fn span<T>(
        &self,
        name: &'static str,
        f: impl FnOnce(&B) -> T,
        bytes: impl FnOnce(&T) -> u64,
    ) -> T {
        let id = enter(&self.rec, name);
        let out = f(&self.inner);
        exit(&self.rec, id, bytes(&out));
        out
    }

    fn span_mut<T>(&mut self, name: &'static str, bytes: u64, f: impl FnOnce(&mut B) -> T) -> T {
        let id = enter(&self.rec, name);
        let out = f(&mut self.inner);
        exit(&self.rec, id, bytes);
        out
    }
}

impl<B: ClusterView> ClusterView for TracedBackend<B> {
    fn route_quiet(&self, key: Id) -> Option<NodeRef> {
        self.inner.route_quiet(key)
    }
    fn is_alive(&self, node: NodeRef) -> bool {
        self.inner.is_alive(node)
    }
    fn can_store(&self, node: NodeRef, size: ByteSize) -> bool {
        self.span("backend.can_store", |b| b.can_store(node, size), |_| 0)
    }
    fn report_of(&self, node: NodeRef) -> ByteSize {
        self.span("backend.report_of", |b| b.report_of(node), |_| 0)
    }
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }
    fn alive_nodes(&self) -> Vec<NodeRef> {
        self.inner.alive_nodes()
    }
}

impl<B: ProbeView> ProbeView for TracedBackend<B> {
    fn probe(&mut self, key: Id) -> Option<(NodeRef, ByteSize)> {
        self.span_mut("backend.probe", 0, |b| b.probe(key))
    }
}

impl<B: StorageBackend> StorageBackend for TracedBackend<B> {
    fn route_lookup(&mut self, key: Id) -> Option<NodeRef> {
        self.span_mut("backend.route_lookup", 0, |b| b.route_lookup(key))
    }

    fn store_block(
        &mut self,
        node: NodeRef,
        key: Id,
        name: ObjectName,
        size: ByteSize,
        payload: Option<Vec<u8>>,
    ) -> Result<NodeRef, ClusterStoreError> {
        let bytes = payload.as_ref().map_or(0, |p| p.len() as u64);
        self.span_mut("backend.store_block", bytes, |b| {
            b.store_block(node, key, name, size, payload)
        })
    }

    fn fetch_block(&self, node: NodeRef, name: &ObjectName) -> Option<FetchedBlock> {
        self.span(
            "backend.fetch_block",
            |b| b.fetch_block(node, name),
            |out| {
                out.as_ref()
                    .and_then(|f| f.payload.as_ref())
                    .map_or(0, |p| p.len() as u64)
            },
        )
    }

    fn rollback_block(&mut self, node: NodeRef, name: &ObjectName, size: ByteSize) {
        self.span_mut("backend.rollback_block", 0, |b| {
            b.rollback_block(node, name, size)
        })
    }

    fn replica_targets(&self, key: Id, k: usize) -> Vec<(Id, NodeRef)> {
        self.span(
            "backend.replica_targets",
            |b| b.replica_targets(key, k),
            |_| 0,
        )
    }
}

/// What the ring workload needs from its backend beyond the storage seam:
/// the gateway underneath, for stats scrapes, RPC counts and `mark_failed`.
pub trait RingBackend: StorageBackend {
    fn gateway(&self) -> &RingGateway;
    fn gateway_mut(&mut self) -> &mut RingGateway;
}

impl RingBackend for RingGateway {
    fn gateway(&self) -> &RingGateway {
        self
    }
    fn gateway_mut(&mut self) -> &mut RingGateway {
        self
    }
}

impl RingBackend for TracedBackend<RingGateway> {
    fn gateway(&self) -> &RingGateway {
        &self.inner
    }
    fn gateway_mut(&mut self) -> &mut RingGateway {
        &mut self.inner
    }
}

/// A placement strategy that records a span around every decision.  On a
/// traced backend the probes a decision issues appear as its child spans.
pub struct TracedPlacement {
    inner: Box<dyn PlacementStrategy>,
    rec: SharedRecorder,
}

impl TracedPlacement {
    pub fn new(inner: Box<dyn PlacementStrategy>, rec: SharedRecorder) -> Self {
        TracedPlacement { inner, rec }
    }
}

impl PlacementStrategy for TracedPlacement {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan_chunk(
        &mut self,
        view: &mut dyn ProbeView,
        topology: Option<&Topology>,
        keys: &[Id],
        domain_cap: usize,
    ) -> Option<Vec<(NodeRef, ByteSize)>> {
        let id = enter(&self.rec, "placement.plan_chunk");
        let out = self.inner.plan_chunk(view, topology, keys, domain_cap);
        exit(&self.rec, id, 0);
        // A refused chunk is work the store path repeats as a zero-size chunk.
        count(&self.rec, "placement.plan_ok", u64::from(out.is_some()));
        out
    }

    fn repair_targets(
        &mut self,
        view: &dyn ClusterView,
        topology: Option<&Topology>,
        request: &RepairRequest<'_>,
        rng: &mut DetRng,
    ) -> Vec<NodeRef> {
        let id = enter(&self.rec, "placement.repair_targets");
        let out = self.inner.repair_targets(view, topology, request, rng);
        exit(&self.rec, id, 0);
        out
    }
}
