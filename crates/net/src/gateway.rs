//! The gateway: the networked [`StorageBackend`].
//!
//! A [`RingGateway`] holds the membership ring of a set of live
//! `peerstripe-node` daemons and implements the exact cluster-facing traits
//! the simulator does — [`ClusterView`], [`ProbeView`], and
//! [`StorageBackend`] — by translating each call into a framed RPC.  The
//! `PeerStripe` client and the placement strategies drive it unchanged: the
//! store path probes capacities over real sockets, the retrieve path pulls
//! block bytes off the wire, and recovery reads surviving blocks from live
//! daemons the same way.
//!
//! Every RPC goes over the gateway's [`Transport`]: TCP for a plain
//! `RingGateway`, the in-memory wire for a `RingGateway<MemWire>`.
//!
//! Three provided verbs the gateway overrides, each to move bytes or round
//! trips the default would spend: [`StorageBackend`]'s `fetch_block_into`
//! (a read) and `store_block_from` (a store), and [`ProbeView`]'s
//! `probe_all` (a chunk's probes).
//!
//! A read's blocks arrive through `fetch_block_into`: the `Block` reply's
//! payload is read off the socket into the buffer the client hands in — its
//! result — so no reply buffer is allocated and a fetched row is written
//! once, apart from at most 8 KiB at each end of it that passes through the
//! connection's buffer.  `fetch_block` (a reply read into a buffer of its
//! own, payload shared out) serves the blocks a degraded read or a repair
//! decodes from.  Both are the same `FetchBlock` frame to the daemon and the
//! same `fetch_block` operation in the metrics and the op log.
//!
//! A store's blocks leave through `store_block_from`: the `StoreBlock` frame
//! is written from the parts the client hands in — a systematic row's
//! header, the row where the caller's data holds it and its padding, or a
//! parity payload in a buffer the client keeps — in one vectored write, so
//! no payload is gathered into a buffer of its own.  `store_block` (an
//! owned payload) serves everything else.  Both are the same `StoreBlock`
//! frame to the daemon, byte for byte, and the same `store_block` operation
//! in the metrics and the op log.
//!
//! A chunk's capacity probes go out as one wave: `probe_all`, the one
//! [`ProbeView`] verb the gateway overrides, routes every key, writes one
//! `GetCapacity` to each distinct daemon, and only then reads the replies, so
//! a chunk waits about one round trip for its probes instead of one a block,
//! and keys that land on the same daemon share its answer.
//!
//! Every instrumented RPC is two halves: `send` (stream from the pool or a
//! fresh dial, request id, clock, frame written) and `finish` (reply read, a
//! stale pooled stream re-dialled once, metrics and op log, stream pooled
//! again).  A single RPC is one then the other; a wave is every send, then
//! every finish.  Connections are pooled per node.  Each reads its replies
//! through one buffer, so a reply's header, record and a small payload
//! arrive in one `read`, and writes its requests to the socket beneath.
//! Only a stream whose reply was read to its end, with nothing left in its
//! buffer, goes back: a byte left over would be read as the start of the
//! next reply.  Every RPC is recorded in the gateway's `RpcAccount` under
//! [`AccountNames::GATEWAY`] — its [`Request::op`], wall-clock latency and
//! outcome, in the vocabulary a daemon's account uses — which the ring
//! harness exports into its report.

use crate::account::{AccountNames, RpcAccount};
use crate::lock;
use crate::protocol::{
    read_block_reply_into, read_response, write_request_traced, write_store_block_from, BlockReply,
    NodeStats, OpLogEntry, RemoteError, Request, Response, WireError,
};
use crate::transport::{Tcp, Transport};
use peerstripe_core::{
    ClusterStoreError, FetchMiss, FetchedBlock, NodeStoreError, ObjectName, StorageBackend,
};
use peerstripe_overlay::{Id, IdRing, NodeRef, Takeover};
use peerstripe_placement::{ClusterView, ProbeView};
use peerstripe_sim::ByteSize;
use peerstripe_telemetry::{RegistryExport, Started};
use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, Once};
use std::time::Duration;

/// One daemon the gateway can reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeEndpoint {
    /// The node's reference (its index in the gateway's node table).
    pub node: NodeRef,
    /// The node's overlay identifier.
    pub id: Id,
    /// Where the daemon listens.
    pub addr: SocketAddr,
}

/// Gateway tunables.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Dial timeout and per-RPC socket read/write timeout.
    pub timeout: Duration,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            timeout: Duration::from_secs(5),
        }
    }
}

/// Size of the one buffer the first gateway of a process allocates and frees,
/// untouched — a hint that keeps glibc from handing the client's heap back to
/// the kernel between operations.
///
/// glibc derives its mmap threshold, and a trim threshold of twice that, from
/// the largest mmapped buffer the process has freed so far.  A networked
/// client keeps block-sized buffers and larger moving through the allocator.
/// When the hint went in, a read allocated its result plus a reply frame per
/// block, and when a file is one chunk that is almost exactly twice the
/// largest buffer it ever freed: whether the free top of the heap then
/// crossed the trim threshold after every operation, to be returned and
/// faulted back in by the next one, or never, came down to where an
/// unrelated small allocation happened to sit — on the benchmark's
/// 1 MiB-file ring the same binary ran either at 100 `brk` calls a run or at
/// 2 000 a second with three times the page faults (fetch +35 %, degraded
/// fetch +90 %, repair +40 %).  Freeing one buffer just under glibc's 32 MiB
/// cap for these thresholds settles it once: block buffers come from the
/// heap, and the heap keeps them.  The pages are never touched, so it costs
/// no memory, and an allocator without such thresholds ignores it.
///
/// The pattern has changed since: a read allocates its result — all of it at
/// once, fetched rows land in it straight off the socket — and no reply
/// frames, so a healthy read frees one buffer, not twice the largest; a store
/// allocates no payloads at all once its client has stored one file (rows go
/// from the caller's bytes, parity from buffers the client keeps), and a
/// degraded read or a repair still fetches the blocks it decodes from into
/// frames of their own.
/// Measured against a build with the hint deleted (alternating 20 s untraced
/// benchmark pairs, seed 42, 2-vCPU VM): the 16 MiB- and 1 MiB-file rings
/// were flat over 10 pairs each, every end-to-end median within
/// −3.3 … +1.9 %.  The 256 KiB-file ring without the hint fell into the
/// bimodal slow mode above in 4 of 6 passes, and with it in none: store
/// median +21 %, fetch +29 %.  So it stays.
const HEAP_HYSTERESIS_BYTES: usize = (32 << 20) - (64 << 10);

/// The networked backend: a membership ring over live node daemons.
pub struct RingGateway<T: Transport = Tcp> {
    transport: T,
    ids: BTreeMap<NodeRef, Id>,
    ring: IdRing,
    conns: Mutex<BTreeMap<NodeRef, Conn<T>>>,
    /// Last capacity report seen per node — the `&self` view methods
    /// ([`ClusterView::report_of`]) answer from this cache; live probes
    /// refresh it.
    reports: Mutex<BTreeMap<NodeRef, ByteSize>>,
    account: Mutex<RpcAccount>,
    /// Monotonic request-id source; every instrumented RPC carries one, so
    /// gateway and node op logs join on it.
    next_rid: AtomicU64,
}

/// A connection to a daemon: replies are read through its buffer, requests
/// written to the stream beneath it.
type Conn<T> = BufReader<<T as Transport>::Stream>;

/// A request written on a connection, or the error writing it hit.
struct Sent<T: Transport> {
    stream: Result<Conn<T>, WireError>,
    /// The stream came from the pool, so a transport error on it may only
    /// mean it went stale: worth one re-dial.
    pooled: bool,
}

/// What an RPC writes on its stream: a whole [`Request`], or a `StoreBlock`
/// whose payload is written from the parts the caller holds it in (the same
/// frame as the request that carries them concatenated).
#[derive(Clone, Copy)]
enum Outgoing<'r> {
    Request(&'r Request),
    StoreFrom {
        key: Id,
        name: &'r ObjectName,
        size: ByteSize,
        parts: &'r [&'r [u8]],
    },
}

impl Outgoing<'_> {
    /// The [`Request::op`] of the request written.
    fn op(&self) -> &'static str {
        match self {
            Outgoing::Request(req) => req.op(),
            Outgoing::StoreFrom { .. } => "store_block",
        }
    }

    /// Write the request frame, carrying `rid`.
    fn write(&self, w: &mut impl Write, rid: Option<u64>) -> Result<(), WireError> {
        match *self {
            Outgoing::Request(req) => write_request_traced(w, req, rid),
            Outgoing::StoreFrom {
                key,
                name,
                size,
                parts,
            } => write_store_block_from(w, key, name, size, parts, rid),
        }
    }
}

/// An instrumented RPC whose request is out and whose reply is not yet read:
/// [`RingGateway::send`] starts one, [`RingGateway::finish`] ends it.
struct InFlight<'r, T: Transport> {
    node: NodeRef,
    /// Kept for the one resend a stale pooled stream earns.
    req: Outgoing<'r>,
    rid: u64,
    started: Started,
    sent: Sent<T>,
}

impl RingGateway {
    /// Build a gateway over the given endpoints. No connection is made until
    /// the first RPC.
    pub fn connect(endpoints: &[NodeEndpoint], config: GatewayConfig) -> RingGateway {
        // See `HEAP_HYSTERESIS_BYTES`: reserved and released once a process,
        // never touched.
        static HEAP_HINT: Once = Once::new();
        HEAP_HINT.call_once(|| {
            drop(std::hint::black_box(Vec::<u8>::with_capacity(
                HEAP_HYSTERESIS_BYTES,
            )));
        });
        let tcp = Tcp {
            addrs: endpoints.iter().map(|ep| (ep.node, ep.addr)).collect(),
            timeout: config.timeout,
        };
        RingGateway::over(tcp, endpoints.iter().map(|ep| (ep.node, ep.id)).collect())
    }
}

impl<T: Transport> RingGateway<T> {
    /// Build a gateway over the daemons `ids` names (node → overlay id),
    /// reached through `transport`.  No stream is opened until the first RPC.
    pub fn over(transport: T, ids: BTreeMap<NodeRef, Id>) -> Self {
        let mut ring = IdRing::new();
        for (&node, &id) in &ids {
            ring.insert(id, node);
        }
        RingGateway {
            transport,
            ids,
            ring,
            conns: Mutex::new(BTreeMap::new()),
            reports: Mutex::new(BTreeMap::new()),
            account: Mutex::new(RpcAccount::new(AccountNames::GATEWAY)),
            next_rid: AtomicU64::new(1),
        }
    }

    /// Dial a node fresh.
    fn dial(&self, node: NodeRef) -> Result<Conn<T>, WireError> {
        Ok(BufReader::new(
            self.transport.dial(node).map_err(WireError::Io)?,
        ))
    }

    /// The failure kind of an RPC outcome: a [`WireError::kind_label`] for
    /// transport/protocol errors, a [`RemoteError::kind_label`] for typed
    /// node refusals, `None` for success.
    fn outcome_kind(result: Result<Option<&Response>, &WireError>) -> Option<&'static str> {
        match result {
            Ok(Some(Response::Error(refusal))) => Some(refusal.kind_label()),
            Ok(_) => None,
            Err(e) => Some(e.kind_label()),
        }
    }

    /// One RPC against `node`, its reply parsed whole.
    fn rpc(&self, node: NodeRef, req: &Request) -> Result<Response, WireError> {
        let req = Outgoing::Request(req);
        self.rpc_reading(node, req, read_response, |resp| Some(resp))
    }

    /// One instrumented RPC against `node`: [`RingGateway::send`], then
    /// [`RingGateway::finish`].
    fn rpc_reading<R>(
        &self,
        node: NodeRef,
        req: Outgoing<'_>,
        read: impl FnMut(&mut Conn<T>) -> Result<R, WireError>,
        parsed: fn(&R) -> Option<&Response>,
    ) -> Result<R, WireError> {
        let call = self.send(node, req);
        self.finish(call, read, parsed)
    }

    /// The first half of an instrumented RPC: a fresh request id, so the
    /// node's op log can attribute the call back to this gateway entry, the
    /// clock started, and the request written on `node`'s pooled connection
    /// or a freshly dialled one.  A failed dial or write is left for
    /// [`RingGateway::finish`] to act on and record.
    fn send<'r>(&self, node: NodeRef, req: Outgoing<'r>) -> InFlight<'r, T> {
        let rid = self.next_rid.fetch_add(1, Ordering::Relaxed);
        let started = Started::now();
        let sent = self.write_pooled(node, req, Some(rid));
        InFlight {
            node,
            req,
            rid,
            started,
            sent,
        }
    }

    /// The second half: the reply read (a stale pooled stream re-dialled
    /// once), latency and outcome recorded under the request's op, and the
    /// stream pooled again.  `read` takes the reply off the stream, and
    /// `parsed` shows the [`Response`] in what it read, if it kept one, for
    /// the outcome's label.
    fn finish<R>(
        &self,
        call: InFlight<'_, T>,
        read: impl FnMut(&mut Conn<T>) -> Result<R, WireError>,
        parsed: fn(&R) -> Option<&Response>,
    ) -> Result<R, WireError> {
        let InFlight {
            node,
            req,
            rid,
            started,
            sent,
        } = call;
        let result = self.read_pooled(node, req, Some(rid), sent, read);
        let elapsed_ms = started.elapsed_ms();
        let kind = Self::outcome_kind(result.as_ref().map(parsed));
        lock(&self.account).record(req.op(), Some(rid), Some(node), elapsed_ms, kind);
        result
    }

    /// Write `req` on `node`'s pooled connection, or on a fresh one.
    fn write_pooled(&self, node: NodeRef, req: Outgoing<'_>, rid: Option<u64>) -> Sent<T> {
        // The pool lock is held only to take a stream out and to put it
        // back, never across a dial or a round trip: RPCs to different nodes
        // overlap, and a dead endpoint stalls nobody but its own caller.
        let pooled = lock(&self.conns).remove(&node);
        let was_pooled = pooled.is_some();
        let stream = pooled
            .map_or_else(|| self.dial(node), Ok)
            .and_then(|mut stream| {
                req.write(stream.get_mut(), rid)?;
                Ok(stream)
            });
        Sent {
            stream,
            pooled: was_pooled,
        }
    }

    /// Read the reply to what [`RingGateway::write_pooled`] sent.  A pooled
    /// stream that fails in transport went stale (daemon restarted, idle
    /// timeout), so the request goes again, once, on a fresh one.  Only a
    /// stream whose reply was read to its end, its buffer empty, goes back.
    fn read_pooled<R>(
        &self,
        node: NodeRef,
        req: Outgoing<'_>,
        rid: Option<u64>,
        sent: Sent<T>,
        mut read: impl FnMut(&mut Conn<T>) -> Result<R, WireError>,
    ) -> Result<R, WireError> {
        let mut reply_on = |mut stream: Conn<T>| -> Result<(R, Conn<T>), WireError> {
            Ok((read(&mut stream)?, stream))
        };
        let (reply, stream) = match sent.stream.and_then(&mut reply_on) {
            Err(e) if e.is_transport() && sent.pooled => {
                let mut stream = self.dial(node)?;
                req.write(stream.get_mut(), rid)?;
                reply_on(stream)?
            }
            outcome => outcome?,
        };
        if stream.buffer().is_empty() {
            lock(&self.conns).insert(node, stream);
        }
        Ok(reply)
    }

    /// Scrape one daemon's stats.  Deliberately uninstrumented and untraced:
    /// observation must not change the op counts, latencies, or logs it
    /// reads, so repeated scrapes of an idle ring are byte-identical.
    pub fn get_stats(&self, node: NodeRef) -> Result<NodeStats, WireError> {
        let req = Outgoing::Request(&Request::GetStats);
        let sent = self.write_pooled(node, req, None);
        match self.read_pooled(node, req, None, sent, read_response)? {
            Response::Stats { stats } => Ok(*stats),
            Response::Error(e) => Err(WireError::Body(e.to_string())),
            other => Err(WireError::Body(format!(
                "unexpected reply to GetStats: {other:?}"
            ))),
        }
    }

    /// Snapshot of the gateway's recent-RPC log, oldest first.
    pub fn op_log(&self) -> Vec<OpLogEntry> {
        lock(&self.account).log()
    }

    /// Probe one node's capacity over the wire, refreshing the report cache.
    fn capacity_rpc(&self, node: NodeRef) -> Option<ByteSize> {
        self.capacity_reply(self.send(node, Outgoing::Request(&Request::GetCapacity)))
    }

    /// Finish a capacity probe, refreshing the report cache.
    fn capacity_reply(&self, probe: InFlight<'_, T>) -> Option<ByteSize> {
        let node = probe.node;
        match self.finish(probe, read_response, |resp| Some(resp)) {
            Ok(Response::Capacity { free }) => {
                lock(&self.reports).insert(node, free);
                Some(free)
            }
            _ => None,
        }
    }

    /// Liveness-check one node.
    pub fn ping(&self, node: NodeRef) -> bool {
        matches!(self.rpc(node, &Request::Ping), Ok(Response::Pong { .. }))
    }

    /// Ask one daemon to shut down gracefully.
    pub fn shutdown_node(&self, node: NodeRef) -> bool {
        matches!(
            self.rpc(node, &Request::Shutdown),
            Ok(Response::ShuttingDown)
        )
    }

    /// Declare a node failed: remove it from the membership ring and return
    /// the key-space takeover describing which neighbours inherit its range —
    /// the same contract as the simulator's `fail_node`.  The caller feeds
    /// the takeover to `PeerStripe::handle_node_failure` to drive recovery.
    pub fn mark_failed(&mut self, node: NodeRef) -> Option<Takeover> {
        let id = self.ids.get(&node).copied()?;
        let (_, takeover) = self.ring.remove_with_takeover(id)?;
        lock(&self.conns).remove(&node);
        lock(&self.reports).remove(&node);
        takeover
    }

    /// What a `StoreBlock` RPC to `node` came to, in the backend's terms.
    fn stored_on(
        node: NodeRef,
        reply: Result<Response, WireError>,
    ) -> Result<NodeRef, ClusterStoreError> {
        match reply {
            Ok(Response::Stored) => Ok(node),
            Ok(Response::Error(RemoteError::InsufficientSpace)) => Err(ClusterStoreError::Refused(
                NodeStoreError::InsufficientSpace,
            )),
            Ok(Response::Error(RemoteError::AlreadyStored)) => {
                Err(ClusterStoreError::Refused(NodeStoreError::AlreadyStored))
            }
            // A transport failure or protocol surprise reads as the node
            // being unreachable.
            Ok(_) | Err(_) => Err(ClusterStoreError::NoLiveNodes),
        }
    }

    /// Snapshot of the per-RPC telemetry.
    pub fn export_metrics(&self) -> RegistryExport {
        lock(&self.account).export()
    }

    /// Total RPCs issued, across operations (for quick report lines).
    pub fn rpc_count(&self) -> u64 {
        lock(&self.account).calls()
    }
}

impl<T: Transport> ClusterView for RingGateway<T> {
    fn route_quiet(&self, key: Id) -> Option<NodeRef> {
        self.ring.route(key).map(|(_, node)| node)
    }

    fn is_alive(&self, node: NodeRef) -> bool {
        self.ids
            .get(&node)
            .is_some_and(|id| self.ring.contains(*id))
    }

    fn can_store(&self, node: NodeRef, size: ByteSize) -> bool {
        if !self.is_alive(node) {
            return false;
        }
        match self.capacity_rpc(node) {
            Some(free) => size <= free,
            None => false,
        }
    }

    fn report_of(&self, node: NodeRef) -> ByteSize {
        if !self.is_alive(node) {
            return ByteSize::ZERO;
        }
        if let Some(cached) = lock(&self.reports).get(&node).copied() {
            return cached;
        }
        self.capacity_rpc(node).unwrap_or(ByteSize::ZERO)
    }

    fn node_count(&self) -> usize {
        self.ids.len()
    }

    fn alive_nodes(&self) -> Vec<NodeRef> {
        self.ring.iter().map(|(_, node)| node).collect()
    }
}

impl<T: Transport> ProbeView for RingGateway<T> {
    fn probe(&mut self, key: Id) -> Option<(NodeRef, ByteSize)> {
        let (_, node) = self.ring.route(key)?;
        let free = self.capacity_rpc(node)?;
        Some((node, free))
    }

    /// One wave: every key routed, each distinct daemon probed once, and
    /// every `GetCapacity` written before the first reply is read.  A daemon
    /// whose dial or read fails answers `None` for its own keys only.
    fn probe_all(&mut self, keys: &[Id]) -> Vec<Option<(NodeRef, ByteSize)>> {
        let routed: Vec<Option<NodeRef>> = keys.iter().map(|&key| self.route_quiet(key)).collect();
        let mut nodes: Vec<NodeRef> = Vec::with_capacity(keys.len());
        for &node in routed.iter().flatten() {
            if !nodes.contains(&node) {
                nodes.push(node);
            }
        }
        let req = Outgoing::Request(&Request::GetCapacity);
        let wave: Vec<InFlight<'_, T>> = nodes.iter().map(|&node| self.send(node, req)).collect();
        let free: BTreeMap<NodeRef, ByteSize> = wave
            .into_iter()
            .filter_map(|probe| Some((probe.node, self.capacity_reply(probe)?)))
            .collect();
        routed
            .into_iter()
            .map(|node| node.and_then(|node| Some((node, *free.get(&node)?))))
            .collect()
    }
}

impl<T: Transport> StorageBackend for RingGateway<T> {
    fn route_lookup(&mut self, key: Id) -> Option<NodeRef> {
        self.ring.route(key).map(|(_, node)| node)
    }

    fn store_block(
        &mut self,
        node: NodeRef,
        key: Id,
        name: ObjectName,
        size: ByteSize,
        payload: Option<Vec<u8>>,
    ) -> Result<NodeRef, ClusterStoreError> {
        if !self.is_alive(node) {
            return Err(ClusterStoreError::NoLiveNodes);
        }
        let req = Request::StoreBlock {
            key,
            name,
            size,
            payload,
        };
        Self::stored_on(node, self.rpc(node, &req))
    }

    /// The `StoreBlock` frame is written from `parts` in one vectored write:
    /// the payload is never gathered into a buffer of its own.
    fn store_block_from(
        &mut self,
        node: NodeRef,
        key: Id,
        name: &ObjectName,
        size: ByteSize,
        parts: &[&[u8]],
    ) -> Result<NodeRef, ClusterStoreError> {
        if !self.is_alive(node) {
            return Err(ClusterStoreError::NoLiveNodes);
        }
        let req = Outgoing::StoreFrom {
            key,
            name,
            size,
            parts,
        };
        let reply = self.rpc_reading(node, req, read_response, |resp| Some(resp));
        Self::stored_on(node, reply)
    }

    fn fetch_block(&self, node: NodeRef, name: &ObjectName) -> Option<FetchedBlock> {
        if !self.is_alive(node) {
            return None;
        }
        match self.rpc(node, &Request::FetchBlock { name: name.clone() }) {
            Ok(Response::Block {
                block: Some((size, payload)),
            }) => Some(FetchedBlock { size, payload }),
            _ => None,
        }
    }

    /// The `Block` reply's payload goes from the socket into `head` and
    /// `tail`'s spare capacity: no reply buffer, and no copy out of one but
    /// the connection buffer's, of at most 8 KiB at each end of the payload.
    fn fetch_block_into(
        &self,
        node: NodeRef,
        name: &ObjectName,
        head: &mut [u8],
        tail: &mut Vec<u8>,
    ) -> Result<(), FetchMiss> {
        if !self.is_alive(node) {
            return Err(FetchMiss::Absent);
        }
        let req = Request::FetchBlock { name: name.clone() };
        let read = |stream: &mut Conn<T>| read_block_reply_into(stream, head, tail);
        match self.rpc_reading(node, Outgoing::Request(&req), read, BlockReply::response) {
            Ok(BlockReply::Landed) => Ok(()),
            Ok(BlockReply::Short) => Err(FetchMiss::Short),
            Ok(BlockReply::Other(Response::Block { block: Some(_) })) => Err(FetchMiss::SizeOnly),
            // No such block; and a transport failure or protocol surprise
            // reads as the node being unreachable.
            Ok(BlockReply::Other(_)) | Err(_) => Err(FetchMiss::Absent),
        }
    }

    fn rollback_block(&mut self, node: NodeRef, name: &ObjectName, size: ByteSize) {
        if !self.is_alive(node) {
            return;
        }
        let _ = self.rpc(
            node,
            &Request::RemoveBlock {
                name: name.clone(),
                size,
            },
        );
    }

    fn replica_targets(&self, key: Id, k: usize) -> Vec<(Id, NodeRef)> {
        self.ring.k_closest(key, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{NodeConfig, NodeService};
    use crate::protocol::{write_response_traced, VERSION};
    use crate::server::NodeServer;
    use crate::transport::{MemWire, WireStream};
    use std::collections::VecDeque;
    use std::io::{self, IoSlice, Read, Write};
    use std::sync::Arc;

    fn wire(n: usize) -> (MemWire, RingGateway<MemWire>) {
        MemWire::ring_of(n, ByteSize::mb(64))
    }

    #[test]
    fn gateway_round_trips_blocks_through_live_daemons() {
        let (_wire, mut gw) = wire(4);
        let name = ObjectName::block("f", 0, 0);
        let node = gw.route_lookup(name.key()).unwrap();
        gw.store_block(
            node,
            name.key(),
            name.clone(),
            ByteSize::mb(1),
            Some(vec![1, 2, 3]),
        )
        .unwrap();
        let fetched = gw.fetch_block(node, &name).unwrap();
        assert_eq!(fetched.size, ByteSize::mb(1));
        assert_eq!(fetched.payload.as_deref(), Some(&vec![1u8, 2, 3]));
        gw.rollback_block(node, &name, ByteSize::mb(1));
        assert!(gw.fetch_block(node, &name).is_none());
    }

    /// A one-row payload as the byte path stores it: the 12-byte record
    /// header, then the row.
    fn row_payload(row: &[u8]) -> Vec<u8> {
        let mut payload = Vec::new();
        for word in [1u32, 0, row.len() as u32] {
            payload.extend_from_slice(&word.to_le_bytes());
        }
        payload.extend_from_slice(row);
        payload
    }

    fn rpcs<T: Transport>(gw: &RingGateway<T>, op: &str) -> u64 {
        let export = gw.export_metrics();
        let labelled = |c: &&peerstripe_telemetry::CounterExport| {
            c.name == "gateway_rpc_total" && c.labels.iter().any(|l| l.1 == op)
        };
        export
            .counters
            .iter()
            .filter(labelled)
            .map(|c| c.value)
            .sum()
    }

    #[test]
    fn fetch_block_into_lands_a_payload_in_the_callers_buffers_and_types_every_miss() {
        let (_wire, mut gw) = wire(2);
        let row: Vec<u8> = (0..300_000u32).map(|i| (i % 251) as u8).collect();
        let stored = [
            (ObjectName::block("f", 0, 0), Some(row_payload(&row))),
            (ObjectName::block("f", 0, 1), None),
            (ObjectName::block("f", 0, 2), Some(vec![1, 2, 3])),
        ];
        for (name, payload) in &stored {
            let key = name.key();
            gw.store_block(0, key, name.clone(), ByteSize::kb(1), payload.clone())
                .unwrap();
        }
        let [(whole, _), (size_only, _), (short, _)] = &stored;

        // The row lands behind what `tail` already holds, in capacity the
        // caller reserved: nothing is reallocated.
        let mut tail = Vec::with_capacity(1 + row.len());
        tail.push(0xEE);
        let at = tail.as_ptr();
        let mut head = [0u8; 12];
        assert_eq!(gw.fetch_block_into(0, whole, &mut head, &mut tail), Ok(()));
        assert_eq!(head[..], row_payload(&row)[..12]);
        assert_eq!((tail[0], &tail[1..]), (0xEE, &row[..]));
        assert_eq!(tail.as_ptr(), at, "the caller's buffer did not move");

        // Every miss is typed and leaves `tail` as it was; the connection
        // stays frame-aligned, so the same pooled stream serves the next call.
        let absent = ObjectName::block("f", 9, 9);
        for (name, miss) in [
            (&absent, FetchMiss::Absent),
            (size_only, FetchMiss::SizeOnly),
            (short, FetchMiss::Short),
        ] {
            let fetched = gw.fetch_block_into(0, name, &mut head, &mut tail);
            assert_eq!(fetched, Err(miss), "{name}");
            assert_eq!(tail.len(), 1 + row.len());
        }
        tail.truncate(1);
        assert_eq!(gw.fetch_block_into(0, whole, &mut head, &mut tail), Ok(()));
        assert_eq!(&tail[1..], &row[..]);
        // A node declared failed is not asked at all.
        gw.mark_failed(1).unwrap();
        let fetched = gw.fetch_block_into(1, whole, &mut head, &mut tail);
        assert_eq!(fetched, Err(FetchMiss::Absent));

        // Each call was one `fetch_block` RPC with an id the daemon logged.
        assert_eq!(rpcs(&gw, "fetch_block"), 5);
        let node_log = gw.get_stats(0).unwrap().op_log;
        let logged = |rid| node_log.iter().any(|e| e.request_id == rid);
        let mut gw_log = gw.op_log();
        gw_log.retain(|e| e.op == "fetch_block");
        assert_eq!(gw_log.len(), 5);
        assert!(gw_log.iter().all(|e| e.is_ok() && logged(e.request_id)));
    }

    /// One daemon played from a script, for the replies no daemon sends: the
    /// n-th dial opens a stream that answers its k-th request with
    /// `conns[n][k]`, and ends once those run out.  `requests[n]` counts the
    /// request frames written on it.
    #[derive(Default)]
    struct Script {
        conns: Mutex<VecDeque<VecDeque<Vec<u8>>>>,
        requests: Arc<Mutex<Vec<usize>>>,
    }

    struct Played {
        replies: VecDeque<Vec<u8>>,
        out: VecDeque<u8>,
        conn: usize,
        requests: Arc<Mutex<Vec<usize>>>,
    }

    impl Read for Played {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.out.read(buf)
        }
    }

    impl Write for Played {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }

        /// A frame is written whole: release its reply.
        fn flush(&mut self) -> io::Result<()> {
            lock(&self.requests)[self.conn] += 1;
            self.out
                .extend(self.replies.pop_front().unwrap_or_default());
            Ok(())
        }
    }

    impl Transport for Script {
        type Stream = Played;

        fn dial(&self, _: NodeRef) -> io::Result<Played> {
            let replies = lock(&self.conns).pop_front().unwrap_or_default();
            let mut requests = lock(&self.requests);
            requests.push(0);
            Ok(Played {
                replies,
                out: VecDeque::new(),
                conn: requests.len() - 1,
                requests: Arc::clone(&self.requests),
            })
        }
    }

    /// A gateway to one scripted daemon (see [`Script`]).
    fn scripted(conns: Vec<Vec<Vec<u8>>>) -> RingGateway<Script> {
        let conns = conns.into_iter().map(VecDeque::from).collect();
        let script = Script {
            conns: Mutex::new(conns),
            ..Script::default()
        };
        RingGateway::over(script, BTreeMap::from([(0, Id::hash("stub"))]))
    }

    /// The request frames written on each stream the gateway opened.
    fn requests(gw: &RingGateway<Script>) -> Vec<usize> {
        lock(&gw.transport.requests).clone()
    }

    /// `resp` framed by a daemon that speaks protocol `version`.
    fn framed(resp: &Response, version: u8) -> Vec<u8> {
        let mut frame = Vec::new();
        write_response_traced(&mut frame, resp, None).unwrap();
        frame[2] = version;
        frame
    }

    fn block_frame(payload: Vec<u8>, version: u8) -> Vec<u8> {
        let block = Some((ByteSize::kb(1), Some(Arc::new(payload))));
        framed(&Response::Block { block }, version)
    }

    #[test]
    fn a_reply_cut_short_on_a_pooled_connection_is_fetched_again_on_a_fresh_one() {
        let rows: Vec<Vec<u8>> = (1..=3u8).map(|i| vec![i; 100_000]).collect();
        let reply = |i: usize| block_frame(row_payload(&rows[i]), VERSION);
        // The second reply stops in the middle of its payload, the third
        // before its first byte (the daemon went away between two calls).
        let gw = scripted(vec![
            vec![reply(0), reply(1)[..50_000].to_vec()],
            vec![reply(1), vec![]],
            vec![reply(2)],
        ]);
        let name = ObjectName::block("f", 0, 0);
        let mut tail = Vec::new();
        for row in &rows {
            let mut head = [0u8; 12];
            assert_eq!(gw.fetch_block_into(0, &name, &mut head, &mut tail), Ok(()));
            assert_eq!(head[..], row_payload(row)[..12]);
        }
        // The half-read payload of the first attempt left nothing behind.
        assert_eq!(tail, rows.concat());
        // No request followed a cut reply on its connection.
        assert_eq!(requests(&gw), [2, 2, 1]);
        // One RPC a call, re-dials included, and none of them an error.
        assert_eq!(rpcs(&gw, "fetch_block"), 3);
        assert!(gw.op_log().iter().all(OpLogEntry::is_ok));
    }

    #[test]
    fn a_reply_cut_short_on_a_fresh_connection_is_a_miss_and_the_connection_is_dropped() {
        let row = vec![7u8; 100_000];
        let reply = block_frame(row_payload(&row), VERSION);
        let gw = scripted(vec![vec![reply[..60_000].to_vec()], vec![reply]]);
        let name = ObjectName::block("f", 0, 0);
        let mut tail = vec![0xEE];
        let mut head = [0u8; 12];
        let fetched = gw.fetch_block_into(0, &name, &mut head, &mut tail);
        assert_eq!(fetched, Err(FetchMiss::Absent));
        assert_eq!(tail, [0xEE], "`tail` is back at its prior length");
        assert_eq!(gw.op_log().pop().unwrap().outcome, "truncated");
        // The stream that broke mid-frame was not pooled: the next call
        // dials, and no request ever follows the cut reply on its connection.
        assert_eq!(gw.fetch_block_into(0, &name, &mut head, &mut tail), Ok(()));
        assert_eq!(&tail[1..], &row[..]);
        assert_eq!(requests(&gw), [1, 1]);
    }

    #[test]
    fn a_daemon_of_another_protocol_version_fails_typed_and_nothing_is_pooled() {
        // A daemon that speaks protocol v1: every reply's header says so.
        let reply = block_frame(row_payload(&[5u8; 64]), 1);
        let mut gw = scripted(vec![vec![reply.clone()], vec![reply]]);
        let name = ObjectName::block("f", 0, 0);
        let (mut head, mut tail) = ([0u8; 12], Vec::new());
        let fetched = gw.fetch_block_into(0, &name, &mut head, &mut tail);
        assert_eq!(fetched, Err(FetchMiss::Absent));
        assert!(tail.is_empty());
        let payload = Some(vec![5u8; 64]);
        let stored = gw.store_block(0, name.key(), name, ByteSize::kb(1), payload);
        assert!(matches!(stored, Err(ClusterStoreError::NoLiveNodes)));
        // Neither stream went back: each RPC dialled its own connection.
        assert!(lock(&gw.conns).is_empty());
        assert_eq!(requests(&gw), [1, 1]);

        let export = gw.export_metrics();
        let version_errors: Vec<(String, u64)> = export
            .counters
            .iter()
            .filter(|c| {
                c.name == "gateway_rpc_errors"
                    && c.labels
                        .contains(&("kind".to_string(), "version".to_string()))
            })
            .filter_map(|c| Some((c.labels.iter().find(|l| l.0 == "op")?.1.clone(), c.value)))
            .collect();
        let expected = [("fetch_block", 1), ("store_block", 1)];
        assert_eq!(version_errors, expected.map(|(op, n)| (op.to_string(), n)));
        assert!(gw.op_log().iter().all(|e| e.outcome == "version"));
    }

    #[test]
    fn probe_reaches_the_daemon_and_caches_the_report() {
        let (_wire, mut gw) = wire(3);
        let key = Id::hash("some-key");
        let (node, free) = gw.probe(key).unwrap();
        assert_eq!(free, ByteSize::mb(64));
        assert_eq!(gw.report_of(node), ByteSize::mb(64));
        assert!(gw.can_store(node, ByteSize::mb(1)));
        assert!(!gw.can_store(node, ByteSize::gb(1)));
    }

    fn keys(n: usize) -> Vec<Id> {
        (0..n).map(|i| Id::hash(&format!("wave-key-{i}"))).collect()
    }

    /// The distinct daemons `keys` route to, in node order.
    fn routed<T: Transport>(gw: &RingGateway<T>, keys: &[Id]) -> Vec<NodeRef> {
        let mut routed: Vec<NodeRef> = keys.iter().filter_map(|&k| gw.route_quiet(k)).collect();
        routed.sort_unstable();
        routed.dedup();
        routed
    }

    /// The request ids of every op-log entry node `n` holds for `op`.
    fn node_rids(gw: &RingGateway<MemWire>, n: NodeRef, op: &str) -> Vec<Option<u64>> {
        let log = gw.get_stats(n).unwrap().op_log;
        log.iter()
            .filter(|e| e.op == op)
            .map(|e| e.request_id)
            .collect()
    }

    #[test]
    fn a_probe_wave_asks_each_distinct_daemon_once_and_joins_every_node_log() {
        let (_wire, mut gw) = wire(4);
        let keys = keys(24);
        let routed = routed(&gw, &keys);
        assert!(routed.len() > 1, "the keys spread over several daemons");

        let answers = gw.probe_all(&keys);
        assert_eq!(answers.len(), keys.len());
        assert!(answers.iter().all(Option::is_some));
        assert_eq!(rpcs(&gw, "get_capacity"), routed.len() as u64);
        let mut logged = Vec::new();
        for n in 0..4 {
            let rids = node_rids(&gw, n, "get_capacity");
            assert_eq!(rids.len(), usize::from(routed.contains(&n)), "node {n}");
            logged.extend(rids);
        }
        let wave = gw.op_log();
        assert_eq!(wave.len(), routed.len());
        assert!(wave
            .iter()
            .all(|e| e.is_ok() && logged.contains(&e.request_id)));
    }

    #[test]
    fn a_probe_wave_answers_what_per_key_probes_answer_and_refreshes_reports() {
        let (_wire, mut gw) = wire(3);
        let keys = keys(12);
        let first = gw.probe_all(&keys);
        // Space taken behind the cache's back: only a probe can see it.
        let (node, _) = first[0].unwrap();
        let name = ObjectName::block("f", 0, 0);
        gw.store_block(node, name.key(), name, ByteSize::mb(5), None)
            .unwrap();
        assert_eq!(gw.report_of(node), ByteSize::mb(64));

        let wave = gw.probe_all(&keys);
        assert_eq!(gw.report_of(node), ByteSize::mb(59));
        let one_by_one: Vec<_> = keys.iter().map(|&k| gw.probe(k)).collect();
        assert_eq!(wave, one_by_one);
    }

    #[test]
    fn a_stopped_daemon_answers_none_for_its_own_keys_only() {
        let (wire, mut gw) = wire(4);
        let keys = keys(24);
        // Every daemon's stream is pooled by a first wave.
        assert!(gw.probe_all(&keys).iter().all(Option::is_some));
        // Stopped without telling the gateway: its pooled stream is severed.
        let dead = gw.route_quiet(keys[0]).unwrap();
        wire.stop(dead);

        let answers = gw.probe_all(&keys);
        for (&key, answer) in keys.iter().zip(&answers) {
            let node = gw.route_quiet(key).unwrap();
            assert_eq!(answer.is_none(), node == dead, "key {key:?} on node {node}");
        }
        let pooled: Vec<NodeRef> = lock(&gw.conns).keys().copied().collect();
        let live: Vec<NodeRef> = (0..4).filter(|&n| n != dead).collect();
        assert_eq!(pooled, live, "every stream whose reply was read went back");
    }

    fn capacity_frame(free: ByteSize) -> Vec<u8> {
        framed(&Response::Capacity { free }, VERSION)
    }

    #[test]
    fn a_wave_redials_a_closed_pooled_stream_once_and_counts_one_rpc() {
        let free = ByteSize::mb(7);
        // Each connection answers one probe, then closes.
        let mut gw = scripted(vec![vec![capacity_frame(free)]; 2]);
        let keys = keys(8);
        // The first probe pools a stream, which the daemon then closes.
        assert_eq!(gw.probe(keys[0]), Some((0, free)));
        let answers = gw.probe_all(&keys);
        assert!(answers.iter().all(|a| *a == Some((0, free))));
        assert_eq!(requests(&gw), [2, 1]);
        assert_eq!(rpcs(&gw, "get_capacity"), 2);
        assert!(gw.op_log().iter().all(OpLogEntry::is_ok));
    }

    #[test]
    fn a_reply_followed_by_a_stray_byte_is_read_and_its_connection_dropped() {
        let free = ByteSize::mb(7);
        // The first connection's reply comes with one byte too many; the
        // second connection's reply is clean.
        let stray = [capacity_frame(free), vec![0x53]].concat();
        let mut gw = scripted(vec![vec![stray], vec![capacity_frame(free)]]);
        let key = Id::hash("k");
        assert_eq!(gw.probe(key), Some((0, free)));
        assert!(
            lock(&gw.conns).is_empty(),
            "a stream with bytes left is not pooled"
        );
        // The next RPC dials fresh and reads its own reply.
        assert_eq!(gw.probe(key), Some((0, free)));
        assert_eq!(requests(&gw), [1, 1], "no request followed the stray byte");
        assert_eq!(rpcs(&gw, "get_capacity"), 2);
        assert!(gw.op_log().iter().all(OpLogEntry::is_ok));
        assert_eq!(lock(&gw.conns).len(), 1, "the clean stream went back");
    }

    #[test]
    fn a_wave_over_failed_nodes_or_no_keys_costs_no_rpc() {
        let (_wire, mut gw) = wire(3);
        assert!(gw.probe_all(&[]).is_empty());
        gw.mark_failed(1).unwrap();
        let answers = gw.probe_all(&keys(12));
        assert!(answers.iter().all(|a| a.is_some_and(|(node, _)| node != 1)));
        assert!(node_rids(&gw, 1, "get_capacity").is_empty());
        let before = rpcs(&gw, "get_capacity");
        // The last node leaves no neighbour to take over: no takeover.
        gw.mark_failed(0).unwrap();
        assert!(gw.mark_failed(2).is_none());
        assert!(gw.alive_nodes().is_empty());
        assert_eq!(gw.probe_all(&keys(12)), vec![None; 12]);
        assert_eq!(rpcs(&gw, "get_capacity"), before);
    }

    #[test]
    fn mark_failed_removes_the_node_and_yields_a_takeover() {
        let (_wire, mut gw) = wire(4);
        assert_eq!(gw.alive_nodes().len(), 4);
        let takeover = gw.mark_failed(2).unwrap();
        assert_eq!(takeover.failed, Id::hash("node-2"));
        assert!(!gw.is_alive(2));
        assert_eq!(gw.alive_nodes().len(), 3);
        assert_eq!(gw.node_count(), 4);
        // Routing never lands on the failed node now.
        for i in 0..32 {
            let n = gw.route_quiet(Id::hash(&format!("k{i}"))).unwrap();
            assert_ne!(n, 2);
        }
    }

    #[test]
    fn dead_nodes_fail_rpcs_gracefully() {
        let (wire, mut gw) = wire(3);
        // Stop node 1's daemon, without telling the gateway.
        wire.stop(1);
        assert!(!gw.ping(1));
        assert!(!gw.can_store(1, ByteSize::kb(1)));
        let name = ObjectName::block("f", 0, 0);
        assert!(gw
            .store_block(1, name.key(), name.clone(), ByteSize::kb(1), None)
            .is_err());
        assert!(gw.fetch_block(1, &name).is_none());
        // Errors were counted.
        let export = gw.export_metrics();
        let errs: u64 = export
            .counters
            .iter()
            .filter(|c| c.name == "gateway_rpc_errors")
            .map(|c| c.value)
            .sum();
        assert!(errs >= 2, "expected error counters, got {errs}");
    }

    /// A node missing from the transport's table is unreachable, not a
    /// protocol violation: every RPC to it reads `io`, on either transport.
    #[test]
    fn an_rpc_to_a_node_with_no_endpoint_fails_in_transport() {
        fn unreachable<T: Transport>(gw: &RingGateway<T>) {
            assert!(!gw.ping(99));
            assert!(!gw.shutdown_node(99));
            let export = gw.export_metrics();
            let errors = export
                .counters
                .iter()
                .filter(|c| c.name == "gateway_rpc_errors");
            let errors: Vec<Vec<&str>> = errors
                .filter(|c| c.value > 0)
                .map(|c| c.labels.iter().map(|l| l.1.as_str()).collect())
                .collect();
            assert_eq!(errors, [["io", "ping"], ["io", "shutdown"]]);
            let Err(WireError::Io(e)) = gw.get_stats(99) else {
                panic!("the scrape of an unknown node fails in transport");
            };
            assert_eq!(e.kind(), io::ErrorKind::NotFound);
        }
        unreachable(&wire(1).1);
        unreachable(&RingGateway::connect(&[], GatewayConfig::default()));
    }

    #[test]
    fn rpcs_to_different_nodes_do_not_wait_for_each_other() {
        use crate::protocol::read_request_traced;
        use std::sync::mpsc;
        // Node 0 is a stub that reads a request and then withholds its reply
        // until it is told to answer (or two seconds pass); node 1 is a real
        // daemon.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stub_addr = listener.local_addr().unwrap();
        let (got_request, request_seen) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        let stub = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let (_, rid) = read_request_traced(&mut conn).unwrap();
            got_request.send(()).unwrap();
            let in_time = released.recv_timeout(Duration::from_secs(2)).is_ok();
            let pong = Response::Pong {
                node: Id::hash("stub"),
            };
            write_response_traced(&mut conn, &pong, rid).unwrap();
            in_time
        });
        let service = NodeService::new(&NodeConfig::named("node-1", ByteSize::mb(64)));
        let real = NodeServer::bind("127.0.0.1:0", service).unwrap();
        let real_addr = real.local_addr();
        let serving = std::thread::spawn(move || real.run());
        let endpoints = [
            NodeEndpoint {
                node: 0,
                id: Id::hash("stub"),
                addr: stub_addr,
            },
            NodeEndpoint {
                node: 1,
                id: Id::hash("node-1"),
                addr: real_addr,
            },
        ];
        let gw = RingGateway::connect(&endpoints, GatewayConfig::default());
        std::thread::scope(|s| {
            let slow = s.spawn(|| gw.ping(0));
            request_seen.recv().unwrap();
            // The stub's reply is outstanding; an RPC to the other node must
            // complete meanwhile.  Only then is the stub allowed to answer.
            assert!(gw.ping(1));
            release.send(()).unwrap();
            assert!(slow.join().unwrap(), "the withheld RPC still completes");
        });
        assert!(
            stub.join().unwrap(),
            "the second node's RPC waited for the first node's reply"
        );
        assert!(gw.shutdown_node(1));
        serving.join().unwrap().unwrap();
    }

    #[test]
    fn request_ids_join_gateway_and_node_op_logs() {
        let (_wire, gw) = wire(2);
        assert!(gw.ping(0));
        assert!(gw.ping(1));
        assert!(gw.ping(0));
        let gw_log = gw.op_log();
        assert_eq!(gw_log.len(), 3);
        let mut node_rids = std::collections::BTreeSet::new();
        for n in 0..2 {
            let stats = gw.get_stats(n).unwrap();
            assert!(stats.op_log.iter().all(|e| e.op != "get_stats"));
            for e in &stats.op_log {
                if let Some(rid) = e.request_id {
                    node_rids.insert(rid);
                }
            }
        }
        // Every gateway entry is attributable to exactly the node-side log.
        for entry in &gw_log {
            assert!(entry.is_ok());
            let rid = entry.request_id.expect("instrumented RPCs carry an id");
            assert!(node_rids.contains(&rid), "rid {rid} missing node-side");
        }
    }

    #[test]
    fn two_scrapes_of_an_idle_ring_render_byte_identical_json() {
        let (_wire, gw) = wire(3);
        for n in 0..3 {
            assert!(gw.ping(n));
        }
        let scrape = || -> Vec<String> {
            (0..3)
                .map(|n| serde_json::to_string(&gw.get_stats(n).unwrap()).unwrap())
                .collect()
        };
        let (rpcs_before, log_before) = (gw.rpc_count(), gw.op_log());
        let first = scrape();
        let second = scrape();
        assert_eq!(first, second, "scraping must not perturb what it reads");
        assert!(first.iter().all(|s| s.contains("\"op\":\"ping\"")));
        assert_eq!(gw.rpc_count(), rpcs_before);
        assert_eq!(gw.op_log(), log_before);
    }

    #[test]
    fn error_counters_carry_the_failure_kind() {
        let (wire, gw) = wire(2);
        wire.stop(1);
        assert!(!gw.ping(1));
        let export = gw.export_metrics();
        let io_errs: u64 = export
            .counters
            .iter()
            .filter(|c| {
                c.name == "gateway_rpc_errors"
                    && c.labels.contains(&("kind".to_string(), "io".to_string()))
            })
            .map(|c| c.value)
            .sum();
        assert!(io_errs >= 1, "expected an io-kind error counter");
        // The failed RPC stays attributed in the gateway log via its outcome.
        let last = gw.op_log().pop().unwrap();
        assert_eq!(last.op, "ping");
        assert_eq!(last.outcome, "io");
    }

    #[test]
    fn a_refusal_reads_the_same_at_the_gateway_and_the_daemon() {
        let (_wire, mut gw) = wire(1);
        let name = ObjectName::block("f", 0, 0);
        let stored = gw.store_block(0, name.key(), name, ByteSize::mb(100), None);
        assert!(matches!(
            stored,
            Err(ClusterStoreError::Refused(
                NodeStoreError::InsufficientSpace
            ))
        ));
        let stats = gw.get_stats(0).unwrap();
        let refusals = |export: &RegistryExport, counter: &str| -> Vec<u64> {
            let labels = [("kind", "insufficient_space"), ("op", "store_block")]
                .map(|(k, v)| (k.to_string(), v.to_string()));
            let counters = export.counters.iter();
            let refused = counters.filter(|c| c.name == counter && c.labels == labels);
            refused.map(|c| c.value).collect()
        };
        assert_eq!(refusals(&gw.export_metrics(), "gateway_rpc_errors"), [1]);
        assert_eq!(refusals(&stats.metrics, "node_errors_total"), [1]);
        // The two op-log entries of the request join on its id and agree.
        let gw_entry = gw.op_log().pop().unwrap();
        let node_entry = stats
            .op_log
            .iter()
            .find(|e| e.request_id == gw_entry.request_id);
        let seen = |e: &OpLogEntry| (e.op.clone(), e.outcome.clone());
        let expected = ("store_block".to_string(), "insufficient_space".to_string());
        assert_eq!(seen(&gw_entry), expected);
        assert_eq!(node_entry.map(seen), Some(expected));
    }

    #[test]
    fn rpc_metrics_accumulate_counts_and_latency() {
        let (_wire, gw) = wire(2);
        assert!(gw.ping(0));
        assert!(gw.ping(0));
        assert!(gw.ping(1));
        assert_eq!(rpcs(&gw, "ping"), 3);
        let export = gw.export_metrics();
        let hist = export
            .histograms
            .iter()
            .find(|h| h.name == "gateway_rpc_latency_ms" && h.labels.iter().any(|l| l.1 == "ping"))
            .expect("ping latency histogram");
        assert_eq!(hist.count, 3);
        assert_eq!(gw.rpc_count(), 3);
    }

    /// The wire, with every `read` and `write` call the gateway makes on a
    /// stream logged as `(node, 'r' | 'w')`.
    struct Counted {
        wire: MemWire,
        calls: Arc<Mutex<Vec<(NodeRef, char)>>>,
    }

    struct CountedStream {
        stream: WireStream,
        node: NodeRef,
        calls: Arc<Mutex<Vec<(NodeRef, char)>>>,
    }

    impl Read for CountedStream {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            lock(&self.calls).push((self.node, 'r'));
            self.stream.read(buf)
        }
    }

    impl Write for CountedStream {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            lock(&self.calls).push((self.node, 'w'));
            self.stream.write_vectored(bufs)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.stream.flush()
        }
    }

    impl Transport for Counted {
        type Stream = CountedStream;

        fn dial(&self, node: NodeRef) -> io::Result<CountedStream> {
            Ok(CountedStream {
                stream: self.wire.dial(node)?,
                node,
                calls: Arc::clone(&self.calls),
            })
        }
    }

    /// The gateway's own I/O calls, which on TCP are its system calls: an
    /// RPC is one write and one read, and a probe wave writes to every
    /// daemon before it reads from any.
    #[test]
    fn an_rpc_is_one_write_and_one_read_and_a_wave_writes_before_it_reads() {
        let (wire, plain) = wire(4);
        let counted = Counted {
            wire,
            calls: Arc::default(),
        };
        let mut gw = RingGateway::over(counted, plain.ids.clone());
        let calls = |gw: &RingGateway<Counted>| std::mem::take(&mut *lock(&gw.transport.calls));

        assert!(gw.ping(0));
        assert_eq!(calls(&gw), [(0, 'w'), (0, 'r')], "a payload-free RPC");

        let keys = keys(24);
        let routed = routed(&gw, &keys);
        assert!(gw.probe_all(&keys).iter().all(Option::is_some));
        let wave = calls(&gw);
        let (writes, reads) = wave.split_at(routed.len());
        let mut written: Vec<NodeRef> = writes.iter().map(|&(n, _)| n).collect();
        written.sort_unstable();
        assert_eq!(written, routed, "one write to each daemon of the wave");
        assert!(writes.iter().all(|&(_, call)| call == 'w'), "{wave:?}");
        assert_eq!(reads.len(), routed.len(), "{wave:?}");
        assert!(reads.iter().all(|&(_, call)| call == 'r'), "{wave:?}");

        let row = vec![9u8; 1024];
        let name = ObjectName::block("f", 0, 0);
        let payload = Some(row_payload(&row));
        gw.store_block(0, name.key(), name.clone(), ByteSize::kb(1), payload)
            .unwrap();
        calls(&gw);
        let (mut head, mut tail) = ([0u8; 12], Vec::new());
        assert_eq!(gw.fetch_block_into(0, &name, &mut head, &mut tail), Ok(()));
        assert_eq!(tail, row);
        assert_eq!(calls(&gw), [(0, 'w'), (0, 'r')], "a 1 KiB row fetched");
    }
}
