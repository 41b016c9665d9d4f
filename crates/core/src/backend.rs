//! The backend seam: the narrow storage interface the [`PeerStripe`] client
//! drives.
//!
//! Everything the store / retrieve / recover paths need from the world is
//! captured here: capacity probes (via [`ProbeView`]), block placement and
//! retrieval, rollback, and ring-neighbour selection for CAT replication.
//! [`StorageCluster`] implements it in-process (the simulator, the default
//! backend), and `peerstripe-net`'s gateway implements it against live
//! `peerstripe-node` daemons over TCP — so the placement, erasure, and repair
//! stacks run unchanged against real processes.
//!
//! A block is fetched one of two ways.  [`StorageBackend::fetch_block`]
//! returns the object by value, payload shared; every backend implements it,
//! and wrappers that count or time fetches see each one there.
//! [`StorageBackend::fetch_block_into`] is the read path's verb: the payload
//! goes into buffers the caller owns, so a fetched row is written once, where
//! the read's result holds it.  It is provided — `fetch_block` and a copy —
//! and only a backend that can do better (the gateway reads the reply off the
//! socket into the caller's buffer) overrides it.
//!
//! A block is stored the same two ways.  [`StorageBackend::store_block`]
//! takes the payload by value; every backend implements it, and a backend
//! that keeps the bytes it is handed (the simulator) keeps that buffer.
//! [`StorageBackend::store_block_from`] is the byte path's verb: the payload
//! is borrowed as parts written one after the other — a systematic row goes
//! as its header, the row where the caller's data holds it, and a few bytes
//! of zero padding — so a store need not first copy a row into a payload of
//! its own.  It is provided — the parts concatenated, then `store_block` —
//! and only a backend that sends the bytes on (the gateway writes the frame
//! from the parts in one vectored write) overrides it.
//!
//! [`PeerStripe`]: crate::client::PeerStripe

use crate::cluster::{ClusterStoreError, StorageCluster};
use crate::naming::ObjectName;
use peerstripe_overlay::{Id, NodeRef};
use peerstripe_placement::{ProbeView, Topology};
use peerstripe_sim::ByteSize;
use std::sync::Arc;

/// An object fetched from a backend, returned by value.
///
/// The simulator hands out `&StoredObject` internally, but a networked
/// backend receives bytes off the wire and cannot lend references into a
/// node's store — so the seam returns owned data.  The payload is shared,
/// so the sim impl's clone is a reference count, never a byte copy.
#[derive(Debug, Clone)]
pub struct FetchedBlock {
    /// The object's recorded size.
    pub size: ByteSize,
    /// The object's payload bytes, when the byte path stored any.
    pub payload: Option<Arc<Vec<u8>>>,
}

/// Why [`StorageBackend::fetch_block_into`] landed nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchMiss {
    /// No object came back: the holder is dead or unreachable, or does not
    /// hold it.
    Absent,
    /// The holder has the object, stored as a size with no bytes (the
    /// placement path).
    SizeOnly,
    /// The object's payload is shorter than the `head` asked for.
    Short,
}

/// The storage operations a [`PeerStripe`] client drives against its backend.
///
/// Supertrait [`ProbeView`] (and its supertrait `ClusterView`) supplies the
/// paper's `getCapacity` probe plus routing/liveness queries; this trait adds
/// the data-plane verbs.
///
/// [`PeerStripe`]: crate::client::PeerStripe
pub trait StorageBackend: ProbeView {
    /// Route a key to the node currently responsible for it, charging one
    /// overlay lookup message (the simulator's accounting; networked backends
    /// route against their membership ring).
    fn route_lookup(&mut self, key: Id) -> Option<NodeRef>;

    /// Store an object on an explicit node under `key`.
    fn store_block(
        &mut self,
        node: NodeRef,
        key: Id,
        name: ObjectName,
        size: ByteSize,
        payload: Option<Vec<u8>>,
    ) -> Result<NodeRef, ClusterStoreError>;

    /// Store an object whose payload is `parts`, concatenated, on an explicit
    /// node under `key`: the same object [`StorageBackend::store_block`]
    /// stores with that payload.
    ///
    /// The provided body concatenates the parts into one buffer and calls
    /// `store_block`; a backend that writes the bytes somewhere itself (a
    /// socket) overrides it to write them from the parts.
    fn store_block_from(
        &mut self,
        node: NodeRef,
        key: Id,
        name: &ObjectName,
        size: ByteSize,
        parts: &[&[u8]],
    ) -> Result<NodeRef, ClusterStoreError> {
        let payload = parts.concat();
        self.store_block(node, key, name.clone(), size, Some(payload))
    }

    /// Fetch an object from a specific node, by value.
    fn fetch_block(&self, node: NodeRef, name: &ObjectName) -> Option<FetchedBlock>;

    /// Fetch an object's payload into buffers the caller owns: its first
    /// `head.len()` bytes into `head`, the rest appended to `tail` — a read
    /// hands in the record header's length and its result, so a row lands
    /// where the caller reads it.  On a miss `tail` keeps its length.
    ///
    /// The provided body is [`StorageBackend::fetch_block`] and a copy; a
    /// backend that receives the bytes itself (a socket) overrides it to put
    /// them in `tail`'s spare capacity directly.
    fn fetch_block_into(
        &self,
        node: NodeRef,
        name: &ObjectName,
        head: &mut [u8],
        tail: &mut Vec<u8>,
    ) -> Result<(), FetchMiss> {
        let block = self.fetch_block(node, name).ok_or(FetchMiss::Absent)?;
        let payload = block.payload.ok_or(FetchMiss::SizeOnly)?;
        let (first, rest) = payload
            .split_at_checked(head.len())
            .ok_or(FetchMiss::Short)?;
        head.copy_from_slice(first);
        tail.extend_from_slice(rest);
        Ok(())
    }

    /// Undo a store: remove the object if the node tracks it, otherwise
    /// release its reserved space.
    fn rollback_block(&mut self, node: NodeRef, name: &ObjectName, size: ByteSize);

    /// The `k` ring members numerically closest to `key` (leaf-set targets
    /// for CAT replication).  No lookup message is charged.
    fn replica_targets(&self, key: Id, k: usize) -> Vec<(Id, NodeRef)>;

    /// Told once, by the client that will place blocks with it, which
    /// failure-domain topology decisions are made under.  A backend that can
    /// answer per-domain questions faster knowing it (the simulator indexes
    /// its nodes by domain) prepares here; the default does nothing.
    fn adopt_topology(&mut self, _topology: &Topology) {}
}

impl StorageBackend for StorageCluster {
    fn route_lookup(&mut self, key: Id) -> Option<NodeRef> {
        self.route(key)
    }

    fn store_block(
        &mut self,
        node: NodeRef,
        key: Id,
        name: ObjectName,
        size: ByteSize,
        payload: Option<Vec<u8>>,
    ) -> Result<NodeRef, ClusterStoreError> {
        self.store_object_at(node, key, name, size, payload)
    }

    fn fetch_block(&self, node: NodeRef, name: &ObjectName) -> Option<FetchedBlock> {
        self.fetch_from(node, name).map(|obj| FetchedBlock {
            size: obj.size,
            payload: obj.payload.clone(),
        })
    }

    fn rollback_block(&mut self, node: NodeRef, name: &ObjectName, size: ByteSize) {
        self.rollback_object(node, name, size);
    }

    fn replica_targets(&self, key: Id, k: usize) -> Vec<(Id, NodeRef)> {
        self.overlay().ring().k_closest(key, k)
    }

    fn adopt_topology(&mut self, topology: &Topology) {
        StorageCluster::adopt_topology(self, topology);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use peerstripe_sim::DetRng;
    use peerstripe_trace::CapacityModel;

    fn cluster() -> StorageCluster {
        let mut rng = DetRng::new(3);
        ClusterConfig {
            nodes: 30,
            capacity: CapacityModel::Fixed(ByteSize::mb(100)),
            track_objects: true,
        }
        .build(&mut rng)
    }

    #[test]
    fn sim_backend_round_trips_through_the_seam() {
        let mut backend = cluster();
        let name = ObjectName::block("f", 0, 1);
        let node = backend.route_lookup(name.key()).unwrap();
        backend
            .store_block(
                node,
                name.key(),
                name.clone(),
                ByteSize::mb(1),
                Some(vec![7, 8, 9]),
            )
            .unwrap();
        let fetched = backend.fetch_block(node, &name).unwrap();
        assert_eq!(fetched.size, ByteSize::mb(1));
        assert_eq!(fetched.payload.as_deref(), Some(&vec![7u8, 8, 9]));
        backend.rollback_block(node, &name, ByteSize::mb(1));
        assert!(backend.fetch_block(node, &name).is_none());
    }

    #[test]
    fn store_block_from_stores_the_parts_concatenated() {
        let mut backend = cluster();
        let size = ByteSize::kb(1);
        for (ecb, parts) in [
            (1, &[&[1u8, 2][..], &[], &[3, 4, 5]][..]),
            (2, &[&[6u8, 7, 8][..]][..]),
            (3, &[][..]),
        ] {
            let name = ObjectName::block("f", 0, ecb);
            let node = backend.route_lookup(name.key()).unwrap();
            let stored = backend.store_block_from(node, name.key(), &name, size, parts);
            assert_eq!(stored.unwrap(), node);
            let fetched = backend.fetch_block(node, &name).unwrap();
            assert_eq!(fetched.size, size);
            assert_eq!(fetched.payload.as_deref(), Some(&parts.concat()));
        }
    }

    #[test]
    fn fetch_block_into_splits_the_payload_and_types_its_misses() {
        let mut backend = cluster();
        let name = ObjectName::block("f", 0, 1);
        let sized = ObjectName::block("f", 0, 2);
        let node = backend.route_lookup(name.key()).unwrap();
        let size = ByteSize::kb(1);
        let payload = Some(vec![1, 2, 3, 4, 5]);
        let stored = backend.store_block(node, name.key(), name.clone(), size, payload);
        stored.unwrap();
        let stored = backend.store_block(node, sized.key(), sized.clone(), size, None);
        stored.unwrap();

        let mut tail = vec![9u8];
        let mut head = [0u8; 2];
        assert_eq!(
            backend.fetch_block_into(node, &name, &mut head, &mut tail),
            Ok(())
        );
        assert_eq!((head, &tail[..]), ([1, 2], &[9u8, 3, 4, 5][..]));
        // Every miss leaves `tail` as it was.
        let missing = ObjectName::block("f", 0, 3);
        for (object, head_len, miss) in [
            (&missing, 2, FetchMiss::Absent),
            (&sized, 2, FetchMiss::SizeOnly),
            (&name, 6, FetchMiss::Short),
        ] {
            let mut head = vec![0u8; head_len];
            let fetched = backend.fetch_block_into(node, object, &mut head, &mut tail);
            assert_eq!(fetched, Err(miss));
            assert_eq!(tail, [9, 3, 4, 5]);
        }
    }

    #[test]
    fn replica_targets_are_distinct_ring_members() {
        let backend = cluster();
        let targets = backend.replica_targets(Id::hash("cat"), 3);
        assert_eq!(targets.len(), 3);
        let nodes: std::collections::BTreeSet<_> = targets.iter().map(|(_, n)| *n).collect();
        assert_eq!(nodes.len(), 3);
    }
}
