//! Per-node contributed storage.
//!
//! Every overlay participant contributes disk space.  [`StorageNode`] tracks the
//! contributed capacity, the space in use, and (optionally) the objects stored,
//! and implements the node-local policies the paper describes:
//!
//! * a `getCapacity` reply reports the node's free space (Section 4.3);
//! * the space is *not reserved* by a reply; a later store can still fail if
//!   the space was consumed in the meantime.

use peerstripe_overlay::Id;
use peerstripe_sim::ByteSize;
use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::Arc;

/// An object stored on a node, under its key: no name, which the key
/// already stands for, so a node's table holds 16 bytes a value.
#[derive(Debug, Clone)]
pub struct StoredObject {
    /// Size charged against the node's capacity.
    pub size: ByteSize,
    /// Optional real payload (only the byte-level data path fills this in),
    /// shared so a read hands out the stored bytes without copying them.
    pub payload: Option<Arc<Vec<u8>>>,
}

/// Why a node refused to store an object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeStoreError {
    /// The node does not have enough free space.
    InsufficientSpace,
    /// An object with the same key is already stored.
    AlreadyStored,
}

impl std::fmt::Display for NodeStoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeStoreError::InsufficientSpace => {
                write!(f, "insufficient free space on the target node")
            }
            NodeStoreError::AlreadyStored => {
                write!(f, "an object with the same key is already stored")
            }
        }
    }
}

impl std::error::Error for NodeStoreError {}

/// Storage state of one contributory node.
#[derive(Debug, Clone)]
pub struct StorageNode {
    capacity: ByteSize,
    used: ByteSize,
    objects: BTreeMap<Id, StoredObject>,
    track_objects: bool,
    object_count: u64,
}

impl StorageNode {
    /// Create a node contributing `capacity` bytes.
    ///
    /// `track_objects` enables per-object bookkeeping (needed for availability
    /// and recovery experiments; disabled for the very large store-throughput
    /// sweeps to bound memory).
    pub fn new(capacity: ByteSize, track_objects: bool) -> Self {
        StorageNode {
            capacity,
            used: ByteSize::ZERO,
            objects: BTreeMap::new(),
            track_objects,
            object_count: 0,
        }
    }

    /// Contributed capacity.
    pub fn capacity(&self) -> ByteSize {
        self.capacity
    }

    /// Bytes currently in use.
    pub fn used(&self) -> ByteSize {
        self.used
    }

    /// Free space remaining: also the reply to a `getCapacity` probe, the
    /// largest block this node accepts right now.  The space is *not*
    /// reserved.
    pub fn free(&self) -> ByteSize {
        self.capacity.saturating_sub(self.used)
    }

    /// Number of objects stored (counted even when object tracking is off).
    pub fn object_count(&self) -> u64 {
        self.object_count
    }

    /// True if an object of the given size fits right now.
    pub fn can_store(&self, size: ByteSize) -> bool {
        size <= self.free()
    }

    /// Store an object under the given key.
    pub fn store(&mut self, key: Id, object: StoredObject) -> Result<(), NodeStoreError> {
        let size = object.size;
        if !self.can_store(size) {
            return Err(NodeStoreError::InsufficientSpace);
        }
        if self.track_objects {
            let Entry::Vacant(slot) = self.objects.entry(key) else {
                return Err(NodeStoreError::AlreadyStored);
            };
            slot.insert(object);
        }
        self.used += size;
        self.object_count += 1;
        Ok(())
    }

    /// Remove an object, returning its size (only possible with object tracking).
    pub fn remove(&mut self, key: Id) -> Option<ByteSize> {
        let obj = self.objects.remove(&key)?;
        self.used -= obj.size;
        self.object_count = self.object_count.saturating_sub(1);
        Some(obj.size)
    }

    /// Release `size` bytes without identifying the object — the rollback path
    /// used when per-object tracking is disabled.
    pub fn release(&mut self, size: ByteSize) {
        self.used -= size;
        self.object_count = self.object_count.saturating_sub(1);
    }

    /// Charge `size` bytes without storing an identified object — the
    /// counterpart of [`StorageNode::release`], used by placement-only
    /// maintenance accounting (regenerated blocks tracked in a ledger rather
    /// than as node objects).  Fails like a store when the space is not there.
    pub fn reserve(&mut self, size: ByteSize) -> Result<(), NodeStoreError> {
        if !self.can_store(size) {
            return Err(NodeStoreError::InsufficientSpace);
        }
        self.used += size;
        self.object_count += 1;
        Ok(())
    }

    /// Access a stored object (requires object tracking).
    pub fn get(&self, key: Id) -> Option<&StoredObject> {
        self.objects.get(&key)
    }

    /// Drop every stored object (a failed node's disk contents are gone); the
    /// capacity itself is retained so the node could rejoin empty.
    pub fn wipe(&mut self) {
        self.objects.clear();
        self.used = ByteSize::ZERO;
        self.object_count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naming::ObjectName;

    fn obj(size: ByteSize) -> StoredObject {
        StoredObject {
            size,
            payload: None,
        }
    }

    #[test]
    fn store_and_accounting() {
        let mut node = StorageNode::new(ByteSize::gb(10), true);
        assert_eq!(node.free(), ByteSize::gb(10));
        node.store(Id(1), obj(ByteSize::gb(4))).unwrap();
        assert_eq!(node.used(), ByteSize::gb(4));
        assert_eq!(node.free(), ByteSize::gb(6));
        assert_eq!(node.object_count(), 1);
        assert!(node.get(Id(1)).is_some());
        assert!(node.get(Id(2)).is_none());
    }

    #[test]
    fn rejects_oversized_and_duplicate_stores() {
        let mut node = StorageNode::new(ByteSize::gb(1), true);
        assert_eq!(
            node.store(Id(1), obj(ByteSize::gb(2))),
            Err(NodeStoreError::InsufficientSpace)
        );
        node.store(Id(1), obj(ByteSize::mb(100))).unwrap();
        assert_eq!(
            node.store(Id(1), obj(ByteSize::mb(100))),
            Err(NodeStoreError::AlreadyStored)
        );
    }

    #[test]
    fn store_errors_propagate_with_question_mark() {
        // `?`-propagation through a boxed error: the point of the Error impl.
        fn try_store(node: &mut StorageNode) -> Result<(), Box<dyn std::error::Error>> {
            node.store(Id(1), obj(ByteSize::gb(2)))?;
            Ok(())
        }
        let mut node = StorageNode::new(ByteSize::gb(1), true);
        let err = try_store(&mut node).unwrap_err();
        assert!(err.to_string().contains("insufficient free space"));
        assert_eq!(
            NodeStoreError::AlreadyStored.to_string(),
            "an object with the same key is already stored"
        );
    }

    #[test]
    fn reserve_charges_space_without_an_object() {
        let mut node = StorageNode::new(ByteSize::gb(1), true);
        node.reserve(ByteSize::mb(600)).unwrap();
        assert_eq!(node.used(), ByteSize::mb(600));
        assert_eq!(node.object_count(), 1);
        assert_eq!(
            node.reserve(ByteSize::mb(600)),
            Err(NodeStoreError::InsufficientSpace)
        );
        node.release(ByteSize::mb(600));
        assert_eq!(node.used(), ByteSize::ZERO);
    }

    #[test]
    fn remove_frees_space() {
        let mut node = StorageNode::new(ByteSize::gb(1), true);
        node.store(Id(7), obj(ByteSize::mb(300))).unwrap();
        assert_eq!(node.remove(Id(7)), Some(ByteSize::mb(300)));
        assert_eq!(node.used(), ByteSize::ZERO);
        assert_eq!(node.remove(Id(7)), None);
        assert_eq!(node.object_count(), 0);
    }

    #[test]
    fn a_probe_answers_free_space_and_is_not_a_reservation() {
        let mut cluster = crate::ClusterConfig {
            nodes: 1,
            capacity: peerstripe_trace::CapacityModel::Fixed(ByteSize::gb(10)),
            track_objects: true,
        }
        .build(&mut peerstripe_sim::DetRng::new(1));
        let (node, report) = cluster.get_capacity(Id(1)).unwrap();
        assert_eq!(report, ByteSize::gb(10));
        // A report does not reserve: a store can still consume the space, and
        // the next probe answers what is left.
        cluster
            .store_object(&ObjectName::chunk("a", 0), ByteSize::gb(9), None)
            .unwrap();
        assert_eq!(cluster.get_capacity(Id(1)), Some((node, ByteSize::gb(1))));
    }

    #[test]
    fn untracked_mode_only_counts_bytes() {
        let mut node = StorageNode::new(ByteSize::gb(1), false);
        node.store(Id(1), obj(ByteSize::mb(100))).unwrap();
        node.store(Id(1), obj(ByteSize::mb(100))).unwrap();
        assert_eq!(node.used(), ByteSize::mb(200));
        assert_eq!(node.object_count(), 2);
        assert!(node.get(Id(1)).is_none(), "objects are not tracked");
        assert_eq!(node.remove(Id(1)), None);
    }

    #[test]
    fn wipe_clears_everything() {
        let mut node = StorageNode::new(ByteSize::gb(1), true);
        node.store(Id(1), obj(ByteSize::mb(100))).unwrap();
        node.store(Id(2), obj(ByteSize::mb(200))).unwrap();
        node.wipe();
        assert_eq!(node.used(), ByteSize::ZERO);
        assert_eq!(node.object_count(), 0);
        assert!(node.get(Id(1)).is_none());
        assert_eq!(node.capacity(), ByteSize::gb(1));
    }

    #[test]
    fn payloads_are_preserved() {
        let mut node = StorageNode::new(ByteSize::gb(1), true);
        let stored = StoredObject {
            size: ByteSize::bytes(4),
            payload: Some(Arc::new(vec![1, 2, 3, 4])),
        };
        node.store(Id(9), stored).unwrap();
        assert_eq!(
            node.get(Id(9)).unwrap().payload.as_deref(),
            Some(&vec![1u8, 2, 3, 4])
        );
    }
}
