//! Regeneration executors: the byte-level end of a repair.
//!
//! The engine plans *when* and *where* blocks are rebuilt; the executor is the
//! piece that actually reconstructs their payloads, by pulling the surviving
//! codec blocks of a chunk off live nodes and running them through the
//! matching [`ErasureCode::reencode`] entry point (XOR, online or
//! Reed–Solomon), then re-placing them through the overlay placement path
//! ([`RegenerationExecutor::repair_chunk`]).  Large-scale sweeps run
//! placement-only (sizes, no bytes); byte-carrying deployments — the
//! examples, the integration tests, a real deployment — use this to produce
//! and place the replacement payloads.

use peerstripe_core::client::{pack_payload, unpack_payload};
use peerstripe_core::{BlockPlacement, ChunkPlacement, CodingPolicy, ObjectName, StorageBackend};
use peerstripe_erasure::{DecodeError, EncodedBlock, ErasureCode};
use peerstripe_overlay::NodeRef;
use peerstripe_placement::{OverlayRandom, PlacementStrategy, RepairRequest, Topology};
use peerstripe_sim::{ByteSize, DetRng};

/// Rebuilds lost block payloads through a coding policy's codec.
pub struct RegenerationExecutor {
    codec: Box<dyn ErasureCode>,
    /// The policy's tolerable losses per chunk — the per-domain block cap for
    /// domain-aware re-placement.  Taken from the policy, not from a chunk's
    /// current block list: that list retains dead entries and grows with
    /// every repair, so deriving the cap from it would inflate it.
    tolerable: usize,
}

impl RegenerationExecutor {
    /// Build the executor for a coding policy, dividing each chunk into
    /// `source_blocks` codec blocks (must match the deployment's
    /// `data_path_blocks` so indices line up; Reed–Solomon codes at the
    /// policy's native geometry whatever it says).
    pub fn new(policy: &CodingPolicy, source_blocks: usize) -> Self {
        RegenerationExecutor {
            codec: policy.codec(source_blocks),
            tolerable: policy.tolerable_losses(),
        }
    }

    /// The codec this executor re-encodes through.
    pub fn codec(&self) -> &dyn ErasureCode {
        self.codec.as_ref()
    }

    /// Gather the codec blocks of `chunk` that live nodes still serve.
    ///
    /// Generic over [`StorageBackend`], so the same regeneration code pulls
    /// survivors from the in-process simulator or live TCP daemons.
    pub fn surviving_blocks<B: StorageBackend>(
        &self,
        backend: &B,
        chunk: &ChunkPlacement,
    ) -> Vec<EncodedBlock> {
        let mut blocks = Vec::new();
        for placement in &chunk.blocks {
            if let Some(object) = backend.fetch_block(placement.node, &placement.name) {
                if let Some(payload) = &object.payload {
                    blocks.extend(unpack_payload(payload).into_iter().map(EncodedBlock::from));
                }
            }
        }
        blocks
    }

    /// Rebuild every codec block of `chunk` that no live node currently holds,
    /// returning them packed as one replacement block-object payload (the
    /// format [`pack_payload`] defines) — for Reed–Solomon, which codes one
    /// row per placed block, a single lost placement is exactly one row and
    /// the replacement is that block again — or the decode error when the
    /// survivors are insufficient — including `NotEnoughBlocks` when every
    /// holder is gone.  `Ok(None)` means nothing is missing, or the deployment
    /// is placement-only (live holders exist but carry no payloads).
    pub fn rebuild_missing<B: StorageBackend>(
        &self,
        backend: &B,
        chunk: &ChunkPlacement,
    ) -> Result<Option<Vec<u8>>, DecodeError> {
        let mut any_object = false;
        for placement in &chunk.blocks {
            if backend
                .fetch_block(placement.node, &placement.name)
                .is_some()
            {
                any_object = true;
                break;
            }
        }
        let surviving = self.surviving_blocks(backend, chunk);
        if surviving.is_empty() {
            // Distinguish "placement-only deployment" (objects reachable but
            // size-only) from "every holder is dead": the latter is a loss the
            // caller must see, not a silent no-op.
            return if any_object {
                Ok(None)
            } else {
                Err(DecodeError::NotEnoughBlocks {
                    have: 0,
                    need: self.codec.min_decode_blocks(),
                })
            };
        }
        let present: std::collections::BTreeSet<u32> = surviving.iter().map(|b| b.index).collect();
        let missing: Vec<u32> = (0..self.codec.encoded_blocks() as u32)
            .filter(|i| !present.contains(i))
            .collect();
        if missing.is_empty() {
            return Ok(None);
        }
        let rebuilt = self
            .codec
            .reencode(&surviving, chunk.size.as_u64() as usize, &missing)?;
        Ok(Some(pack_payload(&rebuilt)))
    }

    /// Full byte-level repair of one chunk through the default placement
    /// (oblivious [`OverlayRandom`], no topology).  See
    /// [`RegenerationExecutor::repair_chunk_with`].
    pub fn repair_chunk<B: StorageBackend>(
        &self,
        backend: &mut B,
        chunk: &mut ChunkPlacement,
    ) -> Result<Option<BlockPlacement>, DecodeError> {
        let mut strategy = OverlayRandom::new();
        self.repair_chunk_with(backend, chunk, &mut strategy, None)
    }

    /// Full byte-level repair of one chunk: rebuild the missing codec blocks
    /// from live survivors and re-place them as a fresh block object through
    /// the given placement strategy.  The target never collocates with a live
    /// block of the same chunk, and with a topology the strategy also skips
    /// domains already at the chunk's block cap.  Updates `chunk` with the
    /// new placement and returns it; `Ok(None)` means nothing needed
    /// rebuilding (or the deployment is placement-only, or no eligible target
    /// exists right now — the caller retries later).
    pub fn repair_chunk_with<B: StorageBackend>(
        &self,
        backend: &mut B,
        chunk: &mut ChunkPlacement,
        strategy: &mut dyn PlacementStrategy,
        topology: Option<&Topology>,
    ) -> Result<Option<BlockPlacement>, DecodeError> {
        let Some(payload) = self.rebuild_missing(backend, chunk)? else {
            return Ok(None);
        };
        // Name the replacement with a fresh ECB number, as Section 4.4's
        // "functionally equal" recreated block.
        let (file, chunk_no) = chunk
            .blocks
            .iter()
            .find_map(|b| match &b.name {
                ObjectName::Block { file, chunk, .. } => Some((file.clone(), *chunk)),
                ObjectName::Chunk { file, chunk } => Some((file.clone(), *chunk)),
                _ => None,
            })
            .expect("a chunk with rebuilt blocks has at least one named block"); // lint:allow(panic) -- rebuilt blocks exist only for chunks with named blocks
        let next_ecb = chunk
            .blocks
            .iter()
            .map(|b| match &b.name {
                ObjectName::Block { ecb, .. } => *ecb + 1,
                _ => 1,
            })
            .max()
            .unwrap_or(0);
        let name = ObjectName::block(file, chunk_no, next_ecb);
        let size = ByteSize::bytes(payload.len() as u64);
        let key = name.key();
        // A rebuilt block must never land on a node already holding a live
        // block of its chunk — that would silently shrink the chunk's failure
        // tolerance.
        let holders: Vec<NodeRef> = chunk
            .blocks
            .iter()
            .map(|b| b.node)
            .filter(|&n| backend.is_alive(n))
            .collect();
        let domain_cap = if topology.is_some() {
            self.tolerable.max(1)
        } else {
            usize::MAX
        };
        let request = RepairRequest {
            want: 1,
            size,
            holders: &holders,
            domain_cap,
        };
        let mut rng = DetRng::new(key.seed());
        let Some(node) = strategy
            .repair_targets(&*backend, topology, &request, &mut rng)
            .into_iter()
            .next()
        else {
            // No eligible live node with space right now; the caller retries.
            return Ok(None);
        };
        if backend
            .store_block(node, key, name.clone(), size, Some(payload))
            .is_err()
        {
            return Ok(None);
        }
        let placement = BlockPlacement {
            name,
            node,
            size,
            domain: topology.and_then(|t| t.domain_of(node)),
        };
        chunk.blocks.push(placement.clone());
        Ok(Some(placement))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peerstripe_core::{ClusterConfig, PeerStripe, PeerStripeConfig, StorageSystem};
    use peerstripe_sim::{ByteSize, DetRng};
    use peerstripe_trace::CapacityModel;

    fn byte_deployment(policy: CodingPolicy, seed: u64) -> (PeerStripe, Vec<u8>) {
        let mut rng = DetRng::new(seed);
        let cluster = ClusterConfig {
            nodes: 40,
            capacity: CapacityModel::Fixed(ByteSize::mb(200)),
            report_fraction: 1.0,
            track_objects: true,
        }
        .build(&mut rng);
        let mut ps = PeerStripe::new(cluster, PeerStripeConfig::default().with_coding(policy));
        let data: Vec<u8> = (0..300_000).map(|_| rng.next_u32() as u8).collect();
        assert!(ps.store_data("volume", &data).is_stored());
        (ps, data)
    }

    #[test]
    fn rebuilds_lost_blocks_for_every_codec() {
        for (policy, seed) in [
            (CodingPolicy::xor_2_3(), 1u64),
            (CodingPolicy::online_default(), 2),
            (CodingPolicy::rs_default(), 3),
        ] {
            let (mut ps, data) = byte_deployment(policy, seed);
            let executor = RegenerationExecutor::new(&policy, ps.config().data_path_blocks);
            // Fail a node holding a block of the first chunk.
            let victim = ps.manifest("volume").unwrap().chunks[0].blocks[0].node;
            ps.cluster_mut().fail_node(victim);
            let chunk = ps.manifest("volume").unwrap().chunks[0].clone();
            let payload = executor
                .rebuild_missing(ps.cluster(), &chunk)
                .unwrap_or_else(|e| panic!("{}: rebuild failed: {e}", executor.codec().name()))
                .expect("blocks were missing");
            // The rebuilt payload plus the survivors decode the chunk exactly.
            let mut blocks = executor.surviving_blocks(ps.cluster(), &chunk);
            blocks.extend(unpack_payload(&payload).into_iter().map(EncodedBlock::from));
            let decoded = executor
                .codec()
                .decode(&blocks, chunk.size.as_u64() as usize)
                .unwrap();
            let lo = 0usize;
            let hi = chunk.size.as_u64() as usize;
            assert_eq!(
                decoded[..],
                data[lo..hi],
                "{} chunk differs",
                policy.label()
            );
        }
    }

    #[test]
    fn nothing_missing_means_no_work() {
        let policy = CodingPolicy::rs_default();
        let (ps, _) = byte_deployment(policy, 4);
        let executor = RegenerationExecutor::new(&policy, ps.config().data_path_blocks);
        let chunk = ps.manifest("volume").unwrap().chunks[0].clone();
        assert!(executor
            .rebuild_missing(ps.cluster(), &chunk)
            .unwrap()
            .is_none());
    }

    #[test]
    fn placement_only_deployments_have_nothing_to_rebuild() {
        let mut rng = DetRng::new(5);
        let cluster = ClusterConfig {
            nodes: 30,
            capacity: CapacityModel::Fixed(ByteSize::gb(1)),
            report_fraction: 1.0,
            track_objects: true,
        }
        .build(&mut rng);
        let policy = CodingPolicy::xor_2_3();
        let mut ps = PeerStripe::new(cluster, PeerStripeConfig::default().with_coding(policy));
        assert!(ps
            .store_file(&peerstripe_trace::FileRecord::new("f", ByteSize::mb(100)))
            .is_stored());
        let executor = RegenerationExecutor::new(&policy, ps.config().data_path_blocks);
        let chunk = ps.manifest("f").unwrap().chunks[0].clone();
        assert!(executor
            .rebuild_missing(ps.cluster(), &chunk)
            .unwrap()
            .is_none());
    }

    #[test]
    fn repair_chunk_replaces_lost_blocks_through_the_placement_path() {
        let policy = CodingPolicy::xor_2_3();
        let (mut ps, data) = byte_deployment(policy, 7);
        let executor = RegenerationExecutor::new(&policy, ps.config().data_path_blocks);
        let mut chunk = ps.manifest("volume").unwrap().chunks[0].clone();
        let victim = chunk.blocks[0].node;
        ps.cluster_mut().fail_node(victim);
        let blocks_before = chunk.blocks.len();
        let placement = executor
            .repair_chunk(ps.cluster_mut(), &mut chunk)
            .unwrap()
            .expect("a block was missing and must be re-placed");
        // The replacement landed on a live node, is really stored there, and
        // carries a fresh ECB number.
        assert!(ps.cluster().overlay().is_alive(placement.node));
        assert!(ps.cluster().holds(placement.node, &placement.name));
        assert_eq!(chunk.blocks.len(), blocks_before + 1);
        // The chunk decodes bit-for-bit from its updated placement alone.
        let blocks = executor.surviving_blocks(ps.cluster(), &chunk);
        let decoded = executor
            .codec()
            .decode(&blocks, chunk.size.as_u64() as usize)
            .unwrap();
        assert_eq!(decoded[..], data[..chunk.size.as_u64() as usize]);
        // Running it again finds nothing missing.
        assert!(executor
            .repair_chunk(ps.cluster_mut(), &mut chunk)
            .unwrap()
            .is_none());
    }

    #[test]
    fn losing_every_holder_is_an_error_not_a_no_op() {
        let policy = CodingPolicy::xor_2_3();
        let (mut ps, _) = byte_deployment(policy, 8);
        let executor = RegenerationExecutor::new(&policy, ps.config().data_path_blocks);
        let chunk = ps.manifest("volume").unwrap().chunks[0].clone();
        let mut victims: Vec<_> = chunk.blocks.iter().map(|b| b.node).collect();
        victims.sort_unstable();
        victims.dedup();
        for v in victims {
            ps.cluster_mut().fail_node(v);
        }
        assert!(matches!(
            executor.rebuild_missing(ps.cluster(), &chunk),
            Err(DecodeError::NotEnoughBlocks { have: 0, .. })
        ));
    }

    #[test]
    fn insufficient_survivors_surface_the_decode_error() {
        let policy = CodingPolicy::rs_default();
        let (mut ps, _) = byte_deployment(policy, 6);
        let executor = RegenerationExecutor::new(&policy, ps.config().data_path_blocks);
        let chunk = ps.manifest("volume").unwrap().chunks[0].clone();
        // Kill more distinct holders than the code tolerates.
        let mut victims: Vec<_> = chunk.blocks.iter().map(|b| b.node).collect();
        victims.sort_unstable();
        victims.dedup();
        victims.truncate(3);
        assert_eq!(victims.len(), 3, "need three distinct holders");
        for v in victims {
            ps.cluster_mut().fail_node(v);
        }
        assert!(executor.rebuild_missing(ps.cluster(), &chunk).is_err());
    }
}
