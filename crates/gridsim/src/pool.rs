//! A Condor-like desktop-grid pool and the I/O interposition shim.
//!
//! The case study of Section 6.4 interfaces PeerStripe with Condor: jobs run on
//! pool machines, and an LD_PRELOAD library interposes on `open`/`read`/`write`/
//! `close`, redirecting I/O to the distributed storage through a local lookup
//! module with a chunk-location cache (Section 5, Figure 6).  This module
//! provides the simulation equivalents:
//!
//! * [`CondorPool`] — the 32-machine pool with uniformly distributed contributed
//!   storage, a submit machine, and simple job execution;
//! * [`VfsClient`] — the interposition shim: per-call accounting, a location
//!   cache that avoids repeated p2p lookups, and redirection of reads/writes to
//!   a [`peerstripe_core::StorageSystem`].

use crate::network::NetworkModel;
use peerstripe_core::{ClusterConfig, StorageCluster, StorageSystem};
use peerstripe_sim::{ByteSize, DetRng};
use peerstripe_trace::CapacityModel;
use std::collections::BTreeMap;

/// Configuration of the simulated Condor pool.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Number of worker machines in the pool (the paper uses 32).
    pub machines: usize,
    /// Contributed-capacity distribution of the workers.
    pub contributed: CapacityModel,
    /// Free disk space on the submission machine (bounds the whole-file scheme).
    pub submit_machine_disk: ByteSize,
    /// Network/overhead model.
    pub network: NetworkModel,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            machines: 32,
            contributed: CapacityModel::paper_condor_pool(),
            submit_machine_disk: ByteSize::gb(12),
            network: NetworkModel::paper_condor(),
        }
    }
}

impl PoolConfig {
    /// The paper's 32-machine laboratory pool.
    pub fn paper() -> Self {
        Self::default()
    }

    /// Build the pool (deterministic in the seed).
    pub fn build(&self, seed: u64) -> CondorPool {
        let mut rng = DetRng::new(seed).fork("condor-pool");
        let cluster = ClusterConfig {
            nodes: self.machines,
            capacity: self.contributed,
            report_fraction: 1.0,
            track_objects: true,
        }
        .build(&mut rng);
        CondorPool {
            config: self.clone(),
            cluster: Some(cluster),
        }
    }
}

/// The simulated Condor pool.
#[derive(Debug)]
pub struct CondorPool {
    config: PoolConfig,
    cluster: Option<StorageCluster>,
}

impl CondorPool {
    /// The pool's configuration.
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    /// Borrow the contributed-storage cluster.
    #[expect(
        clippy::expect_used,
        reason = "cluster is Some until take_cluster; callers uphold the protocol"
    )]
    pub fn cluster(&self) -> &StorageCluster {
        self.cluster.as_ref().expect("cluster present until taken")
    }

    /// Take ownership of the cluster to hand it to a storage system.
    #[expect(
        clippy::expect_used,
        reason = "single handoff point; taking twice is a caller bug worth aborting on"
    )]
    pub fn take_cluster(&mut self) -> StorageCluster {
        self.cluster.take().expect("cluster already taken")
    }

    /// Aggregate contributed capacity of the pool.
    pub fn total_contributed(&self) -> ByteSize {
        self.cluster().total_capacity()
    }

    /// Free space on the submission machine (the whole-file scheme's limit).
    pub fn submit_machine_disk(&self) -> ByteSize {
        self.config.submit_machine_disk
    }

    /// Network model of the pool.
    pub fn network(&self) -> &NetworkModel {
        &self.config.network
    }
}

/// Accounting of the interposition library's activity during a job.
#[derive(Debug, Clone, Copy, Default)]
pub struct VfsStats {
    /// Interposed calls (open/read/write/close) observed.
    pub calls: u64,
    /// Location-cache hits.
    pub cache_hits: u64,
    /// Location-cache misses (each one costs a p2p lookup).
    pub cache_misses: u64,
    /// Bytes read through the shim.
    pub bytes_read: ByteSize,
    /// Bytes written through the shim.
    pub bytes_written: ByteSize,
}

/// The I/O interposition shim (the 259-line C library of Section 5, as a model).
///
/// It wraps a [`StorageSystem`]: `open` resolves and caches chunk locations,
/// `read`/`write` account transferred bytes and charge lookups on cache misses,
/// `close` clears the descriptor.  The shim does not move real bytes — the byte
/// path of `peerstripe_core::PeerStripe` does that — it produces the call/lookup
/// accounting the Table 4 time model consumes.
pub struct VfsClient<'a, S: StorageSystem> {
    system: &'a mut S,
    /// descriptor -> (file name, cached chunk-location knowledge)
    open_files: BTreeMap<u64, OpenFile>,
    next_fd: u64,
    stats: VfsStats,
}

#[derive(Debug, Clone)]
struct OpenFile {
    name: String,
    /// Chunk numbers whose location has been cached by a previous access.
    cached_chunks: std::collections::BTreeSet<u32>,
}

impl<'a, S: StorageSystem> VfsClient<'a, S> {
    /// Create a shim over a storage system.
    pub fn new(system: &'a mut S) -> Self {
        VfsClient {
            system,
            open_files: BTreeMap::new(),
            next_fd: 3, // 0-2 are stdin/stdout/stderr, as in the real library
            stats: VfsStats::default(),
        }
    }

    /// Accounting so far.
    pub fn stats(&self) -> VfsStats {
        self.stats
    }

    /// Interposed `open`: assigns a descriptor; returns `None` for unknown files
    /// (mirroring the original returning an error from the redirected open).
    pub fn open(&mut self, name: &str) -> Option<u64> {
        self.stats.calls += 1;
        self.system.manifest(name)?;
        let fd = self.next_fd;
        self.next_fd += 1;
        self.open_files.insert(
            fd,
            OpenFile {
                name: name.to_string(),
                cached_chunks: std::collections::BTreeSet::new(),
            },
        );
        Some(fd)
    }

    /// Interposed `read` of `len` bytes at `offset`; returns the number of bytes
    /// that the read can serve (clamped at end of file), or `None` for a bad fd.
    pub fn read(&mut self, fd: u64, offset: u64, len: u64) -> Option<u64> {
        self.stats.calls += 1;
        let file = self.open_files.get(&fd)?.clone();
        let manifest = self.system.manifest(&file.name)?;
        let size = manifest.size.as_u64();
        if offset >= size {
            return Some(0);
        }
        let served = len.min(size - offset);
        // Which chunks does the range touch?  A cache miss per uncached chunk.
        let mut touched = Vec::new();
        let mut start = 0u64;
        for chunk in &manifest.chunks {
            let end = start + chunk.size.as_u64();
            if chunk.size.as_u64() > 0 && end > offset && start < offset + served {
                touched.push(chunk.chunk);
            }
            start = end;
        }
        if let Some(open) = self.open_files.get_mut(&fd) {
            for chunk_no in touched {
                if open.cached_chunks.insert(chunk_no) {
                    self.stats.cache_misses += 1;
                } else {
                    self.stats.cache_hits += 1;
                }
            }
        }
        self.stats.bytes_read += ByteSize::bytes(served);
        Some(served)
    }

    /// Interposed `write`: accounts bytes written through the shim.
    pub fn write(&mut self, fd: u64, len: u64) -> Option<u64> {
        self.stats.calls += 1;
        if !self.open_files.contains_key(&fd) {
            return None;
        }
        self.stats.bytes_written += ByteSize::bytes(len);
        Some(len)
    }

    /// Interposed `close`: releases the descriptor so it can be reused.
    pub fn close(&mut self, fd: u64) -> bool {
        self.stats.calls += 1;
        self.open_files.remove(&fd).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peerstripe_core::{PeerStripe, PeerStripeConfig};
    use peerstripe_trace::FileRecord;

    fn pool_system(seed: u64) -> PeerStripe {
        let mut pool = PoolConfig::paper().build(seed);
        PeerStripe::new(pool.take_cluster(), PeerStripeConfig::default())
    }

    #[test]
    fn pool_matches_paper_parameters() {
        let pool = PoolConfig::paper().build(1);
        assert_eq!(pool.cluster().node_count(), 32);
        let total = pool.total_contributed();
        // 32 machines contributing U(2,15) GB: expect roughly 32 × 8.5 ≈ 272 GB.
        assert!(
            total > ByteSize::gb(150) && total < ByteSize::gb(400),
            "total {total}"
        );
        assert!(pool.submit_machine_disk() >= ByteSize::gb(8));
    }

    #[test]
    fn vfs_open_read_close_cycle() {
        let mut ps = pool_system(2);
        assert!(ps
            .store_file(&FileRecord::new("input.dat", ByteSize::gb(2)))
            .is_stored());
        let mut vfs = VfsClient::new(&mut ps);
        let fd = vfs.open("input.dat").unwrap();
        // Sequential reads within one chunk: first read misses, later ones hit.
        assert_eq!(vfs.read(fd, 0, 1024).unwrap(), 1024);
        assert_eq!(vfs.read(fd, 1024, 1024).unwrap(), 1024);
        let stats = vfs.stats();
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.bytes_read, ByteSize::kb(2));
        assert!(vfs.close(fd));
        assert!(!vfs.close(fd), "descriptor is cleared on close");
    }

    #[test]
    fn vfs_read_past_eof_returns_zero() {
        let mut ps = pool_system(3);
        assert!(ps
            .store_file(&FileRecord::new("f", ByteSize::mb(10)))
            .is_stored());
        let mut vfs = VfsClient::new(&mut ps);
        let fd = vfs.open("f").unwrap();
        assert_eq!(vfs.read(fd, ByteSize::mb(20).as_u64(), 100).unwrap(), 0);
        let served = vfs.read(fd, ByteSize::mb(10).as_u64() - 50, 1000).unwrap();
        assert_eq!(served, 50, "reads clamp at end of file");
    }

    #[test]
    fn vfs_rejects_unknown_files_and_descriptors() {
        let mut ps = pool_system(4);
        let mut vfs = VfsClient::new(&mut ps);
        assert!(vfs.open("missing").is_none());
        assert!(vfs.read(77, 0, 10).is_none());
        assert!(vfs.write(77, 10).is_none());
        assert!(!vfs.close(77));
    }

    #[test]
    fn cache_misses_track_distinct_chunks() {
        let mut ps = pool_system(5);
        assert!(ps
            .store_file(&FileRecord::new("multi", ByteSize::gb(20)))
            .is_stored());
        let chunk_count = ps
            .manifest("multi")
            .unwrap()
            .chunks
            .iter()
            .filter(|c| !c.size.is_zero())
            .count();
        assert!(
            chunk_count >= 2,
            "a 20 GB file must span several pool machines"
        );
        let mut vfs = VfsClient::new(&mut ps);
        let fd = vfs.open("multi").unwrap();
        // Read the whole file: one miss per chunk.
        let size = ByteSize::gb(20).as_u64();
        vfs.read(fd, 0, size).unwrap();
        assert_eq!(vfs.stats().cache_misses as usize, chunk_count);
        // Reading again hits the cache for every chunk.
        vfs.read(fd, 0, size).unwrap();
        assert_eq!(vfs.stats().cache_misses as usize, chunk_count);
        assert_eq!(vfs.stats().cache_hits as usize, chunk_count);
    }
}
