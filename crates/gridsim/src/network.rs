//! The desktop-grid network and overhead model.
//!
//! The Condor case study (Section 6.4, Table 4) measures wall-clock times for a
//! `bigCopy` job on a 32-machine pool connected by 100 Mb/s Ethernet.  Three
//! cost components govern those times:
//!
//! * the **bulk transfer** of the file contents over the shared link — this
//!   dominates for large files and is common to every scheme;
//! * a **fixed interposition overhead** — the LD_PRELOAD redirection library,
//!   RPC hand-off to the local PeerStripe instance, and (for the varying-chunk
//!   scheme) the `getCapacity` probing and CAT creation;
//! * a **per-chunk lookup overhead** — one p2p lookup per chunk placed, so it is
//!   proportional to the number of chunks a scheme creates.
//!
//! [`NetworkModel`] captures those components; its defaults are calibrated so a
//! 1 GB whole-file copy takes on the order of the paper's ~150 s (an effective
//! ~6.8 MB/s on the shared 100 Mb/s segment once both the read and the write
//! traverse it).

use peerstripe_sim::ByteSize;

/// Cost model for desktop-grid transfers and overlay lookups.
#[derive(Debug, Clone, Copy)]
pub struct NetworkModel {
    /// Effective end-to-end throughput for bulk data (bytes per second).
    pub effective_bandwidth: ByteSize,
    /// Latency charged per overlay routing hop, in milliseconds.
    pub per_hop_ms: f64,
    /// Fixed cost per chunk/block placement besides routing (connection set-up,
    /// metadata bookkeeping), in milliseconds.
    pub per_chunk_ms: f64,
    /// Fixed cost per interposed I/O *session* (library redirection, RPC to the
    /// local instance), in seconds.
    pub interposition_fixed_secs: f64,
    /// Extra fixed cost for the varying-chunk scheme: `getCapacity` probing of
    /// prospective targets and CAT creation/replication, in seconds.
    pub varying_setup_secs: f64,
    /// Contention scale for lookup traffic: the i-th lookup of a job is slowed by
    /// a factor `1 + i / contention_scale`, modelling control messages queueing
    /// behind the job's own bulk transfer on the shared segment.  Schemes that
    /// issue tens of thousands of lookups (fixed 4 MB chunks on a 128 GB copy)
    /// feel this; schemes with a handful of chunks do not.
    pub contention_scale: f64,
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel {
            // 100 Mb/s = 12.5 MB/s raw; reads and writes share the segment, so
            // the effective copy throughput is roughly half of that.
            effective_bandwidth: ByteSize::bytes(6_800_000),
            per_hop_ms: 12.0,
            per_chunk_ms: 30.0,
            interposition_fixed_secs: 8.0,
            varying_setup_secs: 17.0,
            contention_scale: 1200.0,
        }
    }
}

impl NetworkModel {
    /// The configuration used for the Table 4 reproduction (the defaults).
    pub fn paper_condor() -> Self {
        Self::default()
    }

    /// Time to move `size` bytes of payload over the network, in seconds.
    pub fn transfer_secs(&self, size: ByteSize) -> f64 {
        size.as_u64() as f64 / self.effective_bandwidth.as_u64() as f64
    }

    /// Time for one chunk placement that needed `hops` overlay routing hops and
    /// `attempts` placement attempts, in seconds.
    pub fn lookup_secs(&self, hops: usize, attempts: usize) -> f64 {
        let attempts = attempts.max(1) as f64;
        (self.per_hop_ms * hops as f64 + self.per_chunk_ms) * attempts / 1_000.0
    }

    /// One-way latency of a single message, in seconds.
    pub fn message_secs(&self, hops: usize) -> f64 {
        self.per_hop_ms * hops.max(1) as f64 / 1_000.0
    }

    /// Total time for a *sequence* of `count` lookups of `hops` hops each,
    /// including the contention slow-down that builds up as the job's own
    /// control traffic competes with its bulk transfer.
    pub fn lookup_sequence_secs(&self, hops: usize, count: u64) -> f64 {
        let base = self.lookup_secs(hops, 1);
        let n = count as f64;
        // Sum over i in 0..n of base * (1 + i/scale)  =  base * n * (1 + (n-1)/(2*scale)).
        base * n * (1.0 + (n - 1.0).max(0.0) / (2.0 * self.contention_scale))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_gigabyte_transfer_matches_paper_ballpark() {
        let net = NetworkModel::paper_condor();
        let t = net.transfer_secs(ByteSize::gb(1));
        // The paper measures 151 s for a 1 GB whole-file copy.
        assert!((130.0..=180.0).contains(&t), "1 GB copy took {t}s");
    }

    #[test]
    fn transfer_time_is_linear_in_size() {
        let net = NetworkModel::default();
        let t1 = net.transfer_secs(ByteSize::gb(1));
        let t8 = net.transfer_secs(ByteSize::gb(8));
        assert!((t8 / t1 - 8.0).abs() < 1e-9);
        assert_eq!(net.transfer_secs(ByteSize::ZERO), 0.0);
    }

    #[test]
    fn lookup_cost_grows_with_hops_and_attempts() {
        let net = NetworkModel::default();
        assert!(net.lookup_secs(4, 1) > net.lookup_secs(1, 1));
        assert!(net.lookup_secs(2, 3) > net.lookup_secs(2, 1));
        assert!(
            net.lookup_secs(0, 0) > 0.0,
            "even a local placement has fixed cost"
        );
        assert!(net.message_secs(3) > net.message_secs(1));
    }
}
