//! # PeerStripe — contributory storage for desktop grids
//!
//! A Rust reproduction of *"On Utilization of Contributory Storage in Desktop
//! Grids"* (Miller, Butler, Shah, Butt): a peer-to-peer storage system that
//! harnesses the disk space contributed by desktop-grid participants, stripes
//! large files into varying-size chunks sized by `getCapacity` probes, erasure
//! codes each chunk, and multicasts replicas over locality-aware trees.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`core`] — the PeerStripe system itself;
//! * [`overlay`] — the Pastry-semantics DHT simulator;
//! * [`erasure`] — Null / XOR / online erasure codes;
//! * [`placement`] — failure-domain topology & placement strategies;
//! * [`multicast`] — RanSub + Bullet replica dissemination;
//! * [`net`] — the networked deployment path: framed wire
//!   protocol, `peerstripe-node` daemon, and the TCP gateway backend;
//! * [`trace`] — workload and capacity generators;
//! * [`baselines`] — PAST and CFS comparison systems;
//! * [`gridsim`] — the Condor `bigCopy` case study;
//! * [`experiments`] — drivers for every table/figure;
//! * [`telemetry`] — RPC metrics export records and event tracing;
//! * [`sim`] — deterministic RNG, distributions, statistics.
//!
//! ## Quick start
//!
//! ```
//! use peerstripe::core::{ClusterConfig, PeerStripe, PeerStripeConfig, StorageSystem};
//! use peerstripe::sim::{ByteSize, DetRng};
//! use peerstripe::trace::FileRecord;
//!
//! // 64 desktops contributing ~45 GB each join the overlay.
//! let mut rng = DetRng::new(7);
//! let cluster = ClusterConfig::scaled(64).build(&mut rng);
//! let mut storage = PeerStripe::new(cluster, PeerStripeConfig::default());
//!
//! // Store a 100 GB dataset: far larger than any single contributor.
//! let outcome = storage.store_file(&FileRecord::new("climate-model.nc", ByteSize::gb(100)));
//! assert!(outcome.is_stored());
//! assert!(storage.is_file_available("climate-model.nc"));
//! ```

pub use peerstripe_baselines as baselines;
pub use peerstripe_core as core;
pub use peerstripe_erasure as erasure;
pub use peerstripe_experiments as experiments;
pub use peerstripe_gridsim as gridsim;
pub use peerstripe_multicast as multicast;
pub use peerstripe_net as net;
pub use peerstripe_overlay as overlay;
pub use peerstripe_placement as placement;
pub use peerstripe_repair as repair;
pub use peerstripe_sim as sim;
pub use peerstripe_telemetry as telemetry;
pub use peerstripe_trace as trace;
