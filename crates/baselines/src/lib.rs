//! The baseline storage systems the paper compares PeerStripe against.
//!
//! Each is a placement rule over a [`peerstripe_core::StorageCluster`] and the
//! [`peerstripe_core::StoreMetrics`] it accumulates, and nothing more:
//!
//! * [`past::Past`] — PAST-style whole-file placement: a file lives in its
//!   entirety on the root of its key, so no file larger than one node's free
//!   space can ever be stored.  One attempt per file.
//! * [`cfs::Cfs`] — CFS-style fixed-size blocks: every file is chopped into
//!   [`cfs::BLOCK_SIZE`] blocks placed on the successors of their keys, so
//!   lookups (and the chance that *some* block fails) grow linearly with file
//!   size.
//!
//! Both implement [`peerstripe_core::StorageSystem`], so the Figure 7–9 /
//! Table 1 / Table 4 experiment drivers treat them interchangeably with
//! PeerStripe, running all three on identically seeded clusters.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cfs;
pub mod past;

pub use cfs::Cfs;
pub use past::Past;
