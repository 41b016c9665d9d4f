//! Erasure codes for chunk-level fault tolerance.
//!
//! PeerStripe stores each chunk of a file as `m` erasure-coded blocks placed on
//! independent nodes, so that the chunk survives node failures (Section 4.2 of
//! the paper).  This crate implements the three codecs evaluated in the paper
//! plus the *optimal* codec the paper compares them against:
//!
//! * [`null::NullCode`] — a pass-through baseline (no redundancy), the reference
//!   point of Table 2;
//! * [`xor::XorCode`] — the RAID-5-style parity-check code, default "(2,3)"
//!   configuration with 50 % storage overhead;
//! * [`online::OnlineCode`] — Maymounkov's rateless online codes with `q = 3`,
//!   `ε = 0.01`: ~3 % storage overhead, decode from any `(1 + ε)n` blocks, and
//!   the ability to mint *new* encoded blocks after failures, which the paper's
//!   recovery path relies on;
//! * [`rs::ReedSolomonCode`] — systematic GF(2⁸) Reed–Solomon: the optimal
//!   erasure code (any `n` of `m` blocks decode, with certainty) whose cost the
//!   paper's Section 4.2 trade-off discussion weighs the online code against.
//!   Built on [`gf256`] field kernels (wide-lane split-nibble `nibble64` by
//!   default, with the scalar reference kernel selectable via
//!   [`gf256::Gf256Kernel`]) and [`matrix`] linear algebra; encode, degraded
//!   decode and repair all run through one cache-blocked tile loop.
//!
//! Every codec has exactly one encode body,
//! [`ErasureCode::encode_rows_into`]: it reads source rows straight out of the
//! caller's chunk and writes the requested encoded rows into caller-owned
//! buffers.  [`ErasureCode::encode`], [`ErasureCode::encode_rows`] and
//! [`ErasureCode::reencode`] are provided wrappers that allocate the buffers.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod code;
pub mod gf256;
pub mod matrix;
pub mod null;
pub mod online;
pub mod rs;
pub mod xor;

pub use code::{DecodeError, EncodedBlock, ErasureCode};
pub use gf256::{Gf256Kernel, PreparedCoeff};
pub use matrix::GfMatrix;
pub use null::NullCode;
pub use online::OnlineCode;
pub use rs::ReedSolomonCode;
pub use xor::XorCode;
