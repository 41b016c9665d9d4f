//! Measurement harness for erasure-code cost (Table 2 of the paper).
//!
//! Table 2 reports, for a 4 MB chunk encoded into 4096 blocks, the encoded size
//! and the encoding time of the NULL, XOR, and online codes, together with the
//! overhead of each relative to NULL.  [`measure_code`] performs those
//! measurements for any [`ErasureCode`]; [`CodeCost`] carries the results and the
//! derived overheads.
//!
//! Beyond the paper's columns, every run also decodes from an *exactly
//! minimal* subset — a random [`ErasureCode::min_decode_blocks`]-sized sample
//! of the encoded blocks — which separates optimal codecs (Reed–Solomon:
//! always succeeds) from sub-optimal ones (online: succeeds only with high
//! probability at its `(1 + ε)·n'` bound).
#![expect(
    clippy::disallowed_methods,
    reason = "timing encode/decode in wall time is this harness's whole job"
)]

use crate::code::ErasureCode;
use peerstripe_sim::{ByteSize, DetRng, OnlineStats};
use std::time::Instant;

/// Measured cost of one erasure code on a fixed-size chunk.
#[derive(Debug, Clone)]
pub struct CodeCost {
    /// Codec name ("Null", "XOR", "Online", "ReedSolomon").
    pub name: &'static str,
    /// Size of the input chunk.
    pub chunk_size: ByteSize,
    /// Total size of the encoded blocks.
    pub encoded_size: ByteSize,
    /// Mean wall-clock encoding time in milliseconds.
    pub encode_ms: f64,
    /// Mean wall-clock decoding time in milliseconds (from all blocks).
    pub decode_ms: f64,
    /// Standard deviation of encoding time across runs.
    pub encode_ms_sd: f64,
    /// Standard deviation of decoding time across runs.
    pub decode_ms_sd: f64,
    /// Mean wall-clock time in milliseconds of decoding from a random subset
    /// of exactly [`ErasureCode::min_decode_blocks`] blocks (success or not).
    pub decode_min_ms: f64,
    /// Standard deviation of the minimal-subset decoding time across runs.
    pub decode_min_ms_sd: f64,
    /// Minimal-subset decode attempts (one per run).
    pub min_subset_attempts: usize,
    /// Minimal-subset decode attempts that recovered the chunk.
    pub min_subset_successes: usize,
}

impl CodeCost {
    /// Storage overhead relative to the original chunk, as a percentage
    /// (e.g. 50.0 for the (2,3) XOR code).
    pub fn size_overhead_pct(&self) -> f64 {
        if self.chunk_size.is_zero() {
            0.0
        } else {
            100.0 * (self.encoded_size.as_u64() as f64 / self.chunk_size.as_u64() as f64 - 1.0)
        }
    }

    /// Encoding-time overhead relative to a baseline (the NULL code), as a percentage.
    pub fn time_overhead_pct(&self, baseline: &CodeCost) -> f64 {
        if baseline.encode_ms <= 0.0 {
            0.0
        } else {
            100.0 * (self.encode_ms / baseline.encode_ms - 1.0)
        }
    }

    /// Fraction of minimal-subset decode attempts that recovered the chunk, as
    /// a percentage.  100 % characterises an optimal code; the online code's
    /// `(1 + ε)·n'` bound only holds with high probability.
    pub fn min_subset_recovery_pct(&self) -> f64 {
        if self.min_subset_attempts == 0 {
            0.0
        } else {
            100.0 * self.min_subset_successes as f64 / self.min_subset_attempts as f64
        }
    }
}

/// Measure encode/decode cost of `code` on a random chunk of `chunk_size`,
/// averaged over `runs` repetitions.
pub fn measure_code(
    code: &dyn ErasureCode,
    chunk_size: ByteSize,
    runs: usize,
    seed: u64,
) -> CodeCost {
    assert!(runs > 0, "at least one run required");
    let mut rng = DetRng::new(seed);
    let chunk: Vec<u8> = (0..chunk_size.as_u64())
        .map(|_| rng.next_u32() as u8)
        .collect();

    let mut encode_stats = OnlineStats::new();
    let mut decode_stats = OnlineStats::new();
    let mut decode_min_stats = OnlineStats::new();
    let mut encoded_size = ByteSize::ZERO;
    let mut min_subset_attempts = 0usize;
    let mut min_subset_successes = 0usize;
    for _ in 0..runs {
        let start = Instant::now();
        let blocks = code.encode(&chunk);
        encode_stats.push(start.elapsed().as_secs_f64() * 1e3);
        encoded_size = ByteSize::bytes(blocks.iter().map(|b| b.len() as u64).sum());

        let start = Instant::now();
        #[expect(
            clippy::expect_used,
            reason = "measurement harness: a codec failing its own roundtrip must abort the run"
        )]
        let decoded = code
            .decode(&blocks, chunk.len())
            .expect("decoding from the full block set must succeed");
        decode_stats.push(start.elapsed().as_secs_f64() * 1e3);
        assert_eq!(decoded.len(), chunk.len());

        // Decode again from a random subset of exactly min_decode_blocks
        // blocks.  The subset is drawn (and cloned) outside the timed region.
        let min = code.min_decode_blocks().min(blocks.len());
        let subset: Vec<_> = rng
            .sample_indices(blocks.len(), min)
            .into_iter()
            .map(|i| blocks[i].clone())
            .collect();
        let start = Instant::now();
        let outcome = code.decode(&subset, chunk.len());
        decode_min_stats.push(start.elapsed().as_secs_f64() * 1e3);
        min_subset_attempts += 1;
        if outcome.map(|d| d == chunk).unwrap_or(false) {
            min_subset_successes += 1;
        }
    }

    CodeCost {
        name: code.name(),
        chunk_size,
        encoded_size,
        encode_ms: encode_stats.mean(),
        decode_ms: decode_stats.mean(),
        encode_ms_sd: encode_stats.sample_std_dev(),
        decode_ms_sd: decode_stats.sample_std_dev(),
        decode_min_ms: decode_min_stats.mean(),
        decode_min_ms_sd: decode_min_stats.sample_std_dev(),
        min_subset_attempts,
        min_subset_successes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::null::NullCode;
    use crate::online::OnlineCode;
    use crate::xor::XorCode;

    #[test]
    fn null_code_has_no_size_overhead() {
        let cost = measure_code(&NullCode::new(64), ByteSize::kb(64), 2, 1);
        assert!(cost.size_overhead_pct().abs() < 1.0);
        assert!(cost.encode_ms >= 0.0);
    }

    #[test]
    fn xor_code_has_fifty_percent_overhead() {
        let cost = measure_code(&XorCode::new(2, 64), ByteSize::kb(64), 2, 2);
        assert!(
            (cost.size_overhead_pct() - 50.0).abs() < 1.0,
            "{}",
            cost.size_overhead_pct()
        );
    }

    #[test]
    fn online_code_has_small_overhead() {
        let code = OnlineCode::with_overhead(256, 0.01, 3, 1.10);
        let cost = measure_code(&code, ByteSize::kb(64), 1, 3);
        assert!(cost.size_overhead_pct() < 15.0);
        assert!(cost.size_overhead_pct() > 0.0);
    }

    #[test]
    fn time_overhead_relative_to_baseline() {
        let base = measure_code(&NullCode::new(16), ByteSize::kb(16), 1, 4);
        let xor = measure_code(&XorCode::new(2, 16), ByteSize::kb(16), 1, 4);
        // Only sanity: the helper computes a finite percentage.
        let pct = xor.time_overhead_pct(&base);
        assert!(pct.is_finite());
    }

    #[test]
    fn minimal_subset_decode_always_succeeds_for_optimal_codes() {
        use crate::rs::ReedSolomonCode;
        for cost in [
            measure_code(&NullCode::new(32), ByteSize::kb(32), 3, 5),
            measure_code(&XorCode::new(2, 32), ByteSize::kb(32), 3, 5),
            measure_code(&ReedSolomonCode::new(24, 8), ByteSize::kb(32), 3, 5),
        ] {
            assert_eq!(cost.min_subset_attempts, 3, "{}", cost.name);
            assert_eq!(
                cost.min_subset_recovery_pct(),
                100.0,
                "{} must decode from any minimal subset",
                cost.name
            );
            assert!(cost.decode_min_ms >= 0.0);
        }
    }

    #[test]
    fn minimal_subset_rate_is_tracked_for_online() {
        let code = OnlineCode::with_overhead(128, 0.01, 3, 1.25);
        let cost = measure_code(&code, ByteSize::kb(32), 4, 6);
        assert_eq!(cost.min_subset_attempts, 4);
        assert!(cost.min_subset_successes <= 4);
        let pct = cost.min_subset_recovery_pct();
        assert!((0.0..=100.0).contains(&pct));
    }
}
