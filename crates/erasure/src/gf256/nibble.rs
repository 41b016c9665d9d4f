//! The `nibble64` kernel lanes: split-nibble (low/high 4-bit) product tables
//! applied over wide lanes.
//!
//! Multiplication by a constant `c` is linear over GF(2), so the product of
//! `c` with a byte `x` splits along the nibble boundary:
//!
//! ```text
//! c·x = c·(x & 0x0f)  ^  c·(x & 0xf0)
//!     = LO[x & 0x0f]  ^  HI[x >> 4]
//! ```
//!
//! where `LO` and `HI` are 16-entry product tables built once per coefficient
//! ([`NibbleTables`]).  Both tables fit in a single SIMD register, which is
//! what makes the split worthwhile: a 32-lane AVX2 `vpshufb` shuffle performs
//! thirty-two table lookups per instruction.  Without AVX2 the same tables are
//! evaluated 8 bytes at a time in a `u64` ([`swar64`]): each nibble lookup is
//! itself linear in its 4 input bits, so it unrolls into four broadcast-mask
//! column XORs over the lane — branch-free, load-free chunked-`u64` code.
//!
//! The lane is picked once per process by [`lane`] (AVX2, else SWAR) via
//! runtime CPU-feature detection; both lanes produce byte-identical output
//! to the scalar reference kernel, which the workspace property tests pin for
//! all 256 coefficients and arbitrary slice lengths (including the
//! non-multiple-of-lane tails, which fall back to per-byte table lookups).

use super::mul;

/// Split-nibble product tables of one coefficient: `lo[v] = c·v` and
/// `hi[v] = c·(v << 4)` for `v` in `0..16`.
#[derive(Debug, Clone, Copy)]
pub(super) struct NibbleTables {
    lo: [u8; 16],
    hi: [u8; 16],
}

impl NibbleTables {
    /// Build the two 16-entry product tables of `c`.
    pub(super) fn new(c: u8) -> Self {
        let mut lo = [0u8; 16];
        let mut hi = [0u8; 16];
        for v in 0..16u8 {
            lo[v as usize] = mul(c, v);
            hi[v as usize] = mul(c, v << 4);
        }
        NibbleTables { lo, hi }
    }

    /// Product of the coefficient with one byte: two nibble lookups.
    #[inline]
    fn product(&self, x: u8) -> u8 {
        self.lo[(x & 0x0f) as usize] ^ self.hi[(x >> 4) as usize]
    }
}

/// Which wide-lane implementation backs the `nibble64` kernel on this CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lane {
    /// Portable 8-byte `u64` SWAR evaluation of the nibble tables.
    Swar64,
    /// 32-byte AVX2 `vpshufb` table shuffles.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

/// The widest lane this CPU supports, detected once per process.
fn lane() -> Lane {
    #[cfg(target_arch = "x86_64")]
    {
        static LANE: std::sync::OnceLock<Lane> = std::sync::OnceLock::new();
        *LANE.get_or_init(|| {
            if std::arch::is_x86_feature_detected!("avx2") {
                Lane::Avx2
            } else {
                Lane::Swar64
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Lane::Swar64
    }
}

/// Human-readable name of the active wide lane (for reports and benches).
pub(super) fn active_lane_label() -> &'static str {
    match lane() {
        Lane::Swar64 => "swar64",
        #[cfg(target_arch = "x86_64")]
        Lane::Avx2 => "avx2",
    }
}

/// `dst[i] ^= c·src[i]` (`ACC = true`) or `dst[i] = c·src[i]` (`ACC = false`)
/// through the widest available lane.  Slices must have equal length; the
/// caller has already peeled the `c == 0` / `c == 1` fast paths.
#[inline]
pub(super) fn apply<const ACC: bool>(t: &NibbleTables, src: &[u8], dst: &mut [u8]) {
    debug_assert_eq!(src.len(), dst.len());
    match lane() {
        Lane::Swar64 => swar64::<ACC>(t, src, dst),
        #[cfg(target_arch = "x86_64")]
        Lane::Avx2 => x86::avx2::<ACC>(t, src, dst),
    }
}

/// Per-byte evaluation of the nibble tables — the scalar tail behind every
/// wide lane (and the whole story for sub-lane slices).
#[inline]
fn tail<const ACC: bool>(t: &NibbleTables, src: &[u8], dst: &mut [u8]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        if ACC {
            *d ^= t.product(s);
        } else {
            *d = t.product(s);
        }
    }
}

/// Portable wide lane: the nibble tables evaluated 8 bytes at a time in a
/// `u64`.  A 16-entry lookup cannot be done in parallel without a shuffle
/// unit, but each nibble table is linear in its 4 input bits, so the lookup
/// unrolls into four broadcast-mask column XORs: for input bit `i`, every
/// byte of the lane with that bit set absorbs the byte constant `c·2^i`.
fn swar64<const ACC: bool>(t: &NibbleTables, src: &[u8], dst: &mut [u8]) {
    const LSB: u64 = 0x0101_0101_0101_0101;
    // Column `i` is `c·2^i` broadcast to all 8 lane bytes; bits 0..4 come out
    // of the low-nibble table, bits 4..8 out of the high-nibble table.
    let mut col = [0u64; 8];
    for (i, c) in col.iter_mut().enumerate() {
        let product = if i < 4 {
            t.lo[1 << i]
        } else {
            t.hi[1 << (i - 4)]
        };
        *c = (product as u64) * LSB;
    }
    let (src_wide, src_tail) = src.as_chunks::<8>();
    let (dst_wide, dst_tail) = dst.as_chunks_mut::<8>();
    for (d, s) in dst_wide.iter_mut().zip(src_wide) {
        let x = u64::from_le_bytes(*s);
        let mut product = 0u64;
        for (i, &c) in col.iter().enumerate() {
            // 0x00 or 0xff per byte, selecting the column where bit i is set.
            let mask = ((x >> i) & LSB) * 0xff;
            product ^= mask & c;
        }
        if ACC {
            product ^= u64::from_le_bytes(*d);
        }
        *d = product.to_le_bytes();
    }
    tail::<ACC>(t, src_tail, dst_tail);
}

/// The x86-64 shuffle lane: `vpshufb` performs thirty-two 16-entry table
/// lookups per instruction, so both nibble tables live in registers and each
/// loop iteration multiplies a full SIMD register of bytes.
///
/// This module is the workspace's one sanctioned `unsafe` island: the
/// `unsafe` here covers (a) calling `#[target_feature]` functions after
/// runtime detection and (b) unaligned SIMD loads/stores inside bounds
/// established by the loop — each site carries its SAFETY argument, which
/// `clippy::undocumented_unsafe_blocks` requires.
#[cfg(target_arch = "x86_64")]
#[expect(
    unsafe_code,
    reason = "SIMD needs target-feature calls and pointer loads/stores"
)]
mod x86 {
    use super::{tail, NibbleTables};
    use std::arch::x86_64::{
        __m128i, __m256i, _mm256_and_si256, _mm256_broadcastsi128_si256, _mm256_loadu_si256,
        _mm256_set1_epi8, _mm256_shuffle_epi8, _mm256_srli_epi64, _mm256_storeu_si256,
        _mm256_xor_si256, _mm_loadu_si128,
    };

    /// AVX2 entry point: dispatch into the `#[target_feature]` body.
    #[inline]
    pub(in crate::gf256) fn avx2<const ACC: bool>(t: &NibbleTables, src: &[u8], dst: &mut [u8]) {
        // SAFETY: reached only when `lane()` returned `Lane::Avx2`, which
        // requires `is_x86_feature_detected!("avx2")` to have succeeded.
        unsafe { avx2_impl::<ACC>(t, src, dst) }
    }

    #[target_feature(enable = "avx2")]
    fn avx2_impl<const ACC: bool>(t: &NibbleTables, src: &[u8], dst: &mut [u8]) {
        debug_assert_eq!(src.len(), dst.len());
        // SAFETY: NibbleTables is repr(Rust) [u8; 16] pairs; reading 16 bytes
        // from each table pointer stays inside the struct's fields.
        let (lo128, hi128) = unsafe {
            (
                _mm_loadu_si128(t.lo().as_ptr().cast::<__m128i>()),
                _mm_loadu_si128(t.hi().as_ptr().cast::<__m128i>()),
            )
        };
        let table_lo = _mm256_broadcastsi128_si256(lo128);
        let table_hi = _mm256_broadcastsi128_si256(hi128);
        let mask = _mm256_set1_epi8(0x0f);
        let n = src.len() - src.len() % 32;
        let mut i = 0;
        while i < n {
            // SAFETY: i + 32 <= n <= len of both slices, so every 32-byte
            // unaligned load/store below stays in bounds.
            unsafe {
                let s = _mm256_loadu_si256(src.as_ptr().add(i).cast::<__m256i>());
                let lo = _mm256_and_si256(s, mask);
                let hi = _mm256_and_si256(_mm256_srli_epi64::<4>(s), mask);
                let mut product = _mm256_xor_si256(
                    _mm256_shuffle_epi8(table_lo, lo),
                    _mm256_shuffle_epi8(table_hi, hi),
                );
                let d = dst.as_mut_ptr().add(i).cast::<__m256i>();
                if ACC {
                    product = _mm256_xor_si256(product, _mm256_loadu_si256(d));
                }
                _mm256_storeu_si256(d, product);
            }
            i += 32;
        }
        tail::<ACC>(t, &src[n..], &mut dst[n..]);
    }
}

#[cfg(target_arch = "x86_64")]
impl NibbleTables {
    /// The low-nibble product table (SIMD lanes load it as one register).
    fn lo(&self) -> &[u8; 16] {
        &self.lo
    }

    /// The high-nibble product table (SIMD lanes load it as one register).
    fn hi(&self) -> &[u8; 16] {
        &self.hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gf256::mul;

    fn reference(c: u8, src: &[u8]) -> Vec<u8> {
        src.iter().map(|&s| mul(c, s)).collect()
    }

    #[test]
    fn nibble_tables_cover_the_byte() {
        for c in [2u8, 3, 29, 0x8e, 255] {
            let t = NibbleTables::new(c);
            for x in 0..=255u8 {
                assert_eq!(t.product(x), mul(c, x), "c = {c}, x = {x}");
            }
        }
    }

    #[test]
    fn swar_lane_matches_reference_on_all_lengths() {
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 64, 257] {
            let src: Vec<u8> = (0..len).map(|i| (i * 31 + 5) as u8).collect();
            for c in [2u8, 77, 142, 255] {
                let t = NibbleTables::new(c);
                let mut dst = vec![0xAAu8; len];
                swar64::<false>(&t, &src, &mut dst);
                assert_eq!(dst, reference(c, &src), "mul c = {c}, len = {len}");
                let mut accum = src.clone();
                swar64::<true>(&t, &src, &mut accum);
                let expect: Vec<u8> = src.iter().map(|&s| s ^ mul(c, s)).collect();
                assert_eq!(accum, expect, "mul_add c = {c}, len = {len}");
            }
        }
    }

    #[test]
    fn active_lane_matches_swar() {
        // Whatever lane the host CPU picked, it must agree with the portable
        // SWAR evaluation byte for byte (tails included).
        for len in [0usize, 5, 31, 32, 33, 1024, 1037] {
            let src: Vec<u8> = (0..len).map(|i| (i * 13 + 1) as u8).collect();
            for c in [2u8, 0x1d, 200] {
                let t = NibbleTables::new(c);
                let mut want = vec![0u8; len];
                swar64::<false>(&t, &src, &mut want);
                let mut got = vec![0u8; len];
                apply::<false>(&t, &src, &mut got);
                assert_eq!(got, want, "lane {} mul", active_lane_label());
                let mut want_acc = src.clone();
                swar64::<true>(&t, &src, &mut want_acc);
                let mut got_acc = src.clone();
                apply::<true>(&t, &src, &mut got_acc);
                assert_eq!(got_acc, want_acc, "lane {} mul_add", active_lane_label());
            }
        }
    }

    #[test]
    fn lane_label_is_stable() {
        let label = active_lane_label();
        assert!(["swar64", "avx2"].contains(&label), "{label}");
        assert_eq!(label, active_lane_label(), "detection is cached");
    }
}
