//! Arithmetic over the Galois field GF(2⁸), the coefficient field of the
//! Reed–Solomon codec ([`crate::rs`]).
//!
//! Elements are bytes; addition is XOR and multiplication is polynomial
//! multiplication modulo the primitive polynomial `x⁸ + x⁴ + x³ + x² + 1`
//! (0x11d), the conventional choice for storage Reed–Solomon codes.  All
//! products are resolved through logarithm/antilogarithm tables built at
//! compile time in a `const` context, so field operations are two table
//! lookups and an add.
//!
//! The encoder hot loop never multiplies byte-by-byte through the log tables.
//! Two slice kernels are available behind one entry point, [`PreparedCoeff`]:
//!
//! * [`Gf256Kernel::Scalar`] — the reference kernel: materialise the
//!   256-entry product row of the constant coefficient (it lives comfortably
//!   in L1) and stream the operand slices through it byte by byte.
//! * [`Gf256Kernel::Nibble64`] — the fast kernel (`nibble`): split-nibble
//!   (low/high 4-bit) product tables applied over wide lanes — AVX2
//!   `vpshufb` table shuffles on x86-64 (32 bytes per instruction), and a
//!   chunked-`u64` SWAR evaluation of the same tables everywhere else — with
//!   a per-byte scalar tail for the last `len % lane` bytes.
//!
//! A caller prepares a coefficient for a kernel once ([`PreparedCoeff::new`],
//! usually with [`Gf256Kernel::best`]) and streams slices through its
//! [`PreparedCoeff::mul`] / [`PreparedCoeff::mul_add`]; encoders that apply a
//! whole coefficient matrix reuse each prepared coefficient across tiles,
//! hoisting table construction out of the cache-blocked inner loops.  The
//! scalar kernel stays live as the property-test reference: the workspace
//! pins byte-identical output across kernels for all 256 coefficients.

use crate::code::xor_into;

mod nibble;

use nibble::NibbleTables;

/// The primitive polynomial x⁸ + x⁴ + x³ + x² + 1 defining the field.
const POLY: u16 = 0x11d;

/// Antilog table: `EXP[i] = g^i` for the generator `g = 2`, doubled so that
/// `EXP[log a + log b]` needs no reduction modulo 255.
const EXP: [u8; 512] = EXP_LOG.0;

/// Log table: `LOG[a]` is the discrete logarithm of `a` (unused slot 0).
const LOG: [u8; 256] = EXP_LOG.1;

const EXP_LOG: ([u8; 512], [u8; 256]) = build_tables();

const fn build_tables() -> ([u8; 512], [u8; 256]) {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLY;
        }
        i += 1;
    }
    // Double the antilog table: log a + log b ≤ 508 < 510.
    let mut j = 255;
    while j < 510 {
        exp[j] = exp[j - 255]; // j in 255..510, j-255 < 255 < EXP.len()==510
        j += 1;
    }
    (exp, log)
}

/// Field multiplication.
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + LOG[b as usize] as usize] // log a + log b <= 508 < EXP.len()==510
    }
}

/// Multiplicative inverse.  Panics on zero, which has no inverse.
#[inline]
pub fn inv(a: u8) -> u8 {
    assert!(a != 0, "zero has no inverse in GF(256)");
    EXP[255 - LOG[a as usize] as usize] // LOG[a] <= 255 so 255-LOG[a] <= 255 < EXP.len()
}

/// Exponentiation `a^e` (with the convention `0⁰ = 1`).
#[inline]
pub fn pow(a: u8, e: usize) -> u8 {
    if e == 0 {
        1
    } else if a == 0 {
        0
    } else {
        EXP[(LOG[a as usize] as usize * e) % 255] // x % 255 < 255 < EXP.len()
    }
}

/// The 256-entry product row of a constant coefficient: `row[x] = c·x`.
#[inline]
fn mul_row(c: u8) -> [u8; 256] {
    debug_assert!(c > 1, "rows for 0 and 1 are handled by the fast paths");
    let lc = LOG[c as usize] as usize;
    let mut row = [0u8; 256];
    let mut x = 1usize;
    while x < 256 {
        row[x] = EXP[lc + LOG[x] as usize]; // lc + log x <= 508 < EXP.len()==510
        x += 1;
    }
    row
}

/// Selects which slice-kernel implementation backs the GF(256) hot loops.
///
/// `Scalar` is the original per-byte product-row kernel, kept live as the
/// reference the property tests compare against; `Nibble64` is the wide-lane
/// split-nibble kernel and is what [`Gf256Kernel::best`] returns on every
/// platform (its portable SWAR lane needs nothing beyond stable Rust).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gf256Kernel {
    /// Per-byte 256-entry product-row lookups (the reference kernel).
    Scalar,
    /// Split-nibble tables over wide lanes (SIMD shuffle or chunked `u64`).
    Nibble64,
}

impl Gf256Kernel {
    /// Every kernel, in comparison order (reference first).
    pub const ALL: [Gf256Kernel; 2] = [Gf256Kernel::Scalar, Gf256Kernel::Nibble64];

    /// The fastest kernel for this host.
    #[inline]
    pub fn best() -> Self {
        Gf256Kernel::Nibble64
    }

    /// The kernel's report name (`scalar` / `nibble64`).
    pub fn label(self) -> &'static str {
        match self {
            Gf256Kernel::Scalar => "scalar",
            Gf256Kernel::Nibble64 => "nibble64",
        }
    }

    /// The wide-lane implementation the `nibble64` kernel resolved to on this
    /// host (`avx2` / `swar64`); `scalar` for the scalar kernel.
    pub fn lane_label(self) -> &'static str {
        match self {
            Gf256Kernel::Scalar => "scalar",
            Gf256Kernel::Nibble64 => nibble::active_lane_label(),
        }
    }
}

impl std::fmt::Display for Gf256Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A coefficient with its kernel tables prebuilt, ready to stream slices.
///
/// Building the scalar product row costs ~256 table lookups and the nibble
/// tables ~32 multiplications — negligible per chunk, but not per tile.  The
/// cache-blocked encoder in [`crate::rs`] applies every coefficient to every
/// L1-sized tile of every source block, so it prepares each coefficient once
/// per encode and reuses it across all tiles.
pub struct PreparedCoeff {
    inner: Prepared,
}

enum Prepared {
    /// `c == 0`: products are all zero.
    Zero,
    /// `c == 1`: products are the source bytes.
    One,
    /// Scalar kernel: the 256-entry product row.
    ScalarRow(Box<[u8; 256]>),
    /// Nibble64 kernel: the split-nibble table pair.
    Nibble(NibbleTables),
}

impl PreparedCoeff {
    /// Prepare coefficient `c` for the given kernel.
    pub fn new(kernel: Gf256Kernel, c: u8) -> Self {
        let inner = match (c, kernel) {
            (0, _) => Prepared::Zero,
            (1, _) => Prepared::One,
            (_, Gf256Kernel::Scalar) => Prepared::ScalarRow(Box::new(mul_row(c))),
            (_, Gf256Kernel::Nibble64) => Prepared::Nibble(NibbleTables::new(c)),
        };
        PreparedCoeff { inner }
    }

    /// `dst[i] = c · src[i]`.  Both slices must have equal length.
    #[inline]
    pub fn mul(&self, src: &[u8], dst: &mut [u8]) {
        debug_assert_eq!(src.len(), dst.len());
        match &self.inner {
            Prepared::Zero => dst.fill(0),
            Prepared::One => dst.copy_from_slice(src),
            Prepared::ScalarRow(row) => {
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d = row[s as usize];
                }
            }
            Prepared::Nibble(t) => nibble::apply::<false>(t, src, dst),
        }
    }

    /// `dst[i] ^= c · src[i]` — the Reed–Solomon encode/decode hot loop.
    /// Both slices must have equal length.
    #[inline]
    pub fn mul_add(&self, src: &[u8], dst: &mut [u8]) {
        debug_assert_eq!(src.len(), dst.len());
        match &self.inner {
            Prepared::Zero => {}
            Prepared::One => xor_into(dst, src),
            Prepared::ScalarRow(row) => {
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d ^= row[s as usize];
                }
            }
            Prepared::Nibble(t) => nibble::apply::<true>(t, src, dst),
        }
    }

    /// True when applying this coefficient is a no-op for `mul_add` (c == 0).
    #[inline]
    pub fn is_zero(&self) -> bool {
        matches!(self.inner, Prepared::Zero)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_consistent() {
        // g^log(a) = a for every non-zero a, and logs are a permutation.
        let mut seen = [false; 255];
        for a in 1..=255u8 {
            assert_eq!(EXP[LOG[a as usize] as usize], a);
            assert!(!seen[LOG[a as usize] as usize]);
            seen[LOG[a as usize] as usize] = true;
        }
        // The doubled half mirrors the first.
        for i in 0..255 {
            assert_eq!(EXP[i], EXP[i + 255]);
        }
    }

    #[test]
    fn multiplication_axioms() {
        for a in 0..=255u8 {
            assert_eq!(mul(a, 0), 0);
            assert_eq!(mul(a, 1), a);
            for b in 0..=255u8 {
                assert_eq!(mul(a, b), mul(b, a));
                // Distributivity over a fixed third element.
                assert_eq!(mul(a, b ^ 7), mul(a, b) ^ mul(a, 7));
            }
        }
    }

    #[test]
    fn multiplication_is_associative_on_samples() {
        for a in [1u8, 2, 3, 29, 76, 142, 255] {
            for b in [1u8, 5, 53, 200, 254] {
                for c in [2u8, 99, 187] {
                    assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
                }
            }
        }
    }

    #[test]
    fn every_nonzero_element_has_an_inverse() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1);
        }
    }

    #[test]
    #[should_panic(expected = "no inverse")]
    fn zero_has_no_inverse() {
        let _ = inv(0);
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        for a in [0u8, 1, 2, 3, 97, 255] {
            let mut acc = 1u8;
            for e in 0..20 {
                assert_eq!(pow(a, e), acc, "a = {a}, e = {e}");
                acc = mul(acc, a);
            }
        }
        assert_eq!(pow(0, 0), 1);
    }

    #[test]
    fn slice_kernels_match_scalar_ops() {
        let src: Vec<u8> = (0..=255).collect();
        for kernel in Gf256Kernel::ALL {
            for c in [0u8, 1, 2, 77, 142, 255] {
                let prepared = PreparedCoeff::new(kernel, c);
                assert_eq!(prepared.is_zero(), c == 0);
                let mut product = vec![0xAA; src.len()];
                prepared.mul(&src, &mut product);
                let mut accum = src.clone();
                prepared.mul_add(&src, &mut accum);
                for (i, &s) in src.iter().enumerate() {
                    assert_eq!(product[i], mul(c, s), "{kernel} c = {c}");
                    assert_eq!(accum[i], s ^ mul(c, s), "{kernel} c = {c}");
                }
            }
        }
    }

    #[test]
    fn kernels_agree_for_every_coefficient() {
        // Exhaustive over c; lengths chosen to exercise empty slices, the
        // sub-lane case, exact lane multiples, and ragged tails.
        for len in [0usize, 1, 7, 8, 9, 16, 31, 32, 33, 100] {
            let src: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            for c in 0..=255u8 {
                let scalar = PreparedCoeff::new(Gf256Kernel::Scalar, c);
                let fast = PreparedCoeff::new(Gf256Kernel::Nibble64, c);
                let mut scalar_mul = vec![0u8; len];
                scalar.mul(&src, &mut scalar_mul);
                let mut fast_mul = vec![0xCCu8; len];
                fast.mul(&src, &mut fast_mul);
                assert_eq!(scalar_mul, fast_mul, "mul c = {c}, len = {len}");

                let mut scalar_acc = src.clone();
                scalar.mul_add(&src, &mut scalar_acc);
                let mut fast_acc = src.clone();
                fast.mul_add(&src, &mut fast_acc);
                assert_eq!(scalar_acc, fast_acc, "mul_add c = {c}, len = {len}");
            }
        }
    }

    #[test]
    fn kernel_labels_and_lanes() {
        for kernel in Gf256Kernel::ALL {
            assert_eq!(kernel.to_string(), kernel.label());
        }
        assert_eq!(Gf256Kernel::best(), Gf256Kernel::Nibble64);
        assert_eq!(Gf256Kernel::Scalar.lane_label(), "scalar");
        assert!(["swar64", "avx2"].contains(&Gf256Kernel::Nibble64.lane_label()));
    }
}
