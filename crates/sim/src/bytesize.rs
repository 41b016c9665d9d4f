//! Byte-size arithmetic used for every capacity, file size, and transfer amount.
//!
//! The paper's experiments juggle quantities from 8 KB CFS blocks up to a 439.1 TB
//! aggregate system capacity.  [`ByteSize`] keeps those quantities in a dedicated
//! newtype with saturating arithmetic (a simulation must degrade gracefully rather
//! than overflow) and human-readable formatting matching the units used in the
//! paper (KB/MB/GB/TB as powers of two, the convention of the original evaluation).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A quantity of bytes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct ByteSize(pub u64);

/// One kibibyte (the paper writes "KB" but uses powers of two throughout).
pub const KB: u64 = 1024;
/// One mebibyte.
pub const MB: u64 = 1024 * KB;
/// One gibibyte.
pub const GB: u64 = 1024 * MB;
/// One tebibyte.
pub const TB: u64 = 1024 * GB;

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Construct from raw bytes.
    #[inline]
    pub const fn bytes(n: u64) -> Self {
        ByteSize(n)
    }

    /// Construct from kibibytes.
    #[inline]
    pub const fn kb(n: u64) -> Self {
        ByteSize(n * KB)
    }

    /// Construct from mebibytes.
    #[inline]
    pub const fn mb(n: u64) -> Self {
        ByteSize(n * MB)
    }

    /// Construct from gibibytes.
    #[inline]
    pub const fn gb(n: u64) -> Self {
        ByteSize(n * GB)
    }

    /// Construct from tebibytes.
    #[inline]
    pub const fn tb(n: u64) -> Self {
        ByteSize(n * TB)
    }

    /// Construct from a fractional number of mebibytes (clamped at zero).
    pub fn mb_f64(mb: f64) -> Self {
        ByteSize((mb.max(0.0) * MB as f64).round() as u64)
    }

    /// Raw byte count.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Value in mebibytes as a float.
    #[inline]
    pub fn as_mb(self) -> f64 {
        self.0 as f64 / MB as f64
    }

    /// Value in gibibytes as a float.
    #[inline]
    pub fn as_gb(self) -> f64 {
        self.0 as f64 / GB as f64
    }

    /// Value in tebibytes as a float.
    #[inline]
    pub fn as_tb(self) -> f64 {
        self.0 as f64 / TB as f64
    }

    /// True if this is exactly zero bytes.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_add(rhs.0))
    }

    /// Checked subtraction.
    #[inline]
    pub fn checked_sub(self, rhs: ByteSize) -> Option<ByteSize> {
        self.0.checked_sub(rhs.0).map(ByteSize)
    }

    /// The smaller of two sizes.
    #[inline]
    pub fn min(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.min(rhs.0))
    }

    /// The larger of two sizes.
    #[inline]
    pub fn max(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.max(rhs.0))
    }

    /// Multiply by a non-negative float (used for "report only a fraction of free
    /// space per `getCapacity`" policies), rounding down, saturating.
    pub fn scale(self, factor: f64) -> ByteSize {
        debug_assert!(factor >= 0.0);
        let scaled = (self.0 as f64 * factor).floor();
        if scaled >= u64::MAX as f64 {
            ByteSize(u64::MAX)
        } else {
            ByteSize(scaled as u64)
        }
    }

    /// Integer division rounding up: how many `unit`-sized pieces cover `self`.
    pub fn div_ceil(self, unit: ByteSize) -> u64 {
        assert!(!unit.is_zero(), "division by zero-sized unit");
        self.0.div_ceil(unit.0)
    }

    /// Fraction `self / total` in `[0, 1]` (0 when `total` is zero).
    pub fn fraction_of(self, total: ByteSize) -> f64 {
        if total.is_zero() {
            0.0
        } else {
            self.0 as f64 / total.0 as f64
        }
    }
}

impl fmt::Debug for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= TB {
            write!(f, "{:.2} TB", self.as_tb())
        } else if b >= GB {
            write!(f, "{:.2} GB", self.as_gb())
        } else if b >= MB {
            write!(f, "{:.2} MB", self.as_mb())
        } else if b >= KB {
            write!(f, "{:.2} KB", b as f64 / KB as f64)
        } else {
            write!(f, "{b} B")
        }
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for ByteSize {
    fn sub_assign(&mut self, rhs: ByteSize) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for ByteSize {
    type Output = ByteSize;
    fn mul(self, rhs: u64) -> ByteSize {
        ByteSize(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for ByteSize {
    type Output = ByteSize;
    fn div(self, rhs: u64) -> ByteSize {
        ByteSize(self.0 / rhs)
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        iter.fold(ByteSize::ZERO, |acc, x| acc + x)
    }
}

impl From<u64> for ByteSize {
    fn from(v: u64) -> Self {
        ByteSize(v)
    }
}

impl From<ByteSize> for u64 {
    fn from(v: ByteSize) -> Self {
        v.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_units() {
        assert_eq!(ByteSize::kb(1).as_u64(), 1024);
        assert_eq!(ByteSize::mb(1).as_u64(), 1024 * 1024);
        assert_eq!(ByteSize::gb(2).as_u64(), 2 * GB);
        assert_eq!(ByteSize::tb(1).as_u64(), TB);
        assert_eq!(ByteSize::mb_f64(1.5).as_u64(), 3 * MB / 2);
    }

    #[test]
    fn display_picks_units() {
        assert_eq!(format!("{}", ByteSize::bytes(512)), "512 B");
        assert_eq!(format!("{}", ByteSize::kb(2)), "2.00 KB");
        assert_eq!(format!("{}", ByteSize::mb(243)), "243.00 MB");
        assert_eq!(format!("{}", ByteSize::gb(45)), "45.00 GB");
        assert_eq!(format!("{}", ByteSize::tb(278)), "278.00 TB");
    }

    #[test]
    fn arithmetic_saturates() {
        let max = ByteSize(u64::MAX);
        assert_eq!(max + ByteSize::gb(1), max);
        assert_eq!(ByteSize::gb(1) - ByteSize::gb(2), ByteSize::ZERO);
        assert_eq!(max * 2, max);
    }

    #[test]
    fn checked_sub_behaviour() {
        assert_eq!(
            ByteSize::gb(2).checked_sub(ByteSize::gb(1)),
            Some(ByteSize::gb(1))
        );
        assert_eq!(ByteSize::gb(1).checked_sub(ByteSize::gb(2)), None);
    }

    #[test]
    fn scale_and_fraction() {
        assert_eq!(ByteSize::gb(10).scale(0.5), ByteSize::gb(5));
        assert_eq!(ByteSize::gb(10).scale(0.0), ByteSize::ZERO);
        let f = ByteSize::gb(1).fraction_of(ByteSize::gb(4));
        assert!((f - 0.25).abs() < 1e-12);
        assert_eq!(ByteSize::gb(1).fraction_of(ByteSize::ZERO), 0.0);
    }

    #[test]
    fn div_ceil_counts_pieces() {
        assert_eq!(ByteSize::mb(9).div_ceil(ByteSize::mb(4)), 3);
        assert_eq!(ByteSize::mb(8).div_ceil(ByteSize::mb(4)), 2);
        assert_eq!(ByteSize::ZERO.div_ceil(ByteSize::mb(4)), 0);
    }

    #[test]
    #[should_panic(expected = "zero-sized unit")]
    fn div_ceil_zero_unit_panics() {
        let _ = ByteSize::mb(1).div_ceil(ByteSize::ZERO);
    }

    #[test]
    fn sum_of_sizes() {
        let total: ByteSize = vec![ByteSize::mb(1), ByteSize::mb(2), ByteSize::mb(3)]
            .into_iter()
            .sum();
        assert_eq!(total, ByteSize::mb(6));
    }

    #[test]
    fn ordering() {
        assert!(ByteSize::mb(50) < ByteSize::mb(243));
        assert_eq!(ByteSize::mb(1).max(ByteSize::kb(1)), ByteSize::mb(1));
        assert_eq!(ByteSize::mb(1).min(ByteSize::kb(1)), ByteSize::kb(1));
    }

    #[test]
    fn serde_round_trip() {
        let v = ByteSize::gb(45);
        let json = serde_json::to_string(&v).unwrap();
        assert_eq!(json, format!("{}", 45 * GB));
        let back: ByteSize = serde_json::from_str(&json).unwrap();
        assert_eq!(back, v);
    }
}
