//! Dense matrices over GF(2⁸), the linear algebra behind the Reed–Solomon
//! codec: Vandermonde construction, multiplication, systematic-form
//! conversion for encoding, and Gauss–Jordan inversion for decoding.

use crate::gf256;

/// A dense `rows × cols` matrix over GF(2⁸), stored row-major.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GfMatrix {
    rows: usize,
    cols: usize,
    data: Vec<u8>,
}

impl GfMatrix {
    /// The all-zero matrix.
    pub fn zero(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        GfMatrix {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// The `rows × cols` Vandermonde matrix with evaluation points
    /// `0, 1, …, rows − 1`: entry `(r, c)` is `r^c` (with `0⁰ = 1`).
    ///
    /// The points are distinct field elements, so *every* square submatrix
    /// formed by choosing `cols` of the rows is invertible — the property that
    /// makes any `n` of the `m` encoded blocks sufficient for decoding.
    /// Requires `rows ≤ 256` (the field has only 256 distinct points).
    pub fn vandermonde(rows: usize, cols: usize) -> Self {
        assert!(
            rows <= 256,
            "GF(256) has only 256 distinct evaluation points"
        );
        let mut m = GfMatrix::zero(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, gf256::pow(r as u8, c));
            }
        }
        m
    }

    /// Entry at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> u8 {
        self.data[r * self.cols + c] // r*cols+c < rows*cols == data.len(), the matrix invariant
    }

    /// Set the entry at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: u8) {
        self.data[r * self.cols + c] = v; // r*cols+c < rows*cols == data.len(), the matrix invariant
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[u8] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [u8] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The matrix formed by the given rows of `self`, in the given order.
    pub fn select_rows(&self, indices: &[usize]) -> GfMatrix {
        let mut m = GfMatrix::zero(indices.len(), self.cols);
        for (out_r, &r) in indices.iter().enumerate() {
            m.data[out_r * self.cols..(out_r + 1) * self.cols].copy_from_slice(self.row(r));
        }
        m
    }

    /// Matrix product `self · other`.  Panics on a dimension mismatch.
    pub fn mul(&self, other: &GfMatrix) -> GfMatrix {
        assert_eq!(
            self.cols, other.rows,
            "dimension mismatch: {}×{} · {}×{}",
            self.rows, self.cols, other.rows, other.cols
        );
        // Each `(r, k)` term is `out.row(r) ^= a · other.row(k)` — the same
        // accumulate shape as parity generation, so it runs on the slice
        // kernels rather than per-entry field multiplies.
        let mut out = GfMatrix::zero(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                gf256::mul_add_slice(self.get(r, k), other.row(k), out.row_mut(r));
            }
        }
        out
    }

    /// The inverse of a square matrix via Gauss–Jordan elimination with
    /// partial pivoting, or `None` if the matrix is singular.
    pub fn invert(&self) -> Option<GfMatrix> {
        assert_eq!(self.rows, self.cols, "only square matrices invert");
        let n = self.rows;
        // Augmented working copy [A | I].
        let mut work = GfMatrix::zero(n, 2 * n);
        for r in 0..n {
            for c in 0..n {
                work.set(r, c, self.get(r, c));
            }
            work.set(r, n + r, 1);
        }
        for col in 0..n {
            // Find a non-zero pivot at or below the diagonal.
            let pivot = (col..n).find(|&r| work.get(r, col) != 0)?;
            if pivot != col {
                for c in 0..2 * n {
                    let (a, b) = (work.get(col, c), work.get(pivot, c));
                    work.set(col, c, b);
                    work.set(pivot, c, a);
                }
            }
            // Scale the pivot row to a leading 1.
            let scale = gf256::inv(work.get(col, col));
            if scale != 1 {
                for c in 0..2 * n {
                    work.set(col, c, gf256::mul(scale, work.get(col, c)));
                }
            }
            // Eliminate the column everywhere else.
            for r in 0..n {
                let factor = work.get(r, col);
                if r == col || factor == 0 {
                    continue;
                }
                for c in 0..2 * n {
                    let v = work.get(r, c) ^ gf256::mul(factor, work.get(col, c));
                    work.set(r, c, v);
                }
            }
        }
        let mut out = GfMatrix::zero(n, n);
        for r in 0..n {
            for c in 0..n {
                out.set(r, c, work.get(r, n + c));
            }
        }
        Some(out)
    }

    /// Convert an `m × n` encode matrix (`m ≥ n`, top `n × n` part invertible)
    /// to *systematic* form: right-multiply by the inverse of its top square so
    /// the first `n` rows become the identity while every `n`-row subset stays
    /// invertible.  Returns `None` when the top square is singular.
    pub fn systematic(&self) -> Option<GfMatrix> {
        assert!(self.rows >= self.cols, "need at least cols rows");
        let top: Vec<usize> = (0..self.cols).collect();
        let inv = self.select_rows(&top).invert()?;
        Some(self.mul(&inv))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `n × n` identity matrix.
    fn identity(n: usize) -> GfMatrix {
        let mut m = GfMatrix::zero(n, n);
        for i in 0..n {
            m.set(i, i, 1);
        }
        m
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let v = GfMatrix::vandermonde(5, 3);
        assert_eq!(identity(5).mul(&v), v);
        assert_eq!(v.mul(&identity(3)), v);
    }

    #[test]
    fn vandermonde_entries_are_powers() {
        let v = GfMatrix::vandermonde(6, 4);
        for r in 0..6 {
            for c in 0..4 {
                assert_eq!(v.get(r, c), gf256::pow(r as u8, c));
            }
        }
        // Row 0 evaluates the point 0: [1, 0, 0, 0].
        assert_eq!(v.row(0), &[1, 0, 0, 0]);
    }

    #[test]
    fn inverse_round_trips() {
        for n in [1usize, 2, 3, 5, 8, 16] {
            let m = GfMatrix::vandermonde(n, n);
            let inv = m.invert().expect("Vandermonde is invertible");
            assert_eq!(m.mul(&inv), identity(n));
            assert_eq!(inv.mul(&m), identity(n));
        }
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        let mut m = GfMatrix::zero(3, 3);
        // Two equal rows.
        for c in 0..3 {
            m.set(0, c, c as u8 + 1);
            m.set(1, c, c as u8 + 1);
            m.set(2, c, 7);
        }
        assert!(m.invert().is_none());
    }

    #[test]
    fn systematic_form_has_identity_top() {
        let enc = GfMatrix::vandermonde(9, 5).systematic().unwrap();
        for r in 0..5 {
            for c in 0..5 {
                assert_eq!(enc.get(r, c), u8::from(r == c), "({r},{c})");
            }
        }
    }

    #[test]
    fn every_row_subset_of_systematic_vandermonde_inverts() {
        // The decoding guarantee: any n rows of the m×n encode matrix are
        // linearly independent.  Exhaustive over all C(6,3) subsets.
        let enc = GfMatrix::vandermonde(6, 3).systematic().unwrap();
        for a in 0..6 {
            for b in a + 1..6 {
                for c in b + 1..6 {
                    let sub = enc.select_rows(&[a, b, c]);
                    assert!(sub.invert().is_some(), "rows {a},{b},{c} singular");
                }
            }
        }
    }

    #[test]
    fn select_rows_preserves_order() {
        let v = GfMatrix::vandermonde(5, 2);
        let s = v.select_rows(&[4, 0]);
        assert_eq!(s.row(0), v.row(4));
        assert_eq!(s.row(1), v.row(0));
    }
}
