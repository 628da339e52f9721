//! Small dense linear algebra over `Fp`.
//!
//! The conversions between the representations F1 and F2 of Fig. 1 (and the
//! embedding of `Fp3` into `Fp6` used by torus compression) are `Fp`-linear
//! basis changes. This module provides the dense-matrix plumbing for
//! precomputing those maps: matrix/vector products and Gauss–Jordan
//! elimination for solving and inverting.

use crate::error::FieldError;
use crate::fp::{FpContext, FpElement};

/// A dense matrix over `Fp` in row-major order.
#[derive(Clone)]
pub struct FpMatrix {
    fp: FpContext,
    rows: usize,
    cols: usize,
    data: Vec<FpElement>,
}

impl std::fmt::Debug for FpMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FpMatrix({}x{})", self.rows, self.cols)
    }
}

impl PartialEq for FpMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.data == other.data
    }
}

impl Eq for FpMatrix {}

impl FpMatrix {
    /// Creates a zero matrix of the given shape.
    pub fn zero(fp: &FpContext, rows: usize, cols: usize) -> Self {
        FpMatrix {
            fp: fp.clone(),
            rows,
            cols,
            data: vec![fp.zero(); rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(fp: &FpContext, n: usize) -> Self {
        let mut m = FpMatrix::zero(fp, n, n);
        for i in 0..n {
            m.set(i, i, fp.one());
        }
        m
    }

    /// Builds a matrix from rows of elements.
    ///
    /// # Panics
    ///
    /// Panics if the rows are empty or have differing lengths.
    pub fn from_rows(fp: &FpContext, rows: &[Vec<FpElement>]) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == cols), "ragged rows");
        FpMatrix {
            fp: fp.clone(),
            rows: rows.len(),
            cols,
            data: rows.iter().flatten().cloned().collect(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the entry at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn get(&self, r: usize, c: usize) -> &FpElement {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }

    /// Sets the entry at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: FpElement) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[FpElement]) -> Vec<FpElement> {
        assert_eq!(v.len(), self.cols, "dimension mismatch");
        let t = self.fp.tally();
        (0..self.rows)
            .map(|r| {
                let mut acc = self.fp.zero();
                for (c, v_c) in v.iter().enumerate() {
                    acc = t.add(&acc, &t.mul(self.get(r, c), v_c));
                }
                acc
            })
            .collect()
    }

    /// Matrix–matrix product.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions do not match.
    pub fn mul_mat(&self, other: &FpMatrix) -> FpMatrix {
        assert_eq!(self.cols, other.rows, "dimension mismatch");
        let mut out = FpMatrix::zero(&self.fp, self.rows, other.cols);
        let t = self.fp.tally();
        for r in 0..self.rows {
            for c in 0..other.cols {
                let mut acc = self.fp.zero();
                for k in 0..self.cols {
                    acc = t.add(&acc, &t.mul(self.get(r, k), other.get(k, c)));
                }
                out.set(r, c, acc);
            }
        }
        out
    }

    /// Solves `self · x = b` for a square, invertible matrix.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::DivisionByZero`] if the matrix is singular.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `b.len() != rows`.
    pub fn solve(&self, b: &[FpElement]) -> Result<Vec<FpElement>, FieldError> {
        assert_eq!(self.rows, self.cols, "solve requires a square matrix");
        assert_eq!(b.len(), self.rows, "dimension mismatch");
        let inv = self.inverse()?;
        Ok(inv.mul_vec(b))
    }

    /// Computes the inverse of a square matrix by Gauss–Jordan elimination.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::DivisionByZero`] if the matrix is singular.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn inverse(&self) -> Result<FpMatrix, FieldError> {
        assert_eq!(self.rows, self.cols, "inverse requires a square matrix");
        let n = self.rows;
        let fp = &self.fp;
        let mut a = self.clone();
        let mut inv = FpMatrix::identity(fp, n);

        for col in 0..n {
            // Find a pivot.
            let pivot_row = (col..n)
                .find(|&r| !a.get(r, col).is_zero())
                .ok_or(FieldError::DivisionByZero)?;
            if pivot_row != col {
                a.swap_rows(pivot_row, col);
                inv.swap_rows(pivot_row, col);
            }
            // Normalise the pivot row.
            let pivot_inv = fp.inv(a.get(col, col)).ok_or(FieldError::DivisionByZero)?;
            for c in 0..n {
                a.set(col, c, fp.mul(a.get(col, c), &pivot_inv));
                inv.set(col, c, fp.mul(inv.get(col, c), &pivot_inv));
            }
            // Eliminate the column from every other row.
            for r in 0..n {
                if r == col || a.get(r, col).is_zero() {
                    continue;
                }
                let factor = *a.get(r, col);
                for c in 0..n {
                    let va = fp.sub(a.get(r, c), &fp.mul(&factor, a.get(col, c)));
                    a.set(r, c, va);
                    let vi = fp.sub(inv.get(r, c), &fp.mul(&factor, inv.get(col, c)));
                    inv.set(r, c, vi);
                }
            }
        }
        Ok(inv)
    }

    fn swap_rows(&mut self, r1: usize, r2: usize) {
        if r1 == r2 {
            return;
        }
        for c in 0..self.cols {
            self.data.swap(r1 * self.cols + c, r2 * self.cols + c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bignum::BigUint;

    fn ctx() -> FpContext {
        FpContext::new(&BigUint::from(97u64)).unwrap()
    }

    fn mat_from_u64(fp: &FpContext, rows: &[&[u64]]) -> FpMatrix {
        FpMatrix::from_rows(
            fp,
            &rows
                .iter()
                .map(|r| r.iter().map(|&v| fp.from_u64(v)).collect())
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn identity_acts_trivially() {
        let fp = ctx();
        let id = FpMatrix::identity(&fp, 3);
        let v = vec![fp.from_u64(1), fp.from_u64(2), fp.from_u64(3)];
        assert_eq!(id.mul_vec(&v), v);
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let fp = ctx();
        let m = mat_from_u64(&fp, &[&[2, 1, 0], &[1, 3, 1], &[0, 1, 4]]);
        let inv = m.inverse().unwrap();
        assert_eq!(m.mul_mat(&inv), FpMatrix::identity(&fp, 3));
        assert_eq!(inv.mul_mat(&m), FpMatrix::identity(&fp, 3));
    }

    #[test]
    fn singular_matrix_is_rejected() {
        let fp = ctx();
        let m = mat_from_u64(&fp, &[&[1, 2], &[2, 4]]);
        assert_eq!(m.inverse().unwrap_err(), FieldError::DivisionByZero);
    }

    #[test]
    fn solve_linear_system() {
        let fp = ctx();
        let m = mat_from_u64(&fp, &[&[1, 1], &[1, 96]]); // [[1,1],[1,-1]] mod 97
        let b = vec![fp.from_u64(10), fp.from_u64(4)];
        let x = m.solve(&b).unwrap();
        assert_eq!(m.mul_vec(&x), b);
        assert_eq!(x[0], fp.from_u64(7));
        assert_eq!(x[1], fp.from_u64(3));
    }

    #[test]
    fn pivoting_handles_zero_leading_entries() {
        let fp = ctx();
        let m = mat_from_u64(&fp, &[&[0, 1], &[1, 0]]);
        let inv = m.inverse().unwrap();
        assert_eq!(m.mul_mat(&inv), FpMatrix::identity(&fp, 2));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_dimensions_panic() {
        let fp = ctx();
        let m = mat_from_u64(&fp, &[&[1, 2], &[3, 4]]);
        let _ = m.mul_vec(&[fp.from_u64(1)]);
    }
}
