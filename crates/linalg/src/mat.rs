//! Dense, row-major `f64` matrices.

use crate::{LinalgError, Result};
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A dense, row-major matrix of `f64` values.
///
/// `Mat` is the workhorse type of the whole reproduction: video features
/// (`k × α` per Section III of the paper), subspace bases (`α × β`), homographies
/// (`3 × 3`) and covariance matrices are all `Mat`s.
///
/// # Example
///
/// ```
/// use eecs_linalg::Mat;
///
/// let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Mat::identity(2);
/// let c = a.matmul(&b);
/// assert_eq!(c, a);
/// ```
#[derive(Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Mat {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Mat { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have the same length");
            data.extend_from_slice(r);
        }
        Mat {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix whose rows are the given vectors.
    pub fn from_row_vecs(rows: &[Vec<f64>]) -> Self {
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Mat::from_rows(&refs)
    }

    /// Creates a square diagonal matrix with `diag` on the main diagonal.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Mat::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Builds a matrix element-wise from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Mat { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` when the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row {} out of bounds ({})", i, self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "col {} out of bounds ({})", j, self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Overwrites column `j` with `v`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols` or `v.len() != rows`.
    pub fn set_col(&mut self, j: usize, v: &[f64]) {
        assert!(j < self.cols, "col {} out of bounds ({})", j, self.cols);
        assert_eq!(v.len(), self.rows, "column length mismatch");
        for i in 0..self.rows {
            self[(i, j)] = v[i];
        }
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree; use [`Mat::try_matmul`] for a
    /// fallible version.
    pub fn matmul(&self, rhs: &Mat) -> Mat {
        self.try_matmul(rhs).expect("matmul shape mismatch")
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols != rhs.rows`.
    pub fn try_matmul(&self, rhs: &Mat) -> Result<Mat> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Mat::zeros(self.rows, rhs.cols);
        // i-k-j loop order keeps the inner loop contiguous in both `rhs` and
        // `out`, which matters for the large feature matrices in this project.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let rrow = rhs.row(k);
                let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &r) in orow.iter_mut().zip(rrow) {
                    *o += a * r;
                }
            }
        }
        Ok(out)
    }

    /// Computes `selfᵀ * rhs` without materializing the transpose.
    pub fn transpose_matmul(&self, rhs: &Mat) -> Result<Mat> {
        if self.rows != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "transpose_matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Mat::zeros(self.cols, rhs.cols);
        for k in 0..self.rows {
            let lrow = self.row(k);
            let rrow = rhs.row(k);
            for (i, &a) in lrow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &r) in orow.iter_mut().zip(rrow) {
                    *o += a * r;
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != cols`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "matvec length mismatch");
        (0..self.rows).map(|i| dot(self.row(i), v)).collect()
    }

    /// Scales every element by `s`, returning a new matrix.
    pub fn scale(&self, s: f64) -> Mat {
        let mut out = self.clone();
        for x in &mut out.data {
            *x *= s;
        }
        out
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Mat {
        let mut out = self.clone();
        for x in &mut out.data {
            *x = f(*x);
        }
        out
    }

    /// Extracts the sub-matrix of `nrows` rows and `ncols` columns starting
    /// at `(r0, c0)`.
    ///
    /// # Panics
    ///
    /// Panics if the requested block exceeds the matrix bounds.
    pub fn submatrix(&self, r0: usize, c0: usize, nrows: usize, ncols: usize) -> Mat {
        assert!(
            r0 + nrows <= self.rows && c0 + ncols <= self.cols,
            "submatrix out of bounds"
        );
        Mat::from_fn(nrows, ncols, |i, j| self[(r0 + i, c0 + j)])
    }

    /// Horizontally concatenates `self` and `rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if row counts differ.
    pub fn hstack(&self, rhs: &Mat) -> Result<Mat> {
        if self.rows != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "hstack",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Mat::zeros(self.rows, self.cols + rhs.cols);
        for i in 0..self.rows {
            out.data[i * out.cols..i * out.cols + self.cols].copy_from_slice(self.row(i));
            out.data[i * out.cols + self.cols..(i + 1) * out.cols].copy_from_slice(rhs.row(i));
        }
        Ok(out)
    }

    /// Vertically concatenates `self` and `rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if column counts differ.
    pub fn vstack(&self, rhs: &Mat) -> Result<Mat> {
        if self.cols != rhs.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "vstack",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut data = self.data.clone();
        data.extend_from_slice(&rhs.data);
        Ok(Mat::from_vec(self.rows + rhs.rows, self.cols, data))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Largest absolute element, or 0 for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, x| m.max(x.abs()))
    }

    /// Trace (sum of diagonal entries).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert_eq!(self.rows, self.cols, "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Returns `true` when all elements of `self - other` are within `tol`.
    pub fn approx_eq(&self, other: &Mat, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Iterates over the rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks(self.cols.max(1))
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm of a slice.
#[inline]
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:>10.4}", self[(i, j)])?;
                if j + 1 < self.cols.min(8) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Add for &Mat {
    type Output = Mat;
    fn add(self, rhs: &Mat) -> Mat {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        let mut out = self.clone();
        out += rhs;
        out
    }
}

impl AddAssign<&Mat> for Mat {
    fn add_assign(&mut self, rhs: &Mat) {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl Sub for &Mat {
    type Output = Mat;
    fn sub(self, rhs: &Mat) -> Mat {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        let mut out = self.clone();
        out -= rhs;
        out
    }
}

impl SubAssign<&Mat> for Mat {
    fn sub_assign(&mut self, rhs: &Mat) {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }
}

impl Mul<f64> for &Mat {
    type Output = Mat;
    fn mul(self, s: f64) -> Mat {
        self.scale(s)
    }
}

impl Neg for &Mat {
    type Output = Mat;
    fn neg(self) -> Mat {
        self.scale(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Mat::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let i = Mat::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i.trace(), 3.0);
    }

    #[test]
    fn matmul_known_product() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Mat::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        assert!(matches!(
            a.try_matmul(&b),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn transpose_matmul_matches_explicit() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Mat::from_rows(&[&[1.0, 0.0], &[2.0, 1.0], &[0.0, 3.0]]);
        let fast = a.transpose_matmul(&b).unwrap();
        let slow = a.transpose().matmul(&b);
        assert!(fast.approx_eq(&slow, 1e-14));
    }

    #[test]
    fn transpose_involution() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let v = [5.0, 6.0];
        let mv = a.matvec(&v);
        let mm = a.matmul(&Mat::from_vec(2, 1, v.to_vec()));
        assert_eq!(mv, mm.col(0));
    }

    #[test]
    fn hstack_vstack() {
        let a = Mat::from_rows(&[&[1.0], &[2.0]]);
        let b = Mat::from_rows(&[&[3.0], &[4.0]]);
        let h = a.hstack(&b).unwrap();
        assert_eq!(h, Mat::from_rows(&[&[1.0, 3.0], &[2.0, 4.0]]));
        let v = a.vstack(&b).unwrap();
        assert_eq!(v, Mat::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0]]));
    }

    #[test]
    fn hstack_shape_mismatch() {
        let a = Mat::zeros(2, 1);
        let b = Mat::zeros(3, 1);
        assert!(a.hstack(&b).is_err());
        assert!(Mat::zeros(2, 2).vstack(&Mat::zeros(2, 3)).is_err());
    }

    #[test]
    fn submatrix_extracts_block() {
        let a = Mat::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let s = a.submatrix(1, 2, 2, 2);
        assert_eq!(s, Mat::from_rows(&[&[6.0, 7.0], &[10.0, 11.0]]));
    }

    #[test]
    fn row_col_access() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.row(1), &[3.0, 4.0]);
        assert_eq!(a.col(0), vec![1.0, 3.0]);
        let mut b = a.clone();
        b.set_col(1, &[9.0, 8.0]);
        assert_eq!(b.col(1), vec![9.0, 8.0]);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Mat::from_rows(&[&[1.0, 2.0]]);
        let b = Mat::from_rows(&[&[3.0, 5.0]]);
        assert_eq!(&a + &b, Mat::from_rows(&[&[4.0, 7.0]]));
        assert_eq!(&b - &a, Mat::from_rows(&[&[2.0, 3.0]]));
        assert_eq!(&a * 2.0, Mat::from_rows(&[&[2.0, 4.0]]));
        assert_eq!(-&a, Mat::from_rows(&[&[-1.0, -2.0]]));
    }

    #[test]
    fn norms() {
        let a = Mat::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-15);
        assert_eq!(a.max_abs(), 4.0);
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn from_diag_builds_diagonal() {
        let d = Mat::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d.trace(), 6.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn debug_is_nonempty() {
        let s = format!("{:?}", Mat::zeros(1, 1));
        assert!(s.contains("Mat 1x1"));
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_validates_len() {
        let _ = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn iter_rows_yields_all_rows() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let rows: Vec<&[f64]> = a.iter_rows().collect();
        assert_eq!(rows, vec![&[1.0, 2.0][..], &[3.0, 4.0][..]]);
    }
}
