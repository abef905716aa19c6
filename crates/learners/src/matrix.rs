//! A minimal dense, row-major `f64` matrix with just the linear algebra the
//! reproduction needs: products, transposes, and solving small linear
//! systems (normal equations, influence-function Hessians).

use crate::error::LearnError;
use crate::Result;

/// Dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix from row-major data; `data.len()` must equal
    /// `rows * cols`.
    pub fn new(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LearnError::DimensionMismatch {
                detail: format!(
                    "{rows}x{cols} matrix needs {} values, got {}",
                    rows * cols,
                    data.len()
                ),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// A matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from rows; all rows must have equal length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        let n = rows.len();
        let cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(n * cols);
        for row in rows {
            if row.len() != cols {
                return Err(LearnError::DimensionMismatch {
                    detail: format!("ragged rows: expected {cols}, got {}", row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: n,
            cols,
            data,
        })
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Borrow of row `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The element at (`i`, `j`).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Sets the element at (`i`, `j`).
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] = v;
    }

    /// Underlying row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Gathers the given rows into a new matrix.
    pub fn take_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        }
    }

    /// Matrix–vector product.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(LearnError::DimensionMismatch {
                detail: format!("matvec: {} cols vs vector of {}", self.cols, v.len()),
            });
        }
        Ok((0..self.rows).map(|i| dot(self.row(i), v)).collect())
    }

    /// Matrix–matrix product `self * other`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LearnError::DimensionMismatch {
                detail: format!(
                    "matmul: {}x{} * {}x{}",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out.data[i * other.cols + j] += a * other.get(k, j);
                }
            }
        }
        Ok(out)
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Gram matrix `Xᵀ X`.
    pub fn gram(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.cols);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..self.cols {
                let a = row[i];
                if a == 0.0 {
                    continue;
                }
                for (j, &rj) in row.iter().enumerate().skip(i) {
                    out.data[i * self.cols + j] += a * rj;
                }
            }
        }
        for i in 0..self.cols {
            for j in 0..i {
                out.data[i * self.cols + j] = out.data[j * self.cols + i];
            }
        }
        out
    }

    /// Solves `self * x = b` by Gaussian elimination with partial pivoting.
    /// `self` must be square; returns [`LearnError::SingularMatrix`] when no
    /// unique solution exists.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        if self.rows != self.cols {
            return Err(LearnError::DimensionMismatch {
                detail: format!(
                    "solve needs a square matrix, got {}x{}",
                    self.rows, self.cols
                ),
            });
        }
        if b.len() != self.rows {
            return Err(LearnError::DimensionMismatch {
                detail: format!("solve: {} rows vs rhs of {}", self.rows, b.len()),
            });
        }
        let n = self.rows;
        let mut a = self.data.clone();
        let mut x = b.to_vec();
        for col in 0..n {
            // Partial pivot.
            let pivot = (col..n)
                .max_by(|&i, &j| a[i * n + col].abs().total_cmp(&a[j * n + col].abs()))
                .expect("non-empty range");
            if a[pivot * n + col].abs() < 1e-12 {
                return Err(LearnError::SingularMatrix);
            }
            if pivot != col {
                for j in 0..n {
                    a.swap(col * n + j, pivot * n + j);
                }
                x.swap(col, pivot);
            }
            let diag = a[col * n + col];
            for i in (col + 1)..n {
                let factor = a[i * n + col] / diag;
                if factor == 0.0 {
                    continue;
                }
                for j in col..n {
                    a[i * n + j] -= factor * a[col * n + j];
                }
                x[i] -= factor * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            x[col] /= a[col * n + col];
            for i in 0..col {
                x[i] -= a[i * n + col] * x[col];
            }
        }
        Ok(x)
    }

    /// Every row's dot product with every row of `w`:
    /// `out[i * w.nrows() + k] = dot(w.row(k), self.row(i))` bit for bit —
    /// `X Wᵀ`, the logits of a linear model with weight rows `w`.
    ///
    /// Like [`sq_dists`], it blocks over rows: each block of four
    /// rows runs one independent accumulator per row, and every dot adds
    /// its terms in column order starting from `-0.0`. A NaN dot gets
    /// [`CANONICAL_NAN`].
    ///
    /// # Panics
    ///
    /// When the widths differ or `out` does not hold
    /// `self.nrows() * w.nrows()` values.
    pub fn dot_rows(&self, w: &Matrix, out: &mut [f64]) {
        let (d, c) = (self.cols, w.rows);
        assert_eq!(
            w.cols, d,
            "dot_rows: width {d} vs weights of width {}",
            w.cols
        );
        assert_eq!(
            out.len(),
            self.rows * c,
            "dot_rows: output of {} for {}x{c} values",
            out.len(),
            self.rows
        );
        let n = self.rows;
        let full = n - n % BLOCK;
        for i in (0..full).step_by(BLOCK) {
            let (r0, rest) = self.data[i * d..(i + BLOCK) * d].split_at(d);
            let (r1, rest) = rest.split_at(d);
            let (r2, r3) = rest.split_at(d);
            for k in 0..c {
                let mut acc = [-0.0f64; BLOCK];
                for ((((&x, &a), &b), &cc), &e) in w.row(k).iter().zip(r0).zip(r1).zip(r2).zip(r3) {
                    acc[0] += x * a;
                    acc[1] += x * b;
                    acc[2] += x * cc;
                    acc[3] += x * e;
                }
                for (r, a) in acc.into_iter().enumerate() {
                    out[(i + r) * c + k] = canonical(a);
                }
            }
        }
        for i in full..n {
            for k in 0..c {
                out[i * c + k] = dot(w.row(k), self.row(i));
            }
        }
    }

    /// Adds `lambda` to the diagonal (ridge regularization) in place.
    pub fn add_ridge(&mut self, lambda: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self.data[i * self.cols + i] += lambda;
        }
    }
}

/// The one NaN that [`dot`], [`sq_dist`] and their blocked kernels
/// return: a quiet NaN with the sign bit clear, which the neighbor order
/// (`f64::total_cmp`) ranks after `+∞`.
///
/// Which NaN an arithmetic operation returns is not specified: on x86 an
/// add passes on one operand's NaN, and the compiler may swap the operands
/// of a commutative add, so the same sum can come out `+NaN` in one
/// function and `-NaN` in another. Returning one fixed NaN keeps every
/// kernel equal to its scalar reference bit for bit, and a NaN distance
/// ranks the same on every path.
pub const CANONICAL_NAN: f64 = f64::from_bits(0x7ff8_0000_0000_0000);

/// `x`, with every NaN replaced by [`CANONICAL_NAN`].
#[inline]
fn canonical(x: f64) -> f64 {
    if x.is_nan() {
        CANONICAL_NAN
    } else {
        x
    }
}

/// Rows per block of the candidate-blocked kernels ([`sq_dists`],
/// [`Matrix::dot_rows`]): each block runs this many independent
/// accumulators side by side.
const BLOCK: usize = 4;

/// Squared Euclidean distances from `q` to every row of a row-major block:
/// `out[i] = sq_dist(row_i, q)` bit for bit, where `row_i` is
/// `rows[i * d..(i + 1) * d]` and `d = q.len()`.
///
/// The kernel blocks over candidates, not over dimensions: it runs
/// four rows at a time as independent accumulators, and each row's
/// sum still adds its terms in column order starting from `-0.0` (where
/// `Iterator::sum` over `f64` starts), so no sum is re-associated. A
/// zero-width row therefore gets `-0.0`, as [`sq_dist`] gives it, and a
/// NaN sum gets [`CANONICAL_NAN`].
///
/// # Panics
///
/// When `rows.len() != out.len() * q.len()`.
pub fn sq_dists(rows: &[f64], q: &[f64], out: &mut [f64]) {
    let d = q.len();
    assert_eq!(
        rows.len(),
        out.len() * d,
        "sq_dists: {} values for {} rows of width {d}",
        rows.len(),
        out.len()
    );
    let n = out.len();
    let full = n - n % BLOCK;
    for i in (0..full).step_by(BLOCK) {
        let (r0, rest) = rows[i * d..(i + BLOCK) * d].split_at(d);
        let (r1, rest) = rest.split_at(d);
        let (r2, r3) = rest.split_at(d);
        let mut acc = [-0.0f64; BLOCK];
        for ((((&y, &a), &b), &c), &e) in q.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
            let (t0, t1, t2, t3) = (a - y, b - y, c - y, e - y);
            acc[0] += t0 * t0;
            acc[1] += t1 * t1;
            acc[2] += t2 * t2;
            acc[3] += t3 * t3;
        }
        for (o, a) in out[i..i + BLOCK].iter_mut().zip(acc) {
            *o = canonical(a);
        }
    }
    for i in full..n {
        out[i] = sq_dist(&rows[i * d..(i + 1) * d], q);
    }
}

/// Dot product of equal-length slices. A NaN result is
/// [`CANONICAL_NAN`].
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    canonical(a.iter().zip(b).map(|(x, y)| x * y).sum())
}

/// Squared Euclidean distance between equal-length slices. A NaN result
/// is [`CANONICAL_NAN`].
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    canonical(a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_checks_dims() {
        assert!(Matrix::new(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::new(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn matvec_and_matmul() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert!(m.matvec(&[1.0]).is_err());
        let p = m.matmul(&Matrix::identity(2)).unwrap();
        assert_eq!(p, m);
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let t = m.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn gram_is_xtx() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let g = m.gram();
        let expected = m.transpose().matmul(&m).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!((g.get(i, j) - expected.get(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn solve_recovers_solution() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]).unwrap();
        let x = vec![0.5, -1.5];
        let b = a.matvec(&x).unwrap();
        let solved = a.solve(&b).unwrap();
        for (s, e) in solved.iter().zip(&x) {
            assert!((s - e).abs() < 1e-10);
        }
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the initial diagonal; solvable only with row swaps.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let sol = a.solve(&[2.0, 3.0]).unwrap();
        assert!((sol[0] - 3.0).abs() < 1e-12);
        assert!((sol[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn solve_detects_singular() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        assert_eq!(a.solve(&[1.0, 2.0]), Err(LearnError::SingularMatrix));
    }

    #[test]
    fn ridge_makes_singular_solvable() {
        let mut a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        a.add_ridge(0.1);
        assert!(a.solve(&[1.0, 2.0]).is_ok());
    }

    #[test]
    fn take_rows_gathers() {
        let m = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let t = m.take_rows(&[2, 0]);
        assert_eq!(t.row(0), &[3.0]);
        assert_eq!(t.row(1), &[1.0]);
    }

    #[test]
    fn helpers() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }
}
