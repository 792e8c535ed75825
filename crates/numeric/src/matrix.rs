//! Dense matrices and LU factorization with partial pivoting.
//!
//! The MNA systems assembled by `rlc-spice` are modest (a few hundred
//! unknowns for the longest segmented lines), so a cache-friendly dense LU
//! with partial pivoting is both simple and fast enough. The factorization is
//! reused across Newton iterations whenever the matrix is unchanged.

use std::fmt;

/// A dense row-major matrix of `f64`.
///
/// ```
/// use rlc_numeric::DenseMatrix;
/// let mut a = DenseMatrix::zeros(2, 2);
/// a.set(0, 0, 4.0); a.set(0, 1, 1.0);
/// a.set(1, 0, 1.0); a.set(1, 1, 3.0);
/// let x = a.solve(&[1.0, 2.0]).unwrap();
/// assert!((x[0] - 1.0 / 11.0).abs() < 1e-12);
/// assert!((x[1] - 7.0 / 11.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Error returned when a linear solve fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The matrix is singular (or numerically singular) — a zero pivot was
    /// encountered during elimination.
    Singular {
        /// Pivot column at which elimination broke down.
        column: usize,
    },
    /// Dimensions of the right-hand side do not match the matrix.
    DimensionMismatch,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Singular { column } => {
                write!(f, "matrix is singular at pivot column {column}")
            }
            SolveError::DimensionMismatch => write!(f, "right-hand side dimension mismatch"),
        }
    }
}

impl std::error::Error for SolveError {}

impl DenseMatrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from nested rows.
    ///
    /// # Panics
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut m = Self::zeros(r, c);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), c, "inconsistent row lengths");
            for (j, &v) in row.iter().enumerate() {
                m.set(i, j, v);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] = v;
    }

    /// Adds `v` to element `(i, j)` — the natural operation for MNA stamping.
    #[inline]
    pub fn add_at(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] += v;
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Resizes to `rows x cols` (zero-filled), keeping the allocation when it
    /// is already large enough.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Copies every element of `other` into `self`, resizing as needed. This
    /// is the restore operation of the split-stamp scheme: a cached static
    /// matrix is copied over the work matrix before the per-iteration stamps.
    pub fn copy_from(&mut self, other: &DenseMatrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Matrix-vector product.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols);
        let mut y = vec![0.0; self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            *yi = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        y
    }

    /// LU-factorizes the matrix (with partial pivoting) and returns the
    /// factorization for repeated solves.
    ///
    /// # Errors
    /// Returns [`SolveError::Singular`] if a pivot smaller than `1e-300` in
    /// magnitude is encountered.
    pub fn lu(&self) -> Result<LuFactors, SolveError> {
        let mut factors = LuFactors::empty();
        self.factor_into(&mut factors)?;
        Ok(factors)
    }

    /// LU-factorizes the matrix into an existing [`LuFactors`], reusing its
    /// buffers. This is the allocation-free refactorization used by hot
    /// simulation loops: the factorization workspace is allocated once and
    /// refilled for every Newton iteration.
    ///
    /// # Errors
    /// Returns [`SolveError::Singular`] if a pivot smaller than `1e-300` in
    /// magnitude is encountered.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn factor_into(&self, factors: &mut LuFactors) -> Result<(), SolveError> {
        assert_eq!(self.rows, self.cols, "LU requires a square matrix");
        let n = self.rows;
        factors.n = n;
        factors.lu.clear();
        factors.lu.extend_from_slice(&self.data);
        factors.perm.clear();
        factors.perm.extend(0..n);
        let lu = &mut factors.lu;
        let perm = &mut factors.perm;

        for k in 0..n {
            // partial pivoting: find the largest |value| in column k at or below row k
            let mut pivot_row = k;
            let mut pivot_val = lu[k * n + k].abs();
            for i in (k + 1)..n {
                let v = lu[i * n + k].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val < 1e-300 {
                return Err(SolveError::Singular { column: k });
            }
            if pivot_row != k {
                for j in 0..n {
                    lu.swap(k * n + j, pivot_row * n + j);
                }
                perm.swap(k, pivot_row);
            }
            let pivot = lu[k * n + k];
            // Slice-based elimination: `top` ends with the pivot row, and the
            // remaining rows are walked as exact chunks so the inner update
            // runs without bounds checks (same operation order as the naive
            // indexed loop, so results are bit-identical).
            let (top, bottom) = lu.split_at_mut((k + 1) * n);
            let pivot_tail = &top[k * n + k + 1..(k + 1) * n];
            for row in bottom.chunks_exact_mut(n) {
                let factor = row[k] / pivot;
                row[k] = factor;
                if factor != 0.0 {
                    for (x, &p) in row[k + 1..n].iter_mut().zip(pivot_tail) {
                        *x -= factor * p;
                    }
                }
            }
        }
        Ok(())
    }

    /// Largest absolute element (0 for an empty matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, v| m.max(v.abs()))
    }

    /// Solves `A x = b` for `x`.
    ///
    /// # Errors
    /// Returns an error if the matrix is singular or the dimensions mismatch.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SolveError> {
        if b.len() != self.rows {
            return Err(SolveError::DimensionMismatch);
        }
        Ok(self.lu()?.solve(b))
    }
}

impl fmt::Display for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:>12.4e} ", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// The result of an LU factorization, reusable for multiple right-hand sides.
#[derive(Debug, Clone, Default)]
pub struct LuFactors {
    n: usize,
    lu: Vec<f64>,
    perm: Vec<usize>,
}

impl LuFactors {
    /// Creates an empty factorization holder (dimension 0), to be filled by
    /// [`DenseMatrix::factor_into`]. Useful as a reusable workspace member.
    pub fn empty() -> Self {
        LuFactors {
            n: 0,
            lu: Vec::new(),
            perm: Vec::new(),
        }
    }

    /// Dimension of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solves `A x = b` using the stored factors.
    ///
    /// # Panics
    /// Panics if `b.len()` does not match the factorized dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        self.solve_into(b, &mut x);
        x
    }

    /// Solves `A x = b` for another right-hand side using the stored factors
    /// — the "factor once, resolve per step" operation of LTI transient
    /// analysis. Equivalent to [`LuFactors::solve`]; hot loops that own
    /// their buffers should prefer the allocation-free
    /// [`LuFactors::solve_into`].
    ///
    /// # Panics
    /// Panics if `b.len()` does not match the factorized dimension.
    pub fn resolve(&self, b: &[f64]) -> Vec<f64> {
        self.solve(b)
    }

    /// Solves `A x = b` into a caller-provided buffer, with no allocation.
    /// `b` and `x` may not alias.
    ///
    /// # Panics
    /// Panics if `b.len()` or `x.len()` does not match the factorized
    /// dimension.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        assert_eq!(b.len(), self.n);
        assert_eq!(x.len(), self.n);
        let n = self.n;
        // apply permutation
        for (xi, &p) in x.iter_mut().zip(&self.perm) {
            *xi = b[p];
        }
        // forward substitution (L has implicit unit diagonal); the split and
        // zip keep the inner dot products free of bounds checks while
        // preserving the accumulation order bit for bit.
        for i in 1..n {
            let (head, tail) = x.split_at_mut(i);
            let row = &self.lu[i * n..i * n + i];
            let mut acc = tail[0];
            for (a, xj) in row.iter().zip(head.iter()) {
                acc -= a * xj;
            }
            tail[0] = acc;
        }
        // back substitution
        for i in (0..n).rev() {
            let (head, tail) = x.split_at_mut(i + 1);
            let row = &self.lu[i * n + i + 1..(i + 1) * n];
            let mut acc = head[i];
            for (a, xj) in row.iter().zip(tail.iter()) {
                acc -= a * xj;
            }
            head[i] = acc / self.lu[i * n + i];
        }
    }

    /// Smallest and largest pivot magnitudes of the factorization. Their
    /// ratio is a cheap conditioning proxy used to gate low-rank-update
    /// solve schemes that amplify the inverse of these factors.
    pub fn pivot_extremes(&self) -> (f64, f64) {
        let n = self.n;
        let mut min = f64::INFINITY;
        let mut max: f64 = 0.0;
        for i in 0..n {
            let p = self.lu[i * n + i].abs();
            min = min.min(p);
            max = max.max(p);
        }
        if n == 0 {
            (0.0, 0.0)
        } else {
            (min, max)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn solve_small_system() {
        let a = DenseMatrix::from_rows(&[
            vec![2.0, 1.0, -1.0],
            vec![-3.0, -1.0, 2.0],
            vec![-2.0, 1.0, 2.0],
        ]);
        let x = a.solve(&[8.0, -11.0, -3.0]).unwrap();
        assert!(approx_eq(x[0], 2.0, 1e-10));
        assert!(approx_eq(x[1], 3.0, 1e-10));
        assert!(approx_eq(x[2], -1.0, 1e-10));
    }

    #[test]
    fn identity_solve_returns_rhs() {
        let a = DenseMatrix::identity(4);
        let b = vec![1.0, -2.0, 3.5, 0.0];
        assert_eq!(a.solve(&b).unwrap(), b);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        match a.solve(&[1.0, 2.0]) {
            Err(SolveError::Singular { .. }) => {}
            other => panic!("expected singular error, got {other:?}"),
        }
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let a = DenseMatrix::identity(3);
        assert_eq!(a.solve(&[1.0]), Err(SolveError::DimensionMismatch));
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = DenseMatrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = a.solve(&[3.0, 4.0]).unwrap();
        assert!(approx_eq(x[0], 4.0, 1e-12));
        assert!(approx_eq(x[1], 3.0, 1e-12));
    }

    #[test]
    fn lu_factors_reused_for_multiple_rhs() {
        let a = DenseMatrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]);
        let lu = a.lu().unwrap();
        for rhs in [[1.0, 2.0], [5.0, -1.0], [0.0, 0.0]] {
            let x = lu.solve(&rhs);
            let back = a.mul_vec(&x);
            assert!(approx_eq(back[0], rhs[0], 1e-10));
            assert!(approx_eq(back[1], rhs[1], 1e-10));
        }
    }

    #[test]
    fn mul_vec_matches_manual() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.mul_vec(&[1.0, 1.0, 1.0]), vec![6.0, 15.0]);
    }

    #[test]
    fn factor_into_reuses_buffers_and_matches_lu() {
        let a = DenseMatrix::from_rows(&[
            vec![2.0, 1.0, -1.0],
            vec![-3.0, -1.0, 2.0],
            vec![-2.0, 1.0, 2.0],
        ]);
        let mut factors = LuFactors::empty();
        assert_eq!(factors.dim(), 0);
        a.factor_into(&mut factors).unwrap();
        assert_eq!(factors.dim(), 3);
        let b = [8.0, -11.0, -3.0];
        let mut x = vec![0.0; 3];
        factors.solve_into(&b, &mut x);
        assert!(approx_eq(x[0], 2.0, 1e-10));
        assert!(approx_eq(x[1], 3.0, 1e-10));
        assert!(approx_eq(x[2], -1.0, 1e-10));
        // resolve() answers further right-hand sides from the same factors.
        let y = factors.resolve(&[1.0, 0.0, 0.0]);
        let back = a.mul_vec(&y);
        assert!(approx_eq(back[0], 1.0, 1e-10));
        // Refactorizing a different matrix reuses the same buffers.
        let b2 = DenseMatrix::identity(2);
        b2.factor_into(&mut factors).unwrap();
        assert_eq!(factors.dim(), 2);
        assert_eq!(factors.solve(&[5.0, 7.0]), vec![5.0, 7.0]);
    }

    #[test]
    fn factor_into_reports_singularity() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        let mut factors = LuFactors::empty();
        assert!(matches!(
            a.factor_into(&mut factors),
            Err(SolveError::Singular { .. })
        ));
    }

    #[test]
    fn pivot_extremes_and_max_abs_report_magnitudes() {
        let a = DenseMatrix::from_rows(&[vec![4.0, 1.0], vec![1.0, -0.5]]);
        assert_eq!(a.max_abs(), 4.0);
        let lu = a.lu().unwrap();
        let (min, max) = lu.pivot_extremes();
        assert_eq!(max, 4.0);
        // Second pivot: -0.5 - 1/4 * 1 = -0.75.
        assert!(approx_eq(min, 0.75, 1e-12));
        assert_eq!(LuFactors::empty().pivot_extremes(), (0.0, 0.0));
    }

    #[test]
    fn copy_from_and_resize_keep_contents_in_sync() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let mut b = DenseMatrix::zeros(1, 1);
        b.copy_from(&a);
        assert_eq!(b, a);
        b.resize_zeroed(3, 2);
        assert_eq!(b.rows(), 3);
        assert_eq!(b.cols(), 2);
        assert_eq!(b.get(2, 1), 0.0);
    }

    #[test]
    fn add_at_accumulates() {
        let mut a = DenseMatrix::zeros(2, 2);
        a.add_at(0, 0, 1.5);
        a.add_at(0, 0, 2.5);
        assert_eq!(a.get(0, 0), 4.0);
        a.clear();
        assert_eq!(a.get(0, 0), 0.0);
    }
}

#[cfg(test)]
mod sweep_tests {
    use super::*;

    /// Deterministic pseudo-random stream in `[-1, 1)`.
    fn pseudo_random(seed: u64) -> impl FnMut() -> f64 {
        let mut unit = crate::splitmix_stream(seed);
        move || unit() * 2.0 - 1.0
    }

    /// Solving a pseudo-random diagonally-dominant system and multiplying
    /// back reproduces the right-hand side, for every size in 1..8 and many
    /// seeds.
    #[test]
    fn solve_then_multiply_roundtrips() {
        for n in 1usize..8 {
            for seed in 0..16u64 {
                let mut next = pseudo_random(seed.wrapping_mul(0x5851_f42d) + n as u64);
                let mut a = DenseMatrix::zeros(n, n);
                for i in 0..n {
                    for j in 0..n {
                        a.set(i, j, next());
                    }
                    // make it diagonally dominant so it is well conditioned
                    a.add_at(i, i, 10.0);
                }
                let b: Vec<f64> = (0..n).map(|_| next()).collect();
                let x = a.solve(&b).unwrap();
                let back = a.mul_vec(&x);
                for i in 0..n {
                    assert!(
                        (back[i] - b[i]).abs() < 1e-8,
                        "n={n} seed={seed} row {i}: {} vs {}",
                        back[i],
                        b[i]
                    );
                }
            }
        }
    }
}
