//! Row-major dense matrix.

use serde::{Deserialize, Serialize};

use crate::ShapeError;

/// `k`-block size of the cache-blocked product kernels: one panel of
/// `KC` rows of the right operand is streamed repeatedly while a worker
/// sweeps its output rows.
const KC: usize = 128;

/// `j`-block size of the transposed-B kernel: a panel of `JC` rows of the
/// transposed operand is reused across a worker's output rows.
const JC: usize = 64;

/// Minimum output rows per parallel chunk for a kernel whose per-row cost
/// is `row_flops` multiply-adds: keeps tiny products inline so handing
/// chunks to the worker pool never dominates.
fn par_min_rows(row_flops: usize) -> usize {
    const MIN_FLOPS_PER_TASK: usize = 1 << 16;
    (MIN_FLOPS_PER_TASK / row_flops.max(1)).max(1)
}

/// A dense, row-major `f64` matrix.
///
/// `Matrix` is the workhorse of the workspace: network weights, activations
/// and zonotope coefficient matrices are all `Matrix` values. It is a plain
/// data structure (hence [`serde::Serialize`]) with shape-checked operations
/// that panic on mismatch — abstract-interpretation code has statically known
/// shapes, so a mismatch is a programming error, not an input error.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix with every entry equal to `value`.
    pub fn full(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a generator invoked as `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix that owns `data` laid out row-major.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(ShapeError::new(format!(
                "data length {} does not match {rows}x{cols}",
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "inconsistent row length");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Creates a single-row matrix from a vector.
    pub fn row_vector(data: Vec<f64>) -> Self {
        Self {
            rows: 1,
            cols: data.len(),
            data,
        }
    }

    /// Creates a single-column matrix from a vector.
    pub fn col_vector(data: Vec<f64>) -> Self {
        Self {
            rows: data.len(),
            cols: 1,
            data,
        }
    }

    /// Creates a diagonal matrix with `diag` on the main diagonal.
    pub fn diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m.data[i * n + i] = d;
        }
        m
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

    /// Total number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Entry at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable entry at `(r, c)`.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }

    /// Sets entry `(r, c)` to `v`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Column `c` copied into a fresh vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self.at(r, c)).collect()
    }

    /// The flat row-major backing slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The flat row-major backing slice, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns its backing vector.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Iterator over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks(self.cols.max(1))
    }

    /// Matrix product `self * other`.
    ///
    /// Cache-blocked over `k` (a panel of `other` rows stays hot while a
    /// worker sweeps its output rows) and parallelized over disjoint output
    /// rows. Per output element the accumulation still runs in ascending
    /// `k` order from a zero accumulator, so the result is bitwise
    /// identical to [`Matrix::matmul_naive`] at any worker count.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mode = crate::parallel::kernel_mode();
        if mode == crate::parallel::KernelMode::Naive {
            return self.matmul_naive(other);
        }
        let simd = mode == crate::parallel::KernelMode::Simd;
        if simd {
            crate::simd::note_dispatch();
        }
        let (kdim, m) = (self.cols, other.cols);
        let mut out = Matrix::zeros(self.rows, m);
        let min_rows = par_min_rows(kdim * m);
        crate::parallel::par_rows(&mut out.data, m.max(1), min_rows, |range, chunk| {
            for k0 in (0..kdim).step_by(KC) {
                let k1 = (k0 + KC).min(kdim);
                for (local, i) in range.clone().enumerate() {
                    let arow = &self.data[i * kdim + k0..i * kdim + k1];
                    let orow = &mut chunk[local * m..(local + 1) * m];
                    if simd {
                        // Fuse quads of nonzero `k` contributions: same
                        // per-element ascending-`k` rounding, one quarter
                        // of the `orow` load/store traffic.
                        let mut batch = crate::simd::AxpyBatch::new();
                        for (kk, &a) in arow.iter().enumerate() {
                            if a == 0.0 {
                                continue;
                            }
                            let brow = &other.data[(k0 + kk) * m..(k0 + kk + 1) * m];
                            batch.push(orow, a, brow);
                        }
                        batch.flush(orow);
                    } else {
                        for (kk, &a) in arow.iter().enumerate() {
                            if a == 0.0 {
                                continue;
                            }
                            let brow = &other.data[(k0 + kk) * m..(k0 + kk + 1) * m];
                            for (o, &b) in orow.iter_mut().zip(brow) {
                                *o += a * b;
                            }
                        }
                    }
                }
            }
        });
        out
    }

    /// Reference `self * other` (single-threaded ikj triple loop). The
    /// optimized [`Matrix::matmul`] must match it bitwise; kept public for
    /// the differential tests and benches.
    #[doc(hidden)]
    pub fn matmul_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            let arow = self.row(i);
            let orow = out.row_mut(i);
            for (k, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let brow = &other.data[k * other.cols..(k + 1) * other.cols];
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self * other^T` without materializing the transpose.
    ///
    /// The rows of `other` already are the panels of `other^T`, so each
    /// output element is a contiguous-slice dot product; work is blocked
    /// over panels of `other` rows and parallelized over disjoint output
    /// rows. Each element keeps the naive single-accumulator ascending-`k`
    /// order (bitwise identical to [`Matrix::matmul_transpose_b_naive`]).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.cols`.
    pub fn matmul_transpose_b(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transpose_b shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        let mode = crate::parallel::kernel_mode();
        if mode == crate::parallel::KernelMode::Naive {
            return self.matmul_transpose_b_naive(other);
        }
        let (kdim, n) = (self.cols, other.rows);
        let mut out = Matrix::zeros(self.rows, n);
        let min_rows = par_min_rows(kdim * n);
        if mode == crate::parallel::KernelMode::Simd {
            // Interleave quads of `other` rows into a `pack[4k + l]` panel
            // so four output columns advance in lockstep: each SIMD lane
            // replays one scalar `acc += a * b` chain in ascending `k`,
            // bitwise-identical to the blocked path below. The panel is
            // packed once per quad and reused across the worker's rows.
            crate::simd::note_dispatch();
            crate::parallel::par_rows(&mut out.data, n.max(1), min_rows, |range, chunk| {
                let mut pack = vec![0.0f64; kdim * 4];
                for j0 in (0..n).step_by(4) {
                    let j1 = (j0 + 4).min(n);
                    if j1 - j0 == 4 {
                        for l in 0..4 {
                            let brow = &other.data[(j0 + l) * kdim..(j0 + l + 1) * kdim];
                            for (k, &b) in brow.iter().enumerate() {
                                pack[k * 4 + l] = b;
                            }
                        }
                        for (local, i) in range.clone().enumerate() {
                            let arow = &self.data[i * kdim..(i + 1) * kdim];
                            let quad = crate::simd::dot4(arow, &pack);
                            chunk[local * n + j0..local * n + j1].copy_from_slice(&quad);
                        }
                    } else {
                        for (local, i) in range.clone().enumerate() {
                            let arow = &self.data[i * kdim..(i + 1) * kdim];
                            for j in j0..j1 {
                                let brow = &other.data[j * kdim..(j + 1) * kdim];
                                let mut acc = 0.0;
                                for (&a, &b) in arow.iter().zip(brow) {
                                    acc += a * b;
                                }
                                chunk[local * n + j] = acc;
                            }
                        }
                    }
                }
            });
            return out;
        }
        crate::parallel::par_rows(&mut out.data, n.max(1), min_rows, |range, chunk| {
            for j0 in (0..n).step_by(JC) {
                let j1 = (j0 + JC).min(n);
                for (local, i) in range.clone().enumerate() {
                    let arow = &self.data[i * kdim..(i + 1) * kdim];
                    for j in j0..j1 {
                        let brow = &other.data[j * kdim..(j + 1) * kdim];
                        let mut acc = 0.0;
                        for (&a, &b) in arow.iter().zip(brow) {
                            acc += a * b;
                        }
                        chunk[local * n + j] = acc;
                    }
                }
            }
        });
        out
    }

    /// Reference `self * other^T` (row-by-row scalar accumulators).
    #[doc(hidden)]
    pub fn matmul_transpose_b_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transpose_b shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let arow = self.row(i);
            for j in 0..other.rows {
                let brow = other.row(j);
                let mut acc = 0.0;
                for (&a, &b) in arow.iter().zip(brow) {
                    acc += a * b;
                }
                out.data[i * other.rows + j] = acc;
            }
        }
        out
    }

    /// `self^T * other` without materializing the transpose.
    ///
    /// Parallelized over disjoint output rows (columns of `self`); inside a
    /// worker the `k` loop stays outermost so both input rows stream
    /// contiguously. Per output element the accumulation order and the
    /// zero skip match [`Matrix::transpose_a_matmul_naive`] bitwise.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != other.rows`.
    pub fn transpose_a_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "transpose_a_matmul shape mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mode = crate::parallel::kernel_mode();
        if mode == crate::parallel::KernelMode::Naive {
            return self.transpose_a_matmul_naive(other);
        }
        let simd = mode == crate::parallel::KernelMode::Simd;
        if simd {
            crate::simd::note_dispatch();
        }
        let m = other.cols;
        let mut out = Matrix::zeros(self.cols, m);
        let min_rows = par_min_rows(self.rows * m);
        if simd {
            // Quads of output rows run the register-tiled microkernel: the
            // 4×8 output tile lives in registers across the whole `k` loop,
            // so each output element is touched once instead of once per
            // source row. Per element the adds still happen in ascending
            // `k` — bitwise the naive kij order. Rows whose weight column
            // contains a zero (the naive path skips those terms) and
            // leftover rows fall back to skip-preserving fused axpy quads.
            let kdim = self.rows;
            crate::parallel::par_rows(&mut out.data, m.max(1), min_rows, |range, chunk| {
                let mut wq = vec![0.0f64; kdim * 4];
                let per_row_fallback = |orow: &mut [f64], i: usize| {
                    let mut batch = crate::simd::AxpyBatch::new();
                    for k in 0..kdim {
                        let a = self.data[k * self.cols + i];
                        if a == 0.0 {
                            continue;
                        }
                        batch.push(orow, a, other.row(k));
                    }
                    batch.flush(orow);
                };
                let mut local = 0;
                let start = range.start;
                while local + 4 <= range.len() {
                    let i0 = start + local;
                    let mut all_nonzero = true;
                    for k in 0..kdim {
                        for l in 0..4 {
                            let a = self.data[k * self.cols + i0 + l];
                            all_nonzero &= a != 0.0;
                            wq[k * 4 + l] = a;
                        }
                    }
                    if all_nonzero {
                        let dst4 = &mut chunk[local * m..(local + 4) * m];
                        crate::simd::wrows4(dst4, m, &wq, &other.data, kdim);
                    } else {
                        for l in 0..4 {
                            let orow = &mut chunk[(local + l) * m..(local + l + 1) * m];
                            per_row_fallback(orow, i0 + l);
                        }
                    }
                    local += 4;
                }
                for l in local..range.len() {
                    let orow = &mut chunk[l * m..(l + 1) * m];
                    per_row_fallback(orow, start + l);
                }
            });
            return out;
        }
        crate::parallel::par_rows(&mut out.data, m.max(1), min_rows, |range, chunk| {
            for k in 0..self.rows {
                let arow = self.row(k);
                let brow = other.row(k);
                for (local, i) in range.clone().enumerate() {
                    let a = arow[i];
                    if a == 0.0 {
                        continue;
                    }
                    let orow = &mut chunk[local * m..(local + 1) * m];
                    for (o, &b) in orow.iter_mut().zip(brow) {
                        *o += a * b;
                    }
                }
            }
        });
        out
    }

    /// Reference `self^T * other` (single-threaded kij loop).
    #[doc(hidden)]
    pub fn transpose_a_matmul_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "transpose_a_matmul shape mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        for k in 0..self.rows {
            let arow = self.row(k);
            let brow = other.row(k);
            for (i, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let orow = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != v.len()`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "matvec shape mismatch");
        self.rows_iter()
            .map(|row| row.iter().zip(v).map(|(&a, &b)| a * b).sum())
            .collect()
    }

    /// Vector-matrix product `v^T * self`.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != v.len()`.
    pub fn vecmat(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.rows, v.len(), "vecmat shape mismatch");
        let mut out = vec![0.0; self.cols];
        for (r, &a) in v.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (o, &b) in out.iter_mut().zip(self.row(r)) {
                *o += a * b;
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise sum `self + other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a + b)
    }

    /// Element-wise difference `self - other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a * b)
    }

    /// Element-wise combination of two equal-shaped matrices.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip_with(&self, other: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "zip_with shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// In-place element-wise addition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place `self += scale * other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled_assign(&mut self, other: &Matrix, scale: f64) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// Copy scaled by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// In-place scaling by `s`.
    pub fn scale_assign(&mut self, s: f64) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Adds the row vector `bias` to every row.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != self.cols`.
    pub fn add_row_broadcast(&self, bias: &[f64]) -> Matrix {
        assert_eq!(bias.len(), self.cols, "broadcast shape mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            for (o, &b) in out.row_mut(r).iter_mut().zip(bias) {
                *o += b;
            }
        }
        out
    }

    /// Multiplies every row element-wise by the row vector `w`.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != self.cols`.
    pub fn mul_row_broadcast(&self, w: &[f64]) -> Matrix {
        assert_eq!(w.len(), self.cols, "broadcast shape mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            for (o, &b) in out.row_mut(r).iter_mut().zip(w) {
                *o *= b;
            }
        }
        out
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Per-row sums.
    pub fn row_sums(&self) -> Vec<f64> {
        self.rows_iter().map(|r| r.iter().sum()).collect()
    }

    /// Per-row means.
    pub fn row_means(&self) -> Vec<f64> {
        let c = self.cols.max(1) as f64;
        self.row_sums().into_iter().map(|s| s / c).collect()
    }

    /// Per-column sums.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        for row in self.rows_iter() {
            for (o, &x) in out.iter_mut().zip(row) {
                *o += x;
            }
        }
        out
    }

    /// Per-row sum of absolute values (used by noise-reduction scores).
    pub fn row_abs_sums(&self) -> Vec<f64> {
        self.rows_iter()
            .map(|r| r.iter().map(|x| x.abs()).sum())
            .collect()
    }

    /// Per-column sum of absolute values.
    ///
    /// Each column is an independent sequential accumulator over ascending
    /// rows, so the SIMD sweep is bitwise-identical to the scalar one.
    pub fn col_abs_sums(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        if crate::parallel::kernel_mode() == crate::parallel::KernelMode::Simd {
            crate::simd::note_dispatch();
            for row in self.rows_iter() {
                crate::simd::abs_accumulate(&mut out, row);
            }
        } else {
            for row in self.rows_iter() {
                for (o, &x) in out.iter_mut().zip(row) {
                    *o += x.abs();
                }
            }
        }
        out
    }

    /// Maximum absolute entry; `0.0` for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, &x| m.max(x.abs()))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Horizontal concatenation `[self | other]`.
    ///
    /// Either operand may have zero columns. A zero-row operand is allowed
    /// only if both have the same (possibly zero) row count.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn hstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hstack row mismatch");
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(self.row(r));
            data.extend_from_slice(other.row(r));
        }
        Matrix {
            rows: self.rows,
            cols,
            data,
        }
    }

    /// Grows the matrix in place to `new_cols` columns, zero-filling the new
    /// trailing columns of every row.
    ///
    /// Unlike `hstack` with a zero matrix this never allocates a second
    /// buffer: the backing `Vec` is resized (amortized growth) and rows are
    /// shifted into place back to front.
    ///
    /// # Panics
    ///
    /// Panics if `new_cols < self.cols()`.
    pub fn grow_cols(&mut self, new_cols: usize) {
        assert!(
            new_cols >= self.cols,
            "grow_cols would truncate ({} > {new_cols})",
            self.cols
        );
        if new_cols == self.cols || self.rows == 0 {
            self.cols = new_cols;
            self.data.resize(self.rows * new_cols, 0.0);
            return;
        }
        let old_cols = self.cols;
        self.data.resize(self.rows * new_cols, 0.0);
        // Move rows back to front so sources are never overwritten before
        // they are read, then zero the gap each row leaves behind.
        for r in (0..self.rows).rev() {
            let src = r * old_cols;
            let dst = r * new_cols;
            if r > 0 {
                self.data.copy_within(src..src + old_cols, dst);
            }
            self.data[dst + old_cols..dst + new_cols].fill(0.0);
        }
        self.cols = new_cols;
    }

    /// Vertical concatenation of `self` on top of `other`.
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vstack col mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// Copy of the column range `[c0, c1)`.
    ///
    /// # Panics
    ///
    /// Panics if `c1 > self.cols` or `c0 > c1`.
    pub fn slice_cols(&self, c0: usize, c1: usize) -> Matrix {
        assert!(c0 <= c1 && c1 <= self.cols, "slice_cols out of range");
        let cols = c1 - c0;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(&self.row(r)[c0..c1]);
        }
        Matrix {
            rows: self.rows,
            cols,
            data,
        }
    }

    /// Copy of the row range `[r0, r1)`.
    ///
    /// # Panics
    ///
    /// Panics if `r1 > self.rows` or `r0 > r1`.
    pub fn slice_rows(&self, r0: usize, r1: usize) -> Matrix {
        assert!(r0 <= r1 && r1 <= self.rows, "slice_rows out of range");
        Matrix {
            rows: r1 - r0,
            cols: self.cols,
            data: self.data[r0 * self.cols..r1 * self.cols].to_vec(),
        }
    }

    /// Copy keeping only the columns listed in `idx` (in that order).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn select_cols(&self, idx: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(self.rows * idx.len());
        for r in 0..self.rows {
            let row = self.row(r);
            for &c in idx {
                data.push(row[c]);
            }
        }
        Matrix {
            rows: self.rows,
            cols: idx.len(),
            data,
        }
    }

    /// `true` if any entry is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:10.4} ", self.at(r, c))?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.at(1, 2), 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn grow_cols_matches_hstack_with_zeros() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let mut grown = m.clone();
        grown.grow_cols(5);
        assert_eq!(grown, m.hstack(&Matrix::zeros(2, 2)));
        // No-op growth and zero-row / zero-col edge cases.
        let mut same = m.clone();
        same.grow_cols(3);
        assert_eq!(same, m);
        let mut empty = Matrix::zeros(0, 2);
        empty.grow_cols(7);
        assert_eq!(empty.shape(), (0, 7));
        let mut nocols = Matrix::zeros(3, 0);
        nocols.grow_cols(2);
        assert_eq!(nocols, Matrix::zeros(3, 2));
    }

    #[test]
    #[should_panic(expected = "grow_cols would truncate")]
    fn grow_cols_rejects_shrinking() {
        let mut m = Matrix::zeros(2, 3);
        m.grow_cols(2);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_transpose_variants_agree_with_explicit_transpose() {
        let a = Matrix::from_fn(3, 4, |r, c| (r * 7 + c) as f64 * 0.3 - 1.0);
        let b = Matrix::from_fn(5, 4, |r, c| (r + 2 * c) as f64 * 0.1);
        assert_eq!(a.matmul_transpose_b(&b), a.matmul(&b.transpose()));
        let c = Matrix::from_fn(3, 5, |r, c| (r * c) as f64 - 0.5);
        assert_eq!(a.transpose_a_matmul(&c), a.transpose().matmul(&c));
    }

    #[test]
    fn products_agree_bitwise_across_kernel_modes() {
        use crate::parallel::{set_kernel_mode, test_lock, KernelMode};
        let _g = test_lock();
        // Shapes straddle the 4-wide quad boundary (j-remainders of 0..3)
        // and include zero entries to exercise the sparsity skip.
        let a = Matrix::from_fn(9, 13, |r, c| {
            if (r + c) % 5 == 0 {
                0.0
            } else {
                0.31 * (r as f64) - 0.07 * (c as f64) + 0.2
            }
        });
        let b = Matrix::from_fn(13, 11, |r, c| 0.05 * (r as f64 + 1.0) * (c as f64 - 4.0));
        let bt = Matrix::from_fn(11, 13, |r, c| 1.0 / (1.0 + r as f64 + 2.0 * c as f64));
        let c = Matrix::from_fn(9, 7, |r, c| (r * 3 + c) as f64 * 0.11 - 1.0);
        let bits = |m: &Matrix| -> Vec<u64> { m.as_slice().iter().map(|x| x.to_bits()).collect() };
        set_kernel_mode(Some(KernelMode::Naive));
        let base = (
            bits(&a.matmul(&b)),
            bits(&a.matmul_transpose_b(&bt)),
            bits(&a.transpose_a_matmul(&c)),
            a.col_abs_sums(),
        );
        for mode in [KernelMode::Blocked, KernelMode::Simd] {
            set_kernel_mode(Some(mode));
            assert_eq!(bits(&a.matmul(&b)), base.0, "matmul {mode:?}");
            assert_eq!(
                bits(&a.matmul_transpose_b(&bt)),
                base.1,
                "matmul_transpose_b {mode:?}"
            );
            assert_eq!(
                bits(&a.transpose_a_matmul(&c)),
                base.2,
                "transpose_a_matmul {mode:?}"
            );
            assert_eq!(a.col_abs_sums(), base.3, "col_abs_sums {mode:?}");
        }
        set_kernel_mode(None);
    }

    #[test]
    fn matvec_and_vecmat() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0], &[1.0, 1.0]]);
        assert_eq!(a.matvec(&[3.0, 4.0]), vec![3.0, 8.0, 7.0]);
        assert_eq!(a.vecmat(&[1.0, 1.0, 1.0]), vec![2.0, 3.0]);
    }

    #[test]
    fn broadcast_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(
            a.add_row_broadcast(&[10.0, 20.0]),
            Matrix::from_rows(&[&[11.0, 22.0], &[13.0, 24.0]])
        );
        assert_eq!(
            a.mul_row_broadcast(&[2.0, 0.5]),
            Matrix::from_rows(&[&[2.0, 1.0], &[6.0, 2.0]])
        );
    }

    #[test]
    fn stacking_and_slicing() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let b = Matrix::from_rows(&[&[3.0], &[4.0]]);
        let h = a.hstack(&b);
        assert_eq!(h, Matrix::from_rows(&[&[1.0, 3.0], &[2.0, 4.0]]));
        assert_eq!(h.slice_cols(1, 2), b);
        let v = a.vstack(&b);
        assert_eq!(v.rows(), 4);
        assert_eq!(v.slice_rows(2, 4), b);
        assert_eq!(h.select_cols(&[1, 0]), b.hstack(&a));
    }

    #[test]
    fn hstack_with_empty_side() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let empty = Matrix::zeros(1, 0);
        assert_eq!(a.hstack(&empty), a);
        assert_eq!(empty.hstack(&a), a);
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[-3.0, 4.0]]);
        assert_eq!(a.sum(), 0.0);
        assert_eq!(a.row_sums(), vec![-1.0, 1.0]);
        assert_eq!(a.col_sums(), vec![-2.0, 2.0]);
        assert_eq!(a.row_abs_sums(), vec![3.0, 7.0]);
        assert_eq!(a.col_abs_sums(), vec![4.0, 6.0]);
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(a.row_means(), vec![-0.5, 0.5]);
    }

    #[test]
    fn diag_and_identity() {
        let d = Matrix::diag(&[1.0, 2.0]);
        let v = d.matvec(&[3.0, 4.0]);
        assert_eq!(v, vec![3.0, 8.0]);
        assert_eq!(Matrix::identity(3).sum(), 3.0);
    }

    #[test]
    fn non_finite_detection() {
        let mut a = Matrix::zeros(2, 2);
        assert!(!a.has_non_finite());
        a.set(0, 1, f64::NAN);
        assert!(a.has_non_finite());
    }

    #[test]
    fn display_is_nonempty() {
        let s = format!("{}", Matrix::zeros(2, 2));
        assert!(s.contains("Matrix 2x2"));
    }
}
