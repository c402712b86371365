//! Row-major dense matrix used as the clustering working set.

use std::sync::OnceLock;

/// A row-major dense `f64` matrix.
///
/// At paper scale the VSM matrix is 6,380 × 159 ≈ 8 MB of `f64`, so a
/// flat dense buffer is both the simplest and the fastest representation
/// for K-means' inner loops (contiguous rows, no indirection).
///
/// The matrix also memoizes its per-row squared norms
/// ([`row_norms_sq`](DenseMatrix::row_norms_sq)): the K-means kernel
/// evaluates distances in dot-product form
/// `d²(x, c) = ‖x‖² − 2·x·c + ‖c‖²`, so the same norm vector is shared
/// across a whole K sweep (and every partial-mining subset built from
/// the same matrix) and computed exactly once. Mutating accessors
/// invalidate the cache.
#[derive(Debug, Clone)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
    /// Lazily computed `‖row‖²` per row; reset by any mutation.
    norms_sq: OnceLock<Vec<f64>>,
}

impl PartialEq for DenseMatrix {
    fn eq(&self, other: &Self) -> bool {
        // The norm cache is derived state; two matrices are equal iff
        // their shapes and payloads are.
        self.rows == other.rows && self.cols == other.cols && self.data == other.data
    }
}

impl DenseMatrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
            norms_sq: OnceLock::new(),
        }
    }

    /// Builds from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics when `data.len() != rows * cols`.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Self {
            rows,
            cols,
            data,
            norms_sq: OnceLock::new(),
        }
    }

    /// Builds from row slices.
    ///
    /// # Panics
    /// Panics when rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let n = rows.len();
        let cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(n * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: n,
            cols,
            data,
            norms_sq: OnceLock::new(),
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.cols
    }

    /// Borrowed view of row `r`.
    ///
    /// # Panics
    /// Panics when `r` is out of range.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    ///
    /// # Panics
    /// Panics when `r` is out of range.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        self.norms_sq.take();
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The value at (r, c).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c]
    }

    /// Sets the value at (r, c).
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.norms_sq.take();
        self.data[r * self.cols + c] = v;
    }

    /// Appends one all-zero row, returning its index.
    ///
    /// Streaming builders grow the cohort one patient at a time; the
    /// flat row-major layout makes this a plain `Vec` extension.
    pub fn push_zero_row(&mut self) -> usize {
        self.norms_sq.take();
        self.data.resize(self.data.len() + self.cols, 0.0);
        self.rows += 1;
        self.rows - 1
    }

    /// Widens the matrix to `cols` columns, padding every existing row
    /// with trailing zeros (a no-op when `cols == num_cols()`).
    ///
    /// Streaming builders grow the vocabulary as new exam types appear;
    /// widening restrides the flat buffer once per growth step.
    ///
    /// # Panics
    /// Panics when `cols` is smaller than the current width.
    pub fn grow_cols(&mut self, cols: usize) {
        assert!(cols >= self.cols, "grow_cols cannot shrink the matrix");
        if cols == self.cols {
            return;
        }
        self.norms_sq.take();
        let mut data = vec![0.0; self.rows * cols];
        for r in 0..self.rows {
            data[r * cols..r * cols + self.cols]
                .copy_from_slice(&self.data[r * self.cols..(r + 1) * self.cols]);
        }
        self.data = data;
        self.cols = cols;
    }

    /// Iterates over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1)).take(self.rows)
    }

    /// The flat row-major buffer.
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// A new matrix containing only the selected rows, in the given order.
    ///
    /// # Panics
    /// Panics when any index is out of range.
    pub fn select_rows(&self, indices: &[usize]) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(indices.len(), self.cols);
        for (new_r, &r) in indices.iter().enumerate() {
            out.row_mut(new_r).copy_from_slice(self.row(r));
        }
        out
    }

    /// A new matrix containing only the selected columns, in the given
    /// order.
    ///
    /// # Panics
    /// Panics when any index is out of range.
    pub fn select_cols(&self, indices: &[usize]) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, indices.len());
        for r in 0..self.rows {
            let src = self.row(r);
            let dst = out.row_mut(r);
            for (new_c, &c) in indices.iter().enumerate() {
                dst[new_c] = src[c];
            }
        }
        out
    }

    /// L2-normalizes every row in place; zero rows are left untouched.
    pub fn normalize_rows(&mut self) {
        for r in 0..self.rows {
            let row = self.row_mut(r);
            let norm = row.iter().map(|v| v * v).sum::<f64>().sqrt();
            if norm > 0.0 {
                for v in row {
                    *v /= norm;
                }
            }
        }
    }

    /// Per-row squared L2 norms, computed once per matrix and cached.
    ///
    /// This is the precomputation behind the K-means kernel's
    /// dot-product distance form: every backend, every K of a sweep,
    /// and every warm-started partial-mining step evaluating distances
    /// against the same matrix shares one norm vector. The cache is
    /// invalidated by [`row_mut`](DenseMatrix::row_mut),
    /// [`set`](DenseMatrix::set), and
    /// [`normalize_rows`](DenseMatrix::normalize_rows).
    pub fn row_norms_sq(&self) -> &[f64] {
        self.norms_sq
            .get_or_init(|| self.rows_iter().map(|row| dot(row, row)).collect())
    }

    /// Per-column means.
    pub fn col_means(&self) -> Vec<f64> {
        let mut means = vec![0.0; self.cols];
        if self.rows == 0 {
            return means;
        }
        for row in self.rows_iter() {
            for (m, v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= self.rows as f64;
        }
        means
    }
}

/// Squared Euclidean distance between two equal-length slices.
///
/// # Panics
/// Panics (in debug builds) on length mismatch.
#[inline]
pub fn distance_sq(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm of a slice.
#[inline]
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Cosine similarity of two slices; 0.0 when either is a zero vector.
#[inline]
pub fn cosine(a: &[f64], b: &[f64]) -> f64 {
    let denom = norm(a) * norm(b);
    if denom == 0.0 {
        0.0
    } else {
        dot(a, b) / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut m = DenseMatrix::zeros(2, 3);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
        assert_eq!(m.num_rows(), 2);
        assert_eq!(m.num_cols(), 3);
    }

    #[test]
    fn from_rows_and_flat_agree() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let a = DenseMatrix::from_rows(&rows);
        let b = DenseMatrix::from_flat(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged() {
        let _ = DenseMatrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn growth_pads_with_zeros_and_invalidates_norms() {
        let mut m = DenseMatrix::from_rows(&[vec![3.0, 4.0]]);
        assert_eq!(m.row_norms_sq(), &[25.0]);
        assert_eq!(m.push_zero_row(), 1);
        assert_eq!(m.num_rows(), 2);
        assert_eq!(m.row(1), &[0.0, 0.0]);
        assert_eq!(m.row_norms_sq(), &[25.0, 0.0]);
        m.grow_cols(4);
        assert_eq!(m.num_cols(), 4);
        assert_eq!(m.row(0), &[3.0, 4.0, 0.0, 0.0]);
        assert_eq!(m.row(1), &[0.0, 0.0, 0.0, 0.0]);
        m.set(1, 3, 2.0);
        assert_eq!(m.row_norms_sq(), &[25.0, 4.0]);
        m.grow_cols(4); // no-op
        assert_eq!(m.as_flat().len(), 8);
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn grow_cols_rejects_shrinking() {
        let mut m = DenseMatrix::zeros(1, 3);
        m.grow_cols(2);
    }

    #[test]
    fn select_rows_and_cols() {
        let m = DenseMatrix::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 9.0],
        ]);
        let r = m.select_rows(&[2, 0]);
        assert_eq!(r.row(0), &[7.0, 8.0, 9.0]);
        assert_eq!(r.row(1), &[1.0, 2.0, 3.0]);
        let c = m.select_cols(&[2, 1]);
        assert_eq!(c.row(0), &[3.0, 2.0]);
        assert_eq!(c.num_cols(), 2);
    }

    #[test]
    fn normalize_rows_handles_zero_rows() {
        let mut m = DenseMatrix::from_rows(&[vec![3.0, 4.0], vec![0.0, 0.0]]);
        m.normalize_rows();
        assert!((norm(m.row(0)) - 1.0).abs() < 1e-12);
        assert_eq!(m.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn col_means_average() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 30.0]]);
        assert_eq!(m.col_means(), vec![2.0, 20.0]);
        assert_eq!(DenseMatrix::zeros(0, 2).col_means(), vec![0.0, 0.0]);
    }

    #[test]
    fn slice_helpers() {
        let a = [1.0, 2.0, 2.0];
        let b = [0.0, 0.0, 2.0];
        assert_eq!(distance_sq(&a, &b), 1.0 + 4.0);
        assert_eq!(dot(&a, &b), 4.0);
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
        assert!((cosine(&a, &a) - 1.0).abs() < 1e-12);
        assert_eq!(cosine(&a, &[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn row_norms_cache_and_invalidation() {
        let mut m = DenseMatrix::from_rows(&[vec![3.0, 4.0], vec![1.0, 0.0]]);
        assert_eq!(m.row_norms_sq(), &[25.0, 1.0]);
        // Cached pointer is stable across calls.
        let p1 = m.row_norms_sq().as_ptr();
        let p2 = m.row_norms_sq().as_ptr();
        assert_eq!(p1, p2);
        // Mutation invalidates.
        m.set(1, 1, 2.0);
        assert_eq!(m.row_norms_sq(), &[25.0, 5.0]);
        m.row_mut(0)[0] = 0.0;
        assert_eq!(m.row_norms_sq(), &[16.0, 5.0]);
        m.normalize_rows();
        let norms = m.row_norms_sq().to_vec();
        assert!((norms[0] - 1.0).abs() < 1e-12 && (norms[1] - 1.0).abs() < 1e-12);
        // Clones carry (or recompute) a consistent cache.
        let c = m.clone();
        assert_eq!(c.row_norms_sq(), m.row_norms_sq());
    }

    #[test]
    fn rows_iter_matches_row() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let collected: Vec<&[f64]> = m.rows_iter().collect();
        assert_eq!(collected, vec![m.row(0), m.row(1)]);
    }
}
