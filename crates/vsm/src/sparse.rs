//! Sparse vectors as sorted (index, value) pairs.
//!
//! Patient exam-history vectors are inherently sparse (a patient touches
//! a handful of the 159 exam types), so pairwise-similarity heavy
//! computations — notably the *overall similarity* interestingness
//! metric, which is quadratic in cluster size — run on this
//! representation.

/// A sparse `f64` vector over a fixed dimension, stored as strictly
/// increasing `(index, value)` pairs with no explicit zeros.
///
/// ```
/// use ada_vsm::SparseVec;
///
/// let a = SparseVec::from_dense(&[1.0, 0.0, 2.0]);
/// let b = SparseVec::from_dense(&[0.0, 3.0, 2.0]);
/// assert_eq!(a.nnz(), 2);
/// assert_eq!(a.dot(&b), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseVec {
    dim: usize,
    entries: Vec<(u32, f64)>,
}

impl SparseVec {
    /// Creates an all-zero vector of the given dimension.
    pub fn zeros(dim: usize) -> Self {
        Self {
            dim,
            entries: Vec::new(),
        }
    }

    /// Builds a sparse vector from (index, value) pairs.
    ///
    /// Pairs may arrive unsorted; duplicate indices are summed; zero
    /// values are dropped.
    ///
    /// # Panics
    /// Panics when an index is out of range for `dim`.
    pub fn from_pairs(dim: usize, pairs: impl IntoIterator<Item = (u32, f64)>) -> Self {
        let mut entries: Vec<(u32, f64)> = pairs.into_iter().collect();
        for &(i, _) in &entries {
            assert!((i as usize) < dim, "index {i} out of range for dim {dim}");
        }
        entries.sort_unstable_by_key(|&(i, _)| i);
        let mut merged: Vec<(u32, f64)> = Vec::with_capacity(entries.len());
        for (i, v) in entries {
            match merged.last_mut() {
                Some(last) if last.0 == i => last.1 += v,
                _ => merged.push((i, v)),
            }
        }
        merged.retain(|&(_, v)| v != 0.0);
        Self {
            dim,
            entries: merged,
        }
    }

    /// Builds a sparse vector from a dense slice, dropping zeros.
    pub fn from_dense(dense: &[f64]) -> Self {
        Self {
            dim: dense.len(),
            entries: dense
                .iter()
                .enumerate()
                .filter(|(_, &v)| v != 0.0)
                .map(|(i, &v)| (i as u32, v))
                .collect(),
        }
    }

    /// Expands to a dense vector.
    pub fn to_dense(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.dim];
        for &(i, v) in &self.entries {
            out[i as usize] = v;
        }
        out
    }

    /// The vector dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of explicitly stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// The stored `(index, value)` pairs, sorted by index.
    pub fn entries(&self) -> &[(u32, f64)] {
        &self.entries
    }

    /// The value at `index` (0.0 when not stored).
    pub fn get(&self, index: u32) -> f64 {
        match self.entries.binary_search_by_key(&index, |&(i, _)| i) {
            Ok(pos) => self.entries[pos].1,
            Err(_) => 0.0,
        }
    }

    /// Dot product with another sparse vector (merge join).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn dot(&self, other: &SparseVec) -> f64 {
        assert_eq!(self.dim, other.dim, "dimension mismatch");
        let (mut a, mut b) = (self.entries.iter(), other.entries.iter());
        let (mut x, mut y) = (a.next(), b.next());
        let mut acc = 0.0;
        while let (Some(&(i, u)), Some(&(j, v))) = (x, y) {
            match i.cmp(&j) {
                std::cmp::Ordering::Less => x = a.next(),
                std::cmp::Ordering::Greater => y = b.next(),
                std::cmp::Ordering::Equal => {
                    acc += u * v;
                    x = a.next();
                    y = b.next();
                }
            }
        }
        acc
    }

    /// Dot product with a dense vector.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn dot_dense(&self, dense: &[f64]) -> f64 {
        assert_eq!(self.dim, dense.len(), "dimension mismatch");
        self.entries
            .iter()
            .map(|&(i, v)| v * dense[i as usize])
            .sum()
    }

    /// Squared Euclidean norm.
    pub fn norm_sq(&self) -> f64 {
        self.entries.iter().map(|&(_, v)| v * v).sum()
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Cosine similarity with another vector; 0.0 when either is zero.
    pub fn cosine(&self, other: &SparseVec) -> f64 {
        let denom = self.norm() * other.norm();
        if denom == 0.0 {
            0.0
        } else {
            self.dot(other) / denom
        }
    }

    /// Squared Euclidean distance to another sparse vector.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn distance_sq(&self, other: &SparseVec) -> f64 {
        // ||a - b||² = ||a||² + ||b||² - 2 a·b, computed via merge join to
        // stay numerically direct on the overlapping support.
        assert_eq!(self.dim, other.dim, "dimension mismatch");
        let (mut a, mut b) = (self.entries.iter(), other.entries.iter());
        let (mut x, mut y) = (a.next(), b.next());
        let mut acc = 0.0;
        loop {
            match (x, y) {
                (Some(&(i, u)), Some(&(j, v))) => match i.cmp(&j) {
                    std::cmp::Ordering::Less => {
                        acc += u * u;
                        x = a.next();
                    }
                    std::cmp::Ordering::Greater => {
                        acc += v * v;
                        y = b.next();
                    }
                    std::cmp::Ordering::Equal => {
                        acc += (u - v) * (u - v);
                        x = a.next();
                        y = b.next();
                    }
                },
                (Some(&(_, u)), None) => {
                    acc += u * u;
                    x = a.next();
                }
                (None, Some(&(_, v))) => {
                    acc += v * v;
                    y = b.next();
                }
                (None, None) => break,
            }
        }
        acc
    }

    /// Multiplies every stored value by `factor` (dropping entries when
    /// `factor` is 0).
    pub fn scale(&mut self, factor: f64) {
        if factor == 0.0 {
            self.entries.clear();
        } else {
            for e in &mut self.entries {
                e.1 *= factor;
            }
        }
    }

    /// Returns an L2-normalized copy; a zero vector stays zero.
    pub fn normalized(&self) -> SparseVec {
        let n = self.norm();
        let mut out = self.clone();
        if n > 0.0 {
            out.scale(1.0 / n);
        }
        out
    }

    /// Element-wise sum with another vector.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn add(&self, other: &SparseVec) -> SparseVec {
        assert_eq!(self.dim, other.dim, "dimension mismatch");
        let pairs = self
            .entries
            .iter()
            .chain(other.entries.iter())
            .copied()
            .collect::<Vec<_>>();
        SparseVec::from_pairs(self.dim, pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_sorts_merges_drops_zeros() {
        let v = SparseVec::from_pairs(5, [(3, 1.0), (1, 2.0), (3, 2.0), (0, 0.0)]);
        assert_eq!(v.entries(), &[(1, 2.0), (3, 3.0)]);
        assert_eq!(v.nnz(), 2);
        assert_eq!(v.get(3), 3.0);
        assert_eq!(v.get(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_pairs_checks_bounds() {
        let _ = SparseVec::from_pairs(2, [(2, 1.0)]);
    }

    #[test]
    fn dense_round_trip() {
        let dense = [0.0, 1.5, 0.0, -2.0];
        let v = SparseVec::from_dense(&dense);
        assert_eq!(v.nnz(), 2);
        assert_eq!(v.to_dense(), dense);
    }

    #[test]
    fn dot_matches_dense() {
        let a = SparseVec::from_dense(&[1.0, 0.0, 2.0, 0.0, 3.0]);
        let b = SparseVec::from_dense(&[0.0, 4.0, 5.0, 0.0, 6.0]);
        assert_eq!(a.dot(&b), 2.0 * 5.0 + 3.0 * 6.0);
        assert_eq!(a.dot_dense(&[0.0, 4.0, 5.0, 0.0, 6.0]), 28.0);
    }

    #[test]
    fn norms_and_cosine() {
        let a = SparseVec::from_dense(&[3.0, 4.0]);
        assert_eq!(a.norm_sq(), 25.0);
        assert_eq!(a.norm(), 5.0);
        let b = SparseVec::from_dense(&[3.0, 4.0]);
        assert!((a.cosine(&b) - 1.0).abs() < 1e-12);
        let z = SparseVec::zeros(2);
        assert_eq!(a.cosine(&z), 0.0);
    }

    #[test]
    fn distance_sq_matches_identity() {
        let a = SparseVec::from_dense(&[1.0, 0.0, 2.0]);
        let b = SparseVec::from_dense(&[0.0, 3.0, 4.0]);
        let expected = 1.0 + 9.0 + 4.0;
        assert!((a.distance_sq(&b) - expected).abs() < 1e-12);
        assert_eq!(a.distance_sq(&a), 0.0);
    }

    #[test]
    fn scale_and_normalize() {
        let mut v = SparseVec::from_dense(&[3.0, 4.0]);
        v.scale(2.0);
        assert_eq!(v.get(0), 6.0);
        let n = v.normalized();
        assert!((n.norm() - 1.0).abs() < 1e-12);
        v.scale(0.0);
        assert_eq!(v.nnz(), 0);
        assert_eq!(SparseVec::zeros(2).normalized().norm(), 0.0);
    }

    #[test]
    fn add_merges_supports() {
        let a = SparseVec::from_dense(&[1.0, 0.0, 2.0]);
        let b = SparseVec::from_dense(&[0.0, 3.0, -2.0]);
        let s = a.add(&b);
        assert_eq!(s.to_dense(), vec![1.0, 3.0, 0.0]);
        assert_eq!(s.nnz(), 2); // exact cancellation dropped
    }
}
