//! Bounding-box kd-tree with per-node aggregate statistics.
//!
//! This is the data structure behind Kanungo et al., "An efficient
//! k-means clustering algorithm: Analysis and implementation" (IEEE
//! TPAMI 2002) — the paper's reference \[3\] for its clustering component.
//! Each node stores its cell's bounding box plus the *count*, *vector
//! sum* and *squared-norm sum* of the points beneath it, so the filtering
//! K-means in `ada-mining` can assign whole subtrees to a centroid in one
//! step and accumulate SSE without touching individual points.
//!
//! The tree owns a copy of the point set (flat row-major buffer); nodes
//! live in an arena addressed by [`NodeId`].

use crate::dense::{distance_sq, DenseMatrix};

/// Arena index of a kd-tree node.
pub type NodeId = usize;

#[derive(Debug, Clone)]
struct Node {
    /// Lower corner of the cell's bounding box.
    lo: Vec<f64>,
    /// Upper corner of the cell's bounding box.
    hi: Vec<f64>,
    /// Number of points in the subtree.
    count: usize,
    /// Component-wise sum of the subtree's points.
    sum: Vec<f64>,
    /// Sum of squared Euclidean norms of the subtree's points.
    sum_sq: f64,
    /// `Some((left, right))` for internal nodes, `None` for leaves.
    children: Option<(NodeId, NodeId)>,
    /// Range into the permutation array holding this subtree's points.
    range: (usize, usize),
}

/// A kd-tree over a set of equal-dimension points.
#[derive(Debug, Clone)]
pub struct KdTree {
    dim: usize,
    points: Vec<f64>, // row-major copy, num_points × dim
    perm: Vec<usize>, // permutation: tree order -> original index
    nodes: Vec<Node>,
    root: NodeId,
    leaf_size: usize,
}

impl KdTree {
    /// Default maximum number of points per leaf.
    pub const DEFAULT_LEAF_SIZE: usize = 16;

    /// Builds a tree over the rows of `matrix` with the default leaf size.
    ///
    /// # Panics
    /// Panics when the matrix has no rows or no columns.
    pub fn build(matrix: &DenseMatrix) -> Self {
        Self::build_with_leaf_size(matrix, Self::DEFAULT_LEAF_SIZE)
    }

    /// Builds a tree with an explicit leaf size (≥ 1).
    ///
    /// # Panics
    /// Panics when the matrix has no rows or no columns, or when
    /// `leaf_size` is 0.
    pub fn build_with_leaf_size(matrix: &DenseMatrix, leaf_size: usize) -> Self {
        assert!(leaf_size >= 1, "leaf size must be positive");
        let n = matrix.num_rows();
        let dim = matrix.num_cols();
        assert!(n > 0, "kd-tree needs at least one point");
        assert!(dim > 0, "kd-tree needs at least one dimension");

        let mut tree = KdTree {
            dim,
            points: matrix.as_flat().to_vec(),
            perm: (0..n).collect(),
            nodes: Vec::with_capacity(2 * n / leaf_size + 1),
            root: 0,
            leaf_size,
        };
        tree.root = tree.build_node(0, n);
        tree
    }

    fn point_of(&self, original: usize) -> &[f64] {
        &self.points[original * self.dim..(original + 1) * self.dim]
    }

    /// Recursively builds the subtree over `perm[start..end]`, returning
    /// its arena id.
    fn build_node(&mut self, start: usize, end: usize) -> NodeId {
        // Aggregate statistics and bounding box over the range.
        let mut lo = vec![f64::INFINITY; self.dim];
        let mut hi = vec![f64::NEG_INFINITY; self.dim];
        let mut sum = vec![0.0; self.dim];
        let mut sum_sq = 0.0;
        for t in start..end {
            let original = self.perm[t];
            let p = &self.points[original * self.dim..(original + 1) * self.dim];
            for d in 0..self.dim {
                let v = p[d];
                if v < lo[d] {
                    lo[d] = v;
                }
                if v > hi[d] {
                    hi[d] = v;
                }
                sum[d] += v;
                sum_sq += v * v;
            }
        }

        let count = end - start;
        if count <= self.leaf_size {
            self.nodes.push(Node {
                lo,
                hi,
                count,
                sum,
                sum_sq,
                children: None,
                range: (start, end),
            });
            return self.nodes.len() - 1;
        }

        // Split on the widest dimension at the median.
        let split_dim = (0..self.dim)
            .max_by(|&a, &b| {
                let wa = hi[a] - lo[a];
                let wb = hi[b] - lo[b];
                wa.partial_cmp(&wb).expect("finite widths")
            })
            .expect("dim > 0");
        let mid = start + count / 2;
        {
            let points = &self.points;
            let dim = self.dim;
            self.perm[start..end].select_nth_unstable_by(mid - start, |&a, &b| {
                points[a * dim + split_dim]
                    .partial_cmp(&points[b * dim + split_dim])
                    .expect("finite coordinates")
            });
        }

        // Degenerate guard: if all coordinates equal on the split dim the
        // median split still makes progress because mid is strictly
        // inside (start, end) for count >= 2.
        let left = self.build_node(start, mid);
        let right = self.build_node(mid, end);
        self.nodes.push(Node {
            lo,
            hi,
            count,
            sum,
            sum_sq,
            children: Some((left, right)),
            range: (start, end),
        });
        self.nodes.len() - 1
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The point dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total number of points.
    pub fn num_points(&self) -> usize {
        self.perm.len()
    }

    /// The original coordinates of point `i` (original indexing).
    pub fn point(&self, i: usize) -> &[f64] {
        self.point_of(i)
    }

    /// `Some((left, right))` for internal nodes, `None` for leaves.
    pub fn children(&self, id: NodeId) -> Option<(NodeId, NodeId)> {
        self.nodes[id].children
    }

    /// The node's bounding box as `(lower, upper)` corners.
    pub fn bbox(&self, id: NodeId) -> (&[f64], &[f64]) {
        (&self.nodes[id].lo, &self.nodes[id].hi)
    }

    /// Number of points in the node's subtree.
    pub fn count(&self, id: NodeId) -> usize {
        self.nodes[id].count
    }

    /// Component-wise sum of the subtree's points.
    pub fn sum(&self, id: NodeId) -> &[f64] {
        &self.nodes[id].sum
    }

    /// Sum of squared norms of the subtree's points.
    pub fn sum_sq(&self, id: NodeId) -> f64 {
        self.nodes[id].sum_sq
    }

    /// Original indices of the points stored under the node (for leaves
    /// this is the leaf bucket; for internal nodes the whole subtree).
    pub fn points_in(&self, id: NodeId) -> &[usize] {
        let (s, e) = self.nodes[id].range;
        &self.perm[s..e]
    }

    /// Squared distance from `q` to the node's bounding box (0 inside).
    #[allow(clippy::needless_range_loop)] // lockstep multi-array indexing
    pub fn bbox_distance_sq(&self, id: NodeId, q: &[f64]) -> f64 {
        let node = &self.nodes[id];
        let mut acc = 0.0;
        for d in 0..self.dim {
            let v = q[d];
            let delta = if v < node.lo[d] {
                node.lo[d] - v
            } else if v > node.hi[d] {
                v - node.hi[d]
            } else {
                0.0
            };
            acc += delta * delta;
        }
        acc
    }

    /// Exact nearest neighbour of `q`: `(original index, squared dist)`.
    ///
    /// # Panics
    /// Panics when `q.len() != dim`.
    pub fn nearest(&self, q: &[f64]) -> (usize, f64) {
        assert_eq!(q.len(), self.dim, "query dimension mismatch");
        let mut best = (usize::MAX, f64::INFINITY);
        self.nearest_rec(self.root, q, &mut best);
        best
    }

    fn nearest_rec(&self, id: NodeId, q: &[f64], best: &mut (usize, f64)) {
        if self.bbox_distance_sq(id, q) >= best.1 {
            return;
        }
        match self.nodes[id].children {
            None => {
                for &original in self.points_in(id) {
                    let d = distance_sq(q, self.point_of(original));
                    if d < best.1 {
                        *best = (original, d);
                    }
                }
            }
            Some((l, r)) => {
                // Visit the closer child first for tighter pruning.
                let dl = self.bbox_distance_sq(l, q);
                let dr = self.bbox_distance_sq(r, q);
                let (first, second) = if dl <= dr { (l, r) } else { (r, l) };
                self.nearest_rec(first, q, best);
                self.nearest_rec(second, q, best);
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // lockstep index checks in tests
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(n: usize, dim: usize, seed: u64) -> DenseMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..n * dim).map(|_| rng.gen_range(-5.0..5.0)).collect();
        DenseMatrix::from_flat(n, dim, data)
    }

    #[test]
    fn root_aggregates_match_brute_force() {
        let m = random_matrix(100, 4, 1);
        let tree = KdTree::build(&m);
        let root = tree.root();
        assert_eq!(tree.count(root), 100);
        let mut sum = [0.0; 4];
        let mut sum_sq = 0.0;
        for r in m.rows_iter() {
            for d in 0..4 {
                sum[d] += r[d];
                sum_sq += r[d] * r[d];
            }
        }
        for d in 0..4 {
            assert!((tree.sum(root)[d] - sum[d]).abs() < 1e-9);
        }
        assert!((tree.sum_sq(root) - sum_sq).abs() < 1e-9);
    }

    #[test]
    fn child_aggregates_sum_to_parent() {
        let m = random_matrix(200, 3, 2);
        let tree = KdTree::build_with_leaf_size(&m, 8);
        let mut stack = vec![tree.root()];
        while let Some(id) = stack.pop() {
            if let Some((l, r)) = tree.children(id) {
                assert_eq!(tree.count(l) + tree.count(r), tree.count(id));
                for d in 0..3 {
                    let s = tree.sum(l)[d] + tree.sum(r)[d];
                    assert!((s - tree.sum(id)[d]).abs() < 1e-9);
                }
                assert!((tree.sum_sq(l) + tree.sum_sq(r) - tree.sum_sq(id)).abs() < 1e-9);
                stack.push(l);
                stack.push(r);
            }
        }
    }

    #[test]
    fn bbox_contains_all_leaf_points() {
        let m = random_matrix(150, 3, 3);
        let tree = KdTree::build_with_leaf_size(&m, 4);
        let mut stack = vec![tree.root()];
        while let Some(id) = stack.pop() {
            let (lo, hi) = tree.bbox(id);
            for &p in tree.points_in(id) {
                let point = tree.point(p);
                for d in 0..3 {
                    assert!(point[d] >= lo[d] - 1e-12 && point[d] <= hi[d] + 1e-12);
                }
            }
            if let Some((l, r)) = tree.children(id) {
                stack.push(l);
                stack.push(r);
            }
        }
    }

    #[test]
    fn nearest_matches_brute_force() {
        let m = random_matrix(300, 5, 4);
        let tree = KdTree::build_with_leaf_size(&m, 8);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..50 {
            let q: Vec<f64> = (0..5).map(|_| rng.gen_range(-6.0..6.0)).collect();
            let (idx, d) = tree.nearest(&q);
            let (bidx, bd) = (0..300)
                .map(|i| (i, distance_sq(&q, m.row(i))))
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .unwrap();
            assert!((d - bd).abs() < 1e-9, "dist mismatch");
            // Ties may pick different indices; distances must agree.
            let _ = (idx, bidx);
        }
    }

    #[test]
    fn handles_duplicate_points() {
        let m = DenseMatrix::from_rows(&[
            vec![1.0, 1.0],
            vec![1.0, 1.0],
            vec![1.0, 1.0],
            vec![1.0, 1.0],
            vec![2.0, 2.0],
        ]);
        let tree = KdTree::build_with_leaf_size(&m, 1);
        let (idx, d) = tree.nearest(&[1.1, 1.1]);
        assert!(d < 0.021);
        assert!(idx < 4);
        assert_eq!(tree.count(tree.root()), 5);
    }

    #[test]
    fn single_point_tree() {
        let m = DenseMatrix::from_rows(&[vec![3.0, -1.0]]);
        let tree = KdTree::build(&m);
        assert_eq!(tree.nearest(&[0.0, 0.0]), (0, 10.0));
        assert!(tree.children(tree.root()).is_none());
    }

    #[test]
    fn bbox_distance_zero_inside() {
        let m = random_matrix(50, 2, 5);
        let tree = KdTree::build(&m);
        let (lo, hi) = tree.bbox(tree.root());
        let inside = [(lo[0] + hi[0]) / 2.0, (lo[1] + hi[1]) / 2.0];
        assert_eq!(tree.bbox_distance_sq(tree.root(), &inside), 0.0);
        let outside = [hi[0] + 3.0, (lo[1] + hi[1]) / 2.0];
        assert!((tree.bbox_distance_sq(tree.root(), &outside) - 9.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn rejects_empty() {
        let _ = KdTree::build(&DenseMatrix::zeros(0, 3));
    }
}
