//! CART decision tree (binary splits on continuous features), grown on
//! a presorted column index.
//!
//! The paper's optimizer "built a classifier … to assess the robustness
//! of clustering results …, using the same input features of the
//! clustering algorithm, and the class label assigned by the clustering
//! algorithm itself as target. … In our first implementation, we used
//! decision trees as classification model." This is that model: a
//! depth-limited CART with gini or entropy impurity, midpoint thresholds
//! and deterministic tie-breaking.
//!
//! # Presort once, partition down
//!
//! Growth follows SLIQ/SPRINT. [`Presorted::new`] copies the matrix
//! into column-major order and sorts every feature's row ids by value,
//! once. A cross-validation sweep shares that one presort across all
//! of its fits: [`DecisionTree::fit_rows`] takes a training mask
//! instead of a copied sub-matrix and starts by filtering each
//! feature's sorted order down to the training rows. From then on no
//! node sorts anything:
//!
//! * every node owns the same `[start, end)` segment of each feature's
//!   filtered order, and that segment is already in ascending value
//!   order, so the best split of a feature is one scan of its segment
//!   (the run of rows tied at the lowest value, which is most of a
//!   sparse feature, holds no boundary and is tallied from the shorter
//!   side of its end);
//! * a split marks the rows that go left (`value <= threshold`) and
//!   stably partitions every feature's segment into left then right,
//!   which keeps both halves sorted for the children.
//!
//! A level of the tree therefore costs O(d·n) for d features and n
//! training rows, instead of the O(d·n log n) of re-sorting each node.
//!
//! The trees are identical to those of a per-node re-sort: the scan
//! evaluates only boundaries between distinct values, where the class
//! counts on either side do not depend on how rows with equal values
//! are ordered, and the gain, threshold and tie-break expressions are
//! the same floating-point expressions evaluated in the same (feature,
//! threshold) order.

use ada_vsm::dense::DenseMatrix;

/// Split impurity criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Criterion {
    /// Gini impurity `1 − Σ pᵢ²` (CART default).
    Gini,
    /// Shannon entropy `−Σ pᵢ ln pᵢ`.
    Entropy,
}

impl Criterion {
    fn impurity(self, counts: &[usize], total: usize) -> f64 {
        if total == 0 {
            return 0.0;
        }
        let t = total as f64;
        match self {
            Criterion::Gini => {
                1.0 - counts
                    .iter()
                    .map(|&c| {
                        let p = c as f64 / t;
                        p * p
                    })
                    .sum::<f64>()
            }
            Criterion::Entropy => counts
                .iter()
                .filter(|&&c| c > 0)
                .map(|&c| {
                    let p = c as f64 / t;
                    -p * p.ln()
                })
                .sum(),
        }
    }
}

/// Decision-tree hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum number of samples in each child of a split.
    pub min_samples_leaf: usize,
    /// Minimum impurity decrease a split must achieve.
    pub min_gain: f64,
    /// Impurity criterion.
    pub criterion: Criterion,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            max_depth: 10,
            min_samples_leaf: 2,
            min_gain: 1e-7,
            criterion: Criterion::Gini,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        class: usize,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A matrix presorted for tree growth: a column-major copy of its
/// values plus, for every feature, all row ids in ascending value
/// order.
///
/// Built once and shared read-only by every fit over the same matrix
/// (see the module docs).
#[derive(Debug)]
pub struct Presorted {
    num_rows: usize,
    num_features: usize,
    /// Feature `f`'s values are `columns[f * num_rows..][..num_rows]`.
    columns: Vec<f64>,
    /// Feature `f`'s row ids in ascending value order are
    /// `order[f * num_rows..][..num_rows]`.
    order: Vec<u32>,
}

impl Presorted {
    /// Copies `matrix` column by column and sorts each column's row ids
    /// by value.
    ///
    /// # Panics
    /// Panics when a feature value is NaN or the matrix has more than
    /// `u32::MAX` rows.
    pub fn new(matrix: &DenseMatrix) -> Self {
        let (num_rows, num_features) = (matrix.num_rows(), matrix.num_cols());
        let row_ids = u32::try_from(num_rows).expect("presort holds at most u32::MAX rows");
        let mut columns = vec![0.0; num_rows * num_features];
        for (r, row) in matrix.rows_iter().enumerate() {
            for (f, &v) in row.iter().enumerate() {
                columns[f * num_rows + r] = v;
            }
        }
        let mut order = Vec::with_capacity(num_rows * num_features);
        for column in (0..num_features).map(|f| &columns[f * num_rows..(f + 1) * num_rows]) {
            let start = order.len();
            order.extend(0..row_ids);
            order[start..].sort_unstable_by(|&a: &u32, &b: &u32| {
                column[a as usize]
                    .partial_cmp(&column[b as usize])
                    .expect("finite feature values")
            });
        }
        Self {
            num_rows,
            num_features,
            columns,
            order,
        }
    }

    /// Number of rows.
    pub(crate) fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of features.
    pub(crate) fn num_features(&self) -> usize {
        self.num_features
    }

    fn column(&self, feature: usize) -> &[f64] {
        &self.columns[feature * self.num_rows..(feature + 1) * self.num_rows]
    }

    fn sorted(&self, feature: usize) -> &[u32] {
        &self.order[feature * self.num_rows..(feature + 1) * self.num_rows]
    }
}

/// A fitted CART decision tree.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    num_classes: usize,
    num_features: usize,
}

impl DecisionTree {
    /// Fits a tree on the rows of `matrix` with the given labels:
    /// presorts the matrix, then [`fit_rows`](Self::fit_rows) on every
    /// row.
    ///
    /// # Panics
    /// Panics on empty input, label/row count mismatch, labels
    /// ≥ `num_classes`, or a NaN feature value.
    pub fn fit(
        matrix: &DenseMatrix,
        labels: &[usize],
        num_classes: usize,
        config: &TreeConfig,
    ) -> Self {
        let train_mask = vec![true; matrix.num_rows()];
        Self::fit_rows(
            &Presorted::new(matrix),
            labels,
            &train_mask,
            num_classes,
            config,
        )
    }

    /// Fits a tree on the rows of `presorted` whose `train_mask` entry
    /// is set. `labels` has one entry per presorted row; only the rows
    /// in the mask train the tree.
    ///
    /// # Panics
    /// Panics when the mask selects no row, `labels` or `train_mask`
    /// does not have one entry per row, or a label is ≥ `num_classes`.
    pub fn fit_rows(
        presorted: &Presorted,
        labels: &[usize],
        train_mask: &[bool],
        num_classes: usize,
        config: &TreeConfig,
    ) -> Self {
        assert_eq!(presorted.num_rows, labels.len(), "label count mismatch");
        assert_eq!(
            presorted.num_rows,
            train_mask.len(),
            "train mask length mismatch"
        );
        assert!(
            labels.iter().all(|&l| l < num_classes),
            "label out of range"
        );
        let mut counts = vec![0usize; num_classes];
        for (&label, _) in labels.iter().zip(train_mask).filter(|(_, &t)| t) {
            counts[label] += 1;
        }
        let train_rows: usize = counts.iter().sum();
        assert!(train_rows > 0, "cannot fit on empty data");
        let mut rows = Vec::with_capacity(train_rows * presorted.num_features);
        for feature in 0..presorted.num_features {
            rows.extend(
                presorted
                    .sorted(feature)
                    .iter()
                    .filter(|&&r| train_mask[r as usize]),
            );
        }
        let mut grower = Grower {
            presorted,
            labels,
            config,
            train_rows,
            rows,
            goes_left: vec![false; presorted.num_rows],
            scratch: Vec::new(),
            nodes: Vec::new(),
        };
        grower.grow(0, train_rows, counts, 0);
        DecisionTree {
            nodes: grower.nodes,
            num_classes,
            num_features: presorted.num_features,
        }
    }

    /// Predicts the class of a single feature row.
    ///
    /// # Panics
    /// Panics when `row.len() != num_features`.
    pub fn predict_row(&self, row: &[f64]) -> usize {
        assert_eq!(row.len(), self.num_features, "feature count mismatch");
        let mut node = self.nodes.len() - 1; // root is pushed last
        loop {
            match &self.nodes[node] {
                Node::Leaf { class } => return *class,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Predicts classes for every row of `matrix`.
    pub fn predict(&self, matrix: &DenseMatrix) -> Vec<usize> {
        (0..matrix.num_rows())
            .map(|i| self.predict_row(matrix.row(i)))
            .collect()
    }

    /// Number of leaf nodes.
    pub fn num_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Depth of the tree (0 for a single leaf).
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[Node], id: usize) -> usize {
            match &nodes[id] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + rec(nodes, *left).max(rec(nodes, *right)),
            }
        }
        rec(&self.nodes, self.nodes.len() - 1)
    }
}

/// The state of one fit: every feature's training rows in value order,
/// partitioned in place as the tree splits.
struct Grower<'a> {
    presorted: &'a Presorted,
    labels: &'a [usize],
    config: &'a TreeConfig,
    /// Number of training rows, the length of each feature's block.
    train_rows: usize,
    /// Feature `f`'s block is `rows[f * train_rows..][..train_rows]`. A
    /// node's rows are the same `[start, end)` segment of every block,
    /// sorted by that block's feature.
    rows: Vec<u32>,
    /// Per presorted row: whether it goes left at the split being
    /// applied.
    goes_left: Vec<bool>,
    /// The right-hand rows of the segment being partitioned.
    scratch: Vec<u32>,
    nodes: Vec<Node>,
}

impl Grower<'_> {
    /// Grows the subtree over segment `[start, end)`, whose class counts
    /// are `counts`, and returns its node id.
    fn grow(&mut self, start: usize, end: usize, counts: Vec<usize>, depth: usize) -> usize {
        let n = end - start;
        let config = self.config;
        let majority = argmax_counts(&counts);
        let impurity = config.criterion.impurity(&counts, n);

        let make_leaf = |nodes: &mut Vec<Node>| {
            nodes.push(Node::Leaf { class: majority });
            nodes.len() - 1
        };

        if depth >= config.max_depth || n < 2 * config.min_samples_leaf || impurity == 0.0 {
            return make_leaf(&mut self.nodes);
        }

        let Some((feature, threshold, gain)) = self.best_split(start, end, &counts, impurity)
        else {
            return make_leaf(&mut self.nodes);
        };
        if gain < config.min_gain {
            return make_leaf(&mut self.nodes);
        }

        // Mark the rows going left (value <= threshold) and count them.
        let column = self.presorted.column(feature);
        let base = feature * self.train_rows;
        let mut left_counts = vec![0usize; counts.len()];
        let mut mid = 0;
        for &r in &self.rows[base + start..base + end] {
            let r = r as usize;
            let left = column[r] <= threshold;
            self.goes_left[r] = left;
            if left {
                left_counts[self.labels[r]] += 1;
                mid += 1;
            }
        }
        if mid == 0 || mid == n {
            return make_leaf(&mut self.nodes); // numerically degenerate split
        }
        let right_counts = counts
            .iter()
            .zip(&left_counts)
            .map(|(c, l)| c - l)
            .collect();

        // Children at the depth limit are leaves and never read their
        // segments, so their parent does not partition.
        if depth + 1 < config.max_depth {
            self.partition(start, end);
        }
        // Children are pushed before their parent, so the root is the
        // last node.
        let left = self.grow(start, start + mid, left_counts, depth + 1);
        let right = self.grow(start + mid, end, right_counts, depth + 1);
        self.nodes.push(Node::Split {
            feature,
            threshold,
            left,
            right,
        });
        self.nodes.len() - 1
    }

    /// Exhaustive best split: one scan of every feature's value-sorted
    /// segment, accumulating class-count prefixes and evaluating each
    /// boundary between distinct values.
    fn best_split(
        &self,
        start: usize,
        end: usize,
        counts: &[usize],
        parent_impurity: f64,
    ) -> Option<(usize, f64, f64)> {
        let config = self.config;
        let n = end - start;
        let total = n as f64;
        let mut best: Option<(usize, f64, f64)> = None;
        let mut left_counts = vec![0usize; counts.len()];
        let mut right_counts = vec![0usize; counts.len()];
        for feature in 0..self.presorted.num_features {
            let column = self.presorted.column(feature);
            let base = feature * self.train_rows;
            let segment = &self.rows[base + start..base + end];
            let lowest = column[segment[0] as usize];
            if lowest == column[segment[n - 1] as usize] {
                continue; // constant over the node: no boundary
            }
            // The rows tied at the lowest value hold no boundary: tally
            // them in one step, from whichever side of the first boundary
            // is shorter (a sparse feature is mostly one run of zeros).
            let run = segment.partition_point(|&r| column[r as usize] == lowest);
            let (tallied, derived, rows) = if run <= n - run {
                (&mut left_counts, &mut right_counts, &segment[..run])
            } else {
                (&mut right_counts, &mut left_counts, &segment[run..])
            };
            tallied.fill(0);
            for &r in rows {
                tallied[self.labels[r as usize]] += 1;
            }
            for ((d, &c), &t) in derived.iter_mut().zip(counts).zip(tallied.iter()) {
                *d = c - t;
            }
            for pos in run - 1..n - 1 {
                let i = segment[pos] as usize;
                if pos >= run {
                    left_counts[self.labels[i]] += 1;
                    right_counts[self.labels[i]] -= 1;
                }
                let (v, v_next) = (column[i], column[segment[pos + 1] as usize]);
                if v == v_next {
                    continue; // can't split between equal values
                }
                let left_n = pos + 1;
                let right_n = n - left_n;
                if right_n < config.min_samples_leaf {
                    break; // the right side only shrinks from here
                }
                if left_n < config.min_samples_leaf {
                    continue;
                }
                let gain = parent_impurity
                    - (left_n as f64 / total) * config.criterion.impurity(&left_counts, left_n)
                    - (right_n as f64 / total) * config.criterion.impurity(&right_counts, right_n);
                let threshold = v + (v_next - v) / 2.0;
                let better = match best {
                    None => true,
                    Some((bf, bt, bg)) => {
                        gain > bg + 1e-12
                            || ((gain - bg).abs() <= 1e-12 && (feature, threshold) < (bf, bt))
                    }
                };
                if better {
                    best = Some((feature, threshold, gain));
                }
            }
        }
        best
    }

    /// Stably partitions every feature's `[start, end)` segment into the
    /// rows marked in `goes_left`, then the rest, so both halves stay in
    /// value order.
    fn partition(&mut self, start: usize, end: usize) {
        for feature in 0..self.presorted.num_features {
            let base = feature * self.train_rows;
            let segment = &mut self.rows[base + start..base + end];
            self.scratch.resize(segment.len(), 0);
            // Branch-free: each row is written to both destinations and
            // only the matching cursor advances (`kept <= i`, so the
            // in-place write never clobbers an unread row).
            let (mut kept, mut moved) = (0, 0);
            for i in 0..segment.len() {
                let r = segment[i];
                let left = usize::from(self.goes_left[r as usize]);
                segment[kept] = r;
                self.scratch[moved] = r;
                kept += left;
                moved += 1 - left;
            }
            segment[kept..].copy_from_slice(&self.scratch[..moved]);
        }
    }
}

fn argmax_counts(counts: &[usize]) -> usize {
    counts
        .iter()
        .enumerate()
        .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two-feature, three-class dataset needing two nested splits:
    /// x ≈ 0 → class 0; x ≈ 1, y ≈ 0 → class 1; x ≈ 1, y ≈ 1 → class 2.
    fn nested_data() -> (DenseMatrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for &(x, y, l) in &[
            (0.0, 0.0, 0usize),
            (0.0, 1.0, 0),
            (1.0, 0.0, 1),
            (1.0, 1.0, 2),
        ] {
            for jitter in 0..5 {
                let e = jitter as f64 * 0.01;
                rows.push(vec![x + e, y + e]);
                labels.push(l);
            }
        }
        (DenseMatrix::from_rows(&rows), labels)
    }

    #[test]
    fn fits_nested_splits_exactly() {
        let (m, labels) = nested_data();
        let tree = DecisionTree::fit(&m, &labels, 3, &TreeConfig::default());
        assert_eq!(tree.predict(&m), labels);
        assert_eq!(tree.depth(), 2);
        assert_eq!(tree.num_leaves(), 3);
    }

    #[test]
    fn greedy_cart_cannot_split_pure_xor() {
        // Known CART limitation: every single split of a balanced XOR has
        // zero impurity decrease, so with a positive min_gain the root
        // stays a leaf. Documents the expected greedy behaviour.
        let m = DenseMatrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ]);
        let labels = vec![0, 1, 1, 0];
        let cfg = TreeConfig {
            min_samples_leaf: 1,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&m, &labels, 2, &cfg);
        assert_eq!(tree.num_leaves(), 1);
    }

    #[test]
    fn pure_node_is_single_leaf() {
        let m = DenseMatrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let labels = vec![1, 1, 1];
        let tree = DecisionTree::fit(&m, &labels, 2, &TreeConfig::default());
        assert_eq!(tree.num_leaves(), 1);
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.predict_row(&[99.0]), 1);
    }

    #[test]
    fn max_depth_zero_predicts_majority() {
        let (m, labels) = nested_data();
        let cfg = TreeConfig {
            max_depth: 0,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&m, &labels, 3, &cfg);
        assert_eq!(tree.num_leaves(), 1);
        // Class 0 holds 10 of 20 samples: the unsplit root predicts it.
        assert_eq!(tree.predict_row(&[1.0, 1.0]), 0);
    }

    #[test]
    fn min_samples_leaf_blocks_tiny_splits() {
        let m = DenseMatrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let labels = vec![0, 0, 0, 1];
        let cfg = TreeConfig {
            min_samples_leaf: 2,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&m, &labels, 2, &cfg);
        // The clean split (isolating the single class-1 sample) is
        // forbidden; only the balanced 2|2 split remains, whose impure
        // right child cannot be refined further. x = 3 is therefore
        // misclassified as the right child's majority (tie → class 0).
        assert_eq!(tree.num_leaves(), 2);
        assert_eq!(tree.predict_row(&[3.0]), 0);
        assert_eq!(tree.predict_row(&[0.0]), 0);
    }

    #[test]
    fn entropy_criterion_also_solves_separable_data() {
        let m = DenseMatrix::from_rows(&[
            vec![0.0],
            vec![0.1],
            vec![0.2],
            vec![5.0],
            vec![5.1],
            vec![5.2],
        ]);
        let labels = vec![0, 0, 0, 1, 1, 1];
        let cfg = TreeConfig {
            criterion: Criterion::Entropy,
            min_samples_leaf: 1,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&m, &labels, 2, &cfg);
        assert_eq!(tree.predict(&m), labels);
        assert_eq!(tree.num_leaves(), 2);
        assert_eq!(tree.depth(), 1);
    }

    #[test]
    fn handles_constant_features() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 5.0], vec![1.0, 9.0]]);
        let labels = vec![0, 1, 1];
        let cfg = TreeConfig {
            min_samples_leaf: 1,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&m, &labels, 2, &cfg);
        // Constant feature 0 must be ignored; feature 1 separates.
        assert_eq!(tree.predict(&m), labels);
    }

    #[test]
    fn multiclass_separable() {
        let m = DenseMatrix::from_rows(&[
            vec![0.0],
            vec![0.2],
            vec![5.0],
            vec![5.2],
            vec![10.0],
            vec![10.2],
        ]);
        let labels = vec![0, 0, 1, 1, 2, 2];
        let cfg = TreeConfig {
            min_samples_leaf: 1,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&m, &labels, 3, &cfg);
        assert_eq!(tree.predict(&m), labels);
        assert_eq!(tree.num_leaves(), 3);
    }

    #[test]
    fn deterministic_fit() {
        let (m, labels) = nested_data();
        let a = DecisionTree::fit(&m, &labels, 3, &TreeConfig::default());
        let b = DecisionTree::fit(&m, &labels, 3, &TreeConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn impurity_functions() {
        assert_eq!(Criterion::Gini.impurity(&[5, 0], 5), 0.0);
        assert!((Criterion::Gini.impurity(&[5, 5], 10) - 0.5).abs() < 1e-12);
        assert_eq!(Criterion::Entropy.impurity(&[5, 0], 5), 0.0);
        assert!((Criterion::Entropy.impurity(&[5, 5], 10) - 2f64.ln().abs()).abs() < 1e-12);
        assert_eq!(Criterion::Gini.impurity(&[], 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "finite feature values")]
    fn rejects_nan_features() {
        let m = DenseMatrix::from_rows(&[vec![1.0], vec![f64::NAN], vec![2.0]]);
        let _ = DecisionTree::fit(&m, &[0, 1, 0], 2, &TreeConfig::default());
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_bad_labels() {
        let m = DenseMatrix::from_rows(&[vec![1.0]]);
        let _ = DecisionTree::fit(&m, &[5], 2, &TreeConfig::default());
    }
}
