//! Property tests: miner equivalences and validation invariants.

use ada_mining::kmeans::{init, KMeans, KMeansBackend, KMeansInit};
use ada_mining::patterns::{apriori, fpgrowth, rules, Transaction};
use ada_mining::validate::stratified_folds;
use ada_vsm::DenseMatrix;
use proptest::prelude::*;

fn transactions() -> impl Strategy<Value = Vec<Transaction>> {
    prop::collection::vec(
        prop::collection::btree_set(0u32..12, 0..6).prop_map(|s| s.into_iter().collect::<Vec<_>>()),
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fpgrowth_equals_apriori(ts in transactions(), min_support in 1usize..6) {
        let a = apriori::mine(&ts, min_support);
        let f = fpgrowth::mine(&ts, min_support);
        prop_assert_eq!(a, f);
    }

    #[test]
    fn downward_closure(ts in transactions(), min_support in 1usize..5) {
        use std::collections::HashMap;
        let frequent = fpgrowth::mine(&ts, min_support);
        let support: HashMap<&Vec<u32>, usize> =
            frequent.iter().map(|f| (&f.items, f.support)).collect();
        for f in &frequent {
            prop_assert!(f.support >= min_support);
            if f.items.len() >= 2 {
                for skip in 0..f.items.len() {
                    let sub: Vec<u32> = f.items.iter().enumerate()
                        .filter(|&(i, _)| i != skip).map(|(_, &v)| v).collect();
                    let s = support.get(&sub);
                    prop_assert!(s.is_some(), "missing subset {:?}", sub);
                    prop_assert!(*s.unwrap() >= f.support);
                }
            }
        }
    }

    #[test]
    fn rules_respect_confidence_and_counts(
        ts in transactions(),
        conf in 0.0f64..1.0,
    ) {
        let frequent = fpgrowth::mine(&ts, 1);
        let generated = rules::generate(&frequent, ts.len(), conf);
        for r in &generated {
            prop_assert!(r.confidence() >= conf - 1e-12);
            // Recount the rule directly against the transactions.
            let contains = |t: &Transaction, items: &[u32]|
                items.iter().all(|i| t.binary_search(i).is_ok());
            let count_ab = ts.iter()
                .filter(|t| contains(t, &r.antecedent) && contains(t, &r.consequent))
                .count();
            prop_assert_eq!(count_ab, r.counts.count_ab);
        }
    }

    #[test]
    fn filtering_equals_lloyd(
        rows in prop::collection::vec(
            prop::collection::vec((-50i32..50).prop_map(|v| f64::from(v) / 5.0), 3),
            4..50,
        ),
        k in 1usize..4,
        seed in 0u64..100,
    ) {
        prop_assume!(k <= rows.len());
        let m = DenseMatrix::from_rows(&rows);
        let start = init::initial_centroids(&m, k, KMeansInit::Forgy, seed);
        let lloyd = KMeans::new(k).fit_from(&m, start.clone());
        let filtering = KMeans::new(k)
            .backend(KMeansBackend::Filtering)
            .fit_from(&m, start);
        prop_assert_eq!(&lloyd.assignments, &filtering.assignments);
        prop_assert!((lloyd.sse - filtering.sse).abs() < 1e-6 * (1.0 + lloyd.sse));
    }

    #[test]
    fn pruned_parallel_kernel_equals_plain_serial_lloyd(
        rows in prop::collection::vec(
            prop::collection::vec((-50i32..50).prop_map(|v| f64::from(v) / 5.0), 1..5),
            4..60,
        ),
        k in 1usize..6,
        seed in 0u64..100,
        threads in 1usize..6,
    ) {
        prop_assume!(k <= rows.len());
        let dim = rows[0].len();
        let rows: Vec<Vec<f64>> = rows.into_iter().map(|mut r| { r.resize(dim, 0.0); r }).collect();
        let m = DenseMatrix::from_rows(&rows);
        let start = init::initial_centroids(&m, k, KMeansInit::Forgy, seed);
        // Plain serial Lloyd: no pruning, one thread.
        let plain = KMeans::new(k)
            .prune(false)
            .fit_from(&m, start.clone());
        // Bound-pruned parallel kernel.
        let fast = KMeans::new(k)
            .prune(true)
            .threads(threads)
            .fit_from(&m, start.clone());
        // Assignments, centroids, SSE, and iteration count must be
        // bit-identical (KMeansResult's PartialEq compares exactly).
        // The seed reference loop is NOT part of this property: on
        // symmetric grid data a real-arithmetic distance tie can round
        // differently under the reference's `(x − c)²` form than under
        // the kernel's dot-product form, legitimately changing the
        // trajectory. Kernel-vs-reference faithfulness on continuous
        // data is covered by `lloyd::tests::kernel_matches_reference_trajectory`.
        prop_assert_eq!(&plain, &fast);
        // Every run still lands on a Lloyd fixed point of equal quality
        // class: a converged run's SSE is a local optimum, so recheck
        // the invariant that SSE never exceeds the 1-cluster bound.
        prop_assert!(plain.sse.is_finite());
    }

    #[test]
    fn kmeans_sse_never_worse_than_one_cluster(
        rows in prop::collection::vec(
            prop::collection::vec((-50i32..50).prop_map(|v| f64::from(v) / 5.0), 2),
            3..40,
        ),
        k in 2usize..4,
    ) {
        prop_assume!(k <= rows.len());
        let m = DenseMatrix::from_rows(&rows);
        let multi = KMeans::new(k).seed(1).fit(&m);
        let single = KMeans::new(1).seed(1).fit(&m);
        prop_assert!(multi.sse <= single.sse + 1e-9);
    }

    #[test]
    fn folds_partition_indices(
        labels in prop::collection::vec(0usize..4, 5..60),
        folds in 2usize..5,
        seed in 0u64..50,
    ) {
        prop_assume!(labels.len() >= folds);
        let partition = stratified_folds(&labels, folds, seed);
        prop_assert_eq!(partition.len(), folds);
        let mut all: Vec<usize> = partition.iter().flatten().copied().collect();
        all.sort_unstable();
        let expected: Vec<usize> = (0..labels.len()).collect();
        prop_assert_eq!(all, expected);
        // Stratification: fold class counts differ by at most... the
        // round-robin guarantees within-class fold sizes differ by <= 1.
        let num_classes = labels.iter().copied().max().unwrap_or(0) + 1;
        for class in 0..num_classes {
            let per_fold: Vec<usize> = partition.iter()
                .map(|f| f.iter().filter(|&&i| labels[i] == class).count())
                .collect();
            let (lo, hi) = (per_fold.iter().min().unwrap(), per_fold.iter().max().unwrap());
            prop_assert!(hi - lo <= 2, "class {} spread {:?}", class, per_fold);
        }
    }

    #[test]
    fn tree_is_perfect_on_training_data_without_limits(
        rows in prop::collection::vec(
            prop::collection::vec((-100i32..100).prop_map(f64::from), 2),
            2..40,
        ),
        labels in prop::collection::vec(0usize..3, 2..40),
    ) {
        use ada_mining::tree::{DecisionTree, TreeConfig};
        let n = rows.len().min(labels.len());
        let rows = &rows[..n];
        let labels = &labels[..n];
        // Deduplicate identical feature rows with conflicting labels:
        // keep the first occurrence.
        let mut seen: Vec<&Vec<f64>> = Vec::new();
        let mut keep_rows = Vec::new();
        let mut keep_labels = Vec::new();
        for (r, &l) in rows.iter().zip(labels) {
            if !seen.contains(&r) {
                seen.push(r);
                keep_rows.push(r.clone());
                keep_labels.push(l);
            }
        }
        let m = DenseMatrix::from_rows(&keep_rows);
        let cfg = TreeConfig {
            max_depth: usize::MAX,
            min_samples_leaf: 1,
            min_gain: 0.0,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&m, &keep_labels, 3, &cfg);
        prop_assert_eq!(tree.predict(&m), keep_labels);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sequence_mining_respects_support(
        timelines in prop::collection::vec(
            prop::collection::vec(
                prop::collection::btree_set(0u32..6, 0..3)
                    .prop_map(|s| s.into_iter().collect::<Vec<_>>()),
                0..5,
            ),
            1..20,
        ),
        min_support in 1usize..4,
    ) {
        use ada_mining::sequences::{contains_sequence, mine};
        let found = mine(&timelines, min_support, 3);
        for f in &found {
            // Recount directly.
            let support = timelines
                .iter()
                .filter(|t| contains_sequence(t, &f.sequence))
                .count();
            prop_assert_eq!(support, f.support);
            prop_assert!(f.support >= min_support);
        }
    }

    #[test]
    fn closed_and_maximal_are_consistent(ts in transactions(), min_support in 1usize..5) {
        use ada_mining::patterns::condense::{closed_itemsets, maximal_itemsets};
        use ada_mining::patterns::is_subset;
        let frequent = fpgrowth::mine(&ts, min_support);
        let closed = closed_itemsets(&frequent);
        let maximal = maximal_itemsets(&frequent);
        // Every maximal itemset is closed.
        for m in &maximal {
            prop_assert!(closed.contains(m));
        }
        // Support recovery: every frequent itemset's support equals the
        // max support of its closed supersets.
        for f in &frequent {
            let recovered = closed.iter()
                .filter(|c| is_subset(&f.items, &c.items))
                .map(|c| c.support)
                .max();
            prop_assert_eq!(recovered, Some(f.support));
        }
    }
}

/// The CART fit that re-sorts each node's rows for every feature, kept
/// as the oracle for the presorted fit. `DecisionTree`'s nodes are
/// private, so the oracle grows a mirror with the same type and field
/// names: equal derived `Debug` renderings, which print every float in
/// round-trip form, mean equal trees.
mod resort_oracle {
    use ada_mining::tree::{Criterion, TreeConfig};
    use ada_vsm::DenseMatrix;

    // The fields are read only through the derived `Debug`.
    #[allow(dead_code)]
    #[derive(Debug)]
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

    #[allow(dead_code)]
    #[derive(Debug)]
    pub struct DecisionTree {
        nodes: Vec<Node>,
        num_classes: usize,
        num_features: usize,
    }

    fn impurity(criterion: Criterion, counts: &[usize], total: usize) -> f64 {
        if total == 0 {
            return 0.0;
        }
        let t = total as f64;
        match criterion {
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

    fn class_counts(labels: &[usize], indices: &[usize], num_classes: usize) -> Vec<usize> {
        let mut counts = vec![0usize; num_classes];
        for &i in indices {
            counts[labels[i]] += 1;
        }
        counts
    }

    fn argmax_counts(counts: &[usize]) -> usize {
        counts
            .iter()
            .enumerate()
            .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    pub fn fit(
        matrix: &DenseMatrix,
        labels: &[usize],
        num_classes: usize,
        config: &TreeConfig,
    ) -> DecisionTree {
        let mut tree = DecisionTree {
            nodes: Vec::new(),
            num_classes,
            num_features: matrix.num_cols(),
        };
        let mut indices: Vec<usize> = (0..matrix.num_rows()).collect();
        grow(&mut tree, matrix, labels, &mut indices, 0, config);
        tree
    }

    fn grow(
        tree: &mut DecisionTree,
        matrix: &DenseMatrix,
        labels: &[usize],
        indices: &mut [usize],
        depth: usize,
        config: &TreeConfig,
    ) -> usize {
        let counts = class_counts(labels, indices, tree.num_classes);
        let majority = argmax_counts(&counts);
        let parent = impurity(config.criterion, &counts, indices.len());
        let make_leaf = |tree: &mut DecisionTree| {
            tree.nodes.push(Node::Leaf { class: majority });
            tree.nodes.len() - 1
        };
        if depth >= config.max_depth || indices.len() < 2 * config.min_samples_leaf || parent == 0.0
        {
            return make_leaf(tree);
        }
        let Some((feature, threshold, gain)) =
            best_split(tree, matrix, labels, indices, parent, config)
        else {
            return make_leaf(tree);
        };
        if gain < config.min_gain {
            return make_leaf(tree);
        }
        let (mut kept, rest): (Vec<usize>, Vec<usize>) = indices
            .iter()
            .partition(|&&i| matrix.get(i, feature) <= threshold);
        let mid = kept.len();
        if mid == 0 || mid == indices.len() {
            return make_leaf(tree);
        }
        kept.extend(rest);
        indices.copy_from_slice(&kept);
        let (left_slice, right_slice) = indices.split_at_mut(mid);
        let left = grow(tree, matrix, labels, left_slice, depth + 1, config);
        let right = grow(tree, matrix, labels, right_slice, depth + 1, config);
        tree.nodes.push(Node::Split {
            feature,
            threshold,
            left,
            right,
        });
        tree.nodes.len() - 1
    }

    fn best_split(
        tree: &DecisionTree,
        matrix: &DenseMatrix,
        labels: &[usize],
        indices: &[usize],
        parent: f64,
        config: &TreeConfig,
    ) -> Option<(usize, f64, f64)> {
        let n = indices.len();
        let total = n as f64;
        let mut best: Option<(usize, f64, f64)> = None;
        let mut order: Vec<usize> = Vec::with_capacity(n);
        for feature in 0..tree.num_features {
            order.clear();
            order.extend_from_slice(indices);
            order.sort_unstable_by(|&a, &b| {
                matrix
                    .get(a, feature)
                    .partial_cmp(&matrix.get(b, feature))
                    .expect("finite feature values")
            });
            let mut left_counts = vec![0usize; tree.num_classes];
            let mut right_counts = class_counts(labels, indices, tree.num_classes);
            for pos in 0..n - 1 {
                let i = order[pos];
                left_counts[labels[i]] += 1;
                right_counts[labels[i]] -= 1;
                let v = matrix.get(i, feature);
                let v_next = matrix.get(order[pos + 1], feature);
                if v == v_next {
                    continue;
                }
                let left_n = pos + 1;
                let right_n = n - left_n;
                if left_n < config.min_samples_leaf || right_n < config.min_samples_leaf {
                    continue;
                }
                let gain = parent
                    - (left_n as f64 / total) * impurity(config.criterion, &left_counts, left_n)
                    - (right_n as f64 / total) * impurity(config.criterion, &right_counts, right_n);
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
}

/// A tree-fit case: a matrix of heavily tied values (mostly zeros, a few
/// halves, some spread values, and some constant columns), labels over
/// 1–20 classes, and a random train mask keeping about 4 rows in 5.
fn tree_case() -> impl Strategy<Value = (DenseMatrix, Vec<usize>, Vec<bool>, usize)> {
    (1usize..21, 1usize..6, 1usize..60)
        .prop_flat_map(|(classes, cols, rows)| {
            let value = prop_oneof![
                4 => Just(0.0),
                3 => (-3i32..4).prop_map(|v| f64::from(v) / 2.0),
                1 => (-1000i32..1000).prop_map(|v| f64::from(v) / 7.0),
            ];
            (
                prop::collection::vec(prop::collection::vec(value, cols), rows),
                prop::collection::vec(prop::bool::ANY, cols),
                prop::collection::vec(0..classes, rows),
                prop::collection::vec((0u8..5).prop_map(|v| v > 0), rows),
                Just(classes),
            )
        })
        .prop_map(|(mut rows, constant, labels, mask, classes)| {
            for row in &mut rows {
                for (v, &c) in row.iter_mut().zip(&constant) {
                    if c {
                        *v = 1.5;
                    }
                }
            }
            (DenseMatrix::from_rows(&rows), labels, mask, classes)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn presorted_tree_equals_resort_oracle(
        (m, labels, mask, classes) in tree_case(),
        entropy in prop::bool::ANY,
        min_samples_leaf in 1usize..7,
        max_depth in 0usize..11,
    ) {
        use ada_mining::tree::{Criterion, DecisionTree, Presorted, TreeConfig};
        prop_assume!(mask.iter().any(|&t| t));
        let config = TreeConfig {
            max_depth,
            min_samples_leaf,
            criterion: if entropy { Criterion::Entropy } else { Criterion::Gini },
            ..TreeConfig::default()
        };
        let train: Vec<usize> = (0..labels.len()).filter(|&i| mask[i]).collect();
        let train_labels: Vec<usize> = train.iter().map(|&i| labels[i]).collect();
        let oracle = resort_oracle::fit(&m.select_rows(&train), &train_labels, classes, &config);
        let tree = DecisionTree::fit_rows(&Presorted::new(&m), &labels, &mask, classes, &config);
        prop_assert_eq!(format!("{tree:?}"), format!("{oracle:?}"));
    }

    #[test]
    fn tree_cv_equals_generic_cv_on_copied_folds(
        (m, labels, _mask, classes) in tree_case(),
        num_folds in 1usize..6,
        seed in 0u64..1_000,
        min_samples_leaf in 1usize..4,
    ) {
        use ada_mining::tree::{DecisionTree, Presorted, TreeConfig};
        use ada_mining::validate::{cross_validate, cross_validate_tree};
        prop_assume!(labels.len() >= num_folds);
        let config = TreeConfig { min_samples_leaf, ..TreeConfig::default() };
        let presorted = Presorted::new(&m);
        let fast = cross_validate_tree(&presorted, &m, &labels, classes, num_folds, &config, seed);
        let copied = cross_validate(&m, &labels, classes, num_folds, seed, |tx, ty, sx| {
            DecisionTree::fit(tx, ty, classes, &config).predict(sx)
        });
        prop_assert_eq!(fast, copied);
    }
}
