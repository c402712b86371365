//! Stratified k-fold cross-validation.
//!
//! Table I's classification metrics come from "10-fold cross validation
//! … used to evaluate the classification model". Folds are stratified by
//! class so every fold sees (approximately) the full label distribution
//! — essential here because K-means cluster sizes are heavily skewed.

use ada_metrics::ConfusionMatrix;
use ada_vsm::dense::DenseMatrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::tree::{DecisionTree, Presorted, TreeConfig};

/// Builds `num_folds` stratified folds over `labels`; returns, for each
/// fold, the indices of its *test* partition. Every index appears in
/// exactly one fold.
///
/// # Panics
/// Panics when `num_folds == 0` or there are fewer samples than folds.
pub fn stratified_folds(labels: &[usize], num_folds: usize, seed: u64) -> Vec<Vec<usize>> {
    assert!(num_folds >= 1, "need at least one fold");
    assert!(
        labels.len() >= num_folds,
        "fewer samples ({}) than folds ({num_folds})",
        labels.len()
    );
    let num_classes = labels.iter().copied().max().map_or(0, |m| m + 1);
    let mut per_class: Vec<Vec<usize>> = vec![Vec::new(); num_classes];
    for (i, &l) in labels.iter().enumerate() {
        per_class[l].push(i);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut folds: Vec<Vec<usize>> = vec![Vec::new(); num_folds];
    let mut next = 0usize;
    for class_indices in &mut per_class {
        class_indices.shuffle(&mut rng);
        // Round-robin across folds, continuing the cursor between classes
        // so small classes don't all land in fold 0.
        for &i in class_indices.iter() {
            folds[next % num_folds].push(i);
            next += 1;
        }
    }
    for fold in &mut folds {
        fold.sort_unstable();
    }
    folds
}

/// Calls `body(fold, train_mask)` for every fold with rows to test and
/// rows to train on; `train_mask[i]` is false exactly for the fold's
/// rows.
fn for_each_fold(
    labels: &[usize],
    num_folds: usize,
    seed: u64,
    mut body: impl FnMut(&[usize], &[bool]),
) {
    let mut train_mask = vec![true; labels.len()];
    for fold in stratified_folds(labels, num_folds, seed) {
        // An empty fold tests nothing; single-fold CV trains on nothing.
        if fold.is_empty() || fold.len() == labels.len() {
            continue;
        }
        for &i in &fold {
            train_mask[i] = false;
        }
        body(&fold, &train_mask);
        for &i in &fold {
            train_mask[i] = true;
        }
    }
}

/// Runs k-fold cross-validation of an arbitrary classifier and pools the
/// per-fold confusion matrices.
///
/// `train_and_predict(train_x, train_y, test_x)` must return one
/// predicted label per test row.
///
/// # Panics
/// Panics when the classifier returns the wrong number of predictions,
/// or on degenerate fold configurations (see [`stratified_folds`]).
pub fn cross_validate<F>(
    matrix: &DenseMatrix,
    labels: &[usize],
    num_classes: usize,
    num_folds: usize,
    seed: u64,
    mut train_and_predict: F,
) -> ConfusionMatrix
where
    F: FnMut(&DenseMatrix, &[usize], &DenseMatrix) -> Vec<usize>,
{
    assert_eq!(matrix.num_rows(), labels.len(), "label count mismatch");
    let mut pooled = ConfusionMatrix::new(num_classes);
    for_each_fold(labels, num_folds, seed, |fold, train_mask| {
        let train_idx: Vec<usize> = (0..labels.len()).filter(|&i| train_mask[i]).collect();
        let train_x = matrix.select_rows(&train_idx);
        let train_y: Vec<usize> = train_idx.iter().map(|&i| labels[i]).collect();
        let test_x = matrix.select_rows(fold);
        let predictions = train_and_predict(&train_x, &train_y, &test_x);
        assert_eq!(
            predictions.len(),
            fold.len(),
            "classifier returned wrong number of predictions"
        );
        for (&i, &p) in fold.iter().zip(&predictions) {
            pooled.record(labels[i], p);
        }
    });
    pooled
}

/// k-fold cross-validation of a CART decision tree (the paper's Table I
/// protocol) on `presorted`, a presort of `matrix` that many runs can
/// share. Each fold trains through a mask with
/// [`DecisionTree::fit_rows`] and predicts its test rows in place, so no
/// fold copies rows. The result equals [`cross_validate`] with
/// [`DecisionTree::fit`].
///
/// # Panics
/// Panics when `presorted` does not have `matrix`'s shape, or on
/// degenerate fold configurations (see [`stratified_folds`]).
pub fn cross_validate_tree(
    presorted: &Presorted,
    matrix: &DenseMatrix,
    labels: &[usize],
    num_classes: usize,
    num_folds: usize,
    config: &TreeConfig,
    seed: u64,
) -> ConfusionMatrix {
    assert_eq!(matrix.num_rows(), labels.len(), "label count mismatch");
    assert!(
        presorted.num_rows() == matrix.num_rows() && presorted.num_features() == matrix.num_cols(),
        "presort does not match the matrix"
    );
    let mut pooled = ConfusionMatrix::new(num_classes);
    for_each_fold(labels, num_folds, seed, |fold, train_mask| {
        let tree = DecisionTree::fit_rows(presorted, labels, train_mask, num_classes, config);
        for &i in fold {
            pooled.record(labels[i], tree.predict_row(matrix.row(i)));
        }
    });
    pooled
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_partition_all_indices() {
        let labels = vec![0, 1, 0, 1, 0, 1, 2, 2, 2, 0];
        let folds = stratified_folds(&labels, 3, 1);
        let mut all: Vec<usize> = folds.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn folds_are_stratified() {
        // 40 of class 0, 40 of class 1 into 4 folds: each fold must get
        // 10 of each.
        let labels: Vec<usize> = (0..80).map(|i| i % 2).collect();
        let folds = stratified_folds(&labels, 4, 2);
        for fold in &folds {
            let ones = fold.iter().filter(|&&i| labels[i] == 1).count();
            assert_eq!(fold.len(), 20);
            assert_eq!(ones, 10);
        }
    }

    #[test]
    fn folds_deterministic_per_seed() {
        let labels: Vec<usize> = (0..30).map(|i| i % 3).collect();
        assert_eq!(
            stratified_folds(&labels, 5, 7),
            stratified_folds(&labels, 5, 7)
        );
        assert_ne!(
            stratified_folds(&labels, 5, 7),
            stratified_folds(&labels, 5, 8)
        );
    }

    #[test]
    fn cv_perfect_on_separable_data() {
        let rows: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![if i % 2 == 0 { 0.0 } else { 10.0 } + (i as f64) * 0.001])
            .collect();
        let labels: Vec<usize> = (0..60).map(|i| i % 2).collect();
        let m = DenseMatrix::from_rows(&rows);
        let cm = cross_validate_tree(
            &Presorted::new(&m),
            &m,
            &labels,
            2,
            10,
            &TreeConfig::default(),
            3,
        );
        assert_eq!(cm.total(), 60);
        assert!((cm.accuracy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cv_near_chance_on_random_labels() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(4);
        let rows: Vec<Vec<f64>> = (0..200).map(|_| vec![rng.gen::<f64>()]).collect();
        let labels: Vec<usize> = (0..200).map(|_| rng.gen_range(0..2)).collect();
        let m = DenseMatrix::from_rows(&rows);
        let cm = cross_validate_tree(
            &Presorted::new(&m),
            &m,
            &labels,
            2,
            10,
            &TreeConfig::default(),
            5,
        );
        assert!(cm.accuracy() < 0.7, "accuracy {}", cm.accuracy());
    }

    #[test]
    #[should_panic(expected = "fewer samples")]
    fn rejects_more_folds_than_samples() {
        let _ = stratified_folds(&[0, 1], 5, 0);
    }
}
