//! Classification metrics: confusion matrix, accuracy, macro-averaged
//! precision and recall.
//!
//! Table I of the paper reports, per K, the 10-fold cross-validated
//! *accuracy*, *average precision* and *average recall* of a decision
//! tree trained to re-predict K-means cluster labels — the paper's proxy
//! for clustering robustness. "Average" is the unweighted (macro) mean
//! over classes, the convention of the referenced toolchain.

/// A k × k confusion matrix; `counts[t][p]` is the number of instances of
/// true class `t` predicted as class `p`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    k: usize,
    counts: Vec<Vec<usize>>,
}

impl ConfusionMatrix {
    /// An empty k-class matrix.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            counts: vec![vec![0; k]; k],
        }
    }

    /// Builds from parallel slices of true and predicted labels.
    ///
    /// # Panics
    /// Panics on length mismatch or labels ≥ k.
    pub fn from_pairs(k: usize, truth: &[usize], predicted: &[usize]) -> Self {
        assert_eq!(truth.len(), predicted.len(), "label length mismatch");
        let mut m = Self::new(k);
        for (&t, &p) in truth.iter().zip(predicted) {
            m.record(t, p);
        }
        m
    }

    /// Records one (true, predicted) observation.
    ///
    /// # Panics
    /// Panics when either label is ≥ k.
    pub fn record(&mut self, truth: usize, predicted: usize) {
        assert!(truth < self.k && predicted < self.k, "label out of range");
        self.counts[truth][predicted] += 1;
    }

    /// Merges another confusion matrix into this one (used to pool
    /// cross-validation folds).
    ///
    /// # Panics
    /// Panics when the class counts differ.
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        assert_eq!(self.k, other.k, "class count mismatch");
        for t in 0..self.k {
            for p in 0..self.k {
                self.counts[t][p] += other.counts[t][p];
            }
        }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.k
    }

    /// Total number of recorded observations.
    pub fn total(&self) -> usize {
        self.counts
            .iter()
            .map(|row| row.iter().sum::<usize>())
            .sum()
    }

    /// The raw cell `counts[truth][predicted]`.
    pub fn count(&self, truth: usize, predicted: usize) -> usize {
        self.counts[truth][predicted]
    }

    /// Overall accuracy ∈ [0, 1]; 0.0 for an empty matrix.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let correct: usize = (0..self.k).map(|c| self.counts[c][c]).sum();
        correct as f64 / total as f64
    }

    /// Precision of one class: TP / (TP + FP). Returns 0.0 when the class
    /// was never predicted.
    pub fn precision(&self, class: usize) -> f64 {
        let tp = self.counts[class][class];
        let predicted: usize = (0..self.k).map(|t| self.counts[t][class]).sum();
        if predicted == 0 {
            0.0
        } else {
            tp as f64 / predicted as f64
        }
    }

    /// Recall of one class: TP / (TP + FN). Returns 0.0 when the class has
    /// no true instances.
    pub fn recall(&self, class: usize) -> f64 {
        let tp = self.counts[class][class];
        let actual: usize = self.counts[class].iter().sum();
        if actual == 0 {
            0.0
        } else {
            tp as f64 / actual as f64
        }
    }

    /// F1 score of one class (harmonic mean of precision and recall).
    pub fn f1(&self, class: usize) -> f64 {
        let p = self.precision(class);
        let r = self.recall(class);
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Macro-averaged precision over classes that occur (as truth or
    /// prediction); this is Table I's "AVG Precision".
    pub fn macro_precision(&self) -> f64 {
        self.macro_over(|c| self.precision(c))
    }

    /// Macro-averaged recall; Table I's "AVG Recall".
    pub fn macro_recall(&self) -> f64 {
        self.macro_over(|c| self.recall(c))
    }

    /// Macro-averaged F1.
    pub fn macro_f1(&self) -> f64 {
        self.macro_over(|c| self.f1(c))
    }

    fn macro_over(&self, f: impl Fn(usize) -> f64) -> f64 {
        let live: Vec<usize> = (0..self.k)
            .filter(|&c| {
                let as_truth: usize = self.counts[c].iter().sum();
                let as_pred: usize = (0..self.k).map(|t| self.counts[t][c]).sum();
                as_truth + as_pred > 0
            })
            .collect();
        if live.is_empty() {
            return 0.0;
        }
        live.iter().map(|&c| f(c)).sum::<f64>() / live.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction() {
        let m = ConfusionMatrix::from_pairs(3, &[0, 1, 2, 1], &[0, 1, 2, 1]);
        assert_eq!(m.accuracy(), 1.0);
        assert_eq!(m.macro_precision(), 1.0);
        assert_eq!(m.macro_recall(), 1.0);
        assert_eq!(m.macro_f1(), 1.0);
        assert_eq!(m.total(), 4);
    }

    #[test]
    fn known_two_class_case() {
        // truth:     0 0 0 0 1 1
        // predicted: 0 0 1 1 1 0
        let m = ConfusionMatrix::from_pairs(2, &[0, 0, 0, 0, 1, 1], &[0, 0, 1, 1, 1, 0]);
        assert!((m.accuracy() - 0.5).abs() < 1e-12);
        // class 0: TP=2, FP=1 -> P=2/3; FN=2 -> R=1/2.
        assert!((m.precision(0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.recall(0) - 0.5).abs() < 1e-12);
        // class 1: TP=1, FP=2 -> P=1/3; FN=1 -> R=1/2.
        assert!((m.precision(1) - 1.0 / 3.0).abs() < 1e-12);
        assert!((m.recall(1) - 0.5).abs() < 1e-12);
        assert!((m.macro_precision() - 0.5).abs() < 1e-12);
        assert!((m.macro_recall() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn absent_class_excluded_from_macro() {
        // Class 2 never occurs in truth or prediction.
        let m = ConfusionMatrix::from_pairs(3, &[0, 1], &[0, 1]);
        assert_eq!(m.macro_precision(), 1.0);
        // Class present in prediction only still counts (with P = 0 or not).
        let m2 = ConfusionMatrix::from_pairs(3, &[0, 0], &[0, 2]);
        // Live classes: 0 and 2. P(0)=1, P(2)=0 -> macro 0.5.
        assert!((m2.macro_precision() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_is_zero() {
        let m = ConfusionMatrix::new(4);
        assert_eq!(m.accuracy(), 0.0);
        assert_eq!(m.macro_precision(), 0.0);
        assert_eq!(m.total(), 0);
    }

    #[test]
    fn merge_pools_folds() {
        let a = ConfusionMatrix::from_pairs(2, &[0, 1], &[0, 0]);
        let mut b = ConfusionMatrix::from_pairs(2, &[1, 1], &[1, 1]);
        b.merge(&a);
        assert_eq!(b.total(), 4);
        assert_eq!(b.count(1, 0), 1);
        assert_eq!(b.count(1, 1), 2);
        assert!((b.accuracy() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn f1_harmonic_mean() {
        let m = ConfusionMatrix::from_pairs(2, &[0, 0, 1, 1], &[0, 1, 1, 1]);
        // class 1: P = 2/3, R = 1 -> F1 = 0.8
        assert!((m.f1(1) - 0.8).abs() < 1e-12);
        // degenerate: never predicted and never true -> 0
        let z = ConfusionMatrix::new(2);
        assert_eq!(z.f1(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn record_checks_labels() {
        let mut m = ConfusionMatrix::new(2);
        m.record(0, 2);
    }
}
