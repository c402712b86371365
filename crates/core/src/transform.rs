//! Automatic data-transformation selection.
//!
//! "The main research issue here is to define a totally automatic
//! strategy to select the optimal data transformation, which yields
//! higher quality knowledge." The selector scores every candidate VSM
//! weighting by the quality of the knowledge it produces: a fixed,
//! seeded K-means probe run on each candidate matrix, scored by the
//! overall-similarity index (the paper's interestingness metric) plus a
//! silhouette tie-breaker, both computed on the *probe's own* matrix and
//! therefore comparable because every candidate is row-normalized for
//! scoring.

use ada_dataset::ExamLog;
use ada_metrics::cluster;
use ada_mining::kmeans::KMeans;
use ada_vsm::{Pca, VsmBuilder, Weighting};

/// The score card of one candidate transformation.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformScore {
    /// The candidate weighting.
    pub weighting: Weighting,
    /// `Some(k)` when the representation was further reduced to `k`
    /// principal components before probing.
    pub pca: Option<usize>,
    /// Overall similarity of the probe clustering (primary criterion).
    pub overall_similarity: f64,
    /// Silhouette of the probe clustering (tie-breaker).
    pub silhouette: f64,
}

impl TransformScore {
    /// The combined selection score.
    pub fn score(&self) -> f64 {
        self.overall_similarity + 0.1 * self.silhouette
    }
}

/// The transformation-selection report: all candidates, ranked.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformReport {
    /// Candidates, best first.
    pub ranked: Vec<TransformScore>,
}

impl TransformReport {
    /// The selected (best) weighting.
    pub fn best(&self) -> Weighting {
        self.ranked
            .first()
            .map(|s| s.weighting)
            .unwrap_or(Weighting::Count)
    }
}

/// Configuration of the transformation selector.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformSelector {
    /// Candidate weightings to score.
    pub candidates: Vec<Weighting>,
    /// Number of clusters of the probe K-means.
    pub probe_k: usize,
    /// Maximum number of patients in the probe sample (head sample —
    /// deterministic; patient order carries no information in the VSM).
    pub sample_limit: usize,
    /// PCA component counts to additionally probe per weighting (the
    /// "different representation spaces" of the architecture); empty by
    /// default.
    pub pca_variants: Vec<usize>,
    /// Seed for the probe clustering.
    pub seed: u64,
}

impl Default for TransformSelector {
    fn default() -> Self {
        Self {
            candidates: Weighting::ALL.to_vec(),
            probe_k: 5,
            sample_limit: 1_000,
            pca_variants: Vec::new(),
            seed: 0,
        }
    }
}

impl TransformSelector {
    /// Scores every candidate (each weighting, plus each weighting ×
    /// PCA variant when configured) and returns them ranked (best first,
    /// ties broken by candidate order for determinism).
    pub fn select(&self, log: &ExamLog) -> TransformReport {
        let mut ranked: Vec<TransformScore> = Vec::new();
        for &weighting in &self.candidates {
            ranked.push(self.score_candidate(log, weighting, None));
            for &components in &self.pca_variants {
                ranked.push(self.score_candidate(log, weighting, Some(components)));
            }
        }
        ranked.sort_by(|a, b| b.score().partial_cmp(&a.score()).expect("finite scores"));
        TransformReport { ranked }
    }

    fn score_candidate(
        &self,
        log: &ExamLog,
        weighting: Weighting,
        pca: Option<usize>,
    ) -> TransformScore {
        let pv = VsmBuilder::new()
            .weighting(weighting)
            .normalize(true) // score in a comparable, scale-free space
            .build(log);
        let n = pv.matrix.num_rows();
        let mut matrix = if n > self.sample_limit {
            let idx: Vec<usize> = (0..self.sample_limit).collect();
            pv.matrix.select_rows(&idx)
        } else {
            pv.matrix
        };
        if let Some(components) = pca {
            if matrix.num_rows() >= 2 && components >= 1 {
                let model = Pca::fit(&matrix, components);
                matrix = model.transform(&matrix);
            }
        }
        let k = self.probe_k.min(matrix.num_rows().max(1));
        if matrix.num_rows() < 2 || k < 2 || matrix.num_cols() == 0 {
            return TransformScore {
                weighting,
                pca,
                overall_similarity: 0.0,
                silhouette: 0.0,
            };
        }
        let result = KMeans::new(k).seed(self.seed).fit(&matrix);
        let overall = cluster::overall_similarity(&matrix, &result.assignments, k);
        // Silhouette is O(n²): cap the evaluation sample further.
        let sil_cap = 400.min(matrix.num_rows());
        let sil_matrix = matrix.select_rows(&(0..sil_cap).collect::<Vec<_>>());
        let sil_assign = &result.assignments[..sil_cap];
        let silhouette = cluster::silhouette(&sil_matrix, sil_assign, k);
        TransformScore {
            weighting,
            pca,
            overall_similarity: overall,
            silhouette,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ada_dataset::synthetic::{generate, SyntheticConfig};

    #[test]
    fn ranks_all_candidates() {
        let log = generate(&SyntheticConfig::small(), 3);
        let report = TransformSelector::default().select(&log);
        assert_eq!(report.ranked.len(), Weighting::ALL.len());
        assert!(report.ranked.iter().all(|s| s.pca.is_none()));
        for w in report.ranked.windows(2) {
            assert!(w[0].score() >= w[1].score());
        }
        // The winner is exposed.
        assert_eq!(report.best(), report.ranked[0].weighting);
    }

    #[test]
    fn scores_are_valid_similarities() {
        let log = generate(&SyntheticConfig::small(), 4);
        let report = TransformSelector::default().select(&log);
        for s in &report.ranked {
            assert!((0.0..=1.0 + 1e-9).contains(&s.overall_similarity), "{s:?}");
            assert!((-1.0..=1.0).contains(&s.silhouette), "{s:?}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let log = generate(&SyntheticConfig::small(), 5);
        let a = TransformSelector::default().select(&log);
        let b = TransformSelector::default().select(&log);
        assert_eq!(a, b);
    }

    #[test]
    fn degenerate_log_defaults_to_count() {
        let log = ada_dataset::ExamLog::new(vec![], vec![]).unwrap();
        let report = TransformSelector {
            candidates: vec![Weighting::Count, Weighting::Binary],
            ..Default::default()
        }
        .select(&log);
        assert_eq!(report.best(), Weighting::Count);
        assert!(report.ranked.iter().all(|s| s.score() == 0.0));
    }

    #[test]
    fn pca_variants_are_scored_alongside_raw() {
        let log = generate(&SyntheticConfig::small(), 8);
        let selector = TransformSelector {
            candidates: vec![Weighting::Count],
            pca_variants: vec![8],
            ..Default::default()
        };
        let report = selector.select(&log);
        assert_eq!(report.ranked.len(), 2);
        assert!(report.ranked.iter().any(|s| s.pca == Some(8)));
        assert!(report.ranked.iter().any(|s| s.pca.is_none()));
        for s in &report.ranked {
            assert!((0.0..=1.0 + 1e-9).contains(&s.overall_similarity), "{s:?}");
        }
        // Determinism with PCA variants.
        assert_eq!(report, selector.select(&log));
    }

    #[test]
    fn respects_candidate_subset() {
        let log = generate(&SyntheticConfig::small(), 6);
        let report = TransformSelector {
            candidates: vec![Weighting::Binary],
            ..Default::default()
        }
        .select(&log);
        assert_eq!(report.ranked.len(), 1);
        assert_eq!(report.best(), Weighting::Binary);
    }
}
