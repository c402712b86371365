//! EBGM-style Bayesian shrinkage for sparse cells.
//!
//! Raw disproportionality explodes on sparse tables: one exposed
//! patient with the outcome in a tiny stratum yields a huge ROR with no
//! evidential weight. The pharmacovigilance remedy (DuMouchel's
//! Gamma–Poisson shrinker, the core of EBGM) models the observed count
//! `a` as Poisson with mean `λ·E`, where `E` is the count expected
//! under independence, and puts a Gamma(α, β) prior on the relative
//! reporting ratio `λ`. The posterior mean
//!
//! ```text
//! shrunk = (a + α) / (E + β)
//! ```
//!
//! pulls small-`E` tables toward the prior mean `α/β` while leaving
//! well-supported tables near their raw ratio `a/E`.
//!
//! The prior is fit empirically from the session's own table
//! collection by iteratively reweighted moment matching: moments of
//! the raw ratios are taken under precision weights `E/(E+β)` (tables
//! with more expected mass are more reliable), β is re-derived from
//! the weighted mean/variance, and the loop runs to a fixed point.
//! Everything is branch-deterministic: same tables, same prior, same
//! iteration count — the `signals_shrinkage_iterations` counter is
//! exact across serial, concurrent, and remote runs.

use crate::table::ContingencyTable;

/// Fixed-point iteration cap (reached only on pathological inputs).
const MAX_ITERATIONS: u64 = 32;
/// Convergence tolerance on both prior parameters.
const TOL: f64 = 1e-9;
/// Clamp for both prior parameters, keeping the posterior well-defined
/// on degenerate collections.
const PRIOR_RANGE: (f64, f64) = (1e-3, 1e3);

/// A fitted Gamma(α, β) prior over the relative reporting ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShrinkageFit {
    /// Gamma shape.
    pub alpha: f64,
    /// Gamma rate.
    pub beta: f64,
    /// Fixed-point iterations performed (0 when the default prior was
    /// used because the collection carried no information).
    pub iterations: u64,
}

impl ShrinkageFit {
    /// The neutral fallback prior: mean 1 (no disproportionality),
    /// moderate strength. Used when fewer than two tables have positive
    /// expected counts.
    pub fn default_prior() -> Self {
        Self {
            alpha: 2.0,
            beta: 2.0,
            iterations: 0,
        }
    }

    /// The prior mean `α/β` every sparse table is pulled toward.
    pub fn prior_mean(&self) -> f64 {
        self.alpha / self.beta
    }

    /// The posterior-mean shrunken reporting ratio of one table.
    /// Always finite and non-negative; a table with `E = 0` returns
    /// exactly the prior mean (the data carry no information).
    pub fn shrunk(&self, table: &ContingencyTable) -> f64 {
        (table.a as f64 + self.alpha) / (table.expected() + self.beta)
    }
}

/// Fits the Gamma prior to a table collection by iteratively
/// reweighted moment matching (see the module docs).
pub fn fit_prior(tables: &[ContingencyTable]) -> ShrinkageFit {
    let clamp = |x: f64| x.clamp(PRIOR_RANGE.0, PRIOR_RANGE.1);
    // Raw relative reporting ratios of the informative tables.
    let ratios: Vec<(f64, f64)> = tables
        .iter()
        .filter_map(|t| {
            let e = t.expected();
            (e > 0.0).then(|| (t.a as f64 / e, e))
        })
        .collect();
    if ratios.len() < 2 {
        return ShrinkageFit::default_prior();
    }
    let (mut alpha, mut beta) = (1.0f64, 1.0f64);
    let mut iterations = 0;
    while iterations < MAX_ITERATIONS {
        let weights: Vec<f64> = ratios.iter().map(|&(_, e)| e / (e + beta)).collect();
        let wsum: f64 = weights.iter().sum();
        let mean = ratios
            .iter()
            .zip(&weights)
            .map(|(&(r, _), w)| w * r)
            .sum::<f64>()
            / wsum;
        let var = ratios
            .iter()
            .zip(&weights)
            .map(|(&(r, _), w)| w * (r - mean) * (r - mean))
            .sum::<f64>()
            / wsum;
        // Gamma method of moments: mean = α/β, var = α/β².
        let next_beta = clamp(mean / var.max(1e-9));
        let next_alpha = clamp(mean.max(1e-9) * next_beta);
        iterations += 1;
        let converged = (next_alpha - alpha).abs() < TOL && (next_beta - beta).abs() < TOL;
        alpha = next_alpha;
        beta = next_beta;
        if converged {
            break;
        }
    }
    ShrinkageFit {
        alpha,
        beta,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spread() -> Vec<ContingencyTable> {
        vec![
            ContingencyTable::new(40, 60, 120, 480),
            ContingencyTable::new(10, 90, 100, 500),
            ContingencyTable::new(3, 97, 50, 550),
            ContingencyTable::new(80, 20, 200, 400),
            ContingencyTable::new(1, 199, 20, 480),
        ]
    }

    #[test]
    fn fit_is_deterministic_and_converges() {
        let fit1 = fit_prior(&spread());
        let fit2 = fit_prior(&spread());
        assert_eq!(fit1, fit2, "bitwise-identical refit");
        assert!(fit1.iterations >= 1 && fit1.iterations <= MAX_ITERATIONS);
        assert!(fit1.alpha.is_finite() && fit1.beta.is_finite());
    }

    #[test]
    fn sparse_tables_shrink_toward_the_prior_mean() {
        let fit = fit_prior(&spread());
        // A singleton count with tiny expected mass: raw ratio is 1/E,
        // potentially huge; the shrunken estimate must sit between the
        // raw ratio's direction and the prior mean, close to the prior.
        let sparse = ContingencyTable::new(1, 0, 0, 699);
        let raw = sparse.a as f64 / sparse.expected().max(1e-12);
        let shrunk = fit.shrunk(&sparse);
        assert!(shrunk < raw, "shrinkage must pull the sparse ratio down");
        assert!(
            (shrunk - fit.prior_mean()).abs() < (raw - fit.prior_mean()).abs(),
            "shrunken estimate must be nearer the prior mean"
        );
        // A well-supported table barely moves.
        let solid = ContingencyTable::new(400, 600, 1_200, 4_800);
        let raw_solid = solid.a as f64 / solid.expected();
        assert!((fit.shrunk(&solid) - raw_solid).abs() / raw_solid < 0.25);
    }

    #[test]
    fn uninformative_collections_fall_back_to_the_default_prior() {
        assert_eq!(fit_prior(&[]), ShrinkageFit::default_prior());
        let empty = vec![ContingencyTable::new(0, 0, 0, 0); 5];
        assert_eq!(fit_prior(&empty), ShrinkageFit::default_prior());
        // E = 0 tables produce exactly the prior mean.
        let fit = ShrinkageFit::default_prior();
        assert_eq!(fit.shrunk(&ContingencyTable::new(0, 0, 0, 0)), 1.0);
    }
}
