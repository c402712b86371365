//! Reporting odds ratio with a 95% confidence interval.
//!
//! The standard disproportionality measure over a 2×2 table:
//! `ROR = (a·d)/(b·c)`, with the log-normal approximation for the
//! interval — `exp(ln ROR ± 1.96·SE)` where
//! `SE = √(1/a + 1/b + 1/c + 1/d)`. When any cell is zero the
//! Haldane–Anscombe correction adds 0.5 to *all four* cells first, so
//! the estimate and both bounds are always finite and positive (an
//! all-zero table degenerates to the null value ROR = 1 with a very
//! wide interval).

use crate::table::ContingencyTable;

/// The 1.96 z-score of the two-sided 95% interval.
const Z_95: f64 = 1.96;

/// A reporting-odds-ratio estimate with its 95% CI.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RorEstimate {
    /// The point estimate (after correction, when applied).
    pub ror: f64,
    /// Lower bound of the 95% CI.
    pub ci_low: f64,
    /// Upper bound of the 95% CI.
    pub ci_high: f64,
    /// Whether the Haldane–Anscombe zero-cell correction was applied.
    pub corrected: bool,
}

/// Estimates the ROR and its 95% CI for one table.
///
/// Always returns finite positive values with
/// `ci_low <= ror <= ci_high` (the proptests pin both properties).
pub fn estimate(table: &ContingencyTable) -> RorEstimate {
    let corrected = table.has_zero_cell();
    let shift = if corrected { 0.5 } else { 0.0 };
    let a = table.a as f64 + shift;
    let b = table.b as f64 + shift;
    let c = table.c as f64 + shift;
    let d = table.d as f64 + shift;
    let ror = (a * d) / (b * c);
    let se = (1.0 / a + 1.0 / b + 1.0 / c + 1.0 / d).sqrt();
    let ln_ror = ror.ln();
    RorEstimate {
        ror,
        ci_low: (ln_ror - Z_95 * se).exp(),
        ci_high: (ln_ror + Z_95 * se).exp(),
        corrected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden values, hand-computed: a=40, b=60, c=120, d=480.
    /// ROR = (40·480)/(60·120) = 8/3; SE = √(1/40+1/60+1/120+1/480)
    /// = √(0.0520833…) = 0.2282243…; CI = exp(ln(8/3) ∓ 1.96·SE)
    /// = (1.70493, 4.17101).
    #[test]
    fn golden_uncorrected_table() {
        let est = estimate(&ContingencyTable::new(40, 60, 120, 480));
        assert!(!est.corrected);
        assert!((est.ror - 8.0 / 3.0).abs() < 1e-12, "ror = {}", est.ror);
        assert!((est.ci_low - 1.704_93).abs() < 1e-4, "lo = {}", est.ci_low);
        assert!(
            (est.ci_high - 4.171_01).abs() < 1e-4,
            "hi = {}",
            est.ci_high
        );
    }

    /// Golden values for a single-zero-cell table: a=5, b=0, c=10,
    /// d=85 corrects to (5.5, 0.5, 10.5, 85.5):
    /// ROR = (5.5·85.5)/(0.5·10.5) = 89.571428…;
    /// SE = √(1/5.5 + 1/0.5 + 1/10.5 + 1/85.5) = √2.288997… .
    #[test]
    fn golden_single_cell_zero_applies_correction() {
        let est = estimate(&ContingencyTable::new(5, 0, 10, 85));
        assert!(est.corrected);
        let expected_ror = (5.5 * 85.5) / (0.5 * 10.5);
        assert!((est.ror - expected_ror).abs() < 1e-9);
        let se = (1.0 / 5.5 + 1.0 / 0.5 + 1.0 / 10.5 + 1.0 / 85.5f64).sqrt();
        assert!((est.ci_low - (expected_ror.ln() - 1.96 * se).exp()).abs() < 1e-9);
        assert!((est.ci_high - (expected_ror.ln() + 1.96 * se).exp()).abs() < 1e-9);
        assert!(est.ci_low > 0.0 && est.ci_high.is_finite());
    }

    /// The all-zero table degenerates to the null value with a wide but
    /// finite interval — never NaN/Inf.
    #[test]
    fn golden_all_zero_table_is_the_null() {
        let est = estimate(&ContingencyTable::new(0, 0, 0, 0));
        assert!(est.corrected);
        assert_eq!(est.ror, 1.0);
        let se = 8.0f64.sqrt(); // √(4 · 1/0.5)
        assert!((est.ci_low - (-Z_95 * se).exp()).abs() < 1e-12);
        assert!((est.ci_high - (Z_95 * se).exp()).abs() < 1e-12);
        assert!(est.ci_low.is_finite() && est.ci_high.is_finite());
    }

    #[test]
    fn ci_always_brackets_the_point_estimate() {
        for table in [
            ContingencyTable::new(1, 1, 1, 1),
            ContingencyTable::new(0, 7, 3, 900),
            ContingencyTable::new(250, 0, 0, 250),
            ContingencyTable::new(9_999, 1, 1, 9_999),
        ] {
            let est = estimate(&table);
            assert!(est.ci_low <= est.ror && est.ror <= est.ci_high, "{table:?}");
            assert!(est.ror.is_finite() && est.ror > 0.0, "{table:?}");
        }
    }
}
