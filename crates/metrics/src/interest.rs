//! Interestingness measures for pattern-based knowledge items.
//!
//! The paper's optimizer needs "a set of interestingness metrics … to
//! assess the quality of knowledge discovered by different algorithm
//! runs", and its knowledge-ranking component orders extracted items for
//! the user. For association rules `A → B` over a transaction collection
//! these are the classic objective measures (support, confidence, lift,
//! leverage, conviction, Jaccard, cosine), computed from the three
//! absolute counts and the collection size.

/// The contingency counts of a rule `A → B` in `n` transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleCounts {
    /// Total number of transactions (n > 0 for meaningful measures).
    pub n: usize,
    /// Transactions containing the antecedent A.
    pub count_a: usize,
    /// Transactions containing the consequent B.
    pub count_b: usize,
    /// Transactions containing both A and B.
    pub count_ab: usize,
}

impl RuleCounts {
    /// Creates counts, validating consistency.
    ///
    /// # Panics
    /// Panics when counts exceed `n` or the intersection exceeds either
    /// side — always a caller bug.
    pub fn new(n: usize, count_a: usize, count_b: usize, count_ab: usize) -> Self {
        assert!(count_a <= n && count_b <= n, "marginals exceed n");
        assert!(
            count_ab <= count_a && count_ab <= count_b,
            "intersection exceeds a marginal"
        );
        Self {
            n,
            count_a,
            count_b,
            count_ab,
        }
    }

    /// Relative support of the whole rule: P(A ∧ B).
    pub fn support(&self) -> f64 {
        ratio(self.count_ab, self.n)
    }

    /// Relative support of the antecedent: P(A).
    pub fn support_a(&self) -> f64 {
        ratio(self.count_a, self.n)
    }

    /// Relative support of the consequent: P(B).
    pub fn support_b(&self) -> f64 {
        ratio(self.count_b, self.n)
    }

    /// Confidence: P(B | A). Returns 0.0 when A never occurs.
    pub fn confidence(&self) -> f64 {
        ratio(self.count_ab, self.count_a)
    }

    /// Lift: P(A ∧ B) / (P(A)·P(B)). 1.0 means independence; values > 1
    /// indicate positive correlation. Returns 0.0 when either marginal is
    /// empty.
    pub fn lift(&self) -> f64 {
        let denom = self.support_a() * self.support_b();
        if denom == 0.0 {
            0.0
        } else {
            self.support() / denom
        }
    }

    /// Leverage (a.k.a. Piatetsky-Shapiro): P(A ∧ B) − P(A)·P(B).
    pub fn leverage(&self) -> f64 {
        self.support() - self.support_a() * self.support_b()
    }

    /// Conviction: (1 − P(B)) / (1 − conf). Returns +∞ for exact rules
    /// (confidence 1 with P(B) < 1) and 0.0 when A never occurs.
    pub fn conviction(&self) -> f64 {
        if self.count_a == 0 {
            return 0.0;
        }
        let conf = self.confidence();
        let pb = self.support_b();
        if (1.0 - conf).abs() < f64::EPSILON {
            if pb < 1.0 {
                f64::INFINITY
            } else {
                1.0
            }
        } else {
            (1.0 - pb) / (1.0 - conf)
        }
    }

    /// Jaccard coefficient: |A ∧ B| / |A ∨ B|.
    pub fn jaccard(&self) -> f64 {
        let union = self.count_a + self.count_b - self.count_ab;
        ratio(self.count_ab, union)
    }

    /// Cosine (a.k.a. IS measure): P(A ∧ B) / √(P(A)·P(B)).
    pub fn cosine(&self) -> f64 {
        let denom = (self.support_a() * self.support_b()).sqrt();
        if denom == 0.0 {
            0.0
        } else {
            self.support() / denom
        }
    }

    /// A bounded composite interestingness score in [0, 1]: the mean of
    /// support, confidence, the squashed lift `lift/(1+lift)` and
    /// Jaccard. Used by the knowledge-ranking component as a neutral
    /// prior before user feedback reshapes the ordering.
    pub fn composite_score(&self) -> f64 {
        let lift = self.lift();
        let squashed_lift = if lift.is_finite() {
            lift / (1.0 + lift)
        } else {
            1.0
        };
        (self.support() + self.confidence() + squashed_lift + self.jaccard()) / 4.0
    }
}

fn ratio(num: usize, denom: usize) -> f64 {
    if denom == 0 {
        0.0
    } else {
        num as f64 / denom as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 100 transactions, A in 40, B in 50, both in 30.
    fn sample() -> RuleCounts {
        RuleCounts::new(100, 40, 50, 30)
    }

    #[test]
    fn basic_measures() {
        let r = sample();
        assert!((r.support() - 0.30).abs() < 1e-12);
        assert!((r.support_a() - 0.40).abs() < 1e-12);
        assert!((r.support_b() - 0.50).abs() < 1e-12);
        assert!((r.confidence() - 0.75).abs() < 1e-12);
        assert!((r.lift() - 1.5).abs() < 1e-12);
        assert!((r.leverage() - 0.10).abs() < 1e-12);
        assert!((r.jaccard() - 0.5).abs() < 1e-12);
        assert!((r.cosine() - 0.30 / (0.2f64).sqrt()).abs() < 1e-12);
        // conviction = (1 - 0.5) / (1 - 0.75) = 2.
        assert!((r.conviction() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn independence_has_unit_lift_zero_leverage() {
        let r = RuleCounts::new(100, 50, 40, 20);
        assert!((r.lift() - 1.0).abs() < 1e-12);
        assert!(r.leverage().abs() < 1e-12);
    }

    #[test]
    fn exact_rule_has_infinite_conviction() {
        let r = RuleCounts::new(100, 20, 60, 20);
        assert!((r.confidence() - 1.0).abs() < 1e-12);
        assert!(r.conviction().is_infinite());
        // But a tautology (B everywhere) stays finite.
        let t = RuleCounts::new(100, 20, 100, 20);
        assert_eq!(t.conviction(), 1.0);
    }

    #[test]
    fn degenerate_counts_are_zero_not_nan() {
        let r = RuleCounts::new(0, 0, 0, 0);
        assert_eq!(r.support(), 0.0);
        assert_eq!(r.confidence(), 0.0);
        assert_eq!(r.lift(), 0.0);
        assert_eq!(r.conviction(), 0.0);
        assert_eq!(r.jaccard(), 0.0);
        assert_eq!(r.cosine(), 0.0);
        assert!(r.composite_score().is_finite());
    }

    #[test]
    fn composite_score_bounded_and_monotone_in_strength() {
        let weak = RuleCounts::new(1000, 400, 400, 162); // ~independent
        let strong = RuleCounts::new(1000, 400, 400, 390);
        let (ws, ss) = (weak.composite_score(), strong.composite_score());
        assert!((0.0..=1.0).contains(&ws));
        assert!((0.0..=1.0).contains(&ss));
        assert!(ss > ws);
        // Exact rule (infinite lift path) stays bounded.
        let exact = RuleCounts::new(100, 20, 20, 20);
        assert!(exact.composite_score() <= 1.0);
    }

    #[test]
    #[should_panic(expected = "intersection exceeds")]
    fn rejects_inconsistent_counts() {
        let _ = RuleCounts::new(10, 3, 4, 5);
    }
}
