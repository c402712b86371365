//! Deterministic 2×2 contingency tables over the cohort.
//!
//! A safety signal asks: *is exposure E (an exam type) associated with
//! outcome O (a complication condition group)?* The evidence is the
//! classic pharmacovigilance 2×2 table counted over patients:
//!
//! ```text
//!                 outcome      no outcome
//! exposed            a             b
//! not exposed        c             d
//! ```
//!
//! Counting is over per-patient *sets* of distinct exam types
//! ([`ExamLog::patient_exam_sets`] sorts and dedups each patient), so
//! the cells are invariant under any permutation of the raw record
//! order — the property the proptests pin. Pairs whose exposure exam
//! belongs to the outcome group itself are skipped (the association
//! would be tautological), so an exposure never counts toward its own
//! outcome column.

use ada_dataset::taxonomy::ConditionGroup;
use ada_dataset::{ExamLog, ExamTypeId};
use ada_metrics::interest::RuleCounts;

/// One 2×2 contingency table (patient counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContingencyTable {
    /// Exposed patients with the outcome.
    pub a: u64,
    /// Exposed patients without the outcome.
    pub b: u64,
    /// Unexposed patients with the outcome.
    pub c: u64,
    /// Unexposed patients without the outcome.
    pub d: u64,
}

impl ContingencyTable {
    /// Creates a table from its four cells.
    pub fn new(a: u64, b: u64, c: u64, d: u64) -> Self {
        Self { a, b, c, d }
    }

    /// Total patients counted.
    pub fn n(&self) -> u64 {
        self.a + self.b + self.c + self.d
    }

    /// Fraction of the cohort that is exposed *and* has the outcome
    /// (`a / n`; 0.0 for an empty table).
    pub fn support(&self) -> f64 {
        let n = self.n();
        if n == 0 {
            0.0
        } else {
            self.a as f64 / n as f64
        }
    }

    /// The count expected in cell `a` under independence:
    /// `(a+b)(a+c)/n` (0.0 for an empty table).
    pub fn expected(&self) -> f64 {
        let n = self.n();
        if n == 0 {
            0.0
        } else {
            (self.a + self.b) as f64 * (self.a + self.c) as f64 / n as f64
        }
    }

    /// Whether any cell is zero (the ROR estimator then applies the
    /// Haldane–Anscombe correction).
    pub fn has_zero_cell(&self) -> bool {
        self.a == 0 || self.b == 0 || self.c == 0 || self.d == 0
    }

    /// A table from mined-rule counts (`A → B` over transactions):
    /// exposure = the antecedent, outcome = the consequent. Lets the
    /// disproportionality statistics rank association rules directly.
    pub fn from_rule_counts(counts: &RuleCounts) -> Self {
        let a = counts.count_ab as u64;
        let b = (counts.count_a - counts.count_ab) as u64;
        let c = (counts.count_b - counts.count_ab) as u64;
        let d = (counts.n + counts.count_ab - counts.count_a - counts.count_b) as u64;
        Self { a, b, c, d }
    }
}

/// One (exposure exam, outcome condition group) pair with its table.
#[derive(Debug, Clone, PartialEq)]
pub struct ExposurePair {
    /// The exposure exam type.
    pub exposure: ExamTypeId,
    /// The exposure exam's display name (from the catalog).
    pub exposure_name: String,
    /// The outcome condition group.
    pub outcome: ConditionGroup,
    /// The counted 2×2 table.
    pub table: ContingencyTable,
}

/// Per-patient evidence pre-aggregated for table counting: the sorted
/// exam set and, per condition group, whether any exam of that group is
/// present. Built once, shared (read-only) by every exposure chunk.
#[derive(Debug)]
pub struct CohortIndex {
    /// Sorted, deduplicated exam set per patient.
    pub sets: Vec<Vec<ExamTypeId>>,
    /// Bit `g` set ⇔ the patient has at least one exam of group `g`.
    pub group_bits: Vec<u16>,
    /// Patients per outcome group (column totals `a + c`).
    pub outcome_totals: Vec<u64>,
    /// Patients per exam type (row totals `a + b`).
    pub exposed_counts: Vec<u64>,
    /// Condition group of each exam type, by exam index.
    pub exam_groups: Vec<ConditionGroup>,
    /// Exam names, by exam index.
    pub exam_names: Vec<String>,
}

impl CohortIndex {
    /// Builds the index from a log (one pass over the patient sets).
    pub fn build(log: &ExamLog) -> Self {
        let taxonomy = log.taxonomy();
        let catalog = log.catalog();
        let exam_groups: Vec<ConditionGroup> = catalog
            .iter()
            .map(|e| taxonomy.group_of(e.id).unwrap_or(e.group))
            .collect();
        let exam_names: Vec<String> = catalog.iter().map(|e| e.name.clone()).collect();
        let sets = log.patient_exam_sets();
        let mut group_bits = vec![0u16; sets.len()];
        let mut exposed_counts = vec![0u64; catalog.len()];
        for (p, set) in sets.iter().enumerate() {
            for exam in set {
                exposed_counts[exam.index()] += 1;
                group_bits[p] |= 1 << exam_groups[exam.index()].index();
            }
        }
        let mut outcome_totals = vec![0u64; ConditionGroup::ALL.len()];
        for bits in &group_bits {
            for group in ConditionGroup::ALL {
                if bits & (1 << group.index()) != 0 {
                    outcome_totals[group.index()] += 1;
                }
            }
        }
        Self {
            sets,
            group_bits,
            outcome_totals,
            exposed_counts,
            exam_groups,
            exam_names,
        }
    }

    /// Number of patients.
    pub fn num_patients(&self) -> usize {
        self.sets.len()
    }

    /// Counts the tables for one contiguous slice of exposure exam ids
    /// against `outcomes`, in (exposure, outcome) order. Pure function
    /// of the slice — chunked concurrent execution merged in chunk
    /// order is byte-identical to a serial pass.
    pub fn count_chunk(
        &self,
        exposures: &[ExamTypeId],
        outcomes: &[ConditionGroup],
    ) -> Vec<ExposurePair> {
        let n = self.num_patients() as u64;
        // a[chunk-local exposure][outcome slot]
        let mut a = vec![0u64; exposures.len() * outcomes.len()];
        let mut local = vec![usize::MAX; self.exposed_counts.len()];
        for (i, exam) in exposures.iter().enumerate() {
            local[exam.index()] = i;
        }
        for (p, set) in self.sets.iter().enumerate() {
            let bits = self.group_bits[p];
            for exam in set {
                let i = local[exam.index()];
                if i == usize::MAX {
                    continue;
                }
                for (j, outcome) in outcomes.iter().enumerate() {
                    if bits & (1 << outcome.index()) != 0 {
                        a[i * outcomes.len() + j] += 1;
                    }
                }
            }
        }
        let mut pairs = Vec::new();
        for (i, exam) in exposures.iter().enumerate() {
            let exposed = self.exposed_counts[exam.index()];
            for (j, outcome) in outcomes.iter().enumerate() {
                if self.exam_groups[exam.index()] == *outcome {
                    continue; // tautological self-association
                }
                let cell_a = a[i * outcomes.len() + j];
                let cell_b = exposed - cell_a;
                let cell_c = self.outcome_totals[outcome.index()] - cell_a;
                let cell_d = n - exposed - cell_c;
                pairs.push(ExposurePair {
                    exposure: *exam,
                    exposure_name: self.exam_names[exam.index()].clone(),
                    outcome: *outcome,
                    table: ContingencyTable::new(cell_a, cell_b, cell_c, cell_d),
                });
            }
        }
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_add_up_and_support_is_a_over_n() {
        let t = ContingencyTable::new(40, 60, 120, 480);
        assert_eq!(t.n(), 700);
        assert!((t.support() - 40.0 / 700.0).abs() < 1e-12);
        assert!(!t.has_zero_cell());
        // Expected count under independence: (a+b)(a+c)/n.
        assert!((t.expected() - 100.0 * 160.0 / 700.0).abs() < 1e-12);
    }

    #[test]
    fn empty_table_is_defined_not_nan() {
        let t = ContingencyTable::new(0, 0, 0, 0);
        assert_eq!(t.support(), 0.0);
        assert_eq!(t.expected(), 0.0);
        assert!(t.has_zero_cell());
    }

    #[test]
    fn rule_counts_map_onto_the_four_cells() {
        // 700 transactions, A in 100, B in 160, both in 40.
        let counts = RuleCounts::new(700, 100, 160, 40);
        let t = ContingencyTable::from_rule_counts(&counts);
        assert_eq!(t, ContingencyTable::new(40, 60, 120, 480));
        assert_eq!(t.n() as usize, counts.n);
    }
}
