//! Raw summary statistics over an [`ExamLog`].
//!
//! These are the building blocks of ADA-HEALTH's *data characterization*
//! component: the paper argues that medical logs are inherently sparse
//! with long-tailed, variable distributions, and that such descriptors
//! must drive transformation selection and partial mining. The
//! higher-level descriptor object lives in `ada-core::characterize`; this
//! module computes the underlying numbers.

use crate::dataset::ExamLog;

/// Aggregate statistics of an examination log.
#[derive(Debug, Clone, PartialEq)]
pub struct LogSummary {
    /// Number of patients in the registry.
    pub num_patients: usize,
    /// Number of exam types in the catalog.
    pub num_exam_types: usize,
    /// Number of examination records.
    pub num_records: usize,
    /// Mean records per patient.
    pub records_per_patient_mean: f64,
    /// Standard deviation of records per patient.
    pub records_per_patient_std: f64,
    /// Mean number of *distinct* exam types per patient.
    pub distinct_exams_per_patient_mean: f64,
    /// Fraction of zero cells in the patient × exam-type count matrix —
    /// the "inherent sparseness" the paper calls out.
    pub sparsity: f64,
    /// Gini coefficient of the exam-type frequency distribution
    /// (0 = uniform usage, → 1 = extremely long-tailed).
    pub exam_frequency_gini: f64,
    /// Shannon entropy (nats) of the exam-type frequency distribution.
    pub exam_frequency_entropy: f64,
    /// Minimum and maximum patient age, when patients exist.
    pub age_range: Option<(u16, u16)>,
}

/// Computes the full [`LogSummary`] for a log.
pub fn summarize(log: &ExamLog) -> LogSummary {
    let n_p = log.num_patients();
    let n_e = log.num_exam_types();
    let n_r = log.num_records();

    let mut per_patient = vec![0usize; n_p];
    let mut distinct = vec![0usize; n_p];
    {
        let counts = log.patient_exam_counts();
        for (p, row) in counts.iter().enumerate() {
            per_patient[p] = row.iter().map(|&c| c as usize).sum();
            distinct[p] = row.iter().filter(|&&c| c > 0).count();
        }
    }

    let freq = log.exam_frequencies();
    let nonzero_cells: usize = distinct.iter().sum();
    let cells = n_p * n_e;

    LogSummary {
        num_patients: n_p,
        num_exam_types: n_e,
        num_records: n_r,
        records_per_patient_mean: mean_usize(&per_patient),
        records_per_patient_std: std_usize(&per_patient),
        distinct_exams_per_patient_mean: mean_usize(&distinct),
        sparsity: if cells == 0 {
            0.0
        } else {
            1.0 - nonzero_cells as f64 / cells as f64
        },
        exam_frequency_gini: gini(&freq),
        exam_frequency_entropy: entropy(&freq),
        age_range: log
            .patients()
            .iter()
            .map(|p| p.age)
            .fold(None, |acc, age| match acc {
                None => Some((age, age)),
                Some((lo, hi)) => Some((lo.min(age), hi.max(age))),
            }),
    }
}

/// Cumulative record coverage of the top-`k` most frequent exam types,
/// for every `k` from 0 to the catalog size.
///
/// `coverage_curve(log)[k]` is the fraction of raw records explained by
/// the `k` most frequent exam types. The paper's headline observation —
/// 20% of exam types ≈ 70% of rows, 40% ≈ 85% — is read directly off this
/// curve, and the adaptive horizontal partial miner walks along it.
pub fn coverage_curve(log: &ExamLog) -> Vec<f64> {
    let freq = log.exam_frequencies();
    let total: usize = freq.iter().sum();
    let mut sorted = freq;
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let mut curve = Vec::with_capacity(sorted.len() + 1);
    curve.push(0.0);
    let mut acc = 0usize;
    for f in sorted {
        acc += f;
        curve.push(if total == 0 {
            0.0
        } else {
            acc as f64 / total as f64
        });
    }
    curve
}

/// Fraction of records covered by the top `fraction` (0..=1) of exam
/// types, interpolating the integer coverage curve at the nearest rank.
pub fn coverage_at_fraction(log: &ExamLog, fraction: f64) -> f64 {
    let curve = coverage_curve(log);
    let n = curve.len() - 1;
    if n == 0 {
        return 0.0;
    }
    let k = (fraction.clamp(0.0, 1.0) * n as f64).round() as usize;
    curve[k.min(n)]
}

/// Gini coefficient of a non-negative count vector. Returns 0 for empty
/// or all-zero input.
pub fn gini(counts: &[usize]) -> f64 {
    let n = counts.len();
    let total: usize = counts.iter().sum();
    if n == 0 || total == 0 {
        return 0.0;
    }
    let mut sorted: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
    sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("counts are finite"));
    // G = (2 * sum_i i*x_(i) / (n * sum x)) - (n + 1)/n, with 1-based i.
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x)
        .sum();
    (2.0 * weighted) / (n as f64 * total as f64) - (n as f64 + 1.0) / n as f64
}

/// Shannon entropy (nats) of a count vector, treating counts as an
/// unnormalized probability distribution. Returns 0 for empty/all-zero.
pub fn entropy(counts: &[usize]) -> f64 {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / t;
            -p * p.ln()
        })
        .sum()
}

fn mean_usize(v: &[usize]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<usize>() as f64 / v.len() as f64
    }
}

fn std_usize(v: &[usize]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let m = mean_usize(v);
    let var = v.iter().map(|&x| (x as f64 - m).powi(2)).sum::<f64>() / v.len() as f64;
    var.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::date::Date;
    use crate::record::{ExamRecord, ExamType, ExamTypeId, Patient, PatientId};
    use crate::taxonomy::ConditionGroup;

    fn log_with(rows: &[(u32, u32)]) -> ExamLog {
        let np = rows.iter().map(|r| r.0).max().unwrap_or(0) + 1;
        let ne = rows.iter().map(|r| r.1).max().unwrap_or(0) + 1;
        let patients = (0..np)
            .map(|i| Patient::new(PatientId(i), 50).unwrap())
            .collect();
        let catalog = (0..ne)
            .map(|i| {
                ExamType::new(
                    ExamTypeId(i),
                    format!("exam-{i}"),
                    ConditionGroup::GeneralLab,
                )
            })
            .collect();
        let mut log = ExamLog::new(patients, catalog).unwrap();
        let d = Date::new(2015, 1, 1).unwrap();
        for &(p, e) in rows {
            log.push_record(ExamRecord::new(PatientId(p), ExamTypeId(e), d))
                .unwrap();
        }
        log
    }

    #[test]
    fn summary_basic_counts() {
        let log = log_with(&[(0, 0), (0, 0), (0, 1), (1, 0)]);
        let s = summarize(&log);
        assert_eq!(s.num_patients, 2);
        assert_eq!(s.num_exam_types, 2);
        assert_eq!(s.num_records, 4);
        assert!((s.records_per_patient_mean - 2.0).abs() < 1e-12);
        assert!((s.distinct_exams_per_patient_mean - 1.5).abs() < 1e-12);
        // Non-zero cells: (0,0),(0,1),(1,0) => 3 of 4.
        assert!((s.sparsity - 0.25).abs() < 1e-12);
        assert_eq!(s.age_range, Some((50, 50)));
    }

    #[test]
    fn gini_uniform_is_zero() {
        assert!(gini(&[5, 5, 5, 5]).abs() < 1e-12);
    }

    #[test]
    fn gini_concentrated_is_high() {
        let g = gini(&[100, 0, 0, 0]);
        assert!(g > 0.7, "gini = {g}");
    }

    #[test]
    fn gini_edge_cases() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0, 0]), 0.0);
    }

    #[test]
    fn entropy_uniform_is_log_n() {
        let h = entropy(&[10, 10, 10, 10]);
        assert!((h - 4f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn entropy_degenerate_is_zero() {
        assert_eq!(entropy(&[42]), 0.0);
        assert_eq!(entropy(&[]), 0.0);
    }

    #[test]
    fn coverage_curve_monotone_and_normalized() {
        let log = log_with(&[(0, 0), (0, 0), (0, 0), (0, 1), (1, 2)]);
        let curve = coverage_curve(&log);
        assert_eq!(curve.len(), 4); // 3 exam types + the leading 0
        assert_eq!(curve[0], 0.0);
        assert!((curve[3] - 1.0).abs() < 1e-12);
        for w in curve.windows(2) {
            assert!(w[1] >= w[0]);
        }
        // Top-1 of 3 exam types covers 3/5 of records.
        assert!((curve[1] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn coverage_at_fraction_interpolates_rank() {
        let log = log_with(&[(0, 0), (0, 0), (0, 0), (0, 1), (1, 2)]);
        assert!((coverage_at_fraction(&log, 1.0) - 1.0).abs() < 1e-12);
        assert_eq!(coverage_at_fraction(&log, 0.0), 0.0);
        // 1/3 of exam types -> rank 1 -> 60% of rows.
        assert!((coverage_at_fraction(&log, 0.334) - 0.6).abs() < 1e-12);
    }
}
