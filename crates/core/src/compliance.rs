//! Guideline-compliance assessment.
//!
//! One of the paper's motivating end-goals: "(ii) assessing the
//! adherence of medical prescriptions and treatments to relevant
//! clinical guidelines". A [`Guideline`] states how often an exam (or
//! any exam of a condition group) should be performed per observation
//! year and for which ages it applies; [`assess`] evaluates a cohort's
//! timelines against a guideline set, producing per-guideline compliance
//! rates and a worst-offender sample — a ready-made knowledge item for
//! the navigation layer.

use ada_dataset::taxonomy::ConditionGroup;
use ada_dataset::timeline::{timelines, Timeline};
use ada_dataset::{ExamLog, ExamTypeId, PatientId};

/// What a guideline monitors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GuidelineTarget {
    /// A specific examination type.
    Exam(ExamTypeId),
    /// Any examination of a condition group.
    Group(ConditionGroup),
}

/// A minimal clinical follow-up guideline.
#[derive(Debug, Clone, PartialEq)]
pub struct Guideline {
    /// Human-readable name, e.g. `"HbA1c at least twice a year"`.
    pub name: String,
    /// The monitored exam or group.
    pub target: GuidelineTarget,
    /// Minimum number of target exams within the observation window.
    pub min_count: u32,
    /// Optional maximum allowed gap (days) between consecutive target
    /// exams (and between window edges and the nearest exam is *not*
    /// enforced — only inter-exam gaps).
    pub max_gap_days: Option<i64>,
    /// Minimum patient age for the guideline to apply.
    pub min_age: u16,
    /// Maximum patient age for the guideline to apply.
    pub max_age: u16,
}

impl Guideline {
    /// A simple frequency guideline applying to all ages.
    pub fn frequency(name: impl Into<String>, target: GuidelineTarget, min_count: u32) -> Self {
        Self {
            name: name.into(),
            target,
            min_count,
            max_gap_days: None,
            min_age: 0,
            max_age: u16::MAX,
        }
    }

    /// Restricts the guideline to an age range (builder style).
    pub fn ages(mut self, min_age: u16, max_age: u16) -> Self {
        self.min_age = min_age;
        self.max_age = max_age;
        self
    }

    /// Adds a maximum-gap requirement (builder style).
    pub fn max_gap(mut self, days: i64) -> Self {
        self.max_gap_days = Some(days);
        self
    }
}

/// One patient's verdict under one guideline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Guideline does not apply (age out of range).
    NotApplicable,
    /// All requirements met.
    Compliant,
    /// Too few target exams.
    TooFew {
        /// Number of target exams observed.
        observed: u32,
    },
    /// Enough exams, but a gap exceeded the allowed maximum.
    GapExceeded {
        /// The largest observed gap in days.
        worst_gap: i64,
    },
}

/// Aggregated result for one guideline.
#[derive(Debug, Clone, PartialEq)]
pub struct GuidelineResult {
    /// The guideline name.
    pub name: String,
    /// Patients the guideline applies to.
    pub eligible: usize,
    /// Eligible patients meeting every requirement.
    pub compliant: usize,
    /// Up to ten non-compliant patients (worst first: fewest exams,
    /// then largest gap).
    pub offenders: Vec<(PatientId, Verdict)>,
}

impl GuidelineResult {
    /// Compliance rate among eligible patients (1.0 when nobody is
    /// eligible — an inapplicable guideline is vacuously satisfied).
    pub fn rate(&self) -> f64 {
        if self.eligible == 0 {
            1.0
        } else {
            self.compliant as f64 / self.eligible as f64
        }
    }
}

/// The whole compliance report.
#[derive(Debug, Clone, PartialEq)]
pub struct ComplianceReport {
    /// One result per guideline, in input order.
    pub results: Vec<GuidelineResult>,
}

impl ComplianceReport {
    /// Mean compliance rate over all guidelines with eligible patients.
    pub fn overall_rate(&self) -> f64 {
        let live: Vec<&GuidelineResult> = self.results.iter().filter(|r| r.eligible > 0).collect();
        if live.is_empty() {
            return 1.0;
        }
        live.iter().map(|r| r.rate()).sum::<f64>() / live.len() as f64
    }
}

fn judge(timeline: &Timeline, log: &ExamLog, guideline: &Guideline) -> Verdict {
    let age = log.patients()[timeline.patient.index()].age;
    if age < guideline.min_age || age > guideline.max_age {
        return Verdict::NotApplicable;
    }
    let taxonomy = log.taxonomy();
    let mut dates: Vec<ada_dataset::Date> = timeline
        .visits
        .iter()
        .filter(|v| {
            v.exams.iter().any(|&e| match &guideline.target {
                GuidelineTarget::Exam(target) => e == *target,
                GuidelineTarget::Group(group) => taxonomy.group_of(e) == Some(*group),
            })
        })
        .map(|v| v.date)
        .collect();
    dates.dedup();
    if (dates.len() as u32) < guideline.min_count {
        return Verdict::TooFew {
            observed: dates.len() as u32,
        };
    }
    if let Some(max_gap) = guideline.max_gap_days {
        let worst = dates
            .windows(2)
            .map(|w| w[1].days_between(w[0]))
            .max()
            .unwrap_or(0);
        if worst > max_gap {
            return Verdict::GapExceeded { worst_gap: worst };
        }
    }
    Verdict::Compliant
}

/// Evaluates the cohort against a guideline set.
///
/// ```
/// use ada_core::compliance::{assess, diabetes_guidelines};
/// use ada_dataset::synthetic::{generate, SyntheticConfig};
///
/// let log = generate(&SyntheticConfig::small(), 1);
/// let report = assess(&log, &diabetes_guidelines(&log));
/// assert!((0.0..=1.0).contains(&report.overall_rate()));
/// ```
pub fn assess(log: &ExamLog, guidelines: &[Guideline]) -> ComplianceReport {
    let cohort = timelines(log);
    let results = guidelines
        .iter()
        .map(|guideline| {
            let mut eligible = 0usize;
            let mut compliant = 0usize;
            let mut offenders: Vec<(PatientId, Verdict)> = Vec::new();
            for timeline in &cohort {
                match judge(timeline, log, guideline) {
                    Verdict::NotApplicable => {}
                    Verdict::Compliant => {
                        eligible += 1;
                        compliant += 1;
                    }
                    verdict => {
                        eligible += 1;
                        offenders.push((timeline.patient, verdict));
                    }
                }
            }
            offenders.sort_by_key(|&(patient, verdict)| {
                let severity = match verdict {
                    Verdict::TooFew { observed } => (0u8, i64::from(observed)),
                    Verdict::GapExceeded { worst_gap } => (1, -worst_gap),
                    _ => (2, 0),
                };
                (severity, patient.0)
            });
            offenders.truncate(10);
            GuidelineResult {
                name: guideline.name.clone(),
                eligible,
                compliant,
                offenders,
            }
        })
        .collect();
    ComplianceReport { results }
}

/// A standard diabetes follow-up guideline set over the synthetic
/// catalog, resolved by exam name (guidelines whose exams are absent
/// from the catalog are skipped).
pub fn diabetes_guidelines(log: &ExamLog) -> Vec<Guideline> {
    let find = |name: &str| -> Option<ExamTypeId> {
        log.catalog().iter().find(|e| e.name == name).map(|e| e.id)
    };
    let mut guidelines = Vec::new();
    if let Some(exam) = find("Glycated hemoglobin (HbA1c)") {
        guidelines.push(
            Guideline::frequency(
                "HbA1c at least twice a year, no gap over 8 months",
                GuidelineTarget::Exam(exam),
                2,
            )
            .max_gap(244),
        );
    }
    if let Some(exam) = find("Fundus examination") {
        guidelines.push(Guideline::frequency(
            "annual fundus examination (retinopathy screening)",
            GuidelineTarget::Exam(exam),
            1,
        ));
    }
    guidelines.push(Guideline::frequency(
        "annual renal monitoring (any renal exam)",
        GuidelineTarget::Group(ConditionGroup::Renal),
        1,
    ));
    guidelines.push(Guideline::frequency(
        "annual lipid panel (any lipid exam)",
        GuidelineTarget::Group(ConditionGroup::Lipid),
        1,
    ));
    guidelines.push(
        Guideline::frequency(
            "annual foot screening for patients 50+",
            GuidelineTarget::Group(ConditionGroup::Podiatric),
            1,
        )
        .ages(50, u16::MAX),
    );
    guidelines
}

#[cfg(test)]
mod tests {
    use super::*;
    use ada_dataset::record::{ExamRecord, ExamType, Patient};
    use ada_dataset::Date;

    fn guideline_log() -> ExamLog {
        let patients = vec![
            Patient::new(PatientId(0), 60).unwrap(), // compliant
            Patient::new(PatientId(1), 60).unwrap(), // too few
            Patient::new(PatientId(2), 60).unwrap(), // gap too large
            Patient::new(PatientId(3), 30).unwrap(), // out of age range
        ];
        let catalog = vec![ExamType::new(
            ExamTypeId(0),
            "HbA1c",
            ConditionGroup::GlycemicControl,
        )];
        let mut log = ExamLog::new(patients, catalog).unwrap();
        let d = |m, day| Date::new(2015, m, day).unwrap();
        // Patient 0: Feb + Aug (gap ~180).
        log.push_record(ExamRecord::new(PatientId(0), ExamTypeId(0), d(2, 1)))
            .unwrap();
        log.push_record(ExamRecord::new(PatientId(0), ExamTypeId(0), d(8, 1)))
            .unwrap();
        // Patient 1: one exam only.
        log.push_record(ExamRecord::new(PatientId(1), ExamTypeId(0), d(5, 1)))
            .unwrap();
        // Patient 2: Jan + Dec (gap ~334).
        log.push_record(ExamRecord::new(PatientId(2), ExamTypeId(0), d(1, 5)))
            .unwrap();
        log.push_record(ExamRecord::new(PatientId(2), ExamTypeId(0), d(12, 5)))
            .unwrap();
        // Patient 3: nothing (but also not eligible).
        log
    }

    fn hba1c_guideline() -> Guideline {
        Guideline::frequency("HbA1c 2x/yr", GuidelineTarget::Exam(ExamTypeId(0)), 2)
            .max_gap(244)
            .ages(40, 99)
    }

    #[test]
    fn verdicts_cover_all_cases() {
        let log = guideline_log();
        let report = assess(&log, &[hba1c_guideline()]);
        let r = &report.results[0];
        assert_eq!(r.eligible, 3, "age-excluded patient must not count");
        assert_eq!(r.compliant, 1);
        assert!((r.rate() - 1.0 / 3.0).abs() < 1e-12);
        // Offenders: too-few first, then gap-exceeded.
        assert_eq!(r.offenders.len(), 2);
        assert_eq!(r.offenders[0].0, PatientId(1));
        assert!(matches!(r.offenders[0].1, Verdict::TooFew { observed: 1 }));
        assert_eq!(r.offenders[1].0, PatientId(2));
        assert!(matches!(
            r.offenders[1].1,
            Verdict::GapExceeded { worst_gap } if worst_gap > 300
        ));
    }

    #[test]
    fn group_target_counts_any_member_exam() {
        let patients = vec![Patient::new(PatientId(0), 55).unwrap()];
        let catalog = vec![
            ExamType::new(ExamTypeId(0), "Serum creatinine", ConditionGroup::Renal),
            ExamType::new(ExamTypeId(1), "Urinalysis", ConditionGroup::Renal),
        ];
        let mut log = ExamLog::new(patients, catalog).unwrap();
        log.push_record(ExamRecord::new(
            PatientId(0),
            ExamTypeId(1),
            Date::new(2015, 3, 3).unwrap(),
        ))
        .unwrap();
        let g = Guideline::frequency(
            "annual renal",
            GuidelineTarget::Group(ConditionGroup::Renal),
            1,
        );
        let report = assess(&log, &[g]);
        assert_eq!(report.results[0].compliant, 1);
    }

    #[test]
    fn vacuous_guideline_is_fully_compliant() {
        let log = guideline_log();
        let g = hba1c_guideline().ages(100, 120); // nobody eligible
        let report = assess(&log, &[g]);
        assert_eq!(report.results[0].eligible, 0);
        assert_eq!(report.results[0].rate(), 1.0);
        assert_eq!(report.overall_rate(), 1.0);
    }

    #[test]
    fn overall_rate_averages_live_guidelines() {
        let log = guideline_log();
        let report = assess(&log, &[hba1c_guideline(), hba1c_guideline().ages(100, 120)]);
        assert!((report.overall_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn synthetic_catalog_guidelines_resolve() {
        use ada_dataset::synthetic::{generate, SyntheticConfig};
        let log = generate(&SyntheticConfig::small(), 3);
        let guidelines = diabetes_guidelines(&log);
        assert!(guidelines.len() >= 4, "expected the standard set");
        let report = assess(&log, &guidelines);
        assert_eq!(report.results.len(), guidelines.len());
        for r in &report.results {
            assert!(r.eligible > 0, "guideline {} found nobody", r.name);
            assert!((0.0..=1.0).contains(&r.rate()));
        }
        // Episodic patients guarantee some non-compliance.
        assert!(report.overall_rate() < 1.0);
    }
}
