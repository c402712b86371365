//! Core record types: patients, examination types, and exam-log records.
//!
//! The paper states that each record of the diabetic-patient dataset
//! "contains at least a unique patient identifier, and the type and date
//! of every exam"; patients additionally carry an age (range 4–95 in the
//! paper's cohort).

use std::fmt;

use crate::date::Date;
use crate::error::DatasetError;
use crate::taxonomy::ConditionGroup;

/// Dense, zero-based identifier of a patient within an [`crate::ExamLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PatientId(pub u32);

/// Dense, zero-based identifier of an examination type within the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ExamTypeId(pub u32);

impl PatientId {
    /// The raw index, usable to address per-patient arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl ExamTypeId {
    /// The raw index, usable to address per-exam-type arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PatientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{:05}", self.0)
    }
}

impl fmt::Display for ExamTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E{:03}", self.0)
    }
}

/// A patient in the anonymized cohort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Patient {
    /// Dense identifier of this patient.
    pub id: PatientId,
    /// Age in years at the start of the observation window.
    pub age: u16,
}

impl Patient {
    /// Creates a patient, validating the age.
    ///
    /// # Errors
    /// Returns [`DatasetError::InvalidAge`] for ages above 130.
    pub fn new(id: PatientId, age: u16) -> Result<Self, DatasetError> {
        if age > 130 {
            return Err(DatasetError::InvalidAge(age));
        }
        Ok(Self { id, age })
    }
}

/// An examination type from the hospital's catalog (159 types in the
/// paper's cohort), annotated with the condition group it belongs to so
/// that multi-level pattern mining can generalize items.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExamType {
    /// Dense identifier of this exam type.
    pub id: ExamTypeId,
    /// Human-readable name, e.g. `"Glycated hemoglobin (HbA1c)"`.
    pub name: String,
    /// Mid-level taxonomy node: the condition group this exam monitors.
    pub group: ConditionGroup,
}

impl ExamType {
    /// Creates an exam type.
    pub fn new(id: ExamTypeId, name: impl Into<String>, group: ConditionGroup) -> Self {
        Self {
            id,
            name: name.into(),
            group,
        }
    }
}

/// One row of the examination log: patient `patient` underwent an exam of
/// type `exam` on day `date`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExamRecord {
    /// The patient who underwent the exam.
    pub patient: PatientId,
    /// The type of examination performed.
    pub exam: ExamTypeId,
    /// The calendar day the exam was performed.
    pub date: Date,
}

impl ExamRecord {
    /// Creates an exam record.
    pub fn new(patient: PatientId, exam: ExamTypeId, date: Date) -> Self {
        Self {
            patient,
            exam,
            date,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patient_age_validation() {
        assert!(Patient::new(PatientId(0), 95).is_ok());
        assert!(Patient::new(PatientId(0), 4).is_ok());
        assert!(Patient::new(PatientId(0), 131).is_err());
    }

    #[test]
    fn id_display_is_stable() {
        assert_eq!(PatientId(7).to_string(), "P00007");
        assert_eq!(ExamTypeId(12).to_string(), "E012");
    }

    #[test]
    fn ids_index_arrays() {
        let v = [10, 20, 30];
        assert_eq!(v[PatientId(1).index()], 20);
        assert_eq!(v[ExamTypeId(2).index()], 30);
    }

    #[test]
    fn record_equality() {
        let d = Date::new(2015, 5, 1).unwrap();
        let a = ExamRecord::new(PatientId(1), ExamTypeId(2), d);
        let b = ExamRecord::new(PatientId(1), ExamTypeId(2), d);
        assert_eq!(a, b);
    }
}
