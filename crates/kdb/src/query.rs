//! Filter AST evaluated against documents.
//!
//! Filters address fields via dotted paths (see
//! [`Document::get_path`]). Comparison semantics follow the usual
//! document-store conventions: numbers compare across `I64`/`F64`,
//! strings compare lexicographically, and any type mismatch makes the
//! comparison false (not an error).

use crate::document::{Document, Value};

/// A query filter.
#[derive(Debug, Clone, PartialEq)]
pub enum Filter {
    /// Matches every document.
    True,
    /// Field equals the value.
    Eq(String, Value),
    /// Field exists and differs from the value.
    Ne(String, Value),
    /// Field is strictly greater than the value.
    Gt(String, Value),
    /// Field is greater than or equal to the value.
    Gte(String, Value),
    /// Field is strictly less than the value.
    Lt(String, Value),
    /// Field is less than or equal to the value.
    Lte(String, Value),
    /// Field equals one of the values.
    In(String, Vec<Value>),
    /// Field is present (any value, including null).
    Exists(String),
    /// All sub-filters match.
    And(Vec<Filter>),
    /// At least one sub-filter matches.
    Or(Vec<Filter>),
    /// The sub-filter does not match.
    Not(Box<Filter>),
}

/// Three-way comparison between two values under document-store
/// semantics; `None` when the types are incomparable.
pub fn compare(a: &Value, b: &Value) -> Option<std::cmp::Ordering> {
    use Value::*;
    match (a, b) {
        (I64(x), I64(y)) => Some(x.cmp(y)),
        (F64(x), F64(y)) => x.partial_cmp(y),
        (I64(x), F64(y)) => (*x as f64).partial_cmp(y),
        (F64(x), I64(y)) => x.partial_cmp(&(*y as f64)),
        (Str(x), Str(y)) => Some(x.cmp(y)),
        (Bool(x), Bool(y)) => Some(x.cmp(y)),
        (Null, Null) => Some(std::cmp::Ordering::Equal),
        _ => None,
    }
}

/// Equality under the same semantics as [`compare`] (so `I64(2)` equals
/// `F64(2.0)`).
pub fn values_equal(a: &Value, b: &Value) -> bool {
    matches!(compare(a, b), Some(std::cmp::Ordering::Equal))
}

impl Filter {
    /// Evaluates the filter against a document.
    pub fn matches(&self, doc: &Document) -> bool {
        match self {
            Filter::True => true,
            Filter::Eq(path, v) => doc.get_path(path).is_some_and(|f| values_equal(f, v)),
            Filter::Ne(path, v) => doc.get_path(path).is_some_and(|f| !values_equal(f, v)),
            Filter::Gt(path, v) => doc
                .get_path(path)
                .and_then(|f| compare(f, v))
                .is_some_and(|o| o == std::cmp::Ordering::Greater),
            Filter::Gte(path, v) => doc
                .get_path(path)
                .and_then(|f| compare(f, v))
                .is_some_and(|o| o != std::cmp::Ordering::Less),
            Filter::Lt(path, v) => doc
                .get_path(path)
                .and_then(|f| compare(f, v))
                .is_some_and(|o| o == std::cmp::Ordering::Less),
            Filter::Lte(path, v) => doc
                .get_path(path)
                .and_then(|f| compare(f, v))
                .is_some_and(|o| o != std::cmp::Ordering::Greater),
            Filter::In(path, values) => doc
                .get_path(path)
                .is_some_and(|f| values.iter().any(|v| values_equal(f, v))),
            Filter::Exists(path) => doc.get_path(path).is_some(),
            Filter::And(filters) => filters.iter().all(|f| f.matches(doc)),
            Filter::Or(filters) => filters.iter().any(|f| f.matches(doc)),
            Filter::Not(inner) => !inner.matches(doc),
        }
    }

    /// Convenience constructor: `field == value`.
    pub fn eq(path: impl Into<String>, value: impl Into<Value>) -> Self {
        Filter::Eq(path.into(), value.into())
    }

    /// Convenience constructor: conjunction.
    pub fn and(filters: impl IntoIterator<Item = Filter>) -> Self {
        Filter::And(filters.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Document {
        Document::new()
            .with("kind", "cluster")
            .with("score", 0.8f64)
            .with("k", 8i64)
            .with("flag", Value::Null)
            .with("meta", Document::new().with("depth", 3i64))
    }

    #[test]
    fn eq_and_type_coercion() {
        let d = doc();
        assert!(Filter::eq("kind", "cluster").matches(&d));
        assert!(!Filter::eq("kind", "pattern").matches(&d));
        // I64 vs F64 equality.
        assert!(Filter::eq("k", 8.0f64).matches(&d));
        assert!(Filter::eq("score", 0.8f64).matches(&d));
        // Missing field never equals.
        assert!(!Filter::eq("nope", 1i64).matches(&d));
    }

    #[test]
    fn range_comparisons() {
        let d = doc();
        assert!(Filter::Gt("k".into(), Value::I64(7)).matches(&d));
        assert!(!Filter::Gt("k".into(), Value::I64(8)).matches(&d));
        assert!(Filter::Gte("k".into(), Value::I64(8)).matches(&d));
        assert!(Filter::Lt("score".into(), Value::F64(0.9)).matches(&d));
        assert!(Filter::Lte("score".into(), Value::F64(0.8)).matches(&d));
        // Cross-type numeric range.
        assert!(Filter::Gt("k".into(), Value::F64(7.5)).matches(&d));
        // Type mismatch is false, not an error.
        assert!(!Filter::Gt("kind".into(), Value::I64(1)).matches(&d));
    }

    #[test]
    fn in_and_exists() {
        let d = doc();
        assert!(Filter::In(
            "kind".into(),
            vec![Value::Str("pattern".into()), Value::Str("cluster".into())]
        )
        .matches(&d));
        assert!(!Filter::In("kind".into(), vec![]).matches(&d));
        assert!(Filter::Exists("flag".into()).matches(&d)); // null still exists
        assert!(!Filter::Exists("missing".into()).matches(&d));
        assert!(Filter::Exists("meta.depth".into()).matches(&d));
    }

    #[test]
    fn boolean_combinators() {
        let d = doc();
        let f = Filter::and([
            Filter::eq("kind", "cluster"),
            Filter::Gt("score".into(), Value::F64(0.5)),
        ]);
        assert!(f.matches(&d));
        let g = Filter::Or(vec![Filter::eq("kind", "pattern"), Filter::eq("k", 8i64)]);
        assert!(g.matches(&d));
        assert!(!Filter::Not(Box::new(Filter::True)).matches(&d));
        // Empty AND is true; empty OR is false.
        assert!(Filter::And(vec![]).matches(&d));
        assert!(!Filter::Or(vec![]).matches(&d));
    }

    #[test]
    fn nested_path_filters() {
        let d = doc();
        assert!(Filter::eq("meta.depth", 3i64).matches(&d));
        assert!(!Filter::eq("meta.depth", 4i64).matches(&d));
    }

    #[test]
    fn ne_requires_presence() {
        let d = doc();
        assert!(Filter::Ne("k".into(), Value::I64(9)).matches(&d));
        assert!(!Filter::Ne("k".into(), Value::I64(8)).matches(&d));
        // Absent field: Ne is false (field must exist to differ).
        assert!(!Filter::Ne("missing".into(), Value::I64(1)).matches(&d));
    }

    #[test]
    fn compare_incomparable_types() {
        assert_eq!(compare(&Value::Str("a".into()), &Value::I64(1)), None);
        assert_eq!(compare(&Value::Null, &Value::Bool(false)), None);
        assert!(values_equal(&Value::Null, &Value::Null));
    }
}
