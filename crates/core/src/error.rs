//! Typed errors for the fallible search API.
//!
//! Every entry point — the one-shot [`crate::compose::run_composition`],
//! [`crate::searcher::SearcherBuilder`] and [`crate::searcher::Searcher`]
//! — checks its input up front and reports failures through
//! [`SearchError`] rather than panicking.

/// A structured expected-vs-found discrepancy in one configuration field.
///
/// Shared by the config-mismatch variants of every error type in the
/// workspace — [`SearchError::InvalidConfig`] here,
/// `SnapshotError::ConfigMismatch` in [`crate::persist`], and the shard
/// manifest's `ShardError::ConfigFingerprint` — so callers can diagnose
/// snapshot/manifest incompatibility programmatically instead of parsing
/// message strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigDiff {
    /// Name of the mismatched configuration field.
    pub field: &'static str,
    /// The value the consumer expected (rendered with `Display`).
    pub expected: String,
    /// The value actually found.
    pub found: String,
}

impl ConfigDiff {
    /// Shorthand constructor rendering both sides with `Display`.
    pub fn new(
        field: &'static str,
        expected: impl std::fmt::Display,
        found: impl std::fmt::Display,
    ) -> Self {
        ConfigDiff {
            field,
            expected: expected.to_string(),
            found: found.to_string(),
        }
    }
}

impl std::fmt::Display for ConfigDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: expected {}, found {}",
            self.field, self.expected, self.found
        )
    }
}

/// Why a search operation could not be performed.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchError {
    /// A configuration parameter is out of range. `param` names the
    /// offending field; `message` says what was expected. When the failure
    /// is an expected-vs-found comparison (rather than a range violation),
    /// `diff` carries the structured [`ConfigDiff`].
    InvalidConfig {
        /// The offending configuration field.
        param: &'static str,
        /// Human-readable description of the violated constraint.
        message: String,
        /// Structured payload for comparison-style failures.
        diff: Option<ConfigDiff>,
    },
    /// The requested composition needs binary vectors (Jaccard measure, or
    /// the PPJoin+ generator) but the corpus contains weighted ones.
    NonBinaryData {
        /// Name of the component that requires binary vectors.
        requires: &'static str,
    },
    /// A vector's feature indices exceed the dimensionality the searcher's
    /// hash family was built for (signed random projections hold one plane
    /// component per dimension, so the space cannot grow after build).
    DimensionExceeded {
        /// Dimensionality the searcher was built with.
        dim: u32,
        /// Dimensionality the offending vector requires.
        needed: u32,
    },
}

impl SearchError {
    /// Shorthand constructor for configuration errors.
    pub fn invalid(param: &'static str, message: impl Into<String>) -> Self {
        SearchError::InvalidConfig {
            param,
            message: message.into(),
            diff: None,
        }
    }

    /// Shorthand constructor for expected-vs-found configuration errors;
    /// the message is rendered from the diff.
    pub fn mismatch(diff: ConfigDiff) -> Self {
        SearchError::InvalidConfig {
            param: diff.field,
            message: format!("expected {}, found {}", diff.expected, diff.found),
            diff: Some(diff),
        }
    }
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::InvalidConfig { param, message, .. } => {
                write!(f, "invalid config: {param}: {message}")
            }
            SearchError::NonBinaryData { requires } => {
                write!(
                    f,
                    "{requires} requires binary vectors; call Dataset::binarized() first"
                )
            }
            SearchError::DimensionExceeded { dim, needed } => {
                write!(
                    f,
                    "vector needs dimensionality {needed} but the searcher was built for {dim}"
                )
            }
        }
    }
}

impl std::error::Error for SearchError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_descriptive() {
        let e = SearchError::invalid("epsilon", "must lie in (0, 1), got 2");
        assert_eq!(
            e.to_string(),
            "invalid config: epsilon: must lie in (0, 1), got 2"
        );
        let e = SearchError::NonBinaryData {
            requires: "PPJoin+",
        };
        assert!(e.to_string().contains("requires binary vectors"));
        let e = SearchError::DimensionExceeded {
            dim: 10,
            needed: 42,
        };
        assert!(e.to_string().contains("42"));
        assert!(e.to_string().contains("10"));
    }

    #[test]
    fn is_std_error() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&SearchError::invalid("k", "must be positive"));
    }

    #[test]
    fn mismatch_carries_structured_diff() {
        let e = SearchError::mismatch(ConfigDiff::new("family", "cosine", "jaccard"));
        assert_eq!(
            e.to_string(),
            "invalid config: family: expected cosine, found jaccard"
        );
        match e {
            SearchError::InvalidConfig { diff: Some(d), .. } => {
                assert_eq!(d.field, "family");
                assert_eq!(d.expected, "cosine");
                assert_eq!(d.found, "jaccard");
                assert_eq!(d.to_string(), "family: expected cosine, found jaccard");
            }
            other => panic!("expected a diff-carrying InvalidConfig, got {other:?}"),
        }
        // Range-style errors carry no diff.
        assert!(matches!(
            SearchError::invalid("k", "must be positive"),
            SearchError::InvalidConfig { diff: None, .. }
        ));
    }
}
