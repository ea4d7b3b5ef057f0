//! Error type for the rewriting layer.

use std::fmt;

/// Result alias for conquer-core.
pub type Result<T> = std::result::Result<T, RewriteError>;

/// An error raised while analysing or rewriting a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RewriteError {
    /// The query is outside the tree-query class of Definition 4.
    NotATreeQuery(String),
    /// A feature of the query is outside ConQuer's supported fragment.
    Unsupported(String),
    /// A relation in the query has no key constraint in Σ.
    MissingKey(String),
    /// A malformed constraint set.
    InvalidConstraint(String),
    /// The named relation's `cons` flags no longer match its key groups —
    /// it was written after `annotate_database` — so the annotation-aware
    /// rewriting would answer wrongly over it and refuses.
    StaleAnnotation(String),
    /// Failure in the underlying engine (annotation, execution). Carries
    /// the structured engine error so callers can distinguish resource-limit
    /// trips (timeout, memory, rows, cancellation) from plain failures.
    Engine(conquer_engine::EngineError),
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::NotATreeQuery(msg) => write!(f, "not a tree query: {msg}"),
            RewriteError::Unsupported(msg) => write!(f, "unsupported query feature: {msg}"),
            RewriteError::MissingKey(rel) => write!(
                f,
                "relation `{rel}` has no key constraint in the query constraint set"
            ),
            RewriteError::InvalidConstraint(msg) => write!(f, "invalid constraint: {msg}"),
            RewriteError::StaleAnnotation(rel) => write!(
                f,
                "the `cons` flags of relation `{rel}` no longer match its key groups \
                 (written since annotate_database); the annotated strategy refuses it, \
                 the plain rewriting answers it"
            ),
            RewriteError::Engine(e) => write!(f, "engine error: {e}"),
        }
    }
}

impl std::error::Error for RewriteError {}

impl From<conquer_engine::EngineError> for RewriteError {
    fn from(e: conquer_engine::EngineError) -> Self {
        RewriteError::Engine(e)
    }
}

impl From<conquer_sql::ParseError> for RewriteError {
    fn from(e: conquer_sql::ParseError) -> Self {
        RewriteError::Engine(e.into())
    }
}
