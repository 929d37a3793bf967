//! Error types shared across the workspace's core model.

use crate::types::{IndexId, PlanId, QueryId};
use std::fmt;

/// Result alias used throughout `idd-core`.
pub type Result<T> = std::result::Result<T, CoreError>;

/// The finite-value contract: `Ok` when `value` is finite, else
/// [`CoreError::NonFiniteValue`]. `what` names the field; it is only built
/// on error.
pub(crate) fn check_finite(value: f64, what: impl FnOnce() -> String) -> Result<()> {
    if value.is_finite() {
        Ok(())
    } else {
        Err(CoreError::NonFiniteValue {
            what: what(),
            value,
        })
    }
}

/// Errors raised while building, validating or (de)serializing problem
/// instances and deployments.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A plan refers to a query id that does not exist in the instance.
    UnknownQuery(QueryId),
    /// A plan or interaction refers to an index id that does not exist.
    UnknownIndex(IndexId),
    /// A reference to a plan id that does not exist.
    UnknownPlan(PlanId),
    /// A plan needs no index. The unindexed runtime is the query's own
    /// `original_runtime`, so a stored plan must name at least one index.
    EmptyPlan(PlanId),
    /// A plan contains the same index more than once.
    DuplicateIndexInPlan {
        /// The offending plan.
        plan: PlanId,
        /// The duplicated index.
        index: IndexId,
    },
    /// A numeric field that must be non-negative was negative (costs,
    /// runtimes, speed-ups).
    NegativeValue {
        /// Human-readable description of the field.
        what: String,
        /// The offending value.
        value: f64,
    },
    /// A numeric field (costs, runtimes, weights, speed-ups) was NaN or
    /// infinite.
    NonFiniteValue {
        /// Human-readable description of the field.
        what: String,
        /// The offending value.
        value: f64,
    },
    /// A plan's speed-up exceeds the original runtime of its query, which
    /// would imply a negative query runtime.
    SpeedupExceedsRuntime {
        /// The offending plan.
        plan: PlanId,
        /// The plan's speed-up.
        speedup: f64,
        /// The query's original runtime.
        runtime: f64,
    },
    /// A build interaction's speed-up exceeds the base creation cost of the
    /// target index, which would imply a negative build cost.
    InteractionExceedsBuildCost {
        /// The index whose creation is sped up.
        target: IndexId,
        /// The speed-up claimed by the interaction.
        speedup: f64,
        /// The base creation cost of `target`.
        cost: f64,
    },
    /// A build interaction or precedence points an index at itself.
    SelfInteraction(IndexId),
    /// The precedence constraints contain a cycle, so no feasible deployment
    /// order exists.
    PrecedenceCycle {
        /// One index on the cycle (for diagnostics).
        witness: IndexId,
    },
    /// A deployment is not a permutation of the instance's indexes.
    NotAPermutation {
        /// What went wrong (missing index, duplicate, wrong length, ...).
        reason: String,
    },
    /// A deployment violates a hard precedence constraint.
    PrecedenceViolated {
        /// The index that must be built first.
        before: IndexId,
        /// The index that must be built later.
        after: IndexId,
    },
    /// The instance is empty (no indexes); every experiment needs at least one.
    EmptyInstance,
    /// Error produced while parsing or writing a matrix file.
    Io(String),
    /// Error produced while parsing a matrix file's JSON payload.
    Format(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UnknownQuery(q) => write!(f, "unknown query {q}"),
            CoreError::UnknownIndex(i) => write!(f, "unknown index {i}"),
            CoreError::UnknownPlan(p) => write!(f, "unknown plan {p}"),
            CoreError::EmptyPlan(p) => write!(f, "plan {p} needs no index"),
            CoreError::DuplicateIndexInPlan { plan, index } => {
                write!(f, "plan {plan} contains index {index} more than once")
            }
            CoreError::NegativeValue { what, value } => {
                write!(f, "{what} must be non-negative, got {value}")
            }
            CoreError::NonFiniteValue { what, value } => {
                write!(f, "{what} must be finite, got {value}")
            }
            CoreError::SpeedupExceedsRuntime {
                plan,
                speedup,
                runtime,
            } => write!(
                f,
                "plan {plan} speed-up {speedup} exceeds the query's original runtime {runtime}"
            ),
            CoreError::InteractionExceedsBuildCost {
                target,
                speedup,
                cost,
            } => write!(
                f,
                "build interaction on {target} speeds up by {speedup} which exceeds its creation cost {cost}"
            ),
            CoreError::SelfInteraction(i) => {
                write!(f, "index {i} cannot interact with or precede itself")
            }
            CoreError::PrecedenceCycle { witness } => {
                write!(f, "precedence constraints contain a cycle through {witness}")
            }
            CoreError::NotAPermutation { reason } => {
                write!(f, "deployment is not a permutation of the indexes: {reason}")
            }
            CoreError::PrecedenceViolated { before, after } => write!(
                f,
                "deployment builds {after} before {before}, violating a precedence constraint"
            ),
            CoreError::EmptyInstance => write!(f, "problem instance has no indexes"),
            CoreError::Io(msg) => write!(f, "I/O error: {msg}"),
            CoreError::Format(msg) => write!(f, "matrix file format error: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<std::io::Error> for CoreError {
    fn from(e: std::io::Error) -> Self {
        CoreError::Io(e.to_string())
    }
}

impl From<serde_json::Error> for CoreError {
    fn from(e: serde_json::Error) -> Self {
        CoreError::Format(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_the_ids_involved() {
        let err = CoreError::PrecedenceViolated {
            before: IndexId::new(1),
            after: IndexId::new(2),
        };
        let msg = err.to_string();
        assert!(msg.contains("i1"));
        assert!(msg.contains("i2"));
    }

    #[test]
    fn io_errors_convert() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        let err: CoreError = io.into();
        assert!(matches!(err, CoreError::Io(_)));
        assert!(err.to_string().contains("missing"));
    }

    #[test]
    fn errors_are_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&CoreError::EmptyInstance);
    }
}
