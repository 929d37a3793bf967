//! Strongly-typed identifiers for indexes, queries and query plans.
//!
//! Identifiers are dense `usize` handles into the owning
//! [`crate::instance::ProblemInstance`] so they can double as vector offsets
//! in the hot evaluation loops without hashing.

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        #[serde(transparent)]
        pub struct $name(pub usize);

        impl $name {
            /// Creates an identifier from a raw dense offset.
            pub const fn new(raw: usize) -> Self {
                Self(raw)
            }

            /// Returns the raw dense offset.
            pub const fn raw(self) -> usize {
                self.0
            }
        }

        impl From<usize> for $name {
            fn from(raw: usize) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for usize {
            fn from(id: $name) -> usize {
                id.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifier of an index (`i ∈ I` in the paper).
    IndexId,
    "i"
);
id_type!(
    /// Identifier of a query (`q ∈ Q` in the paper).
    QueryId,
    "q"
);
id_type!(
    /// Identifier of a query plan (`p ∈ P` in the paper), i.e. an *atomic
    /// configuration*: a set of indexes that together yield a speed-up for one
    /// query.
    PlanId,
    "p"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_paper_notation() {
        assert_eq!(IndexId::new(3).to_string(), "i3");
        assert_eq!(QueryId::new(0).to_string(), "q0");
        assert_eq!(PlanId::new(12).to_string(), "p12");
    }

    #[test]
    fn conversions_round_trip() {
        let id = IndexId::from(7usize);
        assert_eq!(usize::from(id), 7);
        assert_eq!(id.raw(), 7);
        assert_eq!(IndexId::new(7), id);
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(IndexId::new(1) < IndexId::new(2));
        let mut v = vec![QueryId::new(2), QueryId::new(0), QueryId::new(1)];
        v.sort();
        assert_eq!(v, vec![QueryId::new(0), QueryId::new(1), QueryId::new(2)]);
    }

    #[test]
    fn serde_is_transparent() {
        let id = PlanId::new(5);
        let json = serde_json::to_string(&id).unwrap();
        assert_eq!(json, "5");
        let back: PlanId = serde_json::from_str(&json).unwrap();
        assert_eq!(back, id);
    }
}
