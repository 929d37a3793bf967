//! Metadata describing a single candidate index.

use crate::types::IndexId;
use serde::{Deserialize, Serialize};

/// Descriptive metadata for one candidate index suggested by the design
/// advisor.
///
/// Only [`IndexMeta::creation_cost`] participates in the optimization model
/// (it is `ctime(i)` in the paper); the remaining fields describe *what* the
/// index is so that reports, examples and the what-if substrate can explain
/// interactions (e.g. "`i1(LANG, REGION)` builds faster after
/// `i2(LANG, AGE, REGION)` because it can scan the existing index").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IndexMeta {
    /// Dense identifier of this index within its [`crate::ProblemInstance`].
    pub id: IndexId,
    /// Human-readable name, e.g. `"IX_CUSTOMER_COUNTRY"`.
    pub name: String,
    /// Table the index is defined on.
    pub table: String,
    /// Key columns, in order.
    pub key_columns: Vec<String>,
    /// Included (covering) columns, if any.
    pub include_columns: Vec<String>,
    /// Whether this is the clustered index of its table (or of a materialized
    /// view). Informational: a clustered index that must precede its
    /// secondaries enters the model only as a [`crate::Precedence`].
    pub clustered: bool,
    /// Estimated on-disk size in pages. Purely informational.
    pub size_pages: f64,
    /// `ctime(i)`: cost (seconds) of building this index from the base table
    /// with no helping interaction.
    pub creation_cost: f64,
}

impl IndexMeta {
    /// Creates a minimal index description with the given creation cost.
    ///
    /// The generated name is `idx{id}`; use the struct literal or
    /// [`IndexMeta::named`] for richer metadata.
    pub fn simple(id: IndexId, creation_cost: f64) -> Self {
        Self {
            id,
            name: format!("idx{}", id.raw()),
            table: String::new(),
            key_columns: Vec::new(),
            include_columns: Vec::new(),
            clustered: false,
            size_pages: 0.0,
            creation_cost,
        }
    }

    /// Creates an index description with a name, table and key columns.
    pub fn named(
        id: IndexId,
        name: impl Into<String>,
        table: impl Into<String>,
        key_columns: Vec<String>,
        creation_cost: f64,
    ) -> Self {
        Self {
            id,
            name: name.into(),
            table: table.into(),
            key_columns,
            include_columns: Vec::new(),
            clustered: false,
            size_pages: 0.0,
            creation_cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx(id: usize, keys: &[&str], includes: &[&str]) -> IndexMeta {
        IndexMeta {
            id: IndexId::new(id),
            name: format!("idx{id}"),
            table: "T".into(),
            key_columns: keys.iter().map(|s| s.to_string()).collect(),
            include_columns: includes.iter().map(|s| s.to_string()).collect(),
            clustered: false,
            size_pages: 10.0,
            creation_cost: 5.0,
        }
    }

    #[test]
    fn simple_constructor_sets_cost() {
        let m = IndexMeta::simple(IndexId::new(2), 7.5);
        assert_eq!(m.creation_cost, 7.5);
        assert_eq!(m.name, "idx2");
        assert!(m.key_columns.is_empty());
    }

    #[test]
    fn serde_round_trip() {
        let m = idx(4, &["A"], &["B"]);
        let json = serde_json::to_string(&m).unwrap();
        let back: IndexMeta = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }
}
