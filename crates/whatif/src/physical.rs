//! Candidate indexes and physical configurations.

use crate::catalog::{Catalog, PAGE_SIZE_BYTES};
use crate::error::{Result, WhatIfError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A candidate (possibly hypothetical) B-tree index.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CandidateIndex {
    /// Index name.
    pub name: String,
    /// Table the index is defined on.
    pub table: String,
    /// Key columns in order.
    pub key_columns: Vec<String>,
    /// Included (covering-only) columns.
    pub include_columns: Vec<String>,
}

impl CandidateIndex {
    /// Creates a secondary index on `table(key_columns)`.
    pub fn new(table: impl Into<String>, key_columns: Vec<String>) -> Self {
        let table = table.into();
        let name = format!(
            "ix_{}_{}",
            table.to_lowercase(),
            key_columns.join("_").to_lowercase()
        );
        Self {
            name,
            table,
            key_columns,
            include_columns: Vec::new(),
        }
    }

    /// Adds include columns (builder style).
    pub fn with_includes(mut self, include_columns: Vec<String>) -> Self {
        self.include_columns = include_columns;
        if !self.include_columns.is_empty() {
            self.name = format!(
                "{}_incl_{}",
                self.name,
                self.include_columns.join("_").to_lowercase()
            );
        }
        self
    }

    /// The leading key column.
    pub fn leading_column(&self) -> Option<&str> {
        self.key_columns.first().map(String::as_str)
    }

    /// All columns stored in the index (keys then includes).
    pub fn all_columns(&self) -> impl Iterator<Item = &str> {
        self.key_columns
            .iter()
            .chain(self.include_columns.iter())
            .map(String::as_str)
    }

    /// `true` when the index stores every column in `needed` — a covering
    /// index for a query needing exactly those columns of this table.
    pub fn covers(&self, needed: &[String]) -> bool {
        needed.iter().all(|n| self.all_columns().any(|c| c == n))
    }

    /// Validates the index against a catalog (table and columns must exist,
    /// keys must be non-empty and duplicate-free).
    pub fn validate(&self, catalog: &Catalog) -> Result<()> {
        if self.key_columns.is_empty() {
            return Err(WhatIfError::EmptyIndex(self.name.clone()));
        }
        let mut seen = BTreeSet::new();
        for c in self.all_columns() {
            catalog.require_column(&self.table, c)?;
            if !seen.insert(c.to_string()) {
                return Err(WhatIfError::DuplicateColumn {
                    table: self.table.clone(),
                    column: c.to_string(),
                });
            }
        }
        Ok(())
    }

    /// Average entry width in bytes (keys + includes + row pointer).
    pub fn entry_width(&self, catalog: &Catalog) -> f64 {
        const ROW_POINTER_BYTES: f64 = 8.0;
        let table = match catalog.table(&self.table) {
            Some(t) => t,
            None => return ROW_POINTER_BYTES,
        };
        self.all_columns()
            .filter_map(|c| table.column(c))
            .map(|c| c.width_bytes)
            .sum::<f64>()
            + ROW_POINTER_BYTES
    }

    /// Estimated index size in pages.
    pub fn size_pages(&self, catalog: &Catalog) -> f64 {
        let rows = catalog.table(&self.table).map(|t| t.rows).unwrap_or(1.0);
        (rows * self.entry_width(catalog) / PAGE_SIZE_BYTES).max(1.0)
    }
}

/// A physical configuration: the set of indexes assumed to exist.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PhysicalConfig {
    indexes: Vec<CandidateIndex>,
}

impl PhysicalConfig {
    /// The empty configuration (heap tables only).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Creates a configuration from a list of indexes.
    pub fn with_indexes(indexes: Vec<CandidateIndex>) -> Self {
        Self { indexes }
    }

    /// Adds an index.
    pub fn add(&mut self, index: CandidateIndex) {
        if !self.indexes.contains(&index) {
            self.indexes.push(index);
        }
    }

    /// Removes an index by name; returns `true` when something was removed.
    pub fn remove(&mut self, name: &str) -> bool {
        let before = self.indexes.len();
        self.indexes.retain(|i| i.name != name);
        self.indexes.len() != before
    }

    /// All indexes in the configuration.
    pub fn indexes(&self) -> &[CandidateIndex] {
        &self.indexes
    }

    /// Looks up an index by name.
    pub fn index(&self, name: &str) -> Option<&CandidateIndex> {
        self.indexes.iter().find(|i| i.name == name)
    }

    /// Number of indexes.
    pub fn len(&self) -> usize {
        self.indexes.len()
    }

    /// `true` when no index exists.
    pub fn is_empty(&self) -> bool {
        self.indexes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Column, Table};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(Table::new(
            "PEOPLE",
            100_000.0,
            vec![
                Column::int_key("EMPID", 100_000.0),
                Column::string("CITY", 16.0, 500.0),
                Column::new("SALARY", 8.0, 5_000.0),
                Column::int_key("REPORTTO", 20_000.0),
            ],
        ))
        .unwrap();
        c
    }

    #[test]
    fn name_generation_and_builders() {
        let ix = CandidateIndex::new("PEOPLE", vec!["CITY".into()]);
        assert_eq!(ix.name, "ix_people_city");
        let cov =
            CandidateIndex::new("PEOPLE", vec!["CITY".into()]).with_includes(vec!["SALARY".into()]);
        assert!(cov.name.contains("incl_salary"));
    }

    #[test]
    fn covers_requires_all_columns() {
        let cov =
            CandidateIndex::new("PEOPLE", vec!["CITY".into()]).with_includes(vec!["SALARY".into()]);
        assert!(cov.covers(&["CITY".into(), "SALARY".into()]));
        assert!(!cov.covers(&["CITY".into(), "EMPID".into()]));
        assert_eq!(cov.leading_column(), Some("CITY"));
    }

    #[test]
    fn validation_checks_catalog() {
        let cat = catalog();
        assert!(CandidateIndex::new("PEOPLE", vec!["CITY".into()])
            .validate(&cat)
            .is_ok());
        assert!(CandidateIndex::new("PEOPLE", vec![])
            .validate(&cat)
            .is_err());
        assert!(CandidateIndex::new("PEOPLE", vec!["NOPE".into()])
            .validate(&cat)
            .is_err());
        assert!(CandidateIndex::new("NOPE", vec!["CITY".into()])
            .validate(&cat)
            .is_err());
        assert!(
            CandidateIndex::new("PEOPLE", vec!["CITY".into(), "CITY".into()])
                .validate(&cat)
                .is_err()
        );
    }

    #[test]
    fn size_estimates_scale_with_columns() {
        let cat = catalog();
        let narrow = CandidateIndex::new("PEOPLE", vec!["CITY".into()]);
        let wide = CandidateIndex::new("PEOPLE", vec!["CITY".into(), "SALARY".into()]);
        assert!(wide.size_pages(&cat) > narrow.size_pages(&cat));
        assert!(narrow.size_pages(&cat) >= 1.0);
    }

    #[test]
    fn config_add_remove_lookup() {
        let mut cfg = PhysicalConfig::empty();
        assert!(cfg.is_empty());
        let ix = CandidateIndex::new("PEOPLE", vec!["CITY".into()]);
        cfg.add(ix.clone());
        cfg.add(ix.clone()); // duplicate ignored
        assert_eq!(cfg.len(), 1);
        assert!(cfg.index("ix_people_city").is_some());
        assert_eq!(cfg.indexes(), &[ix]);
        assert!(cfg.remove("ix_people_city"));
        assert!(!cfg.remove("ix_people_city"));
        assert!(cfg.is_empty());
    }
}
