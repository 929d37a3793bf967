//! Catalog: tables, columns and their statistics.
//!
//! The cost model only needs coarse statistics — row counts, row/column widths
//! and the number of distinct values per column — exactly the statistics a
//! real optimizer keeps in its system catalog.

use crate::error::{Result, WhatIfError};
use serde::{Deserialize, Serialize};

/// Default page size used to convert byte sizes into page counts.
pub const PAGE_SIZE_BYTES: f64 = 8192.0;

/// One column of a table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Column {
    /// Column name (unique within its table).
    pub name: String,
    /// Average width in bytes.
    pub width_bytes: f64,
    /// Number of distinct values (used for equality selectivity `1/NDV`).
    pub distinct_values: f64,
}

impl Column {
    /// Creates a column description.
    pub fn new(name: impl Into<String>, width_bytes: f64, distinct_values: f64) -> Self {
        Self {
            name: name.into(),
            width_bytes,
            distinct_values: distinct_values.max(1.0),
        }
    }

    /// A 4-byte integer key column with the given distinct count.
    pub fn int_key(name: impl Into<String>, distinct_values: f64) -> Self {
        Self::new(name, 4.0, distinct_values)
    }

    /// A fixed-width string column.
    pub fn string(name: impl Into<String>, width_bytes: f64, distinct_values: f64) -> Self {
        Self::new(name, width_bytes, distinct_values)
    }
}

/// One table of the warehouse.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Table name (unique within the catalog).
    pub name: String,
    /// Number of rows.
    pub rows: f64,
    /// Columns, in declaration order.
    pub columns: Vec<Column>,
}

impl Table {
    /// Creates a table with the given rows and columns.
    pub fn new(name: impl Into<String>, rows: f64, columns: Vec<Column>) -> Self {
        Self {
            name: name.into(),
            rows: rows.max(1.0),
            columns,
        }
    }

    /// Total row width in bytes.
    pub fn row_width(&self) -> f64 {
        self.columns
            .iter()
            .map(|c| c.width_bytes)
            .sum::<f64>()
            .max(1.0)
    }

    /// Heap size in pages.
    pub fn pages(&self) -> f64 {
        (self.rows * self.row_width() / PAGE_SIZE_BYTES).max(1.0)
    }

    /// Looks up a column by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name == name)
    }
}

/// The schema + statistics of a warehouse.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Catalog {
    tables: Vec<Table>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a table, failing on duplicate names or duplicate column names.
    pub fn add_table(&mut self, table: Table) -> Result<()> {
        if self.table(&table.name).is_some() {
            return Err(WhatIfError::DuplicateTable(table.name));
        }
        for (i, c) in table.columns.iter().enumerate() {
            if table.columns[..i].iter().any(|other| other.name == c.name) {
                return Err(WhatIfError::DuplicateColumn {
                    table: table.name.clone(),
                    column: c.name.clone(),
                });
            }
        }
        self.tables.push(table);
        Ok(())
    }

    /// All tables.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// Looks up a table by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.iter().find(|t| t.name == name)
    }

    /// Looks up a table, returning an error when missing.
    pub fn require_table(&self, name: &str) -> Result<&Table> {
        self.table(name)
            .ok_or_else(|| WhatIfError::UnknownTable(name.to_string()))
    }

    /// Looks up a column, returning an error when the table or column is
    /// missing.
    pub fn require_column(&self, table: &str, column: &str) -> Result<&Column> {
        let t = self.require_table(table)?;
        t.column(column).ok_or_else(|| WhatIfError::UnknownColumn {
            table: table.to_string(),
            column: column.to_string(),
        })
    }

    /// Number of tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn customer() -> Table {
        Table::new(
            "CUSTOMER",
            1_000_000.0,
            vec![
                Column::int_key("CUSTID", 1_000_000.0),
                Column::string("NAME", 32.0, 900_000.0),
                Column::string("COUNTRY", 16.0, 200.0),
            ],
        )
    }

    #[test]
    fn table_statistics_derive_pages() {
        let t = customer();
        assert_eq!(t.row_width(), 52.0);
        let expected_pages = 1_000_000.0 * 52.0 / PAGE_SIZE_BYTES;
        assert!((t.pages() - expected_pages).abs() < 1e-6);
        assert!(t.column("COUNTRY").is_some());
        assert!(t.column("REGION").is_none());
    }

    #[test]
    fn catalog_rejects_duplicates() {
        let mut c = Catalog::new();
        c.add_table(customer()).unwrap();
        assert!(matches!(
            c.add_table(customer()),
            Err(WhatIfError::DuplicateTable(_))
        ));
        let dup_col = Table::new(
            "T",
            10.0,
            vec![Column::int_key("A", 10.0), Column::int_key("A", 10.0)],
        );
        assert!(matches!(
            c.add_table(dup_col),
            Err(WhatIfError::DuplicateColumn { .. })
        ));
    }

    #[test]
    fn lookups_work_and_fail_cleanly() {
        let mut c = Catalog::new();
        c.add_table(customer()).unwrap();
        assert!(c.require_table("CUSTOMER").is_ok());
        assert!(c.require_table("ORDERS").is_err());
        assert!(c.require_column("CUSTOMER", "COUNTRY").is_ok());
        assert!(c.require_column("CUSTOMER", "REGION").is_err());
        assert_eq!(c.num_tables(), 1);
    }

    #[test]
    fn distinct_values_clamped_to_one() {
        let col = Column::new("X", 4.0, 0.0);
        assert_eq!(col.distinct_values, 1.0);
        let t = Table::new("EMPTY", 0.0, vec![]);
        assert_eq!(t.rows, 1.0);
        assert_eq!(t.pages(), 1.0);
    }
}
