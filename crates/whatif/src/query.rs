//! Analytic query descriptions.
//!
//! Queries are modelled at the level a cost-based optimizer cares about:
//! which fact table is scanned, which dimensions are joined on which foreign
//! keys, which filter predicates apply (and how selective they are), and which
//! columns feed group-by / aggregation. That is enough to decide access paths,
//! join strategies and thus which *indexes* a plan would use — SQL text is
//! kept only for documentation.

use serde::{Deserialize, Serialize};

/// A reference to `table.column`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ColumnRef {
    /// Table name.
    pub table: String,
    /// Column name.
    pub column: String,
}

impl ColumnRef {
    /// Creates a column reference.
    pub fn new(table: impl Into<String>, column: impl Into<String>) -> Self {
        Self {
            table: table.into(),
            column: column.into(),
        }
    }
}

impl std::fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.table, self.column)
    }
}

/// Kind of filter predicate; only the selectivity model differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PredicateKind {
    /// Equality against a constant (`col = ?`): selectivity `1 / NDV`.
    Equality,
    /// Range (`col BETWEEN ? AND ?`): selectivity given explicitly.
    Range,
    /// IN-list of `k` constants: selectivity `k / NDV`.
    InList,
}

/// A filter predicate on one column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Predicate {
    /// The filtered column.
    pub column: ColumnRef,
    /// Predicate kind.
    pub kind: PredicateKind,
    /// For [`PredicateKind::Range`], the fraction of rows selected; for
    /// [`PredicateKind::InList`], the number of constants; ignored for
    /// equality.
    pub parameter: f64,
}

impl Predicate {
    /// Equality predicate `column = ?`.
    pub fn equality(column: ColumnRef) -> Self {
        Self {
            column,
            kind: PredicateKind::Equality,
            parameter: 0.0,
        }
    }

    /// Range predicate selecting `fraction` of the rows.
    pub fn range(column: ColumnRef, fraction: f64) -> Self {
        Self {
            column,
            kind: PredicateKind::Range,
            parameter: fraction.clamp(0.0, 1.0),
        }
    }

    /// IN-list predicate with `k` constants.
    pub fn in_list(column: ColumnRef, k: usize) -> Self {
        Self {
            column,
            kind: PredicateKind::InList,
            parameter: k as f64,
        }
    }
}

/// A join between a fact-side foreign key and a dimension primary key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JoinEdge {
    /// Foreign-key column on the fact (or bridging) table.
    pub fact_column: ColumnRef,
    /// Primary-key column on the dimension table.
    pub dimension_column: ColumnRef,
}

impl JoinEdge {
    /// Creates a join edge.
    pub fn new(fact_column: ColumnRef, dimension_column: ColumnRef) -> Self {
        Self {
            fact_column,
            dimension_column,
        }
    }

    /// The dimension table name.
    pub fn dimension_table(&self) -> &str {
        &self.dimension_column.table
    }
}

/// An aggregate expression (only the input column matters for costing).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Aggregate {
    /// Aggregated column.
    pub column: ColumnRef,
    /// Function name (informational): SUM, AVG, COUNT, ...
    pub function: String,
}

impl Aggregate {
    /// `SUM(column)`.
    pub fn sum(column: ColumnRef) -> Self {
        Self {
            column,
            function: "SUM".into(),
        }
    }

    /// `AVG(column)`.
    pub fn avg(column: ColumnRef) -> Self {
        Self {
            column,
            function: "AVG".into(),
        }
    }
}

/// One analytic query of the workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuerySpec {
    /// Query name, e.g. `"Q7"`.
    pub name: String,
    /// Optional SQL-ish text, informational only.
    pub text: String,
    /// Relative frequency / weight of the query in the workload.
    pub weight: f64,
    /// The driving (fact) table.
    pub fact_table: String,
    /// Joins from the fact table to dimensions.
    pub joins: Vec<JoinEdge>,
    /// Filter predicates (on the fact table or on dimensions).
    pub predicates: Vec<Predicate>,
    /// Group-by columns.
    pub group_by: Vec<ColumnRef>,
    /// Aggregates.
    pub aggregates: Vec<Aggregate>,
}

impl QuerySpec {
    /// Creates an empty query over a fact table.
    pub fn new(name: impl Into<String>, fact_table: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            text: String::new(),
            weight: 1.0,
            fact_table: fact_table.into(),
            joins: Vec::new(),
            predicates: Vec::new(),
            group_by: Vec::new(),
            aggregates: Vec::new(),
        }
    }

    /// Adds a dimension join (builder style).
    pub fn join(mut self, fact_column: ColumnRef, dimension_column: ColumnRef) -> Self {
        self.joins
            .push(JoinEdge::new(fact_column, dimension_column));
        self
    }

    /// Adds a predicate (builder style).
    pub fn filter(mut self, predicate: Predicate) -> Self {
        self.predicates.push(predicate);
        self
    }

    /// Adds a group-by column (builder style).
    pub fn group(mut self, column: ColumnRef) -> Self {
        self.group_by.push(column);
        self
    }

    /// Adds an aggregate (builder style).
    pub fn aggregate(mut self, agg: Aggregate) -> Self {
        self.aggregates.push(agg);
        self
    }

    /// All tables the query touches: the fact table plus joined dimensions.
    pub fn tables(&self) -> Vec<&str> {
        let mut tables = vec![self.fact_table.as_str()];
        for j in &self.joins {
            let d = j.dimension_table();
            if !tables.contains(&d) {
                tables.push(d);
            }
        }
        tables
    }

    /// Predicates applying to one table.
    pub fn predicates_on(&self, table: &str) -> Vec<&Predicate> {
        self.predicates
            .iter()
            .filter(|p| p.column.table == table)
            .collect()
    }

    /// Columns of `table` referenced anywhere in the query (predicates,
    /// joins, group-by, aggregates) — the columns a covering index on that
    /// table would need.
    pub fn referenced_columns(&self, table: &str) -> Vec<String> {
        let mut cols: Vec<String> = Vec::new();
        let mut push = |c: &ColumnRef| {
            if c.table == table && !cols.contains(&c.column) {
                cols.push(c.column.clone());
            }
        };
        for p in &self.predicates {
            push(&p.column);
        }
        for j in &self.joins {
            push(&j.fact_column);
            push(&j.dimension_column);
        }
        for g in &self.group_by {
            push(g);
        }
        for a in &self.aggregates {
            push(&a.column);
        }
        cols
    }
}

/// A workload: a catalog plus a set of queries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Workload name (e.g. `"tpch"`).
    pub name: String,
    /// The schema and statistics.
    pub catalog: crate::catalog::Catalog,
    /// The queries.
    pub queries: Vec<QuerySpec>,
}

impl Workload {
    /// Creates a workload.
    pub fn new(
        name: impl Into<String>,
        catalog: crate::catalog::Catalog,
        queries: Vec<QuerySpec>,
    ) -> Self {
        Self {
            name: name.into(),
            catalog,
            queries,
        }
    }

    /// Number of queries.
    pub fn num_queries(&self) -> usize {
        self.queries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_query() -> QuerySpec {
        QuerySpec::new("Q1", "SALES")
            .join(
                ColumnRef::new("SALES", "CUST_ID"),
                ColumnRef::new("CUSTOMER", "CUSTID"),
            )
            .filter(Predicate::equality(ColumnRef::new("CUSTOMER", "COUNTRY")))
            .filter(Predicate::range(ColumnRef::new("SALES", "DATE"), 0.1))
            .group(ColumnRef::new("CUSTOMER", "COUNTRY"))
            .aggregate(Aggregate::sum(ColumnRef::new("SALES", "AMOUNT")))
    }

    #[test]
    fn tables_lists_fact_then_dimensions_once() {
        let q = sample_query().join(
            ColumnRef::new("SALES", "CUST_ID"),
            ColumnRef::new("CUSTOMER", "CUSTID"),
        );
        assert_eq!(q.tables(), vec!["SALES", "CUSTOMER"]);
    }

    #[test]
    fn predicates_on_filters_by_table() {
        let q = sample_query();
        assert_eq!(q.predicates_on("CUSTOMER").len(), 1);
        assert_eq!(q.predicates_on("SALES").len(), 1);
        assert_eq!(q.predicates_on("ITEM").len(), 0);
    }

    #[test]
    fn referenced_columns_cover_all_clauses() {
        let q = sample_query();
        let sales_cols = q.referenced_columns("SALES");
        assert!(sales_cols.contains(&"CUST_ID".to_string()));
        assert!(sales_cols.contains(&"DATE".to_string()));
        assert!(sales_cols.contains(&"AMOUNT".to_string()));
        let cust_cols = q.referenced_columns("CUSTOMER");
        assert!(cust_cols.contains(&"COUNTRY".to_string()));
        assert!(cust_cols.contains(&"CUSTID".to_string()));
    }

    #[test]
    fn predicate_constructors_clamp_and_record() {
        let p = Predicate::range(ColumnRef::new("T", "C"), 2.0);
        assert_eq!(p.parameter, 1.0);
        let p = Predicate::in_list(ColumnRef::new("T", "C"), 3);
        assert_eq!(p.kind, PredicateKind::InList);
        assert_eq!(p.parameter, 3.0);
    }

    #[test]
    fn display_of_column_ref() {
        assert_eq!(ColumnRef::new("A", "B").to_string(), "A.B");
    }

    #[test]
    fn workload_counts_queries() {
        let w = Workload::new("w", crate::catalog::Catalog::new(), vec![sample_query()]);
        assert_eq!(w.num_queries(), 1);
    }
}
