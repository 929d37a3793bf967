//! Operator-level cost formulas and per-table access-path selection.

use crate::catalog::{Catalog, Table};
use crate::cost::params::{
    BTREE_DESCENT_PAGES, CPU_INDEX_TUPLE_COST, CPU_OPERATOR_COST, CPU_TUPLE_COST, HASH_BUILD_COST,
    RANDOM_PAGE_COST, SEQ_PAGE_COST,
};
use crate::cost::selectivity::{selectivity_of_columns, table_selectivity};
use crate::physical::{CandidateIndex, PhysicalConfig};
use crate::query::QuerySpec;

/// The chosen access path for one table inside one plan.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessPath {
    /// Cost of producing the table's filtered rows.
    pub cost: f64,
    /// Name of the index used, or `None` for a sequential scan.
    pub index: Option<String>,
    /// Estimated number of rows the access path emits (after this table's
    /// predicates).
    pub output_rows: f64,
}

/// The cost model: turns catalog statistics and configurations into costs,
/// priced with the substrate's fixed cost constants.
#[derive(Debug, Clone, Copy)]
pub struct CostModel;

impl CostModel {
    /// Cost of a full sequential scan of a table.
    pub fn seq_scan_cost(&self, table: &Table) -> f64 {
        table.pages() * SEQ_PAGE_COST + table.rows * CPU_TUPLE_COST
    }

    /// Cost of sorting `rows` tuples of `width` bytes (`n log n` CPU plus a
    /// spill charge when the run exceeds memory-ish sizes — simplified to a
    /// linear page write term).
    pub fn sort_cost(&self, rows: f64, width_bytes: f64) -> f64 {
        if rows <= 1.0 {
            return 0.0;
        }
        let comparisons = rows * rows.log2().max(1.0);
        let pages = (rows * width_bytes / crate::catalog::PAGE_SIZE_BYTES).max(1.0);
        comparisons * CPU_OPERATOR_COST + pages * SEQ_PAGE_COST
    }

    /// Cost of building a hash table over `rows` tuples.
    pub fn hash_build_cost(&self, rows: f64) -> f64 {
        rows * (CPU_TUPLE_COST + HASH_BUILD_COST)
    }

    /// Cost of probing a hash table with `rows` tuples.
    pub fn hash_probe_cost(&self, rows: f64) -> f64 {
        rows * CPU_OPERATOR_COST
    }

    /// Cost of accessing `table` through `index` for a query, given whether
    /// the index covers every column the query needs from this table.
    ///
    /// `sargable_selectivity` is the combined selectivity of the query
    /// predicates on the index's key columns (the fraction of the index that
    /// must be scanned); `residual_selectivity` is the combined selectivity of
    /// *all* predicates on the table (what survives into the output).
    pub fn index_access_cost(
        &self,
        catalog: &Catalog,
        table: &Table,
        index: &CandidateIndex,
        sargable_selectivity: f64,
        residual_selectivity: f64,
        covering: bool,
    ) -> f64 {
        let matched = table.rows * sargable_selectivity;
        let descent = BTREE_DESCENT_PAGES * RANDOM_PAGE_COST;
        let leaf_pages = index.size_pages(catalog) * sargable_selectivity;
        let index_io = descent + leaf_pages * SEQ_PAGE_COST;
        let index_cpu = matched * CPU_INDEX_TUPLE_COST;
        let heap = if covering {
            0.0
        } else {
            // Random fetches for matched rows, capped by a full scan.
            (matched * RANDOM_PAGE_COST).min(table.pages() * SEQ_PAGE_COST)
        };
        let residual_cpu = matched * CPU_OPERATOR_COST;
        let _ = residual_selectivity;
        index_io + index_cpu + heap + residual_cpu
    }

    /// Chooses the cheapest way to produce the filtered rows of one table for
    /// a query under `config`: a sequential scan or any *usable* index.
    ///
    /// An index is usable when its leading key column carries one of the
    /// query's predicates on that table. Join-driven index lookups on the
    /// fact table are handled separately by the optimizer because their cost
    /// depends on the joined dimension.
    pub fn best_access_path(
        &self,
        catalog: &Catalog,
        query: &QuerySpec,
        table_name: &str,
        config: &PhysicalConfig,
    ) -> AccessPath {
        let table = match catalog.table(table_name) {
            Some(t) => t,
            None => {
                return AccessPath {
                    cost: 0.0,
                    index: None,
                    output_rows: 0.0,
                }
            }
        };
        let residual = table_selectivity(catalog, query, table_name);
        let output_rows = (table.rows * residual).max(1.0);
        let needed = query.referenced_columns(table_name);

        let mut best = AccessPath {
            cost: self.seq_scan_cost(table),
            index: None,
            output_rows,
        };

        for ix in config.indexes_on(table_name) {
            let leading_has_predicate = ix
                .leading_column()
                .map(|lead| {
                    query
                        .predicates_on(table_name)
                        .iter()
                        .any(|p| p.column.column == lead)
                })
                .unwrap_or(false);
            let covering = ix.covers(&needed);
            // A covering index with no sargable predicate can still replace a
            // heap scan by an index-only scan (narrower pages).
            if !leading_has_predicate && !covering {
                continue;
            }
            let sargable = if leading_has_predicate {
                selectivity_of_columns(catalog, query, table_name, &ix.key_columns)
            } else {
                1.0
            };
            let cost = self.index_access_cost(catalog, table, ix, sargable, residual, covering);
            if cost < best.cost {
                best = AccessPath {
                    cost,
                    index: Some(ix.name.clone()),
                    output_rows,
                };
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Column, Table};
    use crate::query::{ColumnRef, Predicate};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(Table::new(
            "PEOPLE",
            1_000_000.0,
            vec![
                Column::int_key("EMPID", 1_000_000.0),
                Column::string("CITY", 16.0, 1_000.0),
                Column::new("SALARY", 8.0, 10_000.0),
                Column::int_key("REPORTTO", 100_000.0),
            ],
        ))
        .unwrap();
        c
    }

    fn salary_query() -> QuerySpec {
        QuerySpec::new("q", "PEOPLE")
            .filter(Predicate::equality(ColumnRef::new("PEOPLE", "CITY")))
            .aggregate(crate::query::Aggregate::avg(ColumnRef::new(
                "PEOPLE", "SALARY",
            )))
    }

    #[test]
    fn seq_scan_scales_with_pages_and_rows() {
        let cat = catalog();
        let model = CostModel;
        let t = cat.table("PEOPLE").unwrap();
        let cost = model.seq_scan_cost(t);
        assert!(cost > t.pages());
        assert!(cost > t.rows * CPU_TUPLE_COST);
    }

    #[test]
    fn selective_index_beats_seq_scan() {
        let cat = catalog();
        let model = CostModel;
        let q = salary_query();
        let mut config = PhysicalConfig::empty();
        config.add(CandidateIndex::new("PEOPLE", vec!["CITY".into()]));
        let path = model.best_access_path(&cat, &q, "PEOPLE", &config);
        assert!(path.index.is_some());
        let seq = model.seq_scan_cost(cat.table("PEOPLE").unwrap());
        assert!(path.cost < seq);
    }

    #[test]
    fn covering_index_beats_non_covering() {
        let cat = catalog();
        let model = CostModel;
        let q = salary_query();
        let narrow = {
            let mut c = PhysicalConfig::empty();
            c.add(CandidateIndex::new("PEOPLE", vec!["CITY".into()]));
            model.best_access_path(&cat, &q, "PEOPLE", &c).cost
        };
        let covering = {
            let mut c = PhysicalConfig::empty();
            c.add(
                CandidateIndex::new("PEOPLE", vec!["CITY".into()])
                    .with_includes(vec!["SALARY".into()]),
            );
            model.best_access_path(&cat, &q, "PEOPLE", &c).cost
        };
        assert!(covering < narrow, "covering {covering} vs narrow {narrow}");
    }

    #[test]
    fn irrelevant_index_is_ignored() {
        let cat = catalog();
        let model = CostModel;
        let q = salary_query();
        let mut config = PhysicalConfig::empty();
        config.add(CandidateIndex::new("PEOPLE", vec!["REPORTTO".into()]));
        let path = model.best_access_path(&cat, &q, "PEOPLE", &config);
        assert!(path.index.is_none());
    }

    #[test]
    fn index_matches_query_checks_leading_column() {
        // Only the leading key column decides whether a (non-covering) index
        // serves the query's predicate: the same columns in the other order
        // cannot.
        let cat = catalog();
        let model = CostModel;
        let q = salary_query();
        let path_with = |keys: [&str; 2]| {
            let mut config = PhysicalConfig::empty();
            config.add(CandidateIndex::new(
                "PEOPLE",
                keys.map(String::from).to_vec(),
            ));
            model.best_access_path(&cat, &q, "PEOPLE", &config)
        };
        assert!(path_with(["CITY", "REPORTTO"]).index.is_some());
        assert!(path_with(["REPORTTO", "CITY"]).index.is_none());
    }

    #[test]
    fn sort_cost_grows_superlinearly() {
        let model = CostModel;
        let small = model.sort_cost(1_000.0, 16.0);
        let big = model.sort_cost(100_000.0, 16.0);
        assert!(big > 100.0 * small * 0.9);
        assert_eq!(model.sort_cost(1.0, 16.0), 0.0);
    }

    #[test]
    fn unknown_table_access_is_free_and_empty() {
        let cat = catalog();
        let model = CostModel;
        let q = salary_query();
        let path = model.best_access_path(&cat, &q, "MISSING", &PhysicalConfig::empty());
        assert_eq!(path.cost, 0.0);
        assert_eq!(path.output_rows, 0.0);
    }
}
