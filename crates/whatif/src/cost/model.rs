//! Operator-level cost formulas. The optimizer's plan cache
//! (`crate::optimizer`) combines them into access paths and plans.

use crate::catalog::{Catalog, Table};
use crate::cost::params::{
    BTREE_DESCENT_PAGES, CPU_INDEX_TUPLE_COST, CPU_OPERATOR_COST, CPU_TUPLE_COST, HASH_BUILD_COST,
    RANDOM_PAGE_COST, SEQ_PAGE_COST,
};
use crate::physical::CandidateIndex;

/// The cost model: turns catalog statistics into operator costs, priced
/// with the substrate's fixed cost constants.
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
    /// must be scanned).
    pub fn index_access_cost(
        &self,
        catalog: &Catalog,
        table: &Table,
        index: &CandidateIndex,
        sargable_selectivity: f64,
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
        index_io + index_cpu + heap + residual_cpu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Column, Table};
    use crate::optimizer::PlanCache;
    use crate::physical::PhysicalConfig;
    use crate::query::{ColumnRef, Predicate, QuerySpec};

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

    /// The plan cache's cheapest access to table `slot` of `q` (0 is the
    /// fact table, `1 + k` join `k`'s dimension) under `config`: its cost
    /// and the name of the index it uses.
    fn best_access(
        cat: &Catalog,
        q: &QuerySpec,
        slot: usize,
        config: &PhysicalConfig,
    ) -> (f64, Option<String>) {
        let cache = PlanCache::new(cat, std::slice::from_ref(q), config.indexes());
        let (cost, pair) = cache.access(0, slot, cache.pairs(0));
        let index = pair.map(|p| config.indexes()[cache.candidate_of(0, p)].name.clone());
        (cost, index)
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
        let (cost, index) = best_access(&cat, &q, 0, &config);
        assert!(index.is_some());
        let seq = model.seq_scan_cost(cat.table("PEOPLE").unwrap());
        assert!(cost < seq);
    }

    #[test]
    fn covering_index_beats_non_covering() {
        let cat = catalog();
        let q = salary_query();
        let narrow = {
            let mut c = PhysicalConfig::empty();
            c.add(CandidateIndex::new("PEOPLE", vec!["CITY".into()]));
            best_access(&cat, &q, 0, &c).0
        };
        let covering = {
            let mut c = PhysicalConfig::empty();
            c.add(
                CandidateIndex::new("PEOPLE", vec!["CITY".into()])
                    .with_includes(vec!["SALARY".into()]),
            );
            best_access(&cat, &q, 0, &c).0
        };
        assert!(covering < narrow, "covering {covering} vs narrow {narrow}");
    }

    #[test]
    fn irrelevant_index_is_ignored() {
        let cat = catalog();
        let q = salary_query();
        let mut config = PhysicalConfig::empty();
        config.add(CandidateIndex::new("PEOPLE", vec!["REPORTTO".into()]));
        let (_, index) = best_access(&cat, &q, 0, &config);
        assert!(index.is_none());
    }

    #[test]
    fn index_matches_query_checks_leading_column() {
        // Only the leading key column decides whether a (non-covering) index
        // serves the query's predicate: the same columns in the other order
        // cannot.
        let cat = catalog();
        let q = salary_query();
        let index_with = |keys: [&str; 2]| {
            let mut config = PhysicalConfig::empty();
            config.add(CandidateIndex::new(
                "PEOPLE",
                keys.map(String::from).to_vec(),
            ));
            best_access(&cat, &q, 0, &config).1
        };
        assert!(index_with(["CITY", "REPORTTO"]).is_some());
        assert!(index_with(["REPORTTO", "CITY"]).is_none());
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
        // A join to a table the catalog lacks: no index serves it (this one
        // would cover it) and its access costs nothing.
        let cat = catalog();
        let plain = salary_query();
        let q = salary_query().join(
            ColumnRef::new("PEOPLE", "REPORTTO"),
            ColumnRef::new("MISSING", "ID"),
        );
        let config =
            PhysicalConfig::with_indexes(vec![CandidateIndex::new("MISSING", vec!["ID".into()])]);
        let (cost, index) = best_access(&cat, &q, 1, &config);
        assert_eq!(cost, 0.0);
        assert!(index.is_none());
        // It emits no rows, so its hash join builds nothing and the plan
        // costs what it costs without the join.
        let plan_cost = |q: &QuerySpec| {
            let cache = PlanCache::new(&cat, std::slice::from_ref(q), config.indexes());
            cache.fold(0, cache.pairs(0)).0
        };
        assert_eq!(plan_cost(&q).to_bits(), plan_cost(&plain).to_bits());
    }
}
