//! The query optimizer: picks the cheapest plan under a physical
//! configuration and reports which indexes that plan uses.
//!
//! Plans are costed at the granularity the ordering problem needs:
//!
//! * each joined dimension chooses a sequential scan or an index access path;
//! * the fact table chooses among a sequential scan, a predicate-driven index
//!   scan, or an index-nested-loop join driven by one joined dimension through
//!   a fact foreign-key index (the star-join pattern that creates the paper's
//!   multi-index *query interactions*);
//! * the remaining joins are hash joins; group-by adds a sort of the result.
//!
//! The set of indexes used by the winning alternative is the *atomic
//! configuration* the what-if driver records.

use crate::catalog::Catalog;
use crate::cost::model::CostModel;
use crate::cost::params::{
    to_seconds, BTREE_DESCENT_PAGES, CPU_INDEX_TUPLE_COST, RANDOM_PAGE_COST, SEQ_PAGE_COST,
};
use crate::cost::selectivity::{selectivity_of_columns, table_selectivity};
use crate::physical::PhysicalConfig;
use crate::query::QuerySpec;

/// The optimizer's answer for one query under one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanChoice {
    /// Estimated plan cost in cost units.
    pub cost: f64,
    /// Names of the configuration indexes the plan uses (deduplicated,
    /// sorted for determinism).
    pub used_indexes: Vec<String>,
    /// Short human-readable description of the plan shape.
    pub description: String,
}

impl PlanChoice {
    fn normalize(mut self) -> Self {
        self.used_indexes.sort();
        self.used_indexes.dedup();
        self
    }
}

/// Cost-based query optimizer over a [`Catalog`], pricing with the
/// [`CostModel`].
#[derive(Debug, Clone)]
pub struct Optimizer {
    catalog: Catalog,
}

impl Optimizer {
    /// Creates an optimizer that plans against `catalog`.
    pub fn new(catalog: Catalog) -> Self {
        Self { catalog }
    }

    /// Estimated cost (in seconds) of a query under a configuration.
    pub fn cost_seconds(&self, query: &QuerySpec, config: &PhysicalConfig) -> f64 {
        to_seconds(self.optimize(query, config).cost)
    }

    /// Finds the cheapest plan for `query` under `config`.
    pub fn optimize(&self, query: &QuerySpec, config: &PhysicalConfig) -> PlanChoice {
        let cat = &self.catalog;
        let model = CostModel;

        let fact_table = match cat.table(&query.fact_table) {
            Some(t) => t,
            None => {
                return PlanChoice {
                    cost: 0.0,
                    used_indexes: Vec::new(),
                    description: "unknown fact table".into(),
                }
            }
        };
        let fact_sel = table_selectivity(cat, query, &query.fact_table);

        // Access paths for each joined dimension (chosen once; reused by every
        // fact alternative).
        struct DimAccess {
            table: String,
            fact_column: String,
            cost: f64,
            index: Option<String>,
            output_rows: f64,
            selectivity: f64,
        }
        let mut dims: Vec<DimAccess> = Vec::new();
        for join in &query.joins {
            let dtable = join.dimension_table().to_string();
            let path = model.best_access_path(cat, query, &dtable, config);
            let selectivity = table_selectivity(cat, query, &dtable);
            dims.push(DimAccess {
                table: dtable,
                fact_column: join.fact_column.column.clone(),
                cost: path.cost,
                index: path.index,
                output_rows: path.output_rows,
                selectivity,
            });
        }
        let dim_total_access: f64 = dims.iter().map(|d| d.cost).sum();
        let dim_sel_product: f64 = dims.iter().map(|d| d.selectivity).product();
        let final_rows = (fact_table.rows * fact_sel * dim_sel_product).max(1.0);
        let result_width = 32.0;
        let group_cost = if query.group_by.is_empty() {
            0.0
        } else {
            model.sort_cost(final_rows, result_width)
        };

        let mut alternatives: Vec<PlanChoice> = Vec::new();

        // Alternative 1: fact accessed by scan or a predicate-driven fact
        // index; every join is a hash join.
        {
            let fact_path = model.best_access_path(cat, query, &query.fact_table, config);
            let mut used: Vec<String> = fact_path.index.iter().cloned().collect();
            used.extend(dims.iter().filter_map(|d| d.index.clone()));
            let hash_cost: f64 = dims
                .iter()
                .map(|d| model.hash_build_cost(d.output_rows))
                .sum::<f64>()
                + model.hash_probe_cost(fact_path.output_rows) * dims.len().max(1) as f64;
            let cost = fact_path.cost + dim_total_access + hash_cost + group_cost;
            let description = match &fact_path.index {
                Some(ix) => format!("fact index scan ({ix}) + hash joins"),
                None => "fact seq scan + hash joins".to_string(),
            };
            alternatives.push(PlanChoice {
                cost,
                used_indexes: used,
                description,
            });
        }

        // Alternative 2: index-nested-loop join driven by one dimension
        // through a fact index whose leading key is that join's foreign key.
        for (d_pos, dim) in dims.iter().enumerate() {
            for fact_ix in config.indexes_on(&query.fact_table) {
                if fact_ix.leading_column() != Some(dim.fact_column.as_str()) {
                    continue;
                }
                // Rows of the fact table reached through the driving dimension.
                let reached = (fact_table.rows * dim.selectivity).max(1.0);
                // Extra sargable columns of the fact index filter further.
                let extra_sel =
                    selectivity_of_columns(cat, query, &query.fact_table, &fact_ix.key_columns);
                let fetched = (reached * extra_sel).max(1.0);
                let needed = query.referenced_columns(&query.fact_table);
                let covering = fact_ix.covers(&needed);

                let descents = dim.output_rows * BTREE_DESCENT_PAGES * RANDOM_PAGE_COST;
                let leaf = fetched * CPU_INDEX_TUPLE_COST
                    + fact_ix.size_pages(cat) * dim.selectivity * SEQ_PAGE_COST;
                let heap = if covering {
                    0.0
                } else {
                    (fetched * RANDOM_PAGE_COST).min(fact_table.pages() * SEQ_PAGE_COST)
                };

                // Remaining dimensions joined by hash on the reduced stream.
                let others_hash: f64 = dims
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != d_pos)
                    .map(|(_, d)| model.hash_build_cost(d.output_rows))
                    .sum::<f64>()
                    + model.hash_probe_cost(fetched * fact_sel)
                        * dims.len().saturating_sub(1).max(1) as f64;

                let cost = dim_total_access + descents + leaf + heap + others_hash + group_cost;
                let mut used: Vec<String> = vec![fact_ix.name.clone()];
                used.extend(dims.iter().filter_map(|d| d.index.clone()));
                alternatives.push(PlanChoice {
                    cost,
                    used_indexes: used,
                    description: format!(
                        "index nested loop via {} driven by {}",
                        fact_ix.name, dim.table
                    ),
                });
            }
        }

        alternatives
            .into_iter()
            .min_by(|a, b| {
                a.cost
                    .partial_cmp(&b.cost)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(PlanChoice::normalize)
            .unwrap_or(PlanChoice {
                cost: 0.0,
                used_indexes: Vec::new(),
                description: "empty".into(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Column, Table};
    use crate::cost::params::COST_TO_SECONDS;
    use crate::physical::CandidateIndex;
    use crate::query::{Aggregate, ColumnRef, Predicate};

    /// A small star schema: SALES fact, CUSTOMER and DATE_DIM dimensions.
    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(Table::new(
            "SALES",
            5_000_000.0,
            vec![
                Column::int_key("SALE_ID", 5_000_000.0),
                Column::int_key("CUST_ID", 500_000.0),
                Column::int_key("DATE_ID", 2_000.0),
                Column::new("AMOUNT", 8.0, 100_000.0),
            ],
        ))
        .unwrap();
        c.add_table(Table::new(
            "CUSTOMER",
            500_000.0,
            vec![
                Column::int_key("CUSTID", 500_000.0),
                Column::string("COUNTRY", 16.0, 200.0),
                Column::string("NAME", 32.0, 450_000.0),
            ],
        ))
        .unwrap();
        c.add_table(Table::new(
            "DATE_DIM",
            2_000.0,
            vec![
                Column::int_key("DATEID", 2_000.0),
                Column::int_key("YEAR", 6.0),
                Column::int_key("MONTH", 12.0),
            ],
        ))
        .unwrap();
        c
    }

    fn star_query() -> QuerySpec {
        QuerySpec::new("star", "SALES")
            .join(
                ColumnRef::new("SALES", "CUST_ID"),
                ColumnRef::new("CUSTOMER", "CUSTID"),
            )
            .join(
                ColumnRef::new("SALES", "DATE_ID"),
                ColumnRef::new("DATE_DIM", "DATEID"),
            )
            .filter(Predicate::equality(ColumnRef::new("CUSTOMER", "COUNTRY")))
            .filter(Predicate::equality(ColumnRef::new("DATE_DIM", "YEAR")))
            .group(ColumnRef::new("CUSTOMER", "COUNTRY"))
            .aggregate(Aggregate::sum(ColumnRef::new("SALES", "AMOUNT")))
    }

    #[test]
    fn empty_config_costs_more_than_indexed_config() {
        let opt = Optimizer::new(catalog());
        let q = star_query();
        let empty = opt.optimize(&q, &PhysicalConfig::empty());
        assert!(empty.used_indexes.is_empty());

        let mut cfg = PhysicalConfig::empty();
        cfg.add(CandidateIndex::new("CUSTOMER", vec!["COUNTRY".into()]));
        cfg.add(CandidateIndex::new("SALES", vec!["CUST_ID".into()]));
        let indexed = opt.optimize(&q, &cfg);
        assert!(indexed.cost < empty.cost);
        assert!(!indexed.used_indexes.is_empty());
    }

    #[test]
    fn star_join_uses_multiple_indexes_together() {
        let opt = Optimizer::new(catalog());
        let q = star_query();
        let mut cfg = PhysicalConfig::empty();
        cfg.add(CandidateIndex::new("CUSTOMER", vec!["COUNTRY".into()]));
        cfg.add(CandidateIndex::new("DATE_DIM", vec!["YEAR".into()]));
        cfg.add(
            CandidateIndex::new("SALES", vec!["CUST_ID".into()])
                .with_includes(vec!["DATE_ID".into(), "AMOUNT".into()]),
        );
        let plan = opt.optimize(&q, &cfg);
        // The winning plan should combine at least two indexes — the paper's
        // "query interaction".
        assert!(
            plan.used_indexes.len() >= 2,
            "expected a multi-index plan, got {:?}",
            plan.used_indexes
        );
    }

    #[test]
    fn plan_cost_is_monotone_in_configuration() {
        // Adding indexes can only help (the optimizer can ignore them).
        let opt = Optimizer::new(catalog());
        let q = star_query();
        let mut cfg = PhysicalConfig::empty();
        let mut last = opt.optimize(&q, &cfg).cost;
        for ix in [
            CandidateIndex::new("CUSTOMER", vec!["COUNTRY".into()]),
            CandidateIndex::new("DATE_DIM", vec!["YEAR".into()]),
            CandidateIndex::new("SALES", vec!["CUST_ID".into()]),
        ] {
            cfg.add(ix);
            let cost = opt.optimize(&q, &cfg).cost;
            assert!(cost <= last + 1e-9, "cost increased: {cost} > {last}");
            last = cost;
        }
    }

    #[test]
    fn cost_seconds_uses_params_scale() {
        let opt = Optimizer::new(catalog());
        let q = star_query();
        let plan = opt.optimize(&q, &PhysicalConfig::empty());
        let secs = opt.cost_seconds(&q, &PhysicalConfig::empty());
        assert_eq!(secs.to_bits(), (plan.cost / COST_TO_SECONDS).to_bits());
    }

    #[test]
    fn used_indexes_are_sorted_and_unique() {
        let opt = Optimizer::new(catalog());
        let q = star_query();
        let mut cfg = PhysicalConfig::empty();
        cfg.add(CandidateIndex::new("CUSTOMER", vec!["COUNTRY".into()]));
        cfg.add(CandidateIndex::new("DATE_DIM", vec!["YEAR".into()]));
        cfg.add(CandidateIndex::new("SALES", vec!["CUST_ID".into()]));
        let plan = opt.optimize(&q, &cfg);
        let mut sorted = plan.used_indexes.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(plan.used_indexes, sorted);
    }

    #[test]
    fn query_without_joins_is_planned() {
        let opt = Optimizer::new(catalog());
        let q = QuerySpec::new("simple", "CUSTOMER")
            .filter(Predicate::equality(ColumnRef::new("CUSTOMER", "COUNTRY")))
            .aggregate(Aggregate::avg(ColumnRef::new("CUSTOMER", "CUSTID")));
        let empty_cost = opt.optimize(&q, &PhysicalConfig::empty()).cost;
        let mut cfg = PhysicalConfig::empty();
        cfg.add(CandidateIndex::new("CUSTOMER", vec!["COUNTRY".into()]));
        let plan = opt.optimize(&q, &cfg);
        assert!(plan.cost < empty_cost);
        assert_eq!(plan.used_indexes.len(), 1);
    }
}
