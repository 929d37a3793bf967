//! End-to-end extraction: workload → [`idd_core::ProblemInstance`].
//!
//! This is the "Evaluate Hypothetical Indexes → Matrix File" stage of the
//! paper's Figure 3: run the advisor, evaluate atomic configurations for every
//! query with the what-if optimizer, compute index creation costs and build
//! interactions, and assemble everything into the core problem instance the
//! solvers consume.

use crate::advisor::{Advisor, AdvisorConfig};
use crate::build_cost::BuildCostModel;
use crate::error::Result;
use crate::optimizer::Optimizer;
use crate::query::Workload;
use crate::whatif::{WhatIfOptimizer, WhatIfOptions};
use idd_core::{IndexId, IndexMeta, ProblemInstance, QueryMeta};

/// Configuration of the extraction pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtractionConfig {
    /// Advisor configuration (how many indexes to suggest, which candidate
    /// shapes to enumerate).
    pub advisor: AdvisorConfig,
    /// What-if options (plan iterations per query, minimum speed-up).
    pub whatif: WhatIfOptions,
    /// Minimum relative build-interaction effect to record
    /// (`cspdup / ctime ≥ min_build_interaction_ratio`).
    pub min_build_interaction_ratio: f64,
}

/// Build interactions kept per target index: the strongest two. Real
/// instances have roughly one helper per index (the paper's TPC-H has 31
/// interactions for 31 indexes).
const MAX_HELPERS_PER_TARGET: usize = 2;

impl Default for ExtractionConfig {
    fn default() -> Self {
        Self {
            advisor: AdvisorConfig::default(),
            whatif: WhatIfOptions::default(),
            min_build_interaction_ratio: 0.05,
        }
    }
}

impl ExtractionConfig {
    /// Extraction bounded to a design of `max_indexes` indexes.
    pub fn with_budget(max_indexes: usize) -> Self {
        Self {
            advisor: AdvisorConfig::with_budget(max_indexes),
            ..Self::default()
        }
    }
}

/// Runs the full pipeline and produces a problem instance.
///
/// The instance's indexes are the advisor's suggestions (best first), its
/// queries are the workload queries with their unindexed baseline runtimes,
/// its plans are the extracted atomic configurations, and its build
/// interactions come from the build-cost model. It has no hard precedences:
/// the substrate models no clustered index or materialized view that a
/// secondary index would have to follow.
pub fn extract_instance(workload: &Workload, config: ExtractionConfig) -> Result<ProblemInstance> {
    let advisor = Advisor::new(config.advisor);
    let suggested = advisor.suggest(workload);
    let candidates: Vec<_> = suggested.iter().map(|s| s.index.clone()).collect();

    let whatif = WhatIfOptimizer::new(Optimizer::new(workload.catalog.clone()));
    let build_model = BuildCostModel;

    let mut builder = ProblemInstance::builder(workload.name.clone());

    // Indexes with their metadata and base creation costs.
    for (pos, cand) in candidates.iter().enumerate() {
        let creation_cost = build_model.base_creation_cost(&workload.catalog, cand);
        let meta = IndexMeta {
            id: IndexId::new(pos),
            name: cand.name.clone(),
            table: cand.table.clone(),
            key_columns: cand.key_columns.clone(),
            include_columns: cand.include_columns.clone(),
            clustered: false,
            size_pages: cand.size_pages(&workload.catalog),
            creation_cost,
        };
        builder.push_index(meta);
    }

    // Queries with their baseline runtimes, and their plans.
    for query in &workload.queries {
        let baseline = whatif.baseline_seconds(query);
        let mut meta = QueryMeta::named(idd_core::QueryId::new(0), query.name.clone(), baseline);
        meta.weight = query.weight;
        meta.text = query.text.clone();
        let qid = builder.push_query(meta);

        for cfg in whatif.atomic_configurations(query, &candidates, config.whatif) {
            let indexes: Vec<IndexId> = cfg
                .candidate_positions
                .iter()
                .map(|&p| IndexId::new(p))
                .collect();
            // Clamp defensively: the speed-up can never exceed the baseline.
            let speedup = cfg.speedup_seconds.min(baseline);
            builder.add_plan(qid, indexes, speedup);
        }
    }

    // Build interactions, keeping only the strongest few helpers per target.
    let mut interactions = build_model.all_interactions(
        &workload.catalog,
        &candidates,
        config.min_build_interaction_ratio,
    );
    interactions.sort_by(|a, b| {
        a.0.cmp(&b.0)
            .then(b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal))
    });
    let mut kept_per_target = vec![0usize; candidates.len()];
    for (target, helper, saving) in interactions {
        if kept_per_target[target] >= MAX_HELPERS_PER_TARGET {
            continue;
        }
        kept_per_target[target] += 1;
        builder.add_build_interaction(IndexId::new(target), IndexId::new(helper), saving);
    }

    Ok(builder.build()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, Column, Table};
    use crate::query::{Aggregate, ColumnRef, Predicate, QuerySpec};
    use idd_core::{Deployment, InstanceStats, ObjectiveEvaluator};

    fn workload() -> Workload {
        let mut c = Catalog::new();
        c.add_table(Table::new(
            "SALES",
            3_000_000.0,
            vec![
                Column::int_key("CUST_ID", 300_000.0),
                Column::int_key("ITEM_ID", 50_000.0),
                Column::int_key("DATE_ID", 2_000.0),
                Column::new("AMOUNT", 8.0, 100_000.0),
                Column::new("QUANTITY", 4.0, 100.0),
            ],
        ))
        .unwrap();
        c.add_table(Table::new(
            "CUSTOMER",
            300_000.0,
            vec![
                Column::int_key("CUSTID", 300_000.0),
                Column::string("COUNTRY", 16.0, 150.0),
                Column::string("SEGMENT", 16.0, 5.0),
            ],
        ))
        .unwrap();
        c.add_table(Table::new(
            "ITEM",
            50_000.0,
            vec![
                Column::int_key("ITEMID", 50_000.0),
                Column::string("CATEGORY", 16.0, 50.0),
                Column::string("BRAND", 16.0, 500.0),
            ],
        ))
        .unwrap();

        let q1 = QuerySpec::new("country_rollup", "SALES")
            .join(
                ColumnRef::new("SALES", "CUST_ID"),
                ColumnRef::new("CUSTOMER", "CUSTID"),
            )
            .filter(Predicate::equality(ColumnRef::new("CUSTOMER", "COUNTRY")))
            .group(ColumnRef::new("CUSTOMER", "COUNTRY"))
            .aggregate(Aggregate::sum(ColumnRef::new("SALES", "AMOUNT")));
        let q2 = QuerySpec::new("brand_report", "SALES")
            .join(
                ColumnRef::new("SALES", "ITEM_ID"),
                ColumnRef::new("ITEM", "ITEMID"),
            )
            .filter(Predicate::equality(ColumnRef::new("ITEM", "CATEGORY")))
            .group(ColumnRef::new("ITEM", "BRAND"))
            .aggregate(Aggregate::sum(ColumnRef::new("SALES", "QUANTITY")));
        let q3 = QuerySpec::new("segment_country", "SALES")
            .join(
                ColumnRef::new("SALES", "CUST_ID"),
                ColumnRef::new("CUSTOMER", "CUSTID"),
            )
            .join(
                ColumnRef::new("SALES", "ITEM_ID"),
                ColumnRef::new("ITEM", "ITEMID"),
            )
            .filter(Predicate::equality(ColumnRef::new("CUSTOMER", "SEGMENT")))
            .filter(Predicate::equality(ColumnRef::new("ITEM", "CATEGORY")))
            .group(ColumnRef::new("CUSTOMER", "SEGMENT"))
            .aggregate(Aggregate::sum(ColumnRef::new("SALES", "AMOUNT")));
        Workload::new("mini", c, vec![q1, q2, q3])
    }

    #[test]
    fn extraction_produces_a_valid_instance() {
        let inst = extract_instance(&workload(), ExtractionConfig::with_budget(12)).unwrap();
        assert_eq!(inst.num_queries(), 3);
        assert!(inst.num_indexes() > 0 && inst.num_indexes() <= 12);
        assert!(inst.num_plans() > 0);
        // Every deployment order can be evaluated.
        let eval = ObjectiveEvaluator::new(&inst);
        let v = eval.evaluate(&Deployment::identity(inst.num_indexes()));
        assert!(v.area > 0.0);
        assert!(v.final_runtime < v.baseline_runtime);
    }

    #[test]
    fn extraction_finds_interactions() {
        let inst = extract_instance(&workload(), ExtractionConfig::with_budget(16)).unwrap();
        let stats = InstanceStats::of(&inst);
        // Star joins guarantee multi-index plans; covering/narrow pairs on the
        // same table guarantee build interactions.
        assert!(
            stats.num_query_interactions > 0,
            "expected multi-index plans, stats: {stats:?}"
        );
        assert!(
            stats.num_build_interactions > 0,
            "expected build interactions, stats: {stats:?}"
        );
        assert!(stats.largest_plan >= 2);
    }

    #[test]
    fn plan_speedups_never_exceed_baselines() {
        let inst = extract_instance(&workload(), ExtractionConfig::with_budget(16)).unwrap();
        for q in inst.query_ids() {
            let baseline = inst.query(q).original_runtime;
            for &p in inst.plans_of_query(q) {
                assert!(inst.plan(p).speedup <= baseline + 1e-9);
            }
        }
    }

    #[test]
    fn smaller_budget_means_fewer_indexes() {
        let small = extract_instance(&workload(), ExtractionConfig::with_budget(4)).unwrap();
        let large = extract_instance(&workload(), ExtractionConfig::with_budget(20)).unwrap();
        assert!(small.num_indexes() <= 4);
        assert!(large.num_indexes() >= small.num_indexes());
    }
}
