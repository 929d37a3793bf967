//! The what-if substrate's plan cache against the optimizer it replaced.
//!
//! `Optimizer::optimize`, `Advisor::suggest` and
//! `WhatIfOptimizer::atomic_configurations` all price on one plan cache:
//! the terms of each query's plans that no configuration changes, computed
//! once over a candidate list and folded per configuration. The
//! [`reference`] module restates the planner, the lazy greedy and the
//! remove-and-reoptimize loop as they were before the cache, on public APIs
//! only: `CostModel`'s operator costs, `cost::selectivity` and
//! `CandidateIndex`'s helpers, with the cost constants it needs copied. It
//! re-plans a query from the configuration on every call, so it shares no
//! fold code with the cache.
//!
//! On every TPC-H and TPC-DS query, under the empty configuration, every
//! singleton of the enumerated candidates, the whole list and seeded random
//! subsets of it in random order, the cached plan must carry the
//! reference's cost bits, index names and description. The advisor's
//! design and every query's atomic configurations must equal the
//! reference's on both workloads, and a hand-built tie must go to the index
//! that comes first in configuration order.

use idd::whatif::catalog::{Catalog, Column, Table};
use idd::whatif::query::{Aggregate, ColumnRef, Predicate, QuerySpec, Workload};
use idd::whatif::{
    Advisor, CandidateIndex, ExtractionConfig, Optimizer, PhysicalConfig, PlanChoice,
    WhatIfOptimizer,
};
use idd::workloads::{tpcds, tpch};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// The planner, the advisor's lazy greedy and the remove-and-reoptimize
/// loop as they were before the plan cache.
mod reference {
    use idd::whatif::cost::selectivity::{selectivity_of_columns, table_selectivity};
    use idd::whatif::cost::CostModel;
    use idd::whatif::query::{QuerySpec, Workload};
    use idd::whatif::{
        Advisor, AdvisorConfig, AtomicConfiguration, CandidateIndex, Catalog, PlanChoice,
        WhatIfOptions,
    };
    use std::collections::{BinaryHeap, HashMap, HashSet};

    // The cost model's constants, copied (they are private to idd-whatif).
    const SEQ_PAGE_COST: f64 = 1.0;
    const RANDOM_PAGE_COST: f64 = 4.0;
    const CPU_INDEX_TUPLE_COST: f64 = 0.005;
    const BTREE_DESCENT_PAGES: f64 = 3.0;
    const COST_TO_SECONDS: f64 = 1000.0;
    /// The advisor's minimum benefit for a candidate to be considered.
    const MIN_TOTAL_BENEFIT: f64 = 1e-6;

    struct AccessPath {
        cost: f64,
        index: Option<String>,
        output_rows: f64,
    }

    /// The cheapest way to produce one table's filtered rows under
    /// `config`: the sequential scan or the first strictly cheaper usable
    /// index, in configuration order.
    fn best_access_path(
        catalog: &Catalog,
        query: &QuerySpec,
        table_name: &str,
        config: &[CandidateIndex],
    ) -> AccessPath {
        let model = CostModel;
        let Some(table) = catalog.table(table_name) else {
            return AccessPath {
                cost: 0.0,
                index: None,
                output_rows: 0.0,
            };
        };
        let residual = table_selectivity(catalog, query, table_name);
        let output_rows = (table.rows * residual).max(1.0);
        let needed = query.referenced_columns(table_name);
        let mut best = AccessPath {
            cost: model.seq_scan_cost(table),
            index: None,
            output_rows,
        };
        for ix in config.iter().filter(|ix| ix.table == table_name) {
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
            if !leading_has_predicate && !covering {
                continue;
            }
            let sargable = if leading_has_predicate {
                selectivity_of_columns(catalog, query, table_name, &ix.key_columns)
            } else {
                1.0
            };
            let cost = model.index_access_cost(catalog, table, ix, sargable, covering);
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

    /// The cheapest plan for `query` under `config`.
    pub fn optimize(catalog: &Catalog, query: &QuerySpec, config: &[CandidateIndex]) -> PlanChoice {
        let model = CostModel;
        let Some(fact_table) = catalog.table(&query.fact_table) else {
            return PlanChoice {
                cost: 0.0,
                used_indexes: Vec::new(),
                description: "unknown fact table".into(),
            };
        };
        let fact_sel = table_selectivity(catalog, query, &query.fact_table);

        struct DimAccess {
            table: String,
            fact_column: String,
            cost: f64,
            index: Option<String>,
            output_rows: f64,
            selectivity: f64,
        }
        let dims: Vec<DimAccess> = query
            .joins
            .iter()
            .map(|join| {
                let table = join.dimension_table();
                let path = best_access_path(catalog, query, table, config);
                DimAccess {
                    table: table.to_string(),
                    fact_column: join.fact_column.column.clone(),
                    cost: path.cost,
                    index: path.index,
                    output_rows: path.output_rows,
                    selectivity: table_selectivity(catalog, query, table),
                }
            })
            .collect();
        let dim_total_access: f64 = dims.iter().map(|d| d.cost).sum();
        let dim_sel_product: f64 = dims.iter().map(|d| d.selectivity).product();
        let final_rows = (fact_table.rows * fact_sel * dim_sel_product).max(1.0);
        let group_cost = if query.group_by.is_empty() {
            0.0
        } else {
            model.sort_cost(final_rows, 32.0)
        };

        let mut alternatives: Vec<PlanChoice> = Vec::new();

        // Alternative 1: fact by scan or a predicate-driven index; hash joins.
        let fact_path = best_access_path(catalog, query, &query.fact_table, config);
        let mut used: Vec<String> = fact_path.index.iter().cloned().collect();
        used.extend(dims.iter().filter_map(|d| d.index.clone()));
        let hash_cost: f64 = dims
            .iter()
            .map(|d| model.hash_build_cost(d.output_rows))
            .sum::<f64>()
            + model.hash_probe_cost(fact_path.output_rows) * dims.len().max(1) as f64;
        alternatives.push(PlanChoice {
            cost: fact_path.cost + dim_total_access + hash_cost + group_cost,
            used_indexes: used,
            description: match &fact_path.index {
                Some(ix) => format!("fact index scan ({ix}) + hash joins"),
                None => "fact seq scan + hash joins".to_string(),
            },
        });

        // Alternative 2: an index-nested-loop join driven by one dimension
        // through a fact index led by that join's foreign key.
        for (d_pos, dim) in dims.iter().enumerate() {
            for fact_ix in config.iter().filter(|ix| ix.table == query.fact_table) {
                if fact_ix.leading_column() != Some(dim.fact_column.as_str()) {
                    continue;
                }
                let reached = (fact_table.rows * dim.selectivity).max(1.0);
                let extra_sel =
                    selectivity_of_columns(catalog, query, &query.fact_table, &fact_ix.key_columns);
                let fetched = (reached * extra_sel).max(1.0);
                let covering = fact_ix.covers(&query.referenced_columns(&query.fact_table));
                let descents = dim.output_rows * BTREE_DESCENT_PAGES * RANDOM_PAGE_COST;
                let leaf = fetched * CPU_INDEX_TUPLE_COST
                    + fact_ix.size_pages(catalog) * dim.selectivity * SEQ_PAGE_COST;
                let heap = if covering {
                    0.0
                } else {
                    (fetched * RANDOM_PAGE_COST).min(fact_table.pages() * SEQ_PAGE_COST)
                };
                let others_hash: f64 = dims
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != d_pos)
                    .map(|(_, d)| model.hash_build_cost(d.output_rows))
                    .sum::<f64>()
                    + model.hash_probe_cost(fetched * fact_sel)
                        * dims.len().saturating_sub(1).max(1) as f64;
                let mut used: Vec<String> = vec![fact_ix.name.clone()];
                used.extend(dims.iter().filter_map(|d| d.index.clone()));
                alternatives.push(PlanChoice {
                    cost: dim_total_access + descents + leaf + heap + others_hash + group_cost,
                    used_indexes: used,
                    description: format!(
                        "index nested loop via {} driven by {}",
                        fact_ix.name, dim.table
                    ),
                });
            }
        }

        let mut best = alternatives
            .into_iter()
            .min_by(|a, b| {
                a.cost
                    .partial_cmp(&b.cost)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("alternative 1 always exists");
        best.used_indexes.sort();
        best.used_indexes.dedup();
        best
    }

    fn cost_seconds(catalog: &Catalog, query: &QuerySpec, config: &[CandidateIndex]) -> f64 {
        optimize(catalog, query, config).cost / COST_TO_SECONDS
    }

    /// Max-heap entry of the lazy greedy: benefit, then lower candidate.
    #[derive(Clone, Copy, PartialEq)]
    struct HeapEntry {
        benefit: f64,
        generation: usize,
        candidate: usize,
    }

    impl Eq for HeapEntry {}

    impl Ord for HeapEntry {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.benefit
                .partial_cmp(&other.benefit)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| self.candidate.cmp(&other.candidate).reverse())
        }
    }

    impl PartialOrd for HeapEntry {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    /// The advisor's lazy greedy, re-planning every query that touches a
    /// candidate's table under the selected design plus the candidate.
    /// Returns the selected candidates' names and marginal benefits.
    pub fn suggest(workload: &Workload, config: AdvisorConfig) -> Vec<(String, f64)> {
        let candidates = Advisor::new(config).enumerate(workload);
        let relevant: Vec<Vec<usize>> = candidates
            .iter()
            .map(|c| {
                (0..workload.queries.len())
                    .filter(|&q| workload.queries[q].tables().contains(&c.table.as_str()))
                    .collect()
            })
            .collect();
        let mut current_cost: Vec<f64> = workload
            .queries
            .iter()
            .map(|q| cost_seconds(&workload.catalog, q, &[]))
            .collect();
        let marginal = |cand: usize, selected: &[CandidateIndex], current_cost: &[f64]| {
            let mut trial = selected.to_vec();
            trial.push(candidates[cand].clone());
            let mut total = 0.0;
            let mut new_costs = Vec::new();
            for &qi in &relevant[cand] {
                let q = &workload.queries[qi];
                let cost = cost_seconds(&workload.catalog, q, &trial);
                let delta = (current_cost[qi] - cost).max(0.0) * q.weight;
                if delta > 0.0 {
                    total += delta;
                    new_costs.push((qi, cost));
                }
            }
            (total, new_costs)
        };

        let mut selected: Vec<CandidateIndex> = Vec::new();
        let mut result = Vec::new();
        let mut heap: BinaryHeap<HeapEntry> = (0..candidates.len())
            .map(|c| HeapEntry {
                benefit: marginal(c, &selected, &current_cost).0,
                generation: 0,
                candidate: c,
            })
            .collect();
        let mut generation = 0;
        while result.len() < config.max_indexes {
            let Some(top) = heap.pop() else {
                break;
            };
            if top.benefit < MIN_TOTAL_BENEFIT {
                break;
            }
            if top.generation == generation {
                let (benefit, new_costs) = marginal(top.candidate, &selected, &current_cost);
                for (qi, cost) in new_costs {
                    current_cost[qi] = cost;
                }
                selected.push(candidates[top.candidate].clone());
                result.push((candidates[top.candidate].name.clone(), benefit));
                generation += 1;
            } else {
                let (benefit, _) = marginal(top.candidate, &selected, &current_cost);
                if benefit >= MIN_TOTAL_BENEFIT {
                    heap.push(HeapEntry {
                        benefit,
                        generation,
                        candidate: top.candidate,
                    });
                }
            }
        }
        result
    }

    /// Remove-and-reoptimize: optimize under the remaining candidates,
    /// record the plan's indexes (and, for a multi-index plan, each of them
    /// alone, in name order), remove them by name and repeat.
    pub fn atomic_configurations(
        catalog: &Catalog,
        query: &QuerySpec,
        candidates: &[CandidateIndex],
        options: WhatIfOptions,
    ) -> Vec<AtomicConfiguration> {
        let baseline = cost_seconds(catalog, query, &[]);
        let min_speedup = baseline * options.min_speedup_ratio;
        let name_to_pos: HashMap<&str, usize> = candidates
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name.as_str(), i))
            .collect();
        let mut results = Vec::new();
        let mut seen: HashSet<Vec<usize>> = HashSet::new();
        let mut record = |positions: Vec<usize>, cost: f64| {
            let speedup = baseline - cost;
            if positions.is_empty() || speedup < min_speedup {
                return;
            }
            let mut key = positions;
            key.sort_unstable();
            if seen.insert(key.clone()) {
                results.push(AtomicConfiguration {
                    candidate_positions: key,
                    cost_seconds: cost,
                    speedup_seconds: speedup,
                });
            }
        };
        let mut config = candidates.to_vec();
        for _ in 0..options.max_iterations {
            if config.is_empty() {
                break;
            }
            let plan = optimize(catalog, query, &config);
            let cost = plan.cost / COST_TO_SECONDS;
            if plan.used_indexes.is_empty() || baseline - cost < min_speedup {
                break;
            }
            let positions: Vec<usize> = plan
                .used_indexes
                .iter()
                .map(|n| name_to_pos[n.as_str()])
                .collect();
            record(positions.clone(), cost);
            if positions.len() > 1 {
                for &p in &positions {
                    let single = cost_seconds(catalog, query, std::slice::from_ref(&candidates[p]));
                    record(vec![p], single);
                }
            }
            config.retain(|ix| !plan.used_indexes.contains(&ix.name));
        }
        results
    }
}

/// Both workloads with their extraction configurations.
fn workloads() -> [(Workload, ExtractionConfig); 2] {
    [
        (tpch::workload(), tpch::extraction_config()),
        (tpcds::workload(), tpcds::extraction_config()),
    ]
}

/// Asserts that the cached plan equals the reference's: cost bits, used
/// index names and description.
fn assert_same_plan(label: &str, cached: &PlanChoice, expected: &PlanChoice) {
    assert_eq!(
        cached.cost.to_bits(),
        expected.cost.to_bits(),
        "{label}: cost {} against the reference's {}",
        cached.cost,
        expected.cost
    );
    assert_eq!(cached.used_indexes, expected.used_indexes, "{label}");
    assert_eq!(cached.description, expected.description, "{label}");
}

#[test]
fn cached_plans_match_the_reference_on_every_query() {
    const RANDOM_CONFIGS: usize = 12;
    for (workload, config) in workloads() {
        let optimizer = Optimizer::new(workload.catalog.clone());
        let candidates = Advisor::new(config.advisor).enumerate(&workload);
        let mut rng = ChaCha8Rng::seed_from_u64(2026);
        let mut fixed: Vec<Vec<CandidateIndex>> = vec![Vec::new(), candidates.clone()];
        fixed.extend(candidates.iter().map(|c| vec![c.clone()]));
        let mut plans = 0;
        for (qi, query) in workload.queries.iter().enumerate() {
            let random: Vec<Vec<CandidateIndex>> = (0..RANDOM_CONFIGS)
                .map(|_| {
                    let mut shuffled = candidates.clone();
                    shuffled.shuffle(&mut rng);
                    shuffled.truncate(rng.gen_range(1..=candidates.len()));
                    shuffled
                })
                .collect();
            for (ci, indexes) in random.iter().chain(&fixed).enumerate() {
                let expected = reference::optimize(&workload.catalog, query, indexes);
                let config = PhysicalConfig::with_indexes(indexes.clone());
                let cached = optimizer.optimize(query, &config);
                let label = format!("{} query {qi} config {ci}", workload.name);
                assert_same_plan(&label, &cached, &expected);
                plans += usize::from(!cached.used_indexes.is_empty());
            }
        }
        // The grid reaches indexed plans, not just scans.
        assert!(plans > workload.queries.len() * RANDOM_CONFIGS, "{plans}");
    }
}

#[test]
fn the_advisors_design_matches_the_reference() {
    for (workload, config) in workloads() {
        let expected = reference::suggest(&workload, config.advisor);
        let suggested = Advisor::new(config.advisor).suggest(&workload);
        assert_eq!(suggested.len(), expected.len(), "{}", workload.name);
        assert_eq!(
            suggested.len(),
            config.advisor.max_indexes,
            "{}",
            workload.name
        );
        for (k, (s, (name, benefit))) in suggested.iter().zip(&expected).enumerate() {
            assert_eq!(&s.index.name, name, "{} pick {k}", workload.name);
            assert_eq!(
                s.total_benefit.to_bits(),
                benefit.to_bits(),
                "{} pick {k}: benefit {} against {benefit}",
                workload.name,
                s.total_benefit
            );
        }
    }
}

#[test]
fn atomic_configurations_match_the_reference() {
    for (workload, config) in workloads() {
        let candidates: Vec<CandidateIndex> = Advisor::new(config.advisor)
            .suggest(&workload)
            .into_iter()
            .map(|s| s.index)
            .collect();
        // Names decide the probe order, so they must identify candidates.
        let mut names: Vec<&str> = candidates.iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), candidates.len(), "{}", workload.name);

        let whatif = WhatIfOptimizer::new(Optimizer::new(workload.catalog.clone()));
        let mut multi = 0;
        for (qi, query) in workload.queries.iter().enumerate() {
            let expected = reference::atomic_configurations(
                &workload.catalog,
                query,
                &candidates,
                config.whatif,
            );
            let cached = whatif.atomic_configurations(query, &candidates, config.whatif);
            let label = format!("{} query {qi}", workload.name);
            assert_eq!(cached.len(), expected.len(), "{label}");
            for (k, (c, e)) in cached.iter().zip(&expected).enumerate() {
                assert_eq!(
                    c.candidate_positions, e.candidate_positions,
                    "{label} plan {k}"
                );
                assert_eq!(
                    c.cost_seconds.to_bits(),
                    e.cost_seconds.to_bits(),
                    "{label} plan {k}"
                );
                assert_eq!(
                    c.speedup_seconds.to_bits(),
                    e.speedup_seconds.to_bits(),
                    "{label} plan {k}"
                );
            }
            multi += expected
                .iter()
                .filter(|c| c.candidate_positions.len() > 1)
                .count();
        }
        // Multi-index plans are what make the probe order matter.
        assert!(multi > 0, "{}", workload.name);
    }
}

#[test]
fn equal_access_costs_go_to_the_first_index_in_configuration_order() {
    let mut catalog = Catalog::new();
    catalog
        .add_table(Table::new(
            "PEOPLE",
            1_000_000.0,
            vec![
                Column::int_key("EMPID", 1_000_000.0),
                Column::string("CITY", 16.0, 1_000.0),
                Column::new("SALARY", 8.0, 10_000.0),
                Column::new("BONUS", 8.0, 10_000.0),
                Column::new("RATING", 8.0, 10.0),
            ],
        ))
        .unwrap();
    let query = QuerySpec::new("q", "PEOPLE")
        .filter(Predicate::equality(ColumnRef::new("PEOPLE", "CITY")))
        .aggregate(Aggregate::avg(ColumnRef::new("PEOPLE", "SALARY")));
    // Same key, includes of the same width, neither covering: equal costs.
    let bonus =
        CandidateIndex::new("PEOPLE", vec!["CITY".into()]).with_includes(vec!["BONUS".into()]);
    let rating =
        CandidateIndex::new("PEOPLE", vec!["CITY".into()]).with_includes(vec!["RATING".into()]);
    let optimizer = Optimizer::new(catalog.clone());
    let alone = optimizer.optimize(&query, &PhysicalConfig::with_indexes(vec![bonus.clone()]));
    let other = optimizer.optimize(&query, &PhysicalConfig::with_indexes(vec![rating.clone()]));
    assert_eq!(alone.cost.to_bits(), other.cost.to_bits(), "not a tie");
    assert!(alone.cost < optimizer.optimize(&query, &PhysicalConfig::empty()).cost);

    for order in [[&bonus, &rating], [&rating, &bonus]] {
        let indexes: Vec<CandidateIndex> = order.iter().map(|&ix| ix.clone()).collect();
        let plan = optimizer.optimize(&query, &PhysicalConfig::with_indexes(indexes.clone()));
        assert_same_plan(
            &format!("tie {}", order[0].name),
            &plan,
            &reference::optimize(&catalog, &query, &indexes),
        );
        assert_eq!(plan.used_indexes, vec![order[0].name.clone()]);
        assert_eq!(
            plan.description,
            format!("fact index scan ({}) + hash joins", order[0].name)
        );
    }
}
