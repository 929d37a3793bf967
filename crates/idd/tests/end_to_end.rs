//! Cross-crate integration tests: workload generation → what-if extraction →
//! solvers, exercised through the umbrella crate exactly as a downstream user
//! would.

use idd::core::reduce::{reduce, Density, ReduceOptions};
use idd::prelude::*;
use idd::solver::exact::{CpConfig, CpSolver};
use idd::solver::properties::{analyze, AnalysisOptions};

/// A small but non-trivial workload used by several tests (3 tables, 4
/// queries) so the full pipeline stays fast in debug builds.
fn small_workload() -> Workload {
    let mut catalog = Catalog::new();
    catalog
        .add_table(Table::new(
            "FACT",
            2_000_000.0,
            vec![
                Column::int_key("DIM1_ID", 50_000.0),
                Column::int_key("DIM2_ID", 2_000.0),
                Column::new("MEASURE", 8.0, 100_000.0),
                Column::new("MEASURE2", 8.0, 100_000.0),
            ],
        ))
        .unwrap();
    catalog
        .add_table(Table::new(
            "DIM1",
            50_000.0,
            vec![
                Column::int_key("ID", 50_000.0),
                Column::string("CATEGORY", 16.0, 40.0),
                Column::string("REGION", 16.0, 12.0),
            ],
        ))
        .unwrap();
    catalog
        .add_table(Table::new(
            "DIM2",
            2_000.0,
            vec![
                Column::int_key("ID", 2_000.0),
                Column::int_key("YEAR", 10.0),
            ],
        ))
        .unwrap();
    let q = |name: &str| QuerySpec::new(name, "FACT");
    let queries = vec![
        q("by_category")
            .join(
                ColumnRef::new("FACT", "DIM1_ID"),
                ColumnRef::new("DIM1", "ID"),
            )
            .filter(Predicate::equality(ColumnRef::new("DIM1", "CATEGORY")))
            .group(ColumnRef::new("DIM1", "CATEGORY"))
            .aggregate(Aggregate::sum(ColumnRef::new("FACT", "MEASURE"))),
        q("by_region_year")
            .join(
                ColumnRef::new("FACT", "DIM1_ID"),
                ColumnRef::new("DIM1", "ID"),
            )
            .join(
                ColumnRef::new("FACT", "DIM2_ID"),
                ColumnRef::new("DIM2", "ID"),
            )
            .filter(Predicate::equality(ColumnRef::new("DIM1", "REGION")))
            .filter(Predicate::equality(ColumnRef::new("DIM2", "YEAR")))
            .group(ColumnRef::new("DIM1", "REGION"))
            .aggregate(Aggregate::sum(ColumnRef::new("FACT", "MEASURE"))),
        q("yearly_total")
            .join(
                ColumnRef::new("FACT", "DIM2_ID"),
                ColumnRef::new("DIM2", "ID"),
            )
            .filter(Predicate::equality(ColumnRef::new("DIM2", "YEAR")))
            .group(ColumnRef::new("DIM2", "YEAR"))
            .aggregate(Aggregate::sum(ColumnRef::new("FACT", "MEASURE2"))),
        q("category_year")
            .join(
                ColumnRef::new("FACT", "DIM1_ID"),
                ColumnRef::new("DIM1", "ID"),
            )
            .join(
                ColumnRef::new("FACT", "DIM2_ID"),
                ColumnRef::new("DIM2", "ID"),
            )
            .filter(Predicate::in_list(ColumnRef::new("DIM1", "CATEGORY"), 3))
            .filter(Predicate::equality(ColumnRef::new("DIM2", "YEAR")))
            .group(ColumnRef::new("DIM1", "CATEGORY"))
            .aggregate(Aggregate::sum(ColumnRef::new("FACT", "MEASURE"))),
    ];
    Workload::new("integration", catalog, queries)
}

#[test]
fn pipeline_produces_a_consistent_instance() {
    let instance = extract_instance(&small_workload(), ExtractionConfig::with_budget(10)).unwrap();
    assert_eq!(instance.num_queries(), 4);
    assert!(instance.num_indexes() >= 3);
    assert!(instance.num_plans() >= instance.num_indexes() / 2);
    // Statistics agree with direct counting.
    let stats = InstanceStats::of(&instance);
    assert_eq!(stats.num_plans, instance.num_plans());
    assert!(stats.largest_plan >= 1);
}

#[test]
fn matrix_file_round_trip_preserves_solver_results() {
    let instance = extract_instance(&small_workload(), ExtractionConfig::with_budget(8)).unwrap();
    let json = MatrixFile::new(instance.clone(), "integration test")
        .to_json()
        .unwrap();
    let reloaded = MatrixFile::from_json(&json).unwrap().instance;

    let greedy_a = GreedySolver::new().construct(&instance);
    let greedy_b = GreedySolver::new().construct(&reloaded);
    assert_eq!(greedy_a, greedy_b);
    let area_a = ObjectiveEvaluator::new(&instance).evaluate_area(&greedy_a);
    let area_b = ObjectiveEvaluator::new(&reloaded).evaluate_area(&greedy_b);
    assert!((area_a - area_b).abs() < 1e-9);
}

#[test]
fn all_solvers_agree_with_the_exact_optimum_on_a_reduced_instance() {
    let instance = extract_instance(&small_workload(), ExtractionConfig::with_budget(7)).unwrap();
    let reduced = reduce(
        &instance,
        ReduceOptions {
            density: Density::Full,
            max_indexes: Some(6),
        },
    )
    .unwrap();
    let evaluator = ObjectiveEvaluator::new(&reduced);

    let exact = CpSolver::with_config(CpConfig::with_properties(SearchBudget::seconds(30.0)))
        .solve(&reduced);
    assert!(exact.is_optimal(), "6-index instance must be provable");
    let optimum = exact.objective;

    // Heuristics are never better than the proven optimum, and VNS reaches it.
    let greedy = GreedySolver::new().construct(&reduced);
    assert!(evaluator.evaluate_area(&greedy) >= optimum - 1e-6);
    let dp = DpSolver::new().construct(&reduced);
    assert!(evaluator.evaluate_area(&dp) >= optimum - 1e-6);
    let vns = VnsSolver::new(SearchBudget::seconds(2.0)).solve(&reduced, greedy);
    assert!(vns.objective >= optimum - 1e-6);
    assert!(
        (vns.objective - optimum) / optimum < 0.02,
        "VNS should be within 2% of the optimum, got {} vs {}",
        vns.objective,
        optimum
    );
}

#[test]
fn property_analysis_preserves_the_optimum_on_extracted_instances() {
    let instance = extract_instance(&small_workload(), ExtractionConfig::with_budget(7)).unwrap();
    let reduced = reduce(
        &instance,
        ReduceOptions {
            density: Density::Low,
            max_indexes: Some(7),
        },
    )
    .unwrap();
    let plain = CpSolver::with_config(CpConfig::plain(SearchBudget::seconds(60.0))).solve(&reduced);
    let plus = CpSolver::with_config(CpConfig::with_properties(SearchBudget::seconds(60.0)))
        .solve(&reduced);
    assert!(plain.is_optimal() && plus.is_optimal());
    assert!(
        (plain.objective - plus.objective).abs() < 1e-6,
        "plain {} vs plus {}",
        plain.objective,
        plus.objective
    );
    assert!(plus.nodes <= plain.nodes);
}

#[test]
fn analysis_reports_constraints_for_the_workload_instance() {
    let instance = extract_instance(&small_workload(), ExtractionConfig::with_budget(10)).unwrap();
    let report = analyze(&instance, AnalysisOptions::all());
    // The resulting closure (which may well be empty on a dense instance)
    // must still admit a feasible order.
    let mut placed = vec![false; instance.num_indexes()];
    for _ in 0..instance.num_indexes() {
        let next = instance
            .index_ids()
            .find(|&i| !placed[i.raw()] && report.constraints.can_place(i, &placed))
            .expect("constraints admit a feasible order");
        placed[next.raw()] = true;
    }
}

#[test]
fn local_search_methods_improve_or_match_greedy_end_to_end() {
    let instance = extract_instance(&small_workload(), ExtractionConfig::with_budget(10)).unwrap();
    let evaluator = ObjectiveEvaluator::new(&instance);
    let greedy = GreedySolver::new().construct(&instance);
    let greedy_area = evaluator.evaluate_area(&greedy);

    for (name, result) in [
        (
            "tabu-best",
            TabuSolver::new(SwapStrategy::Best, SearchBudget::nodes(30))
                .solve(&instance, greedy.clone()),
        ),
        (
            "tabu-first",
            TabuSolver::new(SwapStrategy::First, SearchBudget::nodes(30))
                .solve(&instance, greedy.clone()),
        ),
        (
            "lns",
            LnsSolver::new(SearchBudget::nodes(30)).solve(&instance, greedy.clone()),
        ),
        (
            "vns",
            VnsSolver::new(SearchBudget::nodes(30)).solve(&instance, greedy.clone()),
        ),
    ] {
        assert!(
            result.objective <= greedy_area + 1e-9,
            "{name} worsened the greedy solution"
        );
        let deployment = result
            .deployment
            .expect("local search returns a deployment");
        deployment
            .validate(&instance)
            .unwrap_or_else(|e| panic!("{name} produced an invalid deployment: {e}"));
        assert!(
            (evaluator.evaluate_area(&deployment) - result.objective).abs() < 1e-6,
            "{name} reported an objective that does not match its deployment"
        );
    }
}
