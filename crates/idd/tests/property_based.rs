//! Property-based tests (proptest) over randomly generated problem instances.
//!
//! These check the invariants the whole system leans on:
//!
//! * the incremental evaluators agree with the from-scratch evaluator on
//!   arbitrary orders and arbitrary swaps;
//! * the objective area always equals the area under the improvement curve;
//! * every solver returns a valid permutation that respects precedences;
//! * the Section-5 property analysis never removes all optimal solutions
//!   (CP with constraints finds the same optimum as plain CP);
//! * instance (de)serialization is lossless with respect to evaluation.

use idd::core::{
    DeltaEvaluator, Deployment, ImprovementCurve, InstanceBuilder, MatrixFile, ObjectiveEvaluator,
    ProblemInstance,
};
use idd::prelude::*;
use idd::solver::exact::{CpConfig, CpSolver};
use proptest::prelude::*;

/// Strategy: a random consistent problem instance with `n` indexes.
fn arb_instance(max_indexes: usize) -> impl Strategy<Value = ProblemInstance> {
    let n_range = 2..=max_indexes;
    n_range.prop_flat_map(move |n| {
        let costs = proptest::collection::vec(1.0f64..20.0, n);
        let queries = proptest::collection::vec(
            (
                20.0f64..200.0, // runtime
                proptest::collection::vec(
                    (
                        proptest::collection::vec(0..n, 1..=3.min(n)), // plan members
                        0.05f64..0.9,                                  // speed-up fraction
                    ),
                    1..=4,
                ),
            ),
            1..=6,
        );
        let interactions = proptest::collection::vec((0..n, 0..n, 0.05f64..0.8), 0..=4);
        (costs, queries, interactions).prop_map(move |(costs, queries, interactions)| {
            let mut b = InstanceBuilder::new("proptest");
            for c in &costs {
                b.add_index(*c);
            }
            for (runtime, plans) in queries {
                let q = b.add_query(runtime);
                for (members, fraction) in plans {
                    let ids: Vec<idd::core::IndexId> =
                        members.into_iter().map(idd::core::IndexId::new).collect();
                    b.add_plan(q, ids, runtime * fraction);
                }
            }
            for (target, helper, fraction) in interactions {
                if target != helper {
                    let saving = costs[target] * fraction;
                    b.add_build_interaction(
                        idd::core::IndexId::new(target),
                        idd::core::IndexId::new(helper),
                        saving,
                    );
                }
            }
            b.build().expect("generated instance is consistent")
        })
    })
}

/// Strategy: an instance plus a random permutation of its indexes.
fn arb_instance_and_order(
    max_indexes: usize,
) -> impl Strategy<Value = (ProblemInstance, Vec<usize>)> {
    arb_instance(max_indexes).prop_flat_map(|inst| {
        let n = inst.num_indexes();
        (
            Just(inst),
            Just(()).prop_perturb(move |_, mut rng| {
                let mut order: Vec<usize> = (0..n).collect();
                for i in (1..n).rev() {
                    let j = (rng.next_u64() as usize) % (i + 1);
                    order.swap(i, j);
                }
                order
            }),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn objective_matches_curve_area((inst, order) in arb_instance_and_order(10)) {
        let evaluator = ObjectiveEvaluator::new(&inst);
        let deployment = Deployment::from_raw(order);
        let value = evaluator.evaluate(&deployment);
        let curve = ImprovementCurve::from_objective(&value);
        prop_assert!((curve.area() - value.area).abs() < 1e-6 * value.area.max(1.0));
        // Deployment time is the sum of the step costs and never exceeds the
        // base build cost.
        let step_sum: f64 = value.steps.iter().map(|s| s.build_cost).sum();
        prop_assert!((step_sum - value.deployment_time).abs() < 1e-6);
        prop_assert!(value.deployment_time <= inst.total_base_build_cost() + 1e-6);
        // Runtime never increases while deploying.
        for pair in value.steps.windows(2) {
            prop_assert!(pair[1].runtime_before <= pair[0].runtime_after + 1e-9);
        }
    }

    #[test]
    fn delta_evaluator_agrees_on_all_swaps((inst, order) in arb_instance_and_order(8)) {
        let evaluator = ObjectiveEvaluator::new(&inst);
        let base = Deployment::from_raw(order);
        let mut delta = DeltaEvaluator::new(&inst, base.clone());
        let n = inst.num_indexes();
        for a in 0..n {
            for b in (a + 1)..n {
                let expected = evaluator.evaluate_area(&base.with_swap(a, b));
                let got = delta.evaluate_swap(a, b);
                // The delta path is exact, not merely close.
                prop_assert!(expected.to_bits() == got.to_bits(),
                    "swap {a},{b}: {expected} vs {got}");
            }
        }
    }

    #[test]
    fn greedy_dp_and_local_search_return_valid_orders(inst in arb_instance(12)) {
        let evaluator = ObjectiveEvaluator::new(&inst);
        let greedy = GreedySolver::new().construct(&inst);
        prop_assert!(greedy.validate(&inst).is_ok());
        let dp = DpSolver::new().construct(&inst);
        prop_assert!(dp.validate(&inst).is_ok());
        let vns = VnsSolver::new(SearchBudget::nodes(15)).solve(&inst, greedy.clone());
        let vns_deployment = vns.deployment.unwrap();
        prop_assert!(vns_deployment.validate(&inst).is_ok());
        prop_assert!(vns.objective <= evaluator.evaluate_area(&greedy) + 1e-9);
    }

    #[test]
    fn serialization_is_lossless_for_evaluation((inst, order) in arb_instance_and_order(9)) {
        let json = MatrixFile::new(inst.clone(), "proptest").to_json().unwrap();
        let reloaded = MatrixFile::from_json(&json).unwrap().instance;
        let deployment = Deployment::from_raw(order);
        let a = ObjectiveEvaluator::new(&inst).evaluate_area(&deployment);
        let b = ObjectiveEvaluator::new(&reloaded).evaluate_area(&deployment);
        prop_assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn property_analysis_never_cuts_off_the_optimum(inst in arb_instance(6)) {
        let plain = CpSolver::with_config(CpConfig::plain(SearchBudget::unlimited())).solve(&inst);
        let plus = CpSolver::with_config(CpConfig::with_properties(SearchBudget::unlimited()))
            .solve(&inst);
        prop_assert!(plain.is_optimal());
        prop_assert!(plus.is_optimal());
        prop_assert!((plain.objective - plus.objective).abs() < 1e-6 * plain.objective.max(1.0),
            "plain {} vs constrained {}", plain.objective, plus.objective);
    }

    #[test]
    fn trajectory_points_improve_strictly_and_in_time_order(
        events in proptest::collection::vec((0.0f64..100.0, 1.0f64..1000.0), 0..40)
    ) {
        let mut events = events;
        events.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut t = Trajectory::new();
        for (elapsed, objective) in &events {
            t.record(*elapsed, *objective);
        }
        for pair in t.points().windows(2) {
            prop_assert!(pair[0].elapsed_seconds <= pair[1].elapsed_seconds,
                "points out of time order: {pair:?}");
            prop_assert!(pair[1].objective < pair[0].objective,
                "non-improving point kept: {pair:?}");
        }
        // objective_at is monotone non-increasing in time.
        let mut probe = 0.0;
        let mut previous = f64::INFINITY;
        while probe <= 110.0 {
            let now = t.objective_at(probe);
            prop_assert!(now <= previous, "objective_at increased at t={probe}");
            previous = now;
            probe += 3.7;
        }
        // The final objective is the minimum over every recorded event.
        let minimum = events.iter().map(|e| e.1).fold(f64::INFINITY, f64::min);
        if t.is_empty() {
            prop_assert!(events.is_empty());
        } else {
            prop_assert!((t.final_objective() - minimum).abs() < 1e-12);
        }
    }

    #[test]
    fn trajectory_merge_is_the_pointwise_minimum(
        (a_events, b_events, probes) in (
            proptest::collection::vec((0.0f64..50.0, 1.0f64..500.0), 0..20),
            proptest::collection::vec((0.0f64..50.0, 1.0f64..500.0), 0..20),
            proptest::collection::vec(0.0f64..60.0, 1..30),
        )
    ) {
        let build = |events: &[(f64, f64)]| {
            let mut sorted = events.to_vec();
            sorted.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut t = Trajectory::new();
            for (elapsed, objective) in sorted {
                t.record(elapsed, objective);
            }
            t
        };
        let a = build(&a_events);
        let b = build(&b_events);
        let merged = a.merge(&b);
        // Merging is symmetric...
        prop_assert_eq!(&merged, &b.merge(&a));
        // ...absorbs the empty trajectory...
        prop_assert_eq!(&a.merge(&Trajectory::new()), &a);
        // ...and equals the pointwise minimum of the two step functions.
        for &t in &probes {
            let expected = a.objective_at(t).min(b.objective_at(t));
            let got = merged.objective_at(t);
            if expected.is_finite() {
                prop_assert!((got - expected).abs() < 1e-12,
                    "merge at t={t}: {got} vs min {expected}");
            } else {
                prop_assert!(got.is_infinite());
            }
        }
        // The merged points obey the same invariants as any trajectory.
        for pair in merged.points().windows(2) {
            prop_assert!(pair[0].elapsed_seconds <= pair[1].elapsed_seconds);
            prop_assert!(pair[1].objective < pair[0].objective);
        }
    }

    #[test]
    fn trajectory_merge_keeps_the_minimum_at_identical_timestamps(
        (a_events, b_events) in (
            proptest::collection::vec((0usize..6, 1.0f64..500.0), 0..16),
            proptest::collection::vec((0usize..6, 1.0f64..500.0), 0..16),
        )
    ) {
        // Regression for a PR 2 gap: timestamps drawn from a *coarse grid*
        // so identical timestamps across (and within) members are the norm,
        // not a measure-zero accident — several portfolio members publishing
        // within one timer tick is exactly what a real race produces. The
        // merged step function must keep the minimum at every tie.
        let build = |events: &[(usize, f64)]| {
            let mut sorted = events.to_vec();
            sorted.sort_by_key(|e| e.0);
            let mut t = Trajectory::new();
            for (tick, objective) in sorted {
                t.record(tick as f64 * 0.5, objective);
            }
            t
        };
        let a = build(&a_events);
        let b = build(&b_events);
        let merged = a.merge(&b);
        prop_assert_eq!(&merged, &b.merge(&a));
        // Probe every grid tick plus the midpoints between ticks.
        for half_tick in 0..14usize {
            let t = half_tick as f64 * 0.25;
            let expected = a.objective_at(t).min(b.objective_at(t));
            let got = merged.objective_at(t);
            if expected.is_finite() {
                prop_assert!((got - expected).abs() < 1e-12,
                    "merge at t={t}: {got} vs min {expected}");
            } else {
                prop_assert!(got.is_infinite());
            }
        }
        for pair in merged.points().windows(2) {
            prop_assert!(pair[0].elapsed_seconds < pair[1].elapsed_seconds,
                "merged points must have distinct, increasing timestamps: {pair:?}");
            prop_assert!(pair[1].objective < pair[0].objective);
        }
    }

    #[test]
    fn random_solver_summary_is_internally_consistent(inst in arb_instance(10)) {
        let summary = RandomSolver::new(17).summarize(&inst, 25);
        prop_assert!(summary.minimum <= summary.average + 1e-9);
        prop_assert!(summary.average <= summary.maximum + 1e-9);
        prop_assert!(summary.best.validate(&inst).is_ok());
        let best_area = ObjectiveEvaluator::new(&inst).evaluate_area(&summary.best);
        prop_assert!((best_area - summary.minimum).abs() < 1e-9);
    }
}

#[test]
fn solve_outcome_labels_round_trip() {
    for outcome in SolveOutcome::ALL {
        assert_eq!(SolveOutcome::from_label(outcome.label()), Some(outcome));
    }
    for bogus in ["", "optimal", "OPT", "df", "feasible"] {
        assert_eq!(SolveOutcome::from_label(bogus), None);
    }
}
