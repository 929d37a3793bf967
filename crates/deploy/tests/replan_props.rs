//! Property-based tests for the replanning invariants (ISSUE 4):
//!
//! * arbitrary event sequences never mutate the built prefix — every replan
//!   record's frozen prefix is a prefix of the realized order;
//! * every spliced order is closure-valid — observable as: the realized
//!   order respects every original precedence whose endpoints were both
//!   built, and the runtime (which hard-validates each splice) never
//!   returns `InvalidPlan`;
//! * the zero-event run reproduces the offline objective exactly
//!   (bit-for-bit, not within a tolerance).
//!
//! The instances, plans, policies and scenarios come from `tests/common`;
//! scenario kinds are drawn from `0..4`, so the quiet kind never appears.

mod common;

use common::{initial_plan, instance, policy, scenario};
use idd_core::{
    EventKind, EvolutionEvent, EvolutionScenario, ObjectiveEvaluator, QueryId, WorkloadDrift,
};
use idd_deploy::{DeployConfig, DeployRuntime};
use idd_workloads::evolution::{drift_scenario, EvolutionConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary generated scenarios under every policy: the run completes,
    /// the frozen prefixes are never mutated, no index is built twice, and
    /// the realized order respects every original precedence whose
    /// endpoints were both built.
    #[test]
    fn event_sequences_never_mutate_the_prefix_and_stay_closure_valid(
        ((inst_seed, plan_seed), (scenario_kind, scenario_seed, policy_choice)) in
            ((0u64..50, 0u64..1000), (0u8..4, 0u64..1000, 0u8..3))
    ) {
        let inst = instance(inst_seed);
        let plan = initial_plan(&inst, plan_seed);
        let scenario = scenario(&inst, scenario_kind, scenario_seed);
        let runtime = DeployRuntime::new(policy(policy_choice));

        let report = runtime
            .execute(&inst, &plan, &scenario)
            .expect("generated scenarios must be executable");

        // Prefix immutability, observable from the replan records.
        prop_assert!(report.prefixes_respected());

        // No index built twice, none invented.
        let realized = report.realized_order();
        let mut seen = std::collections::HashSet::new();
        for (_, i) in realized.iter() {
            prop_assert!(seen.insert(i), "index {i} built twice");
        }

        // Closure validity on the original precedences: if both endpoints
        // were built, their order must hold (revisions only *add*
        // precedences; drops remove an endpoint from the order entirely).
        for pr in inst.precedences() {
            if let (Some(b), Some(a)) =
                (realized.position_of(pr.before), realized.position_of(pr.after))
            {
                prop_assert!(b < a, "{} built after {}", pr.before, pr.after);
            }
        }

        // Failures are surfaced, never silently swallowed.
        let expected_retries: u32 = scenario
            .failures
            .iter()
            .filter(|f| realized.position_of(f.index).is_some())
            .map(|f| f.failures)
            .sum();
        prop_assert_eq!(report.retries, expected_retries);

        // Accounting identities (post-completion events may advance the
        // clock past the last build's finish, but never behind it).
        prop_assert!(report.realized_cost.is_finite());
        prop_assert!(report.total_wasted >= 0.0);
        prop_assert!(
            report.total_clock >= report.builds.last().map_or(0.0, |b| b.finish) - 1e-9
        );

        // Per-build timeline identity: a slot holds its build for exactly
        // the failed attempts plus the successful one, so
        // `finish − start == wasted + cost` (and with no failures, the
        // figure-14 plot can read the bar length as the build cost).
        for b in &report.builds {
            prop_assert!(
                (b.finish - b.start - (b.wasted + b.cost)).abs() < 1e-9,
                "build {} occupies [{}, {}] but wasted+cost = {}",
                b.index, b.start, b.finish, b.wasted + b.cost
            );
            prop_assert_eq!(b.slot, 0, "the serial path uses slot 0 only");
        }
    }

    /// The zero-event invariant: a quiet scenario reproduces the offline
    /// objective bit-for-bit under every policy (no replan ever fires, so
    /// the policy must be unobservable).
    #[test]
    fn quiet_scenarios_reproduce_the_offline_objective_exactly(
        (inst_seed, plan_seed, policy_choice) in (0u64..50, 0u64..1000, 0u8..3)
    ) {
        let inst = instance(inst_seed);
        let plan = initial_plan(&inst, plan_seed);
        let offline = ObjectiveEvaluator::new(&inst).evaluate(&plan);
        let report = DeployRuntime::new(policy(policy_choice))
            .execute(&inst, &plan, &EvolutionScenario::quiet("quiet"))
            .expect("quiet scenarios always execute");
        prop_assert_eq!(report.realized_cost.to_bits(), offline.area.to_bits());
        prop_assert_eq!(report.final_runtime.to_bits(), offline.final_runtime.to_bits());
        prop_assert_eq!(report.realized_order(), plan);
        prop_assert!(report.replans.is_empty());
    }

    /// Single-drift scenarios: replanning never realizes more cost than the
    /// static baseline. This is a theorem for *one* event — both runs share
    /// the prefix up to the event, the weights never change again, and the
    /// replanner keeps the warm start as a candidate, so its residual area
    /// (== realized remaining cost, by additivity) can only be lower.
    /// (With several events it is merely a strong tendency: a later drift
    /// can punish the earlier replan — `table9` measures that regime.)
    #[test]
    fn replanning_never_loses_to_the_static_baseline_under_a_single_drift(
        (inst_seed, plan_seed, scenario_seed) in (0u64..30, 0u64..500, 0u64..500)
    ) {
        let inst = instance(inst_seed);
        let plan = initial_plan(&inst, plan_seed);
        let scenario = drift_scenario(&inst, &EvolutionConfig {
            seed: scenario_seed,
            num_events: 1,
            ..EvolutionConfig::default()
        });
        let static_cost = DeployRuntime::new(DeployConfig::static_plan())
            .execute(&inst, &plan, &scenario)
            .unwrap()
            .realized_cost;
        let replanned_cost = DeployRuntime::new(policy(2))
            .execute(&inst, &plan, &scenario)
            .unwrap()
            .realized_cost;
        prop_assert!(
            replanned_cost <= static_cost + 1e-6,
            "replanning lost: {replanned_cost} vs static {static_cost}"
        );
    }
}

/// A deterministic drift-only sanity check outside proptest: replanning
/// strictly beats the static plan on a hand-hostile scenario (the `table9`
/// claim, pinned at unit-test granularity).
#[test]
fn replanning_strictly_beats_static_on_a_hostile_drift() {
    let inst = instance(3);
    let plan = initial_plan(&inst, 7);
    // Invert the importance of every query: heavily weight the ones the
    // plan serves last.
    let weights: Vec<(QueryId, f64)> = inst
        .query_ids()
        .enumerate()
        .map(|(k, q)| (q, if k % 2 == 0 { 0.05 } else { 12.0 }))
        .collect();
    let scenario = EvolutionScenario {
        name: "hostile".into(),
        events: vec![EvolutionEvent {
            at: inst.total_base_build_cost() * 0.15,
            kind: EventKind::Drift(WorkloadDrift { weights }),
        }],
        failures: vec![],
    };
    let static_cost = DeployRuntime::new(DeployConfig::static_plan())
        .execute(&inst, &plan, &scenario)
        .unwrap()
        .realized_cost;
    let portfolio = DeployRuntime::new(policy(2))
        .execute(&inst, &plan, &scenario)
        .unwrap();
    assert!(
        portfolio.realized_cost < static_cost - 1e-6,
        "portfolio replan {} must strictly beat static {static_cost}",
        portfolio.realized_cost
    );
    assert!(portfolio.improved_replans() >= 1);
}
