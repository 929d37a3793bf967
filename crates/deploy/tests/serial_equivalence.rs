//! The serial-equivalence differential suite (ISSUE 5).
//!
//! The deployment runtime is one unified k-slot scheduler. With one slot it
//! must realize the paper's serial objective `Σ R_{i−1}·C_i` exactly, so
//! this suite compares it with [`serial_oracle`] (`tests/common/serial.rs`),
//! an independent serial executor written on public APIs only. The oracle
//! restates the runtime's drop rules (exclusion, the refusal of a drop
//! that would orphan a scheduled dependent, the ineffective-drop count)
//! instead of calling them, shares no scheduling code with the runtime,
//! and, like the serial executor that predates concurrent slots, ignores
//! the configured `trigger`. The suite pins the two sides of the
//! concurrency generalization:
//!
//! 1. **Differential:** with `build_slots = 1` (the default), `execute`
//!    produces a [`DeploymentReport`](idd_deploy::DeploymentReport)
//!    **bit-identical** to the oracle's — every build record
//!    (start/finish/cost/runtimes), every replan record, the realized cost
//!    — across seeded drift / revision / failure / mixed scenarios under
//!    every replan policy, plus hand-built scenarios that reach a refused
//!    drop, which no generated scenario does at one slot.
//! 2. **Concurrent invariants:** for any slot count, committed work (built
//!    prefix + in-flight set) is never reordered or rebuilt by a replan,
//!    every spliced order satisfies the revised closure, slots never
//!    overlap beyond their capacity, and per-slot timelines are disjoint.

mod common;

use common::serial::serial_oracle;
use common::{
    assert_bit_identical, assert_frozen_and_physical, initial_plan, instance, policy, scenario,
};
use idd_core::{
    BuildFailure, Deployment, DesignRevision, EventKind, EvolutionEvent, EvolutionScenario,
    IndexAddition, IndexId, ObjectiveEvaluator, ProblemInstance, QueryId, WorkloadDrift,
};
use idd_deploy::{DeployConfig, DeployRuntime};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The headline differential: one slot, any seeded scenario, any
    /// policy — the unified concurrent scheduler reproduces the serial
    /// oracle bit-for-bit, field by field.
    #[test]
    fn one_slot_reports_are_bit_identical_to_the_serial_reference(
        ((inst_seed, plan_seed), (scenario_kind, scenario_seed, policy_choice)) in
            ((0u64..50, 0u64..1000), (0u8..5, 0u64..1000, 0u8..3))
    ) {
        let inst = instance(inst_seed);
        let plan = initial_plan(&inst, plan_seed);
        let scenario = scenario(&inst, scenario_kind, scenario_seed);
        let config = policy(policy_choice);
        let unified = DeployRuntime::new(config.clone())
            .execute(&inst, &plan, &scenario)
            .expect("generated scenarios must be executable");
        let serial = serial_oracle(&config.replanner, &inst, &plan, &scenario)
            .expect("the oracle accepts whatever execute accepts");
        assert_bit_identical(&unified, &serial);
    }

    /// The concurrent invariants: for any slot count, commitments are
    /// immutable, the closure holds, and the slot timeline is physical
    /// (capacity respected, per-slot intervals disjoint, finish = start +
    /// wasted + cost).
    #[test]
    fn any_slot_count_freezes_commitments_and_respects_the_closure(
        ((inst_seed, plan_seed, slots), (scenario_kind, scenario_seed, policy_choice)) in
            ((0u64..50, 0u64..1000, 1usize..5), (0u8..5, 0u64..1000, 0u8..3))
    ) {
        let inst = instance(inst_seed);
        let plan = initial_plan(&inst, plan_seed);
        let scenario = scenario(&inst, scenario_kind, scenario_seed);
        let runtime = DeployRuntime::new(policy(policy_choice).with_build_slots(slots));
        let report = runtime
            .execute(&inst, &plan, &scenario)
            .expect("generated scenarios must be executable");

        assert_frozen_and_physical(&inst, &report, slots);

        // Failures surface identically at any slot count.
        let realized = report.realized_order();
        let expected_retries: u32 = scenario
            .failures
            .iter()
            .filter(|f| realized.position_of(f.index).is_some())
            .map(|f| f.failures)
            .sum();
        prop_assert_eq!(report.retries, expected_retries);
    }

    /// Quiet scenarios on several slots: no replan fires, the plan executes
    /// verbatim (dispatch order), and the realized cost never exceeds the
    /// serial offline objective by more than floating-point dust — work
    /// only overlaps, it is never added.
    #[test]
    fn quiet_multi_slot_runs_execute_the_plan_verbatim(
        (inst_seed, plan_seed, slots) in (0u64..50, 0u64..1000, 2usize..5)
    ) {
        let inst = instance(inst_seed);
        let plan = initial_plan(&inst, plan_seed);
        let offline = ObjectiveEvaluator::new(&inst).evaluate(&plan);
        let report = DeployRuntime::new(DeployConfig::static_plan().with_build_slots(slots))
            .execute(&inst, &plan, &EvolutionScenario::quiet("quiet"))
            .expect("quiet scenarios always execute");
        prop_assert!(report.replans.is_empty());
        prop_assert_eq!(report.realized_order(), plan);
        // The makespan can only shrink; the slot-seconds stay the same
        // *or grow* (forfeited build-interaction discounts).
        prop_assert!(report.total_clock <= offline.deployment_time + 1e-9);
        prop_assert!(report.total_build_time >= offline.deployment_time - 1e-9);
    }
}

/// The paper-style competing example plus a second query, so drift has
/// something to move between; `gated` adds the precedence `i2 → i3`.
fn fixture(gated: bool) -> ProblemInstance {
    let mut b = ProblemInstance::builder("runtime");
    let i0 = b.add_index(4.0);
    let i1 = b.add_index(6.0);
    let i2 = b.add_index(3.0);
    let i3 = b.add_index(5.0);
    let q0 = b.add_query(30.0);
    b.add_plan(q0, vec![i0], 5.0);
    b.add_plan(q0, vec![i1], 20.0);
    let q1 = b.add_query(40.0);
    b.add_plan(q1, vec![i2], 8.0);
    b.add_plan(q1, vec![i2, i3], 25.0);
    b.add_build_interaction(i1, i0, 2.0);
    b.add_build_interaction(i3, i2, 1.5);
    if gated {
        b.add_precedence(i2, i3);
    }
    b.build().unwrap()
}

fn drift_at(at: f64, query: usize, weight: f64) -> EvolutionEvent {
    EvolutionEvent {
        at,
        kind: EventKind::Drift(WorkloadDrift {
            weights: vec![(QueryId::new(query), weight)],
        }),
    }
}

/// Runs `scenario` from `plan` at one slot under `config` and compares the
/// report with the oracle's, bit for bit.
fn assert_matches_the_oracle(
    config: DeployConfig,
    inst: &ProblemInstance,
    plan: &Deployment,
    scenario: &EvolutionScenario,
) -> idd_deploy::DeploymentReport {
    let unified = DeployRuntime::new(config.clone())
        .execute(inst, plan, scenario)
        .unwrap();
    let serial = serial_oracle(&config.replanner, inst, plan, scenario).unwrap();
    assert_bit_identical(&unified, &serial);
    unified
}

#[test]
fn one_slot_execute_matches_the_serial_reference_exactly() {
    let inst = fixture(false);
    let plan = Deployment::from_raw([0, 1, 2, 3]);
    let scenario = EvolutionScenario {
        name: "mixed".into(),
        events: vec![
            drift_at(4.5, 1, 6.0),
            EvolutionEvent {
                at: 9.0,
                kind: EventKind::Revision(DesignRevision {
                    add: vec![IndexAddition {
                        name: "late".into(),
                        creation_cost: 2.0,
                        plans: vec![(QueryId::new(0), vec![], 10.0)],
                        helped_by: vec![],
                        helps: vec![],
                        after: vec![],
                    }],
                    drop: vec![],
                }),
            },
        ],
        failures: vec![BuildFailure {
            index: IndexId::new(2),
            failures: 1,
            waste_fraction: 0.5,
        }],
    };
    assert_matches_the_oracle(DeployConfig::greedy_replan(), &inst, &plan, &scenario);
}

/// Drops are ruled on one by one: once `i0` is built, a revision dropping
/// `i0`, `i2` and `i3` finds `i0` built (ineffective), refuses `i2` while
/// its dependent `i3` is still scheduled, then retracts `i3`. Skipping the
/// refusal would retract `i2` too and still leave a valid plan, so only a
/// comparison with the oracle's own drop rules can tell.
#[test]
fn a_refused_drop_matches_the_serial_reference_exactly() {
    let inst = fixture(true);
    let plan = Deployment::from_raw([0, 1, 2, 3]);
    let scenario = EvolutionScenario {
        name: "refused drop".into(),
        events: vec![EvolutionEvent {
            at: 4.0,
            kind: EventKind::Revision(DesignRevision {
                add: vec![],
                drop: vec![IndexId::new(0), IndexId::new(2), IndexId::new(3)],
            }),
        }],
        failures: vec![],
    };
    for config in [DeployConfig::static_plan(), DeployConfig::greedy_replan()] {
        let report = assert_matches_the_oracle(config, &inst, &plan, &scenario);
        assert_eq!(report.ineffective_drops, 2);
        let order = report.realized_order();
        assert!(order.position_of(IndexId::new(2)).is_some(), "i2 is kept");
        assert!(
            order.position_of(IndexId::new(3)).is_none(),
            "i3 is retracted"
        );
    }
}
