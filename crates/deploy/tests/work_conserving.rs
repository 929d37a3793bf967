//! The work-conserving dispatch invariant suite (ISSUE 7).
//!
//! [`DispatchPolicy::WorkConserving`] lets a free slot reach past a
//! precedence-blocked planned head to the first *eligible* pending index.
//! This suite pins the four properties that make that safe:
//!
//! 1. **Serial degeneracy:** with one slot the first-eligible scan is
//!    head-only (nothing is in flight at a dispatch point, and a validated
//!    plan's head is always eligible), so `execute` stays **bit-identical**
//!    to the serial oracle of `tests/common/serial.rs` — the same
//!    differential the head-of-line policy passes in `serial_equivalence`.
//!    The oracle is a serial executor on public APIs only: it restates the
//!    drop rules instead of calling the runtime's, takes only the
//!    replanner from a configuration (so it ignores `dispatch` and
//!    `trigger`), and shares no scheduling code with the runtime.
//! 2. **Commitment immutability & slot physicality:** for any slot count,
//!    overtaking never reorders committed work, violates a precedence, or
//!    double-books a slot.
//! 3. **Work conservation:** on a static plan, no slot sits free while an
//!    eligible pending index waits — the starvation the policy exists to
//!    fix, reconstructed from the report's build timeline.
//! 4. **Predictability:** on a quiet tail, `SlotScheduleEvaluator` (the
//!    slot-aware replan objective) reproduces the runtime's realized cost,
//!    makespan, and overtake count bit-for-bit for either policy.
//!
//! Plus the event-boundary determinism satellite: coincident events batch
//! into one replan, apply-order-independently, reproducibly.

mod common;

use common::serial::serial_oracle;
use common::{assert_frozen_and_physical, initial_plan, instance, policy, scenario};
use idd_core::{
    EventKind, EvolutionEvent, EvolutionScenario, ProblemInstance, QueryId, SlotScheduleEvaluator,
    WorkloadDrift,
};
use idd_deploy::{DeployConfig, DeployRuntime, DeploymentReport, DispatchPolicy};
use idd_workloads::evolution::{drift_scenario, failure_scenario, EvolutionConfig};
use proptest::prelude::*;

/// `true` when every precedence prerequisite of `index` (among the builds
/// this run executed) had completed by `t`.
fn eligible_at(
    report: &DeploymentReport,
    inst: &ProblemInstance,
    index: idd_core::IndexId,
    t: f64,
) -> bool {
    inst.precedences()
        .iter()
        .filter(|pr| pr.after == index)
        .all(|pr| {
            report
                .builds
                .iter()
                .find(|b| b.index == pr.before)
                .is_some_and(|b| b.finish <= t + 1e-12)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Serial degeneracy: the work-conserving scheduler at one slot is
    /// bit-identical to the serial oracle across every scenario kind and
    /// replan policy — exactly the differential head-of-line passes.
    #[test]
    fn work_conserving_one_slot_is_bit_identical_to_the_serial_reference(
        ((inst_seed, plan_seed), (scenario_kind, scenario_seed, policy_choice)) in
            ((0u64..50, 0u64..1000), (0u8..5, 0u64..1000, 0u8..3))
    ) {
        let inst = instance(inst_seed);
        let plan = initial_plan(&inst, plan_seed);
        let scenario = scenario(&inst, scenario_kind, scenario_seed);
        let config = policy(policy_choice).with_dispatch(DispatchPolicy::WorkConserving);
        let unified = DeployRuntime::new(config.clone())
            .execute(&inst, &plan, &scenario)
            .expect("generated scenarios must be executable");
        let serial = serial_oracle(&config.replanner, &inst, &plan, &scenario)
            .expect("the oracle accepts whatever execute accepts");
        prop_assert_eq!(&unified, &serial, "one-slot work-conserving must stay serial");
        prop_assert_eq!(unified.out_of_order_dispatches, 0);
        prop_assert!(unified.builds.iter().all(|b| b.plan_offset == 0));
    }

    /// Commitment immutability and slot physicality survive overtaking: for
    /// any slot count under work-conserving dispatch, frozen prefixes are
    /// extended verbatim, precedences hold on the realized timeline, no
    /// slot is double-booked, and the deviation accounting is consistent.
    #[test]
    fn work_conserving_any_slot_count_freezes_commitments_and_is_physical(
        ((inst_seed, plan_seed, slots), (scenario_kind, scenario_seed, policy_choice)) in
            ((0u64..50, 0u64..1000, 1usize..5), (0u8..5, 0u64..1000, 0u8..3))
    ) {
        let inst = instance(inst_seed);
        let plan = initial_plan(&inst, plan_seed);
        let scenario = scenario(&inst, scenario_kind, scenario_seed);
        let runtime = DeployRuntime::new(
            policy(policy_choice)
                .with_build_slots(slots)
                .with_dispatch(DispatchPolicy::WorkConserving),
        );
        let report = runtime
            .execute(&inst, &plan, &scenario)
            .expect("generated scenarios must be executable");

        assert_frozen_and_physical(&inst, &report, slots);

        // Deviation accounting is consistent, and with one slot there is
        // nothing to overtake.
        let deviations = report.builds.iter().filter(|b| b.plan_offset > 0).count();
        prop_assert_eq!(report.out_of_order_dispatches, deviations);
        if slots == 1 {
            prop_assert_eq!(report.out_of_order_dispatches, 0);
        }
    }

    /// Work conservation, reconstructed from the report: on a static plan
    /// (the pending set is exactly the plan suffix throughout), whenever a
    /// slot is free at a completion boundary, no undispatched index is
    /// eligible — the dispatcher never leaves ready work waiting. Revision
    /// scenarios are excluded because they mutate the pending set
    /// mid-flight, which the timeline alone cannot reconstruct.
    #[test]
    fn no_free_slot_idles_while_an_eligible_index_is_pending(
        ((inst_seed, plan_seed), (slots, kind, scenario_seed)) in
            ((0u64..50, 0u64..1000), (2usize..5, 0u8..3, 0u64..1000))
    ) {
        let inst = instance(inst_seed);
        let plan = initial_plan(&inst, plan_seed);
        let scenario = match kind {
            0 => EvolutionScenario::quiet("quiet"),
            1 => failure_scenario(&inst, &EvolutionConfig {
                seed: scenario_seed,
                num_failures: 1 + (scenario_seed % 2) as usize,
                ..EvolutionConfig::default()
            }),
            _ => drift_scenario(&inst, &EvolutionConfig {
                seed: scenario_seed,
                num_events: 1 + (scenario_seed % 3) as usize,
                ..EvolutionConfig::default()
            }),
        };
        let report = DeployRuntime::new(
            DeployConfig::static_plan()
                .with_build_slots(slots)
                .with_dispatch(DispatchPolicy::WorkConserving),
        )
        .execute(&inst, &plan, &scenario)
        .expect("static scenarios must be executable");

        // Check every instant the slot pool can change: t=0 and every
        // completion boundary.
        let mut boundaries: Vec<f64> = vec![0.0];
        boundaries.extend(report.builds.iter().map(|b| b.finish));
        for &t in &boundaries {
            let busy = report
                .builds
                .iter()
                .filter(|b| b.start <= t + 1e-12 && b.finish > t + 1e-12)
                .count();
            if busy >= slots {
                continue;
            }
            for c in &report.builds {
                if c.start > t + 1e-12 {
                    prop_assert!(
                        !eligible_at(&report, &inst, c.index, t),
                        "slot free at t={t} ({busy}/{slots} busy) while {} \
                         was eligible but only dispatched at {}",
                        c.index, c.start
                    );
                }
            }
        }
    }

    /// Predictability: on a quiet tail the slot-aware replan objective
    /// (`SlotScheduleEvaluator`) is not a model of the runtime — it *is*
    /// the runtime, bit for bit: same realized area, same makespan, same
    /// final runtime, same overtake count, for either dispatch policy at
    /// any slot count.
    #[test]
    fn slot_schedule_evaluator_reproduces_the_quiet_realized_cost_bit_for_bit(
        (inst_seed, plan_seed, slots, wc_flag) in
            (0u64..50, 0u64..1000, 1usize..5, 0u8..2)
    ) {
        let work_conserving = wc_flag == 1;
        let inst = instance(inst_seed);
        let plan = initial_plan(&inst, plan_seed);
        let dispatch = if work_conserving {
            DispatchPolicy::WorkConserving
        } else {
            DispatchPolicy::HeadOfLine
        };
        let report = DeployRuntime::new(
            DeployConfig::static_plan()
                .with_build_slots(slots)
                .with_dispatch(dispatch),
        )
        .execute(&inst, &plan, &EvolutionScenario::quiet("quiet"))
        .expect("quiet scenarios always execute");

        let evaluator = SlotScheduleEvaluator::new(&inst, slots, dispatch);
        let predicted = evaluator.evaluate(&plan);
        prop_assert_eq!(
            predicted.area.to_bits(),
            report.realized_cost.to_bits(),
            "predicted {} vs realized {}",
            predicted.area,
            report.realized_cost
        );
        prop_assert_eq!(predicted.makespan.to_bits(), report.total_clock.to_bits());
        prop_assert_eq!(
            predicted.final_runtime.to_bits(),
            report.final_runtime.to_bits()
        );
        prop_assert_eq!(predicted.overtakes, report.out_of_order_dispatches);
    }

    /// Event-boundary determinism: two drift events with *identical*
    /// timestamps on distinct queries apply as one batch — exactly one
    /// replan, both events applied, the report independent of which event
    /// was listed first, and the whole run bit-for-bit reproducible.
    #[test]
    fn coincident_events_batch_deterministically_and_order_independently(
        ((inst_seed, plan_seed, slots), (frac, qa, offset), (wa, wb)) in
            ((0u64..20, 0u64..1000, 1usize..4), (0.05f64..0.8, 0usize..6, 0usize..5),
             (0.2f64..5.0, 0.2f64..5.0))
    ) {
        // Two *distinct* queries, so the batched weight updates commute.
        let qb = (qa + 1 + offset) % 6;
        let inst = instance(inst_seed);
        let plan = initial_plan(&inst, plan_seed);
        let quiet = DeployRuntime::new(DeployConfig::static_plan().with_build_slots(slots))
            .execute(&inst, &plan, &EvolutionScenario::quiet("quiet"))
            .expect("quiet scenarios always execute");
        // Land strictly inside the deployment so the batch hits a real
        // completion boundary with work still pending.
        let at = frac * quiet.total_clock;
        let drift = |q: usize, w: f64| EvolutionEvent {
            at,
            kind: EventKind::Drift(WorkloadDrift {
                weights: vec![(QueryId::new(q), w)],
            }),
        };
        let run = |events: Vec<EvolutionEvent>| {
            DeployRuntime::new(
                DeployConfig::greedy_replan()
                    .with_build_slots(slots)
                    .with_dispatch(DispatchPolicy::WorkConserving),
            )
            .execute(
                &inst,
                &plan,
                &EvolutionScenario {
                    name: "coincident".into(),
                    events,
                    failures: vec![],
                },
            )
            .expect("drift scenarios must be executable")
        };
        let forward = run(vec![drift(qa, wa), drift(qb, wb)]);
        prop_assert_eq!(forward.events_applied, 2);
        // One batch, one replan — unless every build was already dispatched
        // when the batch landed (with several slots the last dispatch can
        // precede 0.8·makespan), in which case there is no suffix to replan.
        if forward.builds.iter().any(|b| b.start >= at) {
            prop_assert_eq!(
                forward.replans.len(),
                1,
                "coincident events must batch into one replan"
            );
        } else {
            prop_assert!(forward.replans.len() <= 1);
        }
        // Listing order is immaterial: both events apply before the batch's
        // single replan, so the runs are bit-identical.
        let swapped = run(vec![drift(qb, wb), drift(qa, wa)]);
        prop_assert_eq!(&forward, &swapped);
        // And the run is reproducible wholesale.
        let again = run(vec![drift(qa, wa), drift(qb, wb)]);
        prop_assert_eq!(&forward, &again);
    }
}
