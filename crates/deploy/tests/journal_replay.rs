//! The journal replay wall (ISSUE 8).
//!
//! Pins the tentpole property: for any run of the deployment runtime,
//! `replay(instance, initial, journal)` reconstructs the identical
//! [`DeploymentReport`] — **bit-for-bit**, field by field — across the
//! serial-equivalence scenario grid, for `build_slots ∈ {1, 2, 4}` under
//! both dispatch policies, through a JSONL round trip. Plus the bugfix
//! regressions the journal was built to audit:
//!
//! * replans between work-conserving overtakes (two drifts landing while
//!   the head is blocked replan once each and replay bit-for-bit, and a
//!   run left with only ineligible work terminates with a typed error);
//! * coincident-event batching (journals with identical timestamps replay
//!   deterministically regardless of record interleaving within the batch,
//!   provided the events commute).

mod common;

use common::{assert_bit_identical, initial_plan, instance, policy, scenario};
use idd_core::{
    Deployment, EventKind, EvolutionEvent, EvolutionScenario, IndexAddition, JournalRecord,
    ProblemInstance, QueryId, WorkloadDrift,
};
use idd_deploy::{
    replay, DeployConfig, DeployError, DeployRuntime, DeploymentJournal, DispatchPolicy,
    ReplayError,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline wall: any seeded scenario, any replan policy, 1 / 2 / 4
    /// slots, both dispatch policies — the journal replays into the
    /// identical report, and survives a JSONL round trip doing so.
    #[test]
    fn replay_reconstructs_the_report_bit_for_bit_across_the_grid(
        ((inst_seed, plan_seed), (scenario_kind, scenario_seed, policy_choice), (slot_choice, wc_choice)) in
            ((0u64..50, 0u64..1000), (0u8..5, 0u64..1000, 0u8..3), (0u8..3, 0u8..2))
    ) {
        let wc = wc_choice == 1;
        let slots = [1usize, 2, 4][slot_choice as usize];
        let inst = instance(inst_seed);
        let plan = initial_plan(&inst, plan_seed);
        let scenario = scenario(&inst, scenario_kind, scenario_seed);
        let mut config = policy(policy_choice).with_build_slots(slots);
        if wc {
            config = config.with_dispatch(DispatchPolicy::WorkConserving);
        }
        let runtime = DeployRuntime::new(config);
        let (report, journal) = runtime
            .execute_journaled(&inst, &plan, &scenario)
            .expect("generated scenarios must be executable");

        let replayed = replay(&inst, &plan, &journal).expect("own journal must replay");
        assert_bit_identical(&replayed, &report);

        // Serialize to JSONL, parse back, replay again: the text form is as
        // faithful as the in-memory one.
        let parsed = DeploymentJournal::from_jsonl(&journal.to_jsonl())
            .expect("own JSONL must parse");
        prop_assert_eq!(&parsed, &journal);
        let replayed = replay(&inst, &plan, &parsed).expect("parsed journal must replay");
        assert_bit_identical(&replayed, &report);
    }

    /// `execute` and `execute_journaled` agree: the journal is recorded
    /// either way, the report is the same object.
    #[test]
    fn execute_and_execute_journaled_return_the_same_report(
        (inst_seed, plan_seed, scenario_kind, scenario_seed) in
            (0u64..20, 0u64..200, 0u8..5, 0u64..200)
    ) {
        let inst = instance(inst_seed);
        let plan = initial_plan(&inst, plan_seed);
        let scenario = scenario(&inst, scenario_kind, scenario_seed);
        let runtime = DeployRuntime::new(DeployConfig::greedy_replan());
        let plain = runtime.execute(&inst, &plan, &scenario).unwrap();
        let (journaled, _) = runtime.execute_journaled(&inst, &plan, &scenario).unwrap();
        assert_bit_identical(&journaled, &plain);
    }
}

/// The paper-style competing example plus a second query (the runtime unit
/// tests' instance), extended with a third query so coincident drifts have
/// three distinct targets to commute across.
fn three_query_instance() -> ProblemInstance {
    let mut b = ProblemInstance::builder("replay");
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
    let q2 = b.add_query(20.0);
    b.add_plan(q2, vec![i3], 10.0);
    b.add_build_interaction(i1, i0, 2.0);
    b.add_build_interaction(i3, i2, 1.5);
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

/// Satellite 4: three drifts land at the same instant. Workload drifts on
/// *distinct* queries commute exactly, so every interleaving of the
/// coincident `EventLanded` records must replay into the identical report.
#[test]
fn coincident_event_batches_replay_identically_under_any_interleaving() {
    let inst = three_query_instance();
    let plan = Deployment::from_raw([0, 1, 2, 3]);
    let scenario = EvolutionScenario {
        name: "coincident".into(),
        events: vec![
            drift_at(4.0, 0, 0.5),
            drift_at(4.0, 1, 3.0),
            drift_at(4.0, 2, 7.0),
        ],
        failures: vec![],
    };
    let (report, journal) = DeployRuntime::new(DeployConfig::greedy_replan())
        .execute_journaled(&inst, &plan, &scenario)
        .unwrap();
    assert_eq!(report.events_applied, 3);
    assert_eq!(report.replans.len(), 1, "coincident events batch");

    // The three event records form one consecutive batch at one clock.
    let positions: Vec<usize> = journal
        .records()
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r, JournalRecord::EventLanded(_)))
        .map(|(p, _)| p)
        .collect();
    assert_eq!(positions.len(), 3);
    assert_eq!(positions[2] - positions[0], 2, "batch is consecutive");
    let batch_clocks: Vec<u64> = positions
        .iter()
        .map(|&p| journal.records()[p].clock().to_bits())
        .collect();
    assert_eq!(batch_clocks[0], batch_clocks[1]);
    assert_eq!(batch_clocks[0], batch_clocks[2]);

    // Every permutation of the batch replays bit-for-bit.
    let base = positions[0];
    for perm in [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ] {
        let mut records = journal.records().to_vec();
        for (offset, &source) in perm.iter().enumerate() {
            records[base + offset] = journal.records()[base + source].clone();
        }
        let permuted = DeploymentJournal::new(records);
        let replayed = replay(&inst, &plan, &permuted)
            .expect("commuting coincident events replay in any order");
        assert_bit_identical(&replayed, &report);
    }
}

/// Regression: two drifts that land while the plan head is blocked behind
/// a precedence, with work-conserving overtakes in between, replan once
/// each, and the whole run replays bit-for-bit.
#[test]
fn replans_between_work_conserving_overtakes_replay_bit_for_bit() {
    // i0 → i1 gate; i3, i4 give the work-conserving dispatcher something to
    // overtake with while i1 blocks the head.
    let mut b = ProblemInstance::builder("wc-overtakes");
    let i0 = b.add_index(4.0);
    let i1 = b.add_index(6.0);
    let i2 = b.add_index(3.0);
    let i3 = b.add_index(5.0);
    let i4 = b.add_index(7.0);
    let q0 = b.add_query(50.0);
    b.add_plan(q0, vec![i0], 10.0);
    b.add_plan(q0, vec![i1], 30.0);
    b.add_plan(q0, vec![i2], 5.0);
    let q1 = b.add_query(40.0);
    b.add_plan(q1, vec![i3], 12.0);
    b.add_plan(q1, vec![i4], 20.0);
    b.add_precedence(i0, i1);
    let inst = b.build().unwrap();
    let plan = Deployment::from_raw([0, 1, 2, 3, 4]);
    // Two drifts, 4 clock apart; both land while builds are in flight.
    let scenario = EvolutionScenario {
        name: "burst".into(),
        events: vec![drift_at(1.0, 0, 2.0), drift_at(5.0, 1, 6.0)],
        failures: vec![],
    };
    let (report, journal) = DeployRuntime::new(
        DeployConfig::greedy_replan()
            .with_build_slots(2)
            .with_dispatch(DispatchPolicy::WorkConserving),
    )
    .execute_journaled(&inst, &plan, &scenario)
    .unwrap();

    assert_eq!(report.events_applied, 2);
    assert_eq!(report.replans.len(), 2, "one replan per landing boundary");
    assert_eq!(
        report.out_of_order_dispatches, 2,
        "the scenario must exercise work-conserving overtakes"
    );
    let replans = journal.records().iter().filter(|r| r.tag() == "replan");
    assert_eq!(replans.count(), 2, "both replans are on the record");

    assert_bit_identical(&replay(&inst, &plan, &journal).unwrap(), &report);
}

/// Regression: a revision burst leaves only a permanently ineligible head.
/// The replan at the landing boundary surfaces the broken precedence
/// instead of waiting for the far-future event, under either dispatch
/// policy.
#[test]
fn force_fire_terminates_with_a_blocked_head_under_work_conserving_dispatch() {
    let mut b = ProblemInstance::builder("wc-stuck");
    let i0 = b.add_index(4.0);
    let i1 = b.add_index(6.0);
    let i2 = b.add_index(3.0);
    let i3 = b.add_index(5.0);
    let i4 = b.add_index(7.0);
    let q0 = b.add_query(60.0);
    b.add_plan(q0, vec![i0], 10.0);
    b.add_plan(q0, vec![i1], 25.0);
    b.add_plan(q0, vec![i2], 5.0);
    b.add_plan(q0, vec![i3], 8.0);
    b.add_plan(q0, vec![i4], 12.0);
    let inst = b.build().unwrap();
    let plan = Deployment::from_raw([0, 1, 2, 3, 4]);
    let scenario = EvolutionScenario {
        name: "stuck".into(),
        events: vec![
            // Retract the unstarted i2 and i3...
            EvolutionEvent {
                at: 1.0,
                kind: EventKind::Revision(idd_core::DesignRevision {
                    add: vec![],
                    drop: vec![i2, i3],
                }),
            },
            // ...then add an index gated behind the now-retracted i2.
            EvolutionEvent {
                at: 1.5,
                kind: EventKind::Revision(idd_core::DesignRevision {
                    add: vec![IndexAddition {
                        name: "orphaned".into(),
                        creation_cost: 2.0,
                        plans: vec![(QueryId::new(0), vec![], 10.0)],
                        helped_by: vec![],
                        helps: vec![],
                        after: vec![i2],
                    }],
                    drop: vec![],
                }),
            },
            // A far-future event the clock can never reach.
            drift_at(20.0, 0, 2.0),
        ],
        failures: vec![],
    };
    for dispatch in [DispatchPolicy::HeadOfLine, DispatchPolicy::WorkConserving] {
        let err = DeployRuntime::new(
            DeployConfig::greedy_replan()
                .with_build_slots(2)
                .with_dispatch(dispatch),
        )
        .execute_journaled(&inst, &plan, &scenario)
        .unwrap_err();
        assert!(
            matches!(err, DeployError::InfeasibleEvent(_)),
            "{dispatch:?}: {err}"
        );
    }
}

/// A quiet serial run journals as strict dispatch → fail* → complete
/// cycles whose running realized stamps end at the report total.
#[test]
fn quiet_journal_structure_and_realized_polyline() {
    let inst = three_query_instance();
    let plan = Deployment::from_raw([1, 0, 3, 2]);
    let scenario = EvolutionScenario {
        name: "flaky".into(),
        events: vec![],
        failures: vec![idd_core::BuildFailure {
            index: idd_core::IndexId::new(0),
            failures: 2,
            waste_fraction: 0.5,
        }],
    };
    let (report, journal) = DeployRuntime::default()
        .execute_journaled(&inst, &plan, &scenario)
        .unwrap();
    let tags: Vec<&str> = journal.records().iter().map(|r| r.tag()).collect();
    assert_eq!(
        tags,
        [
            "dispatch", "complete", // i1
            "dispatch", "fail", "fail", "complete", // i0, twice failed
            "dispatch", "complete", // i3
            "dispatch", "complete", // i2
        ]
    );
    // The realized stamps are the polyline figure14 plots: non-decreasing,
    // ending exactly at the report's realized cost.
    let realized: Vec<f64> = journal
        .records()
        .iter()
        .filter_map(|r| match r {
            JournalRecord::Complete(c) => Some(c.realized),
            _ => None,
        })
        .collect();
    assert!(realized.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(
        realized.last().unwrap().to_bits(),
        report.realized_cost.to_bits()
    );
    // Clock stamps never decrease across the journal.
    let clocks: Vec<f64> = journal.records().iter().map(|r| r.clock()).collect();
    assert!(clocks.windows(2).all(|w| w[0] <= w[1]), "{clocks:?}");
}

/// Replay is a verifier, not a believer: tampered stamps, truncated
/// journals, and malformed JSONL all surface as errors.
#[test]
fn replay_rejects_tampered_truncated_and_malformed_journals() {
    let inst = three_query_instance();
    let plan = Deployment::from_raw([0, 1, 2, 3]);
    let (_, journal) = DeployRuntime::default()
        .execute_journaled(&inst, &plan, &EvolutionScenario::quiet("q"))
        .unwrap();

    // Tamper: inflate a dispatch cost.
    let mut tampered = journal.records().to_vec();
    for r in &mut tampered {
        if let JournalRecord::Dispatch(d) = r {
            d.cost += 1.0;
            break;
        }
    }
    let err = replay(&inst, &plan, &DeploymentJournal::new(tampered)).unwrap_err();
    assert!(matches!(err, ReplayError::Diverged(_)), "{err}");
    assert!(err.to_string().contains("dispatch cost"), "{err}");

    // Truncate: drop the final completion.
    let mut truncated = journal.records().to_vec();
    truncated.pop();
    let err = replay(&inst, &plan, &DeploymentJournal::new(truncated)).unwrap_err();
    assert!(matches!(err, ReplayError::Diverged(_)), "{err}");

    // Reorder: complete a build that was never dispatched.
    let mut reordered = journal.records().to_vec();
    reordered.swap(0, 1); // complete before its dispatch
    let err = replay(&inst, &plan, &DeploymentJournal::new(reordered)).unwrap_err();
    assert!(matches!(err, ReplayError::Diverged(_)), "{err}");

    // Malformed JSONL: a broken line names its 1-based line number, both
    // in the typed variant and in the rendered message.
    let mut jsonl = journal.to_jsonl();
    jsonl.push_str("{\"not-a-record\":{}}\n");
    let bad_line = jsonl.lines().count();
    let err = DeploymentJournal::from_jsonl(&jsonl).unwrap_err();
    assert!(
        matches!(err, ReplayError::Malformed { line, .. } if line == bad_line),
        "{err}"
    );
    assert!(
        err.to_string().contains(&format!("line {bad_line}")),
        "{err}"
    );

    // An empty journal replays an empty run only.
    let err = replay(&inst, &plan, &DeploymentJournal::default()).unwrap_err();
    assert!(matches!(err, ReplayError::Diverged(_)), "{err}");
}
