//! The finite-value contract at the runtime's two input boundaries: a
//! scenario handed to `execute_journaled` and a journal handed to
//! `replay`. A non-finite number must stop there with a typed error that
//! wraps `CoreError::NonFiniteValue`, instead of running into an infinite
//! clock, a NaN cost or a panic.

use idd_core::{
    BuildFailure, CoreError, Deployment, EvolutionScenario, IndexId, JournalRecord, ProblemInstance,
};
use idd_deploy::{
    replay, DeployConfig, DeployError, DeployRuntime, DeploymentJournal, ReplayError,
};

fn instance() -> ProblemInstance {
    let mut b = ProblemInstance::builder("finite");
    let i0 = b.add_index(4.0);
    let i1 = b.add_index(6.0);
    let q0 = b.add_query(30.0);
    b.add_plan(q0, vec![i0], 5.0);
    b.add_plan(q0, vec![i1], 20.0);
    let q1 = b.add_query(40.0);
    b.add_plan(q1, vec![i1], 8.0);
    b.build().unwrap()
}

/// A scenario with one drift event, parsed from JSON with its time given
/// as `at`.
fn drift_at(at: &str) -> EvolutionScenario {
    serde_json::from_str(&format!(
        r#"{{"name":"drift","events":[{{"at":{at},"kind":{{"drift":{{"weights":[[1,2.0]]}}}}}}],"failures":[]}}"#
    ))
    .expect("scenario JSON parses")
}

fn assert_non_finite(error: &CoreError) {
    assert!(matches!(error, CoreError::NonFiniteValue { .. }), "{error}");
}

#[test]
fn an_overflowing_event_time_is_rejected() {
    let inst = instance();
    let plan = Deployment::from_raw([0, 1]);
    // The control: a finite time runs.
    DeployRuntime::new(DeployConfig::greedy_replan())
        .execute_journaled(&inst, &plan, &drift_at("50.0"))
        .expect("a finite event time runs");
    // `1e999` parses to +inf. Unchecked, the run finishes with an infinite
    // clock and writes a journal (`"clock":null`) it cannot read back.
    let scenario = drift_at("1e999");
    assert_eq!(scenario.events[0].at, f64::INFINITY);
    match DeployRuntime::new(DeployConfig::greedy_replan())
        .execute_journaled(&inst, &plan, &scenario)
    {
        Err(DeployError::InvalidScenario(e)) => assert_non_finite(&e),
        other => panic!("expected an invalid-scenario error, got {other:?}"),
    }
}

#[test]
fn a_nan_waste_fraction_is_rejected() {
    let inst = instance();
    let plan = Deployment::from_raw([0, 1]);
    let scenario = EvolutionScenario {
        name: "flaky".into(),
        events: vec![],
        failures: vec![BuildFailure {
            index: IndexId::new(1),
            failures: 2,
            waste_fraction: f64::NAN,
        }],
    };
    // Unchecked, NaN reaches `ExactSum`: a panic in debug builds, a
    // denormal negative realized cost and a NaN clock in release builds.
    for slots in [1, 2] {
        let runtime = DeployRuntime::new(DeployConfig::static_plan().with_build_slots(slots));
        match runtime.execute_journaled(&inst, &plan, &scenario) {
            Err(DeployError::InvalidScenario(e)) => assert_non_finite(&e),
            other => panic!("expected an invalid-scenario error, got {other:?}"),
        }
    }
}

#[test]
fn replay_rejects_a_hand_edited_infinite_event_time() {
    let inst = instance();
    let plan = Deployment::from_raw([0, 1]);
    // The drift lands after the last build (t = 10), at its own time 50.
    let (report, journal) = DeployRuntime::new(DeployConfig::static_plan())
        .execute_journaled(&inst, &plan, &drift_at("50.0"))
        .unwrap();
    assert_eq!(report.total_clock, 50.0);
    let jsonl = journal.to_jsonl();
    let edited: String = jsonl
        .lines()
        .map(|line| {
            let line = if line.starts_with(r#"{"event":"#) {
                line.replace(":50,", ":1e999,")
            } else {
                line.to_string()
            };
            line + "\n"
        })
        .collect();
    assert_ne!(edited, jsonl, "the edit hit the event record");
    let edited = DeploymentJournal::from_jsonl(&edited).expect("1e999 is valid JSON");
    let (position, record) = edited
        .records()
        .iter()
        .enumerate()
        .find(|(_, r)| matches!(r, JournalRecord::EventLanded(_)))
        .expect("one event record");
    assert_eq!(record.clock(), f64::INFINITY);
    // Unchecked, replay accepts it and reports `total_clock = inf`.
    match replay(&inst, &plan, &edited) {
        Err(ReplayError::InvalidRecord { record, error }) => {
            assert_eq!(record, position + 1);
            assert_non_finite(&error);
        }
        other => panic!("expected an invalid-record error, got {other:?}"),
    }
    // The unedited journal still replays.
    assert_eq!(replay(&inst, &plan, &journal).unwrap(), report);
}
