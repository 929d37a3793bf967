//! Every workload, at reduced size, repeats bit-for-bit: twice untraced,
//! and traced against untraced. Only wall-clock metrics may differ.

use idd_perfbench::gauge::Gauge;
use idd_perfbench::layers::{self, PER_LAYER};
use idd_perfbench::{setup, Bench, Outcome, Size, Workload};

const SEED: u64 = 7;

/// One verified round of `workload`'s calls, and its `cost_ratio`.
fn outcome(workload: Workload, seed: u64) -> (Vec<Outcome>, f64) {
    let inputs = setup(workload, Size::Reduced, seed).expect("set-up succeeds");
    let bench = Bench::new(workload, Size::Reduced, seed, inputs).expect("reference succeeds");
    let round: Vec<Outcome> = (0..bench.round())
        .map(|position| {
            let raw = bench.run(position).expect("the call succeeds");
            bench.verify(&raw).expect("the result verifies")
        })
        .collect();
    let cost_ratio = bench.cost_ratio(&round);
    (round, cost_ratio)
}

#[test]
fn untraced_calls_repeat_bit_for_bit() {
    for workload in Workload::ALL {
        let (first, first_ratio) = outcome(workload, SEED);
        let (second, second_ratio) = outcome(workload, SEED);
        assert_eq!(first, second, "{}", workload.name());
        assert_eq!(
            first_ratio.to_bits(),
            second_ratio.to_bits(),
            "{}",
            workload.name()
        );
        assert!(first_ratio > 0.0, "{}", workload.name());
    }
}

#[test]
fn traced_runs_match_untraced_and_repeat_their_counts() {
    for workload in Workload::ALL {
        let name = workload.name();
        let first = layers::traced(workload, Size::Reduced, SEED).expect("traced run succeeds");
        assert_eq!(first.failed, 0, "{name}");
        assert!(first.attempted >= 2, "{name}");
        assert!(first.traced.is_some(), "{name}");
        assert_eq!(first.traced, first.untraced, "{name}");
        assert_eq!(first.untraced, Some(outcome(workload, SEED).0), "{name}");

        let second = layers::traced(workload, Size::Reduced, SEED).expect("traced run succeeds");
        assert_eq!(second.untraced, first.untraced, "{name}");
        for (metric, unit) in PER_LAYER {
            if !matches!(unit, "s" | "us") {
                assert_eq!(
                    first.metrics[metric].to_bits(),
                    second.metrics[metric].to_bits(),
                    "{name} {metric}"
                );
            }
        }
    }
}

#[test]
fn the_seed_drives_the_block_workloads() {
    for workload in [Workload::BlocksSharded, Workload::BlocksDeploy] {
        assert_ne!(
            outcome(workload, 1).0,
            outcome(workload, 2).0,
            "{}",
            workload.name()
        );
    }
}

#[test]
fn gauge_passes_repeat_their_result() {
    let mut gauge = Gauge::new();
    gauge.run_for(0.0);
    gauge.run_for(0.0);
    assert_eq!(gauge.passes(), 2);
    assert_eq!(gauge.failed(), 0);
    assert!(gauge.scale().is_finite() && gauge.scale() > 0.0);
}
