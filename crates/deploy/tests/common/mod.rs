//! Shared generators, comparators and the serial oracle of the deploy
//! integration suites: the seeded instance / plan / scenario / policy
//! family the suites here draw from, so they pin the same grid.
#![allow(dead_code)] // each test binary uses its own subset

pub mod serial;

use idd_core::{Deployment, EvolutionScenario, ProblemInstance};
use idd_deploy::{DeployConfig, DeploymentReport};
use idd_solver::replan::{ReplanStrategy, Replanner};
use idd_solver::{CooperationPolicy, SearchBudget};
use idd_workloads::evolution::{
    drift_scenario, failure_scenario, mixed_scenario, revision_scenario, EvolutionConfig,
};
use idd_workloads::synthetic::{generate, SyntheticConfig};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// A deterministic instance family with precedences enabled, so the
/// dispatch gate and closure validity both have teeth.
pub fn instance(seed: u64) -> ProblemInstance {
    generate(SyntheticConfig {
        num_indexes: 9,
        num_queries: 6,
        plans_per_query: 4,
        max_plan_width: 3,
        precedence_probability: 0.15,
        seed,
        ..SyntheticConfig::default()
    })
}

/// A valid initial plan: a seeded shuffle repaired into precedence order by
/// a stable topological pass.
pub fn initial_plan(inst: &ProblemInstance, seed: u64) -> Deployment {
    let n = inst.num_indexes();
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
    let mut emitted = vec![false; n];
    let mut result = Vec::with_capacity(n);
    while result.len() < n {
        let next = order
            .iter()
            .copied()
            .find(|&raw| {
                !emitted[raw]
                    && inst
                        .precedences()
                        .iter()
                        .all(|pr| pr.after.raw() != raw || emitted[pr.before.raw()])
            })
            .expect("acyclic precedences always leave an emittable index");
        emitted[next] = true;
        result.push(next);
    }
    let d = Deployment::from_raw(result);
    assert!(d.is_valid_for(inst));
    d
}

/// The three replan policies of the differential grid, keyed by `choice`.
pub fn policy(choice: u8) -> DeployConfig {
    match choice % 3 {
        0 => DeployConfig::static_plan(),
        1 => DeployConfig::greedy_replan(),
        _ => DeployConfig {
            replanner: Replanner::new(
                ReplanStrategy::Portfolio {
                    cooperation: CooperationPolicy::Off,
                    cancel_on_optimal: false,
                },
                SearchBudget::nodes(30),
            ),
            ..DeployConfig::default()
        },
    }
}

/// The five seeded scenario kinds of the differential grid, keyed by `kind`.
pub fn scenario(inst: &ProblemInstance, kind: u8, seed: u64) -> EvolutionScenario {
    let cfg = EvolutionConfig {
        seed,
        num_events: 1 + (seed % 3) as usize,
        num_failures: 1 + (seed % 2) as usize,
        ..EvolutionConfig::default()
    };
    match kind % 5 {
        0 => drift_scenario(inst, &cfg),
        1 => revision_scenario(inst, &cfg),
        2 => failure_scenario(inst, &cfg),
        3 => mixed_scenario(inst, &cfg),
        _ => EvolutionScenario::quiet("quiet"),
    }
}

/// The invariants of a run at any slot count: committed work (the built
/// prefix and the in-flight set) is never reordered, rebuilt or cancelled,
/// a build starts only after its prerequisites completed, and the slot
/// timeline is physical.
pub fn assert_frozen_and_physical(inst: &ProblemInstance, report: &DeploymentReport, slots: usize) {
    // Commitment immutability: the realized order extends every
    // replan's frozen prefix, which includes its in-flight set — so no
    // replan reordered, rebuilt, or cancelled committed work.
    assert!(report.prefixes_respected());
    assert!(report.in_flight_respected());

    // No index built twice, none invented.
    let realized = report.realized_order();
    let mut seen = std::collections::HashSet::new();
    for (_, i) in realized.iter() {
        assert!(seen.insert(i), "index {i} built twice");
    }

    // Every replan's in-flight set really was mid-build at that clock.
    for r in &report.replans {
        for f in &r.in_flight {
            let b = report
                .builds
                .iter()
                .find(|b| b.index == *f)
                .expect("in-flight index was dispatched");
            assert!(
                b.start <= r.clock + 1e-9 && r.clock < b.finish - 1e-12 || b.finish == b.start,
                "{f} recorded in flight at {} but occupies [{}, {}]",
                r.clock,
                b.start,
                b.finish
            );
        }
    }

    // Closure validity on the original precedences, and the dispatch
    // gate: a build may only *start* after its prerequisites completed.
    for pr in inst.precedences() {
        if let (Some(bp), Some(ap)) = (
            realized.position_of(pr.before),
            realized.position_of(pr.after),
        ) {
            assert!(bp < ap, "{} built after {}", pr.before, pr.after);
            let before = &report.builds[bp];
            let after = &report.builds[ap];
            assert!(
                before.finish <= after.start + 1e-9,
                "{} started at {} before prerequisite {} completed at {}",
                pr.after,
                after.start,
                pr.before,
                before.finish
            );
        }
    }

    // The slot timeline is physical.
    assert!(report.slots_used() <= slots);
    for b in &report.builds {
        assert!(
            (b.finish - b.start - (b.wasted + b.cost)).abs() < 1e-9,
            "{} occupies [{}, {}] but wasted+cost = {}",
            b.index,
            b.start,
            b.finish,
            b.wasted + b.cost
        );
    }
    for a in &report.builds {
        // Capacity: point-in-time concurrency never exceeds the slot
        // count. Concurrency only increases at dispatch instants, so
        // checking each build's start covers the maximum.
        let concurrent = report
            .builds
            .iter()
            .filter(|b| b.start <= a.start + 1e-12 && b.finish > a.start + 1e-12)
            .count();
        assert!(
            concurrent <= slots,
            "{} concurrent builds on {slots} slots at t={}",
            concurrent,
            a.start
        );
        // Two builds sharing a slot never overlap at all.
        for b in &report.builds {
            if a.position != b.position && a.slot == b.slot {
                assert!(
                    a.finish <= b.start + 1e-9 || b.finish <= a.start + 1e-9,
                    "slot {} double-booked by {} and {}",
                    a.slot,
                    a.index,
                    b.index
                );
            }
        }
    }
    assert!(report.realized_cost.is_finite());
}

/// Field-by-field bitwise comparison with a readable failure message —
/// `PartialEq` alone would say "reports differ" without saying where.
pub fn assert_bit_identical(unified: &DeploymentReport, serial: &DeploymentReport) {
    assert_eq!(unified.builds.len(), serial.builds.len(), "build count");
    for (u, s) in unified.builds.iter().zip(&serial.builds) {
        assert_eq!(u.position, s.position, "position of {}", s.index);
        assert_eq!(u.index, s.index, "index at {}", s.position);
        assert_eq!(u.slot, s.slot, "slot of {}", s.index);
        assert_eq!(u.start.to_bits(), s.start.to_bits(), "start of {}", s.index);
        assert_eq!(
            u.finish.to_bits(),
            s.finish.to_bits(),
            "finish of {}",
            s.index
        );
        assert_eq!(u.cost.to_bits(), s.cost.to_bits(), "cost of {}", s.index);
        assert_eq!(
            u.wasted.to_bits(),
            s.wasted.to_bits(),
            "wasted of {}",
            s.index
        );
        assert_eq!(u.retries, s.retries, "retries of {}", s.index);
        assert_eq!(
            u.runtime_before.to_bits(),
            s.runtime_before.to_bits(),
            "runtime_before of {}",
            s.index
        );
        assert_eq!(
            u.runtime_after.to_bits(),
            s.runtime_after.to_bits(),
            "runtime_after of {}",
            s.index
        );
    }
    assert_eq!(unified.replans.len(), serial.replans.len(), "replan count");
    for (k, (u, s)) in unified.replans.iter().zip(&serial.replans).enumerate() {
        assert_eq!(u.clock.to_bits(), s.clock.to_bits(), "replan {k} clock");
        assert_eq!(u.trigger, s.trigger, "replan {k} trigger");
        assert_eq!(u.frozen_prefix, s.frozen_prefix, "replan {k} prefix");
        assert_eq!(u.in_flight, s.in_flight, "replan {k} in-flight");
        assert_eq!(u.suffix_len, s.suffix_len, "replan {k} suffix");
        assert_eq!(
            u.warm_start_objective.map(f64::to_bits),
            s.warm_start_objective.map(f64::to_bits),
            "replan {k} warm start"
        );
        assert_eq!(
            u.objective.to_bits(),
            s.objective.to_bits(),
            "replan {k} objective"
        );
        assert_eq!(u.solver, s.solver, "replan {k} solver");
        assert_eq!(u.improved, s.improved, "replan {k} improved");
    }
    assert_eq!(
        unified.realized_cost.to_bits(),
        serial.realized_cost.to_bits(),
        "realized cost"
    );
    assert_eq!(
        unified.final_runtime.to_bits(),
        serial.final_runtime.to_bits(),
        "final runtime"
    );
    assert_eq!(
        unified.total_clock.to_bits(),
        serial.total_clock.to_bits(),
        "total clock"
    );
    assert_eq!(
        unified.total_build_time.to_bits(),
        serial.total_build_time.to_bits(),
        "total build time"
    );
    assert_eq!(
        unified.total_wasted.to_bits(),
        serial.total_wasted.to_bits(),
        "total wasted"
    );
    assert_eq!(unified.retries, serial.retries, "retries");
    assert_eq!(
        unified.events_applied, serial.events_applied,
        "events applied"
    );
    assert_eq!(
        unified.ineffective_drops, serial.ineffective_drops,
        "ineffective drops"
    );
    // Belt and braces: the derive-based equality must agree.
    assert_eq!(unified, serial);
}
