//! Bit-for-bit golden of the k-slot list scheduler.
//!
//! The deploy runtime and the slot-aware replan scorer
//! (`SlotScheduleEvaluator`) schedule builds onto `k` slots with the same
//! rules. The `work_conserving` suite checks that the two agree with each
//! other on quiet runs; this golden pins what both compute, so a slip in
//! code they share cannot pass by agreeing with itself.
//!
//! Two grids, one FNV-1a line per instance × plan or instance × scenario,
//! over the `common` instance family and a small integer-valued family
//! whose builds often finish at exactly the same time (so completion ties,
//! and dispatches between tied completions, occur):
//!
//! * **evaluator** — each instance × seeded plans, each
//!   scored on 1–4 slots under both dispatch policies and against a set of
//!   occupied-slot vectors (`busy_until`): none, a slot draining exactly
//!   when the head build completes, two slots draining at once, more
//!   offsets than slots, a far-future offset and offsets clamped to zero.
//!   The line hashes every area, makespan and final-runtime bit pattern and
//!   overtake count.
//! * **runtime** — each instance × the `common` scenario kinds, run through
//!   `execute_journaled` on 1–3 slots × both dispatch policies × slot-aware
//!   scoring on/off × `OnEvent`/`OnFailure` triggers × static/greedy
//!   replans. The line hashes each run's report (every `f64` by its
//!   round-trip `Debug` form) and its journal's JSONL.
//!
//! The grid must reach the paths that matter: an overtake, and a
//! slot-aware replan with builds still in flight.
//!
//! To bless an intentional change:
//! `BLESS=1 cargo test -p idd-deploy --test schedule_golden`

mod common;

use common::{initial_plan, instance, scenario};
use idd_core::{IndexId, ProblemInstance, SlotScheduleEvaluator, SlotScheduleValue};
use idd_deploy::{DeployConfig, DeployRuntime, DispatchPolicy, ReplanTrigger};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::path::Path;

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// An 8-index instance whose costs, speed-ups and discounts are whole
/// numbers, so builds often complete at exactly the same time.
fn tie_instance(seed: u64) -> ProblemInstance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = ProblemInstance::builder(format!("ties-{seed}"));
    let idx: Vec<IndexId> = (0..8)
        .map(|_| b.add_index(rng.gen_range(2.0..5.0_f64).floor()))
        .collect();
    for q in 0..6 {
        let qid = b.add_query(40.0);
        b.add_plan(qid, vec![idx[q]], rng.gen_range(2.0..10.0_f64).floor());
        b.add_plan(
            qid,
            vec![idx[q], idx[(q + 3) % 8]],
            rng.gen_range(10.0..20.0_f64).floor(),
        );
    }
    b.add_build_interaction(idx[1], idx[0], 1.0);
    b.add_build_interaction(idx[5], idx[2], 1.0);
    b.add_precedence(idx[0], idx[6]);
    b.add_precedence(idx[2], idx[7]);
    b.build().expect("tie instance is consistent")
}

/// The instances of both grids: `(label, instance, plans or scenario
/// seeds)`.
fn instances(common: u64, ties: u64) -> Vec<(String, ProblemInstance)> {
    (0..common)
        .map(|seed| (format!("inst={seed}"), instance(seed)))
        .chain((0..ties).map(|seed| (format!("ties={seed}"), tie_instance(seed))))
        .collect()
}

const POLICIES: [DispatchPolicy; 2] = [DispatchPolicy::HeadOfLine, DispatchPolicy::WorkConserving];

/// The evaluator for `slots` slots under `policy`, with `busy` occupied.
fn evaluator<'a>(
    inst: &'a ProblemInstance,
    slots: usize,
    policy: DispatchPolicy,
    busy: &[f64],
) -> SlotScheduleEvaluator<'a> {
    SlotScheduleEvaluator::new(inst, slots, policy).with_busy_until(busy)
}

/// The occupied-slot vectors of the evaluator grid, built around the cost
/// `head` of the plan's first build (nothing completed yet), so some drains
/// tie exactly with a completion.
fn busy_vectors(head: f64) -> Vec<Vec<f64>> {
    vec![
        vec![],
        vec![head],
        vec![0.0, head],
        vec![head, head],
        vec![head, 0.0, head],
        vec![0.5 * head, 2.0 * head, head / 3.0],
        vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        vec![1e9],
        vec![0.0, 1e9],
        vec![f64::NAN, -1.0, f64::INFINITY, 0.0],
    ]
}

fn value_words(value: &SlotScheduleValue) -> [u64; 4] {
    [
        value.area.to_bits(),
        value.makespan.to_bits(),
        value.final_runtime.to_bits(),
        value.overtakes as u64,
    ]
}

#[test]
fn slot_schedule_grid_matches_golden() {
    let mut lines = Vec::new();
    let mut evaluator_overtakes = 0usize;
    for (k, (label, inst)) in instances(10, 4).iter().enumerate() {
        let plans = if k < 10 { 10 } else { 5 };
        for plan_seed in 0u64..plans {
            let plan = initial_plan(inst, 100 * k as u64 + plan_seed);
            let head = plan.order()[0];
            let head_cost = inst.effective_build_cost(head, &vec![false; inst.num_indexes()]);
            let mut words = Vec::new();
            let mut overtakes = 0usize;
            for slots in 1usize..=4 {
                for policy in POLICIES {
                    for busy in busy_vectors(head_cost) {
                        let value = evaluator(inst, slots, policy, &busy).evaluate(&plan);
                        overtakes += value.overtakes;
                        words.extend(value_words(&value));
                    }
                }
            }
            evaluator_overtakes += overtakes;
            lines.push(format!(
                "eval {label} plan={plan_seed} overtakes={overtakes} hash={:016x}",
                fnv1a(words.iter().flat_map(|w| w.to_le_bytes()))
            ));
        }
    }
    assert!(evaluator_overtakes > 0, "no evaluator run overtook a head");

    let mut runtime_overtakes = 0usize;
    let mut slot_aware_in_flight_replans = 0usize;
    for (k, (label, inst)) in instances(20, 4).iter().enumerate() {
        let inst_seed = k as u64;
        let plan = initial_plan(inst, 7 * inst_seed + 3);
        for kind in 0u8..5 {
            let scenario = scenario(inst, kind, 40 + inst_seed);
            let mut text = String::new();
            let mut runs = 0usize;
            let mut replans = 0usize;
            for slots in 1usize..=3 {
                for policy in POLICIES {
                    for slot_aware in [false, true] {
                        for trigger in [ReplanTrigger::OnEvent, ReplanTrigger::OnFailure] {
                            for greedy in [false, true] {
                                let base = if greedy {
                                    DeployConfig::greedy_replan()
                                } else {
                                    DeployConfig::static_plan()
                                };
                                let config = base
                                    .with_build_slots(slots)
                                    .with_dispatch(policy)
                                    .with_slot_aware_replan(slot_aware)
                                    .with_trigger(trigger);
                                runs += 1;
                                match DeployRuntime::new(config)
                                    .execute_journaled(inst, &plan, &scenario)
                                {
                                    Ok((report, journal)) => {
                                        runtime_overtakes += report.out_of_order_dispatches;
                                        replans += report.replans.len();
                                        if slot_aware && slots > 1 {
                                            slot_aware_in_flight_replans += report
                                                .replans
                                                .iter()
                                                .filter(|r| !r.in_flight.is_empty())
                                                .count();
                                        }
                                        text.push_str(&format!("{report:?}\n"));
                                        text.push_str(&journal.to_jsonl());
                                    }
                                    Err(e) => text.push_str(&format!("error: {e}\n")),
                                }
                            }
                        }
                    }
                }
            }
            lines.push(format!(
                "run {label} kind={kind} runs={runs} replans={replans} hash={:016x}",
                fnv1a(text.bytes())
            ));
        }
    }
    assert!(runtime_overtakes > 0, "no runtime dispatch overtook a head");
    assert!(
        slot_aware_in_flight_replans > 0,
        "no slot-aware replan ran with builds in flight"
    );

    let actual = lines.join("\n") + "\n";
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/schedule.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(golden.parent().unwrap()).expect("golden dir");
        std::fs::write(&golden, &actual).expect("failed to write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&golden)
        .unwrap_or_else(|e| panic!("missing golden file {golden:?}: {e} (run with BLESS=1)"));
    let drift: Vec<String> = expected
        .lines()
        .zip(actual.lines())
        .filter(|(e, a)| e != a)
        .map(|(e, a)| format!("  expected: {e}\n  actual:   {a}"))
        .collect();
    assert!(
        drift.is_empty() && expected.lines().count() == actual.lines().count(),
        "slot-schedule golden drifted (BLESS=1 to accept an intentional change):\n{}\n\
         [expected {} lines, actual {} lines]",
        drift.join("\n"),
        expected.lines().count(),
        actual.lines().count()
    );
}
