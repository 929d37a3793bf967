//! Differential test of the tail step (`properties::tail::analyze`).
//!
//! The reference below builds every feasible tail into a list (stopping at
//! `budget + 1`), scores each one, keeps one champion per tail set in a
//! `HashMap` (a later ordering replaces the champion only when its
//! objective is strictly smaller) and pins the champions' common last index
//! when every champion has the same one. The shipped step counts the tails
//! without building them and scores one set at a time, stopping at the
//! first disagreement; it must return the same value and leave the same
//! constraint set.
//!
//! The grid crosses seeded instances (random hard precedences, deadweight
//! indexes that cost much and help little, coarse integer-valued indexes
//! whose orderings tie) × two starting constraint sets (the hard
//! precedences alone, and those plus the alliance, colonized, dominated and
//! disjoint pairs) × tail lengths 1–4 × tail budgets 1–50 000. A call that
//! pins is repeated on its result. The test asserts that the grid reaches a
//! pin, a budget overflow, an already-pinned call and an objective tie
//! between two orderings of one set.

use idd_core::{ExactSum, IndexId, PlanId, ProblemInstance};
use idd_solver::properties::{analyze, tail, AnalysisOptions};
use idd_solver::OrderConstraints;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// What the reference saw in one call.
#[derive(Default)]
struct Seen {
    pinned: bool,
    overflow: bool,
    already_pinned: bool,
    tie: bool,
}

impl Seen {
    fn absorb(&mut self, other: Seen) {
        self.pinned |= other.pinned;
        self.overflow |= other.overflow;
        self.already_pinned |= other.already_pinned;
        self.tie |= other.tie;
    }
}

/// Every feasible tail of `len` indexes, built backwards from the last
/// position with candidates by ascending raw id; `None` past `budget`.
fn enumerate_tails(
    constraints: &OrderConstraints,
    len: usize,
    budget: usize,
) -> Option<Vec<Vec<IndexId>>> {
    fn recurse(
        constraints: &OrderConstraints,
        len: usize,
        suffix: &mut Vec<IndexId>,
        used: &mut Vec<bool>,
        result: &mut Vec<Vec<IndexId>>,
        budget: usize,
    ) -> bool {
        let n = used.len();
        if suffix.len() == len {
            result.push(suffix.iter().rev().copied().collect());
            return result.len() <= budget;
        }
        for raw in 0..n {
            let candidate = IndexId::new(raw);
            let fits = !used[raw]
                && (0..n).all(|s| !constraints.must_precede(candidate, IndexId::new(s)) || used[s]);
            if !fits {
                continue;
            }
            used[raw] = true;
            suffix.push(candidate);
            let go_on = recurse(constraints, len, suffix, used, result, budget);
            suffix.pop();
            used[raw] = false;
            if !go_on {
                return false;
            }
        }
        true
    }
    let mut result = Vec::new();
    let mut used = vec![false; constraints.len()];
    recurse(
        constraints,
        len,
        &mut Vec::new(),
        &mut used,
        &mut result,
        budget,
    )
    .then_some(result)
}

/// Workload runtime when exactly the indexes in `built` exist, by a scan of
/// every plan: `R_∅` minus each query's best available speed-up, summed
/// exactly and rounded once like the library's evaluators.
fn runtime_with(instance: &ProblemInstance, built: &[bool]) -> f64 {
    let mut best = vec![0.0_f64; instance.num_queries()];
    for (p, plan) in instance.plans().iter().enumerate() {
        if plan.available_in(built) {
            let q = plan.query.raw();
            let speedup = instance.plan_speedup(PlanId::new(p));
            if speedup > best[q] {
                best[q] = speedup;
            }
        }
    }
    let mut acc = ExactSum::new();
    acc.add(instance.baseline_runtime());
    for b in best {
        acc.sub(b);
    }
    acc.value()
}

/// Area the tail adds when every other index is already built.
fn tail_objective(instance: &ProblemInstance, tail: &[IndexId]) -> f64 {
    let mut built = vec![true; instance.num_indexes()];
    for &t in tail {
        built[t.raw()] = false;
    }
    let mut area = 0.0;
    for &t in tail {
        area += runtime_with(instance, &built) * instance.effective_build_cost(t, &built);
        built[t.raw()] = true;
    }
    area
}

/// The reference tail step: returns the number of pinned indexes and what
/// it saw.
fn reference(
    instance: &ProblemInstance,
    constraints: &mut OrderConstraints,
    tail_length: usize,
    budget: usize,
) -> (usize, Seen) {
    let n = instance.num_indexes();
    let mut seen = Seen::default();
    if n < 2 {
        return (0, seen);
    }
    seen.already_pinned = (0..n).any(|last| {
        (0..n).all(|other| {
            other == last || constraints.must_precede(IndexId::new(other), IndexId::new(last))
        })
    });
    let len = tail_length.min(n).max(1);
    let tails = match enumerate_tails(constraints, len, budget) {
        Some(t) if !t.is_empty() => t,
        Some(_) => return (0, seen),
        None => {
            seen.overflow = true;
            return (0, seen);
        }
    };
    let mut champions: HashMap<Vec<usize>, (f64, Vec<IndexId>)> = HashMap::new();
    for tail in tails {
        let mut key: Vec<usize> = tail.iter().map(|i| i.raw()).collect();
        key.sort_unstable();
        let objective = tail_objective(instance, &tail);
        match champions.get(&key) {
            Some((best, _)) if *best <= objective => seen.tie |= *best == objective,
            _ => {
                champions.insert(key, (objective, tail));
            }
        }
    }
    let mut last_indexes = champions.values().map(|(_, tail)| *tail.last().unwrap());
    let first = last_indexes.next().unwrap();
    if !last_indexes.all(|i| i == first) {
        return (0, seen);
    }
    let mut added = 0;
    for raw in 0..n {
        let other = IndexId::new(raw);
        if other != first
            && !constraints.must_precede(other, first)
            && constraints.add_before(other, first)
        {
            added = 1;
        }
    }
    seen.pinned = added == 1;
    (added, seen)
}

/// A seeded instance of 2–8 indexes, each with a query of its own, plus a
/// few shared plans, build interactions and hard precedences. Every third
/// seed draws costs and speed-ups from two values only, so indexes repeat
/// and orderings of one set tie; the others add deadweight indexes.
fn instance(seed: u64) -> ProblemInstance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = rng.gen_range(2..=8);
    let coarse = seed.is_multiple_of(3);
    let deadweights = if coarse { 0 } else { rng.gen_range(0..=2) };
    let mut b = ProblemInstance::builder(format!("tail-differential-{seed}"));
    let mut costs = Vec::new();
    for k in 0..n {
        let (cost, runtime, speedup) = if coarse {
            let twice = rng.gen_bool(0.5);
            (if twice { 4.0 } else { 2.0 }, 100.0, 40.0)
        } else if k < deadweights {
            (rng.gen_range(15.0..25.0), 10.0, rng.gen_range(0.1..1.0))
        } else {
            let runtime = rng.gen_range(30.0..200.0);
            (
                rng.gen_range(1.0..8.0),
                runtime,
                runtime * rng.gen_range(0.2..0.6),
            )
        };
        let index = b.add_index(cost);
        let query = b.add_query(runtime);
        b.add_plan(query, vec![index], speedup);
        costs.push(cost);
    }
    if !coarse {
        for _ in 0..n / 2 {
            let (a, c) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if a != c {
                let runtime = rng.gen_range(30.0..200.0);
                let query = b.add_query(runtime);
                let pair = vec![IndexId::new(a), IndexId::new(c)];
                b.add_plan(query, pair, runtime * rng.gen_range(0.3..0.7));
            }
            let (target, helper) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if target != helper {
                let speedup = costs[target] * rng.gen_range(0.1..0.5);
                b.add_build_interaction(IndexId::new(target), IndexId::new(helper), speedup);
            }
        }
    }
    // Precedences follow a random permutation, so they never form a cycle.
    let mut rank: Vec<usize> = (0..n).collect();
    rank.shuffle(&mut rng);
    for _ in 0..rng.gen_range(0..=n / 2) {
        let (a, c) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if rank[a] < rank[c] {
            b.add_precedence(IndexId::new(a), IndexId::new(c));
        }
    }
    b.build().expect("differential instance is consistent")
}

#[test]
fn tail_step_matches_the_enumerating_reference() {
    const BUDGETS: [usize; 7] = [1, 2, 7, 40, 300, 5_000, 50_000];
    let mut seen = Seen::default();
    let mut cells = 0;
    for seed in 0..36 {
        let inst = instance(seed);
        let starts = [
            OrderConstraints::from_instance(&inst),
            analyze(&inst, AnalysisOptions::drill_down("ACMD")).constraints,
        ];
        for (s, start) in starts.iter().enumerate() {
            for len in 1..=4 {
                for budget in BUDGETS {
                    let mut expected = start.clone();
                    let mut actual = start.clone();
                    // A call that pins is repeated on its result, which
                    // then ends every tail with the pinned index.
                    for call in 0..2 {
                        let (want, call_seen) = reference(&inst, &mut expected, len, budget);
                        let got = tail::analyze(&inst, &mut actual, len, budget);
                        let cell =
                            format!("seed {seed} start {s} len {len} budget {budget} call {call}");
                        assert_eq!(got, want, "{cell}: pinned count");
                        assert_eq!(actual, expected, "{cell}: constraint set");
                        seen.absorb(call_seen);
                        cells += 1;
                        if want == 0 {
                            break;
                        }
                    }
                }
            }
        }
    }
    assert!(seen.pinned, "the grid never pins an index");
    assert!(seen.overflow, "the grid never overflows the tail budget");
    assert!(
        seen.already_pinned,
        "the grid never meets an already-pinned index"
    );
    assert!(seen.tie, "no two orderings of one tail set tie");
    assert!(cells > 1_000, "only {cells} calls compared");
}
