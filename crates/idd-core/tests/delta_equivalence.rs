//! Bit-for-bit equivalence wall for the incremental evaluators.
//!
//! Every delta-scored move must reproduce `ObjectiveEvaluator::evaluate`
//! exactly — not within a tolerance, but to the last bit (`f64::to_bits`).
//! That is what makes the local-search hot paths safe: an incremental area
//! that drifted by even one ulp would make accept/reject decisions diverge
//! from the from-scratch evaluator and break the solver differential
//! oracles downstream.
//!
//! The properties cover the moves the solvers actually make:
//!
//! * adjacent and non-adjacent pair swaps (tabu best/first-swap scans),
//! * relocations (VNS shift descent, LNS greedy repair),
//! * whole-order replacement through `set_base` (cooperative warm-start
//!   adoption),
//! * long random sequences interleaving evaluations with commits, which
//!   would expose any stale per-position cache left behind by `commit_*`.
//!
//! The swap lower bounds a best-swap scan skips pairs with are pinned here
//! too: after any sequence of commits, every bound minus its margin stays at
//! or below the swap's exact area.

use idd_core::{
    DeltaEvaluator, Deployment, IndexId, InstanceBuilder, ObjectiveEvaluator, ProblemInstance,
};
use proptest::prelude::*;

/// A random consistent problem instance with up to `max_indexes` indexes.
fn arb_instance(max_indexes: usize) -> impl Strategy<Value = ProblemInstance> {
    (2..=max_indexes).prop_flat_map(move |n| {
        let costs = proptest::collection::vec(1.0f64..20.0, n);
        let queries = proptest::collection::vec(
            (
                20.0f64..200.0,
                proptest::collection::vec(
                    (proptest::collection::vec(0..n, 1..=3.min(n)), 0.05f64..0.9),
                    1..=4,
                ),
            ),
            1..=6,
        );
        let interactions = proptest::collection::vec((0..n, 0..n, 0.05f64..0.8), 0..=4);
        (costs, queries, interactions).prop_map(move |(costs, queries, interactions)| {
            let mut b = InstanceBuilder::new("delta-equivalence");
            for c in &costs {
                b.add_index(*c);
            }
            for (runtime, plans) in queries {
                let q = b.add_query(runtime);
                for (members, fraction) in plans {
                    let ids: Vec<IndexId> = members.into_iter().map(IndexId::new).collect();
                    b.add_plan(q, ids, runtime * fraction);
                }
            }
            for (target, helper, fraction) in interactions {
                if target != helper {
                    let saving = costs[target] * fraction;
                    b.add_build_interaction(IndexId::new(target), IndexId::new(helper), saving);
                }
            }
            b.build().expect("generated instance is consistent")
        })
    })
}

/// An instance plus a random base permutation of its indexes.
fn arb_instance_and_base(
    max_indexes: usize,
) -> impl Strategy<Value = (ProblemInstance, Deployment)> {
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
                Deployment::from_raw(order)
            }),
        )
    })
}

/// One move in a generated local-search episode.
#[derive(Debug, Clone)]
enum Move {
    /// Swap positions `a` and `b` (`a == b` allowed: the identity move).
    Swap { a: usize, b: usize, commit: bool },
    /// Relocate position `from` to `to`.
    Shift {
        from: usize,
        to: usize,
        commit: bool,
    },
    /// Replace the whole base with a freshly shuffled order.
    Reseed { seed: u64 },
}

/// A random episode of up to `max_len` moves over an `n`-position order.
/// Adjacent swaps are over-weighted: they are the O(1) fast path and the
/// most common move the tabu scans issue.
fn arb_moves(n: usize, max_len: usize) -> impl Strategy<Value = Vec<Move>> {
    (1..=max_len).prop_perturb(move |len, mut rng| {
        (0..len)
            .map(|_| {
                let commit = rng.next_u64() & 1 == 0;
                let pos = |rng: &mut proptest::TestRng| rng.below(n as u64) as usize;
                match rng.below(9) {
                    0..=3 => {
                        // Adjacent swap.
                        let a = rng.below(n.saturating_sub(1).max(1) as u64) as usize;
                        Move::Swap {
                            a,
                            b: (a + 1).min(n - 1),
                            commit,
                        }
                    }
                    4..=5 => Move::Swap {
                        a: pos(&mut rng),
                        b: pos(&mut rng),
                        commit,
                    },
                    6..=7 => Move::Shift {
                        from: pos(&mut rng),
                        to: pos(&mut rng),
                        commit,
                    },
                    _ => Move::Reseed {
                        seed: rng.next_u64(),
                    },
                }
            })
            .collect()
    })
}

fn shuffled(n: usize, seed: u64) -> Deployment {
    // Tiny deterministic LCG shuffle; good enough for generating orders.
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() as usize) % (i + 1);
        order.swap(i, j);
    }
    Deployment::from_raw(order)
}

fn assert_bits(label: &str, got: f64, want: f64) {
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "{label}: delta path produced {got:?} but the from-scratch evaluator says {want:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every pair swap — adjacent or not — reproduces the from-scratch area
    /// bit-for-bit, and probing does not corrupt the evaluator (the same
    /// probe repeated returns the same bits).
    #[test]
    fn swaps_match_full_evaluation((inst, base) in arb_instance_and_base(10)) {
        let n = inst.num_indexes();
        let full = ObjectiveEvaluator::new(&inst);
        let mut delta = DeltaEvaluator::new(&inst, base.clone());
        assert_bits("base area", delta.base_area(), full.evaluate_area(&base));
        for a in 0..n {
            for b in a..n {
                let mut swapped = base.clone();
                swapped.swap(a, b);
                let want = full.evaluate_area(&swapped);
                assert_bits("swap", delta.evaluate_swap(a, b), want);
                assert_bits("swap (repeat probe)", delta.evaluate_swap(a, b), want);
            }
        }
    }

    /// Every relocation reproduces `Deployment::relocate` + full evaluation
    /// bit-for-bit.
    #[test]
    fn shifts_match_full_evaluation((inst, base) in arb_instance_and_base(9)) {
        let n = inst.num_indexes();
        let full = ObjectiveEvaluator::new(&inst);
        let mut delta = DeltaEvaluator::new(&inst, base.clone());
        for from in 0..n {
            for to in 0..n {
                let mut moved = base.clone();
                moved.relocate(from, to);
                assert_bits("shift", delta.evaluate_shift(from, to), full.evaluate_area(&moved));
            }
        }
    }

    /// Long random episodes interleaving probes with commits: after every
    /// commit the evaluator's cached area and every subsequent probe must
    /// still match the from-scratch evaluator. This is the stale-cache
    /// regression wall — a `commit_*` that forgets to refresh a
    /// per-position cache line fails here within a few moves.
    #[test]
    fn committed_move_sequences_stay_exact(
        ((inst, base), moves) in (arb_instance_and_base(8), arb_moves(8, 24))
    ) {
        let n = inst.num_indexes();
        let full = ObjectiveEvaluator::new(&inst);
        let mut delta = DeltaEvaluator::new(&inst, base.clone());
        let mut current = base;

        for mv in moves {
            match mv {
                Move::Swap { a, b, commit } => {
                    let (a, b) = (a.min(n - 1), b.min(n - 1));
                    let mut next = current.clone();
                    next.swap(a, b);
                    let want = full.evaluate_area(&next);
                    assert_bits("episode swap probe", delta.evaluate_swap(a, b), want);
                    if commit {
                        delta.commit_swap(a, b);
                        current = next;
                    }
                }
                Move::Shift { from, to, commit } => {
                    let (from, to) = (from.min(n - 1), to.min(n - 1));
                    let mut next = current.clone();
                    next.relocate(from, to);
                    let want = full.evaluate_area(&next);
                    assert_bits("episode shift probe", delta.evaluate_shift(from, to), want);
                    if commit {
                        delta.commit_shift(from, to);
                        current = next;
                    }
                }
                Move::Reseed { seed } => {
                    let next = shuffled(n, seed);
                    delta.set_base(next.clone());
                    current = next;
                }
            }
            // The committed state must stay exact after every step.
            let want = full.evaluate_area(&current);
            assert_bits("episode base", delta.base_area(), want);
            prop_assert_eq!(delta.base().order(), current.order());
        }
    }
}

/// Deterministic regression: a commit immediately followed by a probe of the
/// *same* span exercises the freshly rewritten cache lines.
#[test]
fn probe_after_commit_reuses_fresh_cache() {
    let mut b = InstanceBuilder::new("stale-cache");
    let i: Vec<IndexId> = (0..6).map(|k| b.add_index(2.0 + k as f64)).collect();
    for q in 0..4 {
        let qid = b.add_query(60.0 + q as f64 * 11.0);
        b.add_plan(qid, vec![i[q % 6]], 9.0);
        b.add_plan(qid, vec![i[q % 6], i[(q + 2) % 6]], 21.0);
    }
    b.add_build_interaction(i[0], i[3], 1.25);
    b.add_build_interaction(i[4], i[1], 0.75);
    let inst = b.build().unwrap();
    let full = ObjectiveEvaluator::new(&inst);

    let mut delta = DeltaEvaluator::new(&inst, Deployment::identity(6));
    delta.commit_swap(1, 2);
    delta.commit_shift(0, 4);
    let mut current = Deployment::identity(6);
    current.swap(1, 2);
    current.relocate(0, 4);
    assert_eq!(delta.base().order(), current.order());
    assert_eq!(
        delta.base_area().to_bits(),
        full.evaluate_area(&current).to_bits()
    );
    // Re-probe the exact span the commits touched.
    for a in 0..5 {
        let mut swapped = current.clone();
        swapped.swap(a, a + 1);
        assert_eq!(
            delta.evaluate_swap(a, a + 1).to_bits(),
            full.evaluate_area(&swapped).to_bits()
        );
    }
}

/// A random instance for the swap bounds: several helpers per target,
/// plans that share indexes, and either integer values, on which every
/// bound is exact, or real values at a magnitude from `1e-3` to `1e6`. Some
/// savings exceed their target's creation cost by less than the builder's
/// `1e-9` tolerance, which makes that build's cost slightly negative once a
/// large enough helper is built (visible at small magnitudes).
fn arb_bound_instance() -> impl Strategy<Value = ProblemInstance> {
    (2usize..=11, 0u8..2, 0usize..4).prop_flat_map(|(n, integer, magnitude)| {
        let integer = integer == 1;
        let scale = if integer {
            [1.0, 1.0, 1e3, 1e3][magnitude]
        } else {
            [1e-3, 1.0, 1e3, 1e6][magnitude]
        };
        // Integer instances floor every drawn value.
        let value = move |x: f64| if integer { x.floor() } else { x };
        let costs = proptest::collection::vec(1.0f64..21.0, n);
        let pool = proptest::collection::vec(0..n, 1..=n.min(5));
        let queries = proptest::collection::vec(
            (
                10.0f64..201.0,
                proptest::collection::vec(
                    (proptest::collection::vec(0..n, 1..=3), 0u32..=10),
                    1..=5,
                ),
            ),
            1..=6,
        );
        let interactions = proptest::collection::vec((0..n, 0..n, 0u32..=10, 0u32..4), 0..=2 * n);
        (costs, pool, queries, interactions).prop_map(
            move |(costs, pool, queries, interactions)| {
                let costs: Vec<f64> = costs.into_iter().map(value).collect();
                let mut b = InstanceBuilder::new("swap-bounds");
                for c in &costs {
                    b.add_index(c * scale);
                }
                for (runtime, plans) in queries {
                    let runtime = value(runtime);
                    let q = b.add_query(runtime * scale);
                    for (members, tenths) in plans {
                        // Members come from a small shared pool, so plans
                        // of different queries overlap.
                        let mut ids: Vec<usize> =
                            members.iter().map(|&m| pool[m % pool.len()]).collect();
                        ids.sort_unstable();
                        ids.dedup();
                        let speedup = value(runtime * f64::from(tenths) / 10.0);
                        let ids = ids.into_iter().map(IndexId::new).collect();
                        b.add_plan(q, ids, speedup * scale);
                    }
                }
                for (target, helper, tenths, kind) in interactions {
                    if target == helper {
                        continue;
                    }
                    let saving = if kind == 0 {
                        costs[target] * scale + 0.5e-9
                    } else {
                        value(costs[target] * f64::from(tenths) / 10.0) * scale
                    };
                    b.add_build_interaction(IndexId::new(target), IndexId::new(helper), saving);
                }
                b.build().expect("generated instance is consistent")
            },
        )
    })
}

/// Asserts `swap_bound(a, b) − margin ≤ evaluate_swap(a, b)` for every
/// `a < b`, probing each swap between row preparation and the bound read.
fn assert_bounds_hold(delta: &mut DeltaEvaluator) {
    let n = delta.base().len();
    let margin = delta.swap_bound_margin();
    assert!(margin > 0.0, "the margin must never be zero");
    for b in 1..n {
        delta.swap_bound_row(b);
        for a in (0..b).rev() {
            let area = delta.evaluate_swap(a, b);
            let bound = delta.swap_bound(a, b);
            assert!(
                bound - margin <= area,
                "swap ({a}, {b}) of {:?}: bound {bound:?} - margin {margin:?} exceeds area {area:?}",
                delta.base().order()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Every swap bound, minus its margin, stays at or below the exact
    /// area, on every base a walk of swaps, shifts and whole-order
    /// replacements reaches.
    #[test]
    fn swap_bounds_never_exceed_the_area(
        (inst, moves) in arb_bound_instance()
            .prop_flat_map(|inst| {
                let n = inst.num_indexes();
                (Just(inst), arb_moves(n, 6))
            })
    ) {
        let n = inst.num_indexes();
        let mut delta = DeltaEvaluator::new(&inst, Deployment::identity(n));
        assert_bounds_hold(&mut delta);
        for mv in moves {
            match mv {
                Move::Swap { a, b, .. } => delta.commit_swap(a.min(n - 1), b.min(n - 1)),
                Move::Shift { from, to, .. } => delta.commit_shift(from.min(n - 1), to.min(n - 1)),
                Move::Reseed { seed } => delta.set_base(shuffled(n, seed)),
            }
            assert_bounds_hold(&mut delta);
        }
    }
}
