//! Concurrency test harness for the cooperative portfolio.
//!
//! The cooperative paths (versioned shared incumbent, warm-start-on-stall,
//! work-stealing hints) are exactly the kind of code whose bugs only show up
//! under interleavings, so this suite attacks them from four sides:
//!
//! 1. **Reproducibility** — with [`CooperationPolicy::Off`], fixed seeds and
//!    node budgets, every member inside the portfolio race must produce a
//!    result *bit-identical* to its standalone run (the pre-cooperation
//!    behaviour): cooperation must be impossible to observe when switched
//!    off.
//! 2. **Versioned-cell invariants under racing** — a 64-iteration loop over
//!    member/thread counts {1, 2, 4} with a concurrent observer asserts that
//!    every published incumbent epoch is monotone, objectives never regress
//!    as epochs grow, and every published (hence every adoptable) deployment
//!    satisfies the precedence closure and re-evaluates to its stored
//!    objective — the same validators the differential-oracle suite applies
//!    to solver outputs.
//! 3. **Property test** — [`SharedIncumbent::offer_deployment`] under
//!    concurrent writers never lets a worse objective overwrite a better
//!    one, and the stored order always matches the stored objective when
//!    re-evaluated.
//! 4. **Deterministic cooperation** — single-threaded warm-start and
//!    hint-stealing scenarios with pre-seeded shared state, locking down
//!    that all three local searches actually restart from the shared best
//!    on stall and that LNS consumes the hint deque.

use idd_core::{Deployment, IndexId, ObjectiveEvaluator, ProblemInstance};
use idd_solver::exact::{CpConfig, CpSolver};
use idd_solver::local::{
    LnsConfig, LnsSolver, SwapStrategy, TabuConfig, TabuSolver, VnsConfig, VnsSolver,
};
use idd_solver::{
    CooperationPolicy, OrderConstraints, PortfolioConfig, PortfolioSolver, SearchBudget,
    SharedIncumbent, SolveContext, SolveResult, Solver,
};
use proptest::prelude::*;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A deterministic mid-size instance with plan interactions, build
/// interactions and a hard precedence (so the closure validators have
/// something to bite on).
fn instance(seed: u64) -> ProblemInstance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(7));
    let n = 8;
    let mut b = ProblemInstance::builder(format!("coop-{seed}"));
    let idx: Vec<IndexId> = (0..n)
        .map(|_| b.add_index(rng.gen_range(1.5..9.0)))
        .collect();
    for q in 0..7 {
        let runtime = rng.gen_range(40.0..160.0);
        let qid = b.add_query(runtime);
        let a = idx[(q * 3) % n];
        let c = idx[(q * 5 + 1) % n];
        let d = idx[(q * 7 + 2) % n];
        b.add_plan(qid, vec![a], runtime * rng.gen_range(0.08..0.2));
        b.add_plan(qid, vec![a, c], runtime * rng.gen_range(0.2..0.35));
        b.add_plan(qid, vec![a, c, d], runtime * rng.gen_range(0.35..0.5));
    }
    b.add_build_interaction(idx[1], idx[0], 0.5);
    b.add_build_interaction(idx[4], idx[5], 0.8);
    b.add_precedence(idx[0], idx[2]);
    b.build().expect("cooperation test instance is consistent")
}

/// Differential-oracle style validator (the same checks
/// `crates/idd/tests/differential.rs` applies to solver outputs): a valid
/// permutation, satisfying the precedence closure, with a matching
/// objective.
fn assert_valid_pair(
    label: &str,
    order: &[IndexId],
    objective: f64,
    instance: &ProblemInstance,
    constraints: &OrderConstraints,
) {
    let deployment = Deployment::new(order.to_vec());
    deployment
        .validate(instance)
        .unwrap_or_else(|e| panic!("{label}: invalid deployment: {e}"));
    assert!(
        constraints.is_satisfied_by(deployment.order()),
        "{label}: violates the precedence closure: {deployment:?}"
    );
    let area = ObjectiveEvaluator::new(instance).evaluate_area(&deployment);
    assert!(
        (area - objective).abs() < 1e-6,
        "{label}: stored objective {objective} does not match its order (re-evaluates to {area})"
    );
}

/// A local-search-only roster with per-member seeds derived from `seed`,
/// truncated to `members` entries.
fn local_roster(seed: u64, members: usize) -> Vec<Box<dyn Solver>> {
    let mut roster: Vec<Box<dyn Solver>> = vec![
        Box::new(LnsSolver::with_config(LnsConfig {
            seed: seed ^ 0xA1,
            stall_iterations: Some(3),
            failure_limit: 60,
            ..LnsConfig::default()
        })),
        Box::new(VnsSolver::with_config(VnsConfig {
            seed: seed ^ 0xB2,
            stall_iterations: Some(3),
            initial_failure_limit: 60,
            ..VnsConfig::default()
        })),
        Box::new(TabuSolver::with_config(TabuConfig {
            strategy: SwapStrategy::First,
            seed: seed ^ 0xC3,
            stall_iterations: Some(3),
            ..TabuConfig::default()
        })),
        Box::new(TabuSolver::with_config(TabuConfig {
            strategy: SwapStrategy::Best,
            seed: seed ^ 0xD4,
            stall_iterations: Some(3),
            ..TabuConfig::default()
        })),
    ];
    roster.truncate(members.max(1));
    roster
}

/// With cooperation off, fixed seeds and node budgets, the members of a
/// portfolio race must be indistinguishable from their standalone runs —
/// same objective bits, same deployment, same node count. This pins the
/// pre-cooperation (PR 2) behaviour: `CooperationPolicy::Off` really is the
/// old independent race.
#[test]
fn off_policy_members_are_bit_identical_to_standalone_runs() {
    let inst = instance(1);
    let budget = SearchBudget::nodes(40);
    let make_roster = || -> Vec<Box<dyn Solver>> {
        let mut roster = local_roster(11, 4);
        roster.push(Box::new(CpSolver::with_config(CpConfig::with_properties(
            budget,
        ))));
        roster
    };

    let solo: Vec<SolveResult> = make_roster()
        .iter()
        .map(|m| m.run_standalone(&inst, budget))
        .collect();

    let race = |cancel_on_optimal: bool| {
        PortfolioSolver::with_members(budget, make_roster())
            .with_config(PortfolioConfig {
                budget,
                cancel_on_optimal,
                cooperation: CooperationPolicy::Off,
            })
            .solve_detailed(&inst)
    };
    let outcome = race(false);
    let repeat = race(false);

    for ((member, solo), again) in outcome.members.iter().zip(&solo).zip(&repeat.members) {
        assert_eq!(
            member.objective.to_bits(),
            solo.objective.to_bits(),
            "{}: portfolio(off) and standalone objectives must be bit-identical",
            member.solver
        );
        assert_eq!(
            member.deployment.as_ref().map(|d| d.order().to_vec()),
            solo.deployment.as_ref().map(|d| d.order().to_vec()),
            "{}: portfolio(off) and standalone deployments must be identical",
            member.solver
        );
        assert_eq!(member.nodes, solo.nodes, "{}: node counts", member.solver);
        // And a second race reproduces the first exactly.
        assert_eq!(member.objective.to_bits(), again.objective.to_bits());
        // No cooperation may be observable when switched off.
        assert_eq!(member.coop.restarts, 0, "{}", member.solver);
        assert_eq!(member.coop.adoptions, 0, "{}", member.solver);
        assert_eq!(member.coop.hints_stolen, 0, "{}", member.solver);
        assert_eq!(member.coop.hints_published, 0, "{}", member.solver);
    }
}

/// The tentpole stress test: 64 iterations over member counts {1, 2, 4}
/// with warm-starts on and a concurrent observer polling the shared cell
/// mid-race. Asserts, for every observed publication: epochs are monotone,
/// objectives never regress as epochs grow, and the published deployment —
/// the only thing any member can adopt — passes the differential-oracle
/// validators.
#[test]
fn warm_start_races_publish_monotone_epochs_and_valid_deployments() {
    for &members in &[1usize, 2, 4] {
        for iter in 0..64u64 {
            let seed = iter * 31 + members as u64;
            let inst = instance(seed % 5);
            let constraints = OrderConstraints::from_instance(&inst);
            let budget = SearchBudget::nodes(12);
            let policy = if iter % 2 == 0 {
                CooperationPolicy::WarmStart
            } else {
                CooperationPolicy::WarmStartSteal
            };
            let portfolio = PortfolioSolver::with_members(budget, local_roster(seed, members))
                .with_config(PortfolioConfig {
                    budget,
                    cancel_on_optimal: false,
                    cooperation: policy,
                });

            let ctx = SolveContext::new();
            let done = Arc::new(AtomicBool::new(false));
            let mut samples: Vec<(u64, f64, Vec<IndexId>)> = Vec::new();
            let combined = std::thread::scope(|scope| {
                let observer = {
                    let ctx = ctx.clone();
                    let done = Arc::clone(&done);
                    scope.spawn(move || {
                        let mut seen: Vec<(u64, f64, Vec<IndexId>)> = Vec::new();
                        let mut last_epoch = 0;
                        loop {
                            let finished = done.load(Ordering::Acquire);
                            if ctx.incumbent().epoch() != last_epoch {
                                if let Some(snap) = ctx.incumbent().best_deployment() {
                                    last_epoch = snap.epoch;
                                    seen.push((snap.epoch, snap.objective, snap.order));
                                }
                            }
                            if finished {
                                return seen;
                            }
                            std::thread::yield_now();
                        }
                    })
                };
                let combined = portfolio.run(&inst, budget, &ctx);
                done.store(true, Ordering::Release);
                samples = observer.join().expect("observer thread panicked");
                combined
            });

            // Epochs monotone, objectives non-increasing with epoch, every
            // published deployment valid: these are the adoption sources.
            for pair in samples.windows(2) {
                assert!(
                    pair[0].0 < pair[1].0,
                    "observed epochs must strictly increase: {} then {}",
                    pair[0].0,
                    pair[1].0
                );
                assert!(
                    pair[1].1 <= pair[0].1 + 1e-12,
                    "objective regressed between epochs {} and {}: {} -> {}",
                    pair[0].0,
                    pair[1].0,
                    pair[0].1,
                    pair[1].1
                );
            }
            for (epoch, objective, order) in &samples {
                assert_valid_pair(
                    &format!("published epoch {epoch} (members={members}, iter={iter})"),
                    order,
                    *objective,
                    &inst,
                    &constraints,
                );
            }

            // The combined result stays subject to the usual oracle checks.
            assert!(combined.is_feasible());
            assert_valid_pair(
                &format!("combined (members={members}, iter={iter})"),
                combined.deployment.as_ref().unwrap().order(),
                combined.objective,
                &inst,
                &constraints,
            );
            // Whatever was adopted, the final best can never be worse than
            // the last published snapshot.
            if let Some((_, objective, _)) = samples.last() {
                assert!(combined.objective <= objective + 1e-9);
            }
        }
    }
}

/// All three local searches must actually warm-start from the shared best:
/// pre-publish the proven optimum as a foreign incumbent, hand each solver a
/// deliberately weak search (tiny failure limits, immediate stall), and
/// check it adopts and lands exactly on the optimum.
#[test]
fn all_three_local_searches_restart_from_the_shared_best_on_stall() {
    let inst = instance(2);
    let exact =
        CpSolver::with_config(CpConfig::with_properties(SearchBudget::unlimited())).solve(&inst);
    assert!(exact.is_optimal(), "CP must prove the 8-index instance");
    let optimum = exact.objective;
    let optimal_order = exact.deployment.as_ref().unwrap().order().to_vec();

    type CoopRun = Box<dyn Fn(&SolveContext) -> SolveResult>;
    let tabu_start = exact.deployment.clone().unwrap();
    let runs: Vec<(&str, CoopRun)> = vec![
        (
            "lns",
            Box::new(|ctx: &SolveContext| {
                LnsSolver::with_config(LnsConfig {
                    budget: SearchBudget::nodes(10),
                    failure_limit: 0,
                    // This test starves LNS so it *must* adopt the shared
                    // best; the delta-repair fallback would let it improve
                    // on its own and never stall.
                    delta_repair: false,
                    stall_iterations: Some(2),
                    seed: 5,
                })
                .solve_in(&instance(2), Deployment::identity(8), ctx)
            }),
        ),
        (
            "vns",
            Box::new(|ctx: &SolveContext| {
                VnsSolver::with_config(VnsConfig {
                    budget: SearchBudget::nodes(10),
                    initial_failure_limit: 0,
                    stall_iterations: Some(2),
                    seed: 5,
                    ..VnsConfig::default()
                })
                .solve_in(&instance(2), Deployment::identity(8), ctx)
            }),
        ),
        (
            "tabu",
            Box::new(move |ctx: &SolveContext| {
                TabuSolver::with_config(TabuConfig {
                    strategy: SwapStrategy::Best,
                    budget: SearchBudget::nodes(10),
                    stall_iterations: Some(2),
                    seed: 5,
                    ..TabuConfig::default()
                })
                .solve_in(&instance(2), tabu_start.clone(), ctx)
            }),
        ),
    ];

    for (name, run) in &runs {
        // Warm-start allowed: the solver must adopt the foreign optimum.
        let ctx = SolveContext::with_cooperation(CooperationPolicy::WarmStart);
        // A "foreign" incumbent strictly better than anything the weak
        // search will find on its own. Tabu is seeded *at* the optimum here
        // to pin the complementary behaviour: with nothing strictly better
        // published, a stalled member must never adopt (its own incumbent
        // already matches the shared best). The from-identity tabu adoption
        // is exercised separately below.
        ctx.publish_deployment(optimum, &optimal_order);
        let result = run(&ctx);
        if *name == "tabu" {
            // Started at the optimum: nothing strictly better to adopt.
            assert_eq!(result.coop.adoptions, 0, "{name}");
            assert!(result.objective <= optimum + 1e-9, "{name}");
        } else {
            assert!(
                result.coop.adoptions >= 1,
                "{name}: expected at least one adoption, got {:?}",
                result.coop
            );
            assert!(
                (result.objective - optimum).abs() < 1e-9,
                "{name}: adopted the shared optimum, so it must finish there \
                 ({} vs {optimum})",
                result.objective
            );
            assert!(result.coop.adoptions <= result.coop.restarts, "{name}");
        }

        // Same run with cooperation off: the shared cell must be invisible.
        let off = SolveContext::new();
        off.publish_deployment(optimum, &optimal_order);
        let result_off = run(&off);
        assert_eq!(result_off.coop.restarts, 0, "{name}");
        assert_eq!(result_off.coop.adoptions, 0, "{name}");
    }

    // Tabu from a non-optimal start adopts too: stall it with a weak
    // first-swap scan.
    let ctx = SolveContext::with_cooperation(CooperationPolicy::WarmStart);
    ctx.publish_deployment(optimum, &optimal_order);
    let tabu = TabuSolver::with_config(TabuConfig {
        strategy: SwapStrategy::Best,
        budget: SearchBudget::nodes(12),
        stall_iterations: Some(1),
        tabu_length: 50,
        seed: 5,
    })
    .solve_in(&inst, Deployment::identity(8), &ctx);
    assert!(
        tabu.coop.adoptions >= 1,
        "tabu: expected an adoption from identity start, got {:?}",
        tabu.coop
    );
    assert!((tabu.objective - optimum).abs() < 1e-9);
}

/// LNS consumes the shared hint deque under `WarmStartSteal` and reports
/// the traffic, and the hint path cannot produce invalid deployments even
/// for garbage hints (out-of-range ids, duplicates).
#[test]
fn lns_steals_hints_and_sanitizes_them() {
    let inst = instance(3);
    let constraints = OrderConstraints::from_instance(&inst);
    let ctx = SolveContext::with_cooperation(CooperationPolicy::WarmStartSteal);
    // Two plausible hints and one garbage hint (stale ids from a bigger
    // instance + duplicates) that sanitisation must neutralise.
    ctx.hints().push(vec![IndexId::new(0), IndexId::new(3)]);
    ctx.hints()
        .push(vec![IndexId::new(99), IndexId::new(4), IndexId::new(4)]);
    ctx.hints().push(vec![IndexId::new(5), IndexId::new(6)]);

    let result = LnsSolver::with_config(LnsConfig {
        budget: SearchBudget::nodes(30),
        stall_iterations: Some(1000), // isolate the steal path from warm-starts
        seed: 9,
        ..LnsConfig::default()
    })
    .solve_in(&inst, Deployment::identity(8), &ctx);

    // The two well-formed hints are consumed; the garbage one collapses to
    // a single id after sanitisation and falls back to a random draw (it
    // still leaves the deque either way).
    assert!(
        result.coop.hints_stolen >= 2,
        "expected the well-formed hints to be stolen: {:?}",
        result.coop
    );
    assert!(ctx.hints().is_empty() || result.coop.hints_published > 0);
    assert_valid_pair(
        "lns with hints",
        result.deployment.as_ref().unwrap().order(),
        result.objective,
        &inst,
        &constraints,
    );

    // Off policy: the pre-loaded deque is never touched.
    let off = SolveContext::new();
    off.hints().push(vec![IndexId::new(0), IndexId::new(3)]);
    let untouched = LnsSolver::with_config(LnsConfig {
        budget: SearchBudget::nodes(10),
        seed: 9,
        ..LnsConfig::default()
    })
    .solve_in(&inst, Deployment::identity(8), &off);
    assert_eq!(untouched.coop.hints_stolen, 0);
    assert_eq!(off.hints().len(), 1);
}

/// ROADMAP cooperation follow-up (c): a CP member starting (or restarting)
/// inside a warm-start portfolio adopts the shared best *deployment* as its
/// initial incumbent — `CpConfig::initial` wired to the [`SharedIncumbent`]
/// — and stays completely blind to it under [`CooperationPolicy::Off`].
#[test]
fn cp_warm_starts_from_the_shared_incumbent() {
    let inst = instance(2);
    let exact =
        CpSolver::with_config(CpConfig::with_properties(SearchBudget::unlimited())).solve(&inst);
    assert!(exact.is_optimal());
    let optimum = exact.objective;
    let optimal_order = exact.deployment.as_ref().unwrap().order().to_vec();

    // A budget far too small to find anything on its own.
    let starved = CpConfig::with_properties(SearchBudget::nodes(2));

    // Warm-start policy: the foreign incumbent becomes CP's answer.
    let ctx = SolveContext::with_cooperation(CooperationPolicy::WarmStart);
    ctx.publish_deployment(optimum, &optimal_order);
    let adopted = CpSolver::with_config(starved.clone()).solve_in(&inst, &ctx);
    assert!(
        adopted.is_feasible(),
        "starved CP must adopt the shared best"
    );
    assert!((adopted.objective - optimum).abs() < 1e-9);
    assert_eq!(
        adopted.deployment.as_ref().unwrap().order(),
        &optimal_order[..]
    );

    // Off policy: the shared cell is invisible; the same starved run finds
    // nothing.
    let off = SolveContext::new();
    off.publish_deployment(optimum, &optimal_order);
    let blind = CpSolver::with_config(starved).solve_in(&inst, &off);
    assert!(
        !blind.is_feasible(),
        "under Off the starved CP must not see the shared deployment"
    );

    // An explicit `CpConfig::initial` and a better shared incumbent compose:
    // the better of the two wins.
    let worse = Deployment::identity(8);
    let ctx2 = SolveContext::with_cooperation(CooperationPolicy::WarmStart);
    ctx2.publish_deployment(optimum, &optimal_order);
    let mut config = CpConfig::with_properties(SearchBudget::nodes(2));
    config.initial = Some(worse);
    let both = CpSolver::with_config(config).solve_in(&inst, &ctx2);
    assert!((both.objective - optimum).abs() < 1e-9);
}

/// The derived stall threshold is a budget slice but an explicit override
/// still wins: two otherwise-identical LNS runs with different budgets get
/// different derived thresholds, observable through their restart counts.
#[test]
fn stall_threshold_defaults_derive_from_the_budget() {
    let inst = instance(4);
    // Pre-publish an unbeatable foreign incumbent so every stall adopts...
    // except nothing is strictly better after the first adoption, so each
    // stall-window boundary counts exactly one restart.
    let exact =
        CpSolver::with_config(CpConfig::with_properties(SearchBudget::unlimited())).solve(&inst);
    let run = |budget: SearchBudget, stall: Option<u64>| {
        let ctx = SolveContext::with_cooperation(CooperationPolicy::WarmStart);
        ctx.publish_deployment(exact.objective, exact.deployment.as_ref().unwrap().order());
        LnsSolver::with_config(LnsConfig {
            budget,
            failure_limit: 0,    // never improves on its own: stalls constantly
            delta_repair: false, // keep it starved: no self-repair fallback
            stall_iterations: stall,
            seed: 13,
        })
        .solve_in(&inst, Deployment::identity(8), &ctx)
    };

    // nodes(64) derives a threshold of 8, nodes(32) derives 4 — both runs
    // therefore stall several times within their budget; an explicit
    // `Some(1)` stalls every non-improving iteration, far more often than
    // either derived default on the same budget.
    let derived_64 = run(SearchBudget::nodes(64), None);
    let derived_32 = run(SearchBudget::nodes(32), None);
    let explicit = run(SearchBudget::nodes(32), Some(1));
    assert!(derived_64.coop.restarts > 0, "{:?}", derived_64.coop);
    assert!(derived_32.coop.restarts > 0, "{:?}", derived_32.coop);
    assert!(
        explicit.coop.restarts > derived_32.coop.restarts * 2,
        "explicit override must dominate the derived slice: {:?} vs {:?}",
        explicit.coop,
        derived_32.coop
    );
    // Both runs adopted the pre-published optimum on their first stall.
    assert!(derived_64.coop.adoptions >= 1);
    assert!((derived_64.objective - exact.objective).abs() < 1e-9);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `SharedIncumbent::offer_deployment` under concurrent writers: a worse
    /// objective never overwrites a better one, the stored order always
    /// re-evaluates to the stored objective, and interleaved objective-only
    /// offers may run the atomic floor ahead of the slot but never behind.
    #[test]
    fn shared_incumbent_is_consistent_under_concurrent_writers(
        (seeds, instance_seed) in (
            proptest::collection::vec(0u64..1_000_000, 8..32),
            0u64..4,
        )
    ) {
        let inst = instance(instance_seed);
        let n = inst.num_indexes();
        let evaluator = ObjectiveEvaluator::new(&inst);

        // Pre-compute (objective, order) pairs: arbitrary permutations with
        // their true objectives, so slot consistency can be re-checked by
        // re-evaluation afterwards.
        let offers: Vec<(f64, Vec<IndexId>)> = seeds
            .iter()
            .map(|&s| {
                let mut rng = ChaCha8Rng::seed_from_u64(s);
                let mut raw: Vec<usize> = (0..n).collect();
                raw.shuffle(&mut rng);
                let order: Vec<IndexId> = raw.into_iter().map(IndexId::new).collect();
                let area = evaluator.evaluate_area(&Deployment::new(order.clone()));
                (area, order)
            })
            .collect();
        let true_min = offers.iter().map(|(a, _)| *a).fold(f64::INFINITY, f64::min);

        let incumbent = Arc::new(SharedIncumbent::new());
        std::thread::scope(|scope| {
            for chunk in offers.chunks(offers.len().div_ceil(4)) {
                let incumbent = Arc::clone(&incumbent);
                scope.spawn(move || {
                    for (objective, order) in chunk {
                        incumbent.offer_deployment(*objective, order);
                        // Interleave an objective-only offer that must never
                        // *raise* anything (it is worse than the deployment
                        // just offered).
                        incumbent.offer(*objective + 1.0);
                    }
                });
            }
        });

        // The atomic floor is exactly the minimum over every offer.
        prop_assert!((incumbent.best() - true_min).abs() < 1e-12);
        // The slot converged to the best *deployment* offer, its order
        // matches its objective, and nothing worse ever survived.
        let snapshot = incumbent.best_deployment().expect("deployments were offered");
        prop_assert!((snapshot.objective - true_min).abs() < 1e-12,
            "slot {} vs true minimum {true_min}", snapshot.objective);
        let re_evaluated = evaluator.evaluate_area(&Deployment::new(snapshot.order.clone()));
        prop_assert!((re_evaluated - snapshot.objective).abs() < 1e-9,
            "stored order does not match stored objective: {re_evaluated} vs {}",
            snapshot.objective);
        prop_assert!(incumbent.best() <= snapshot.objective + 1e-12);
        // Epochs: at least one accepted write, at most one per offer.
        prop_assert!(snapshot.epoch >= 1);
        prop_assert!(snapshot.epoch <= offers.len() as u64);
    }
}
