//! Differential-oracle tests: every heuristic is cross-checked against the
//! exact CP solver on random instances small enough (≤ 8 indexes) for CP to
//! prove optimality, and the concurrent portfolio is cross-checked against
//! its own members.
//!
//! The oracle hierarchy:
//!
//! 1. CP with an unlimited budget *proves* the optimum.
//! 2. No heuristic may report an objective below a proven optimum (that
//!    would mean either the heuristic mis-evaluates or the "proof" is not
//!    one).
//! 3. Every solver must return a valid permutation of the indexes that
//!    satisfies the precedence closure in `OrderConstraints`.
//! 4. The portfolio combines its members, so it can never be worse than the
//!    best of them.

use idd::prelude::*;
use idd::solver::exact::{AStarConfig, AStarSolver, CpConfig, CpSolver, MipConfig, MipSolver};
use idd::solver::local::{LnsConfig, TabuConfig, VnsConfig};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// A random consistent instance with 3–8 indexes, mixed plan widths, build
/// interactions and (sometimes) a hard precedence.
fn random_instance(seed: u64) -> ProblemInstance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = rng.gen_range(3..=8usize);
    let mut b = InstanceBuilder::new(format!("diff-{seed}"));
    let idx: Vec<IndexId> = (0..n)
        .map(|_| b.add_index(rng.gen_range(1.0..12.0)))
        .collect();
    let queries = rng.gen_range(2..=6usize);
    for _ in 0..queries {
        let runtime = rng.gen_range(30.0..150.0);
        let q = b.add_query(runtime);
        let plans = rng.gen_range(1..=3usize);
        let mut remaining = runtime * 0.9;
        for _ in 0..plans {
            let width = rng.gen_range(1..=3.min(n));
            let mut members: Vec<IndexId> = Vec::with_capacity(width);
            while members.len() < width {
                let candidate = idx[rng.gen_range(0..n)];
                if !members.contains(&candidate) {
                    members.push(candidate);
                }
            }
            let speedup = rng.gen_range(0.1..0.6) * remaining;
            remaining -= speedup * 0.5;
            b.add_plan(q, members, speedup);
        }
    }
    for _ in 0..rng.gen_range(0..=3usize) {
        let target = rng.gen_range(0..n);
        let helper = rng.gen_range(0..n);
        if target != helper {
            // Savings must stay below the target's base build cost.
            b.add_build_interaction(idx[target], idx[helper], rng.gen_range(0.05..0.5));
        }
    }
    if n >= 4 && rng.gen_bool(0.5) {
        // One hard precedence; (0, 1) can never form a cycle.
        b.add_precedence(idx[0], idx[1]);
    }
    b.build().expect("random instance is consistent")
}

/// Asserts the deployment is a valid permutation that satisfies both the
/// instance's hard precedences and the given constraint closure.
fn assert_valid(
    solver: &str,
    seed: u64,
    deployment: &Deployment,
    instance: &ProblemInstance,
    constraints: &OrderConstraints,
) {
    deployment
        .validate(instance)
        .unwrap_or_else(|e| panic!("{solver} (seed {seed}) returned an invalid deployment: {e}"));
    assert!(
        constraints.is_satisfied_by(deployment.order()),
        "{solver} (seed {seed}) violates the precedence closure: {deployment:?}"
    );
}

const SEEDS: [u64; 10] = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89];

#[test]
fn cp_optimum_is_a_lower_bound_for_every_heuristic() {
    for seed in SEEDS {
        let instance = random_instance(seed);
        let constraints = OrderConstraints::from_instance(&instance);
        let exact = CpSolver::with_config(CpConfig::with_properties(SearchBudget::unlimited()))
            .solve(&instance);
        assert!(
            exact.is_optimal(),
            "CP must prove ≤8-index instances (seed {seed})"
        );
        let optimum = exact.objective;
        assert_valid(
            "cp+",
            seed,
            exact.deployment.as_ref().unwrap(),
            &instance,
            &constraints,
        );

        let budget = SearchBudget::nodes(80);
        let heuristics: Vec<Box<dyn Solver>> = vec![
            Box::new(GreedySolver::new()),
            Box::new(DpSolver::new()),
            Box::new(RandomSolver::new(seed)),
            Box::new(TabuSolver::with_config(TabuConfig {
                strategy: SwapStrategy::Best,
                seed,
                ..TabuConfig::default()
            })),
            Box::new(TabuSolver::with_config(TabuConfig {
                strategy: SwapStrategy::First,
                seed,
                ..TabuConfig::default()
            })),
            Box::new(LnsSolver::with_config(LnsConfig {
                seed,
                ..LnsConfig::default()
            })),
            Box::new(VnsSolver::with_config(VnsConfig {
                seed,
                ..VnsConfig::default()
            })),
        ];
        let evaluator = ObjectiveEvaluator::new(&instance);
        for heuristic in &heuristics {
            let result = heuristic.run_standalone(&instance, budget);
            let name = heuristic.name();
            assert!(result.is_feasible(), "{name} found nothing (seed {seed})");
            assert!(
                result.objective >= optimum - 1e-6,
                "{name} (seed {seed}) beat the proven optimum: {} < {optimum}",
                result.objective
            );
            let deployment = result.deployment.as_ref().unwrap();
            assert_valid(name, seed, deployment, &instance, &constraints);
            assert!(
                (evaluator.evaluate_area(deployment) - result.objective).abs() < 1e-6,
                "{name} (seed {seed}) reported an objective that does not match its deployment"
            );
        }
    }
}

#[test]
fn exact_solvers_agree_on_the_optimum() {
    for seed in SEEDS.into_iter().take(6) {
        let instance = random_instance(seed);
        let cp = CpSolver::with_config(CpConfig::plain(SearchBudget::unlimited())).solve(&instance);
        let astar = AStarSolver::with_config(AStarConfig {
            budget: SearchBudget::unlimited(),
        })
        .solve(&instance);
        assert!(cp.is_optimal() && astar.is_optimal(), "seed {seed}");
        assert!(
            (cp.objective - astar.objective).abs() < 1e-6,
            "seed {seed}: cp {} vs astar {}",
            cp.objective,
            astar.objective
        );
        // The MIP branches on a discretized time grid, so it may end within
        // discretization noise of the true optimum but never below it.
        let mip = MipSolver::with_config(MipConfig {
            budget: SearchBudget::unlimited(),
        })
        .solve(&instance);
        assert!(mip.is_feasible(), "seed {seed}");
        assert!(
            mip.objective >= cp.objective - 1e-6,
            "seed {seed}: mip {} below the proven optimum {}",
            mip.objective,
            cp.objective
        );
    }
}

#[test]
fn portfolio_is_never_worse_than_its_best_member() {
    for seed in SEEDS {
        let instance = random_instance(seed);
        let constraints = OrderConstraints::from_instance(&instance);
        let outcome =
            PortfolioSolver::recommended(SearchBudget::bounded(5.0, 200)).solve_detailed(&instance);
        assert!(outcome.combined.is_feasible(), "seed {seed}");
        let best_member = outcome.best_member_objective();
        assert!(
            outcome.combined.objective <= best_member + 1e-12,
            "seed {seed}: portfolio {} worse than best member {best_member}",
            outcome.combined.objective
        );
        assert_valid(
            "portfolio",
            seed,
            outcome.combined.deployment.as_ref().unwrap(),
            &instance,
            &constraints,
        );
    }
}

#[test]
fn cooperative_portfolio_matches_the_exact_optimum_and_cancels_all_members() {
    use idd::solver::{CooperationPolicy, PortfolioConfig, SolveContext};

    for seed in SEEDS.into_iter().take(5) {
        let instance = random_instance(seed);
        let constraints = OrderConstraints::from_instance(&instance);
        let exact = CpSolver::with_config(CpConfig::with_properties(SearchBudget::unlimited()))
            .solve(&instance);
        assert!(exact.is_optimal());

        // Full cooperation on: warm-starts + hint stealing. The CP member
        // still proves the optimum, the proof must agree with the standalone
        // one (cooperation may accelerate members but can never distort the
        // objective), and the race must end with every member cancelled.
        let budget = SearchBudget::seconds(30.0);
        let portfolio = PortfolioSolver::recommended(budget).with_config(PortfolioConfig {
            budget,
            cancel_on_optimal: true,
            cooperation: CooperationPolicy::WarmStartSteal,
        });
        let ctx = SolveContext::new();
        let combined = portfolio.run(&instance, budget, &ctx);
        assert!(combined.is_optimal(), "seed {seed}");
        assert!(
            (combined.objective - exact.objective).abs() < 1e-6,
            "seed {seed}: cooperative portfolio {} vs exact {}",
            combined.objective,
            exact.objective
        );
        assert_valid(
            "portfolio(coop)",
            seed,
            combined.deployment.as_ref().unwrap(),
            &instance,
            &constraints,
        );
        // The optimality proof cancelled the shared context, which is what
        // stopped the other members (the scoped threads have all joined by
        // the time `run` returns, so the flag being set proves they exited
        // through the cooperative-cancellation path).
        assert!(
            ctx.is_cancelled(),
            "seed {seed}: the proof must cancel the race"
        );
        // The shared cell's final deployment agrees with the proof.
        let snapshot = ctx
            .incumbent()
            .best_deployment()
            .expect("members published deployments");
        assert!(
            snapshot.objective >= combined.objective - 1e-6,
            "seed {seed}: published deployment beat the proven optimum"
        );
    }
}

#[test]
fn portfolio_with_proof_matches_the_exact_optimum() {
    for seed in SEEDS.into_iter().take(5) {
        let instance = random_instance(seed);
        let exact = CpSolver::with_config(CpConfig::with_properties(SearchBudget::unlimited()))
            .solve(&instance);
        assert!(exact.is_optimal());
        let combined = PortfolioSolver::recommended(SearchBudget::seconds(30.0)).solve(&instance);
        // CP+ sits in the recommended roster, so the race ends with a proof
        // — and the proof must agree with the standalone optimum.
        assert!(combined.is_optimal(), "seed {seed}");
        assert!(
            (combined.objective - exact.objective).abs() < 1e-6,
            "seed {seed}: portfolio {} vs exact {}",
            combined.objective,
            exact.objective
        );
    }
}
