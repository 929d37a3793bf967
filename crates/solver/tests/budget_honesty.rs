//! Budget honesty of the local-search members, CP+, MIP and A*: a member's
//! clock starts on entry to [`Solver::run`], so the greedy seed and the
//! per-instance set-up (property analysis, objective evaluator, lower
//! bound, delta evaluator, constraint closure) count against its budget and
//! show in its `elapsed_seconds`.
//!
//! With a zero-node budget a member does no search at all: its whole run is
//! that set-up. On an instance where that set-up takes a millisecond or
//! more, the reported time must then cover nearly all of the wall time of
//! the call.

use idd_core::{IndexId, ProblemInstance};
use idd_solver::exact::{AStarSolver, CpConfig, CpSolver, MipSolver};
use idd_solver::local::{LnsSolver, SwapStrategy, TabuSolver, VnsSolver};
use idd_solver::{SearchBudget, SolveContext, Solver};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// A synthetic instance of `n` indexes and `queries` queries, each with a
/// one-, a two- and a three-index plan.
fn instance(n: usize, queries: usize) -> ProblemInstance {
    let mut rng = ChaCha8Rng::seed_from_u64(48);
    let mut b = ProblemInstance::builder("budget-honesty");
    let idx: Vec<IndexId> = (0..n)
        .map(|_| b.add_index(rng.gen_range(1.0..12.0)))
        .collect();
    for q in 0..queries {
        let runtime = rng.gen_range(30.0..200.0);
        let qid = b.add_query(runtime);
        let a = idx[(q * 3) % n];
        let c = idx[(q * 5 + 1) % n];
        let d = idx[(q * 7 + 2) % n];
        b.add_plan(qid, vec![a], runtime * rng.gen_range(0.05..0.2));
        b.add_plan(qid, vec![a, c], runtime * rng.gen_range(0.2..0.4));
        b.add_plan(qid, vec![a, c, d], runtime * rng.gen_range(0.4..0.6));
    }
    b.build().expect("budget-honesty instance is consistent")
}

#[test]
fn zero_node_runs_report_their_seeding_time() {
    // 48 indexes and 96 queries give the greedy's interaction credit real
    // work to do. MIP and A* only build an objective evaluator, a lower
    // bound and the precedence closure, which take a few microseconds
    // there, so they get 24 000 queries: a millisecond or more of set-up.
    let seeded = instance(48, 96);
    let wide = instance(48, 24_000);
    let members: Vec<(Box<dyn Solver>, &ProblemInstance)> = vec![
        (Box::new(LnsSolver::default()), &seeded),
        (Box::new(VnsSolver::default()), &seeded),
        (
            Box::new(TabuSolver::new(SwapStrategy::Best, SearchBudget::default())),
            &seeded,
        ),
        (
            Box::new(TabuSolver::new(
                SwapStrategy::First,
                SearchBudget::default(),
            )),
            &seeded,
        ),
        (
            Box::new(CpSolver::with_config(CpConfig::with_properties(
                SearchBudget::default(),
            ))),
            &seeded,
        ),
        (Box::new(MipSolver::new()), &wide),
        (Box::new(AStarSolver::new()), &wide),
    ];
    for (member, inst) in &members {
        // The best of three attempts, so a preemption in the few
        // instructions outside the member's clock cannot fail the test.
        let (reported, wall) = (0..3)
            .map(|_| {
                let started = Instant::now();
                let result = member.run(inst, SearchBudget::nodes(0), &SolveContext::new());
                let wall = started.elapsed().as_secs_f64();
                assert_eq!(result.nodes, 0, "{}: a zero-node budget", member.name());
                (result.elapsed_seconds, wall)
            })
            .max_by(|a, b| (a.0 / a.1).total_cmp(&(b.0 / b.1)))
            .expect("three attempts");
        assert!(
            reported >= 0.9 * wall,
            "{}: reported {:.6}s of a {:.6}s run; its seeding and set-up went \
             unbudgeted",
            member.name(),
            reported,
            wall
        );
    }
}
