//! Budget honesty of the local-search members and CP+: a member's clock
//! starts on entry to [`Solver::run`], so the greedy seed and the
//! per-instance set-up (property analysis, lower bound, delta evaluator)
//! count against its budget and show in its `elapsed_seconds`.
//!
//! With a zero-node budget a member does no search at all: its whole run is
//! that set-up. On an instance whose greedy seed takes a noticeable share of
//! a millisecond or more, the reported time must then cover nearly all of
//! the wall time of the call.

use idd_core::{IndexId, ProblemInstance};
use idd_solver::exact::{CpConfig, CpSolver};
use idd_solver::local::{LnsSolver, SwapStrategy, TabuSolver, VnsSolver};
use idd_solver::{SearchBudget, SolveContext, Solver};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// A 48-index synthetic instance with two- and three-index plans, so the
/// greedy's interaction credit has real work to do.
fn instance() -> ProblemInstance {
    let n = 48;
    let mut rng = ChaCha8Rng::seed_from_u64(48);
    let mut b = ProblemInstance::builder("budget-honesty");
    let idx: Vec<IndexId> = (0..n)
        .map(|_| b.add_index(rng.gen_range(1.0..12.0)))
        .collect();
    for q in 0..2 * n {
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
    let inst = instance();
    let members: Vec<Box<dyn Solver>> = vec![
        Box::new(LnsSolver::default()),
        Box::new(VnsSolver::default()),
        Box::new(TabuSolver::new(SwapStrategy::Best, SearchBudget::default())),
        Box::new(TabuSolver::new(
            SwapStrategy::First,
            SearchBudget::default(),
        )),
        Box::new(CpSolver::with_config(CpConfig::with_properties(
            SearchBudget::default(),
        ))),
    ];
    for member in &members {
        // The best of three attempts, so a preemption in the few
        // instructions outside the member's clock cannot fail the test.
        let (reported, wall) = (0..3)
            .map(|_| {
                let started = Instant::now();
                let result = member.run(&inst, SearchBudget::nodes(0), &SolveContext::new());
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
