//! Large Neighborhood Search (Section 7.2).
//!
//! Each iteration relaxes a fixed fraction of the indexes (the paper uses
//! 5%), keeps the rest of the current order fixed, and asks the CP
//! reinsertion search for a strictly better completion, giving up after a
//! fixed number of backtracks (the failure limit, 500 in the paper). If the
//! neighbourhood contains an improvement it becomes the new current solution;
//! otherwise a new random relaxation is drawn.
//!
//! VNS is this loop with a self-tuning schedule, so both solvers run one
//! loop ([`VnsSolver`]'s): LNS runs it with a schedule that never fires and
//! no polish. When a reinsertion hits its failure limit, LNS salvages the
//! destroy set with a delta-scored greedy repair. The neighbourhoods
//! respect the instance's hard precedences only. The clock starts on
//! entry, so a run's `elapsed_seconds` includes deriving their closure and,
//! under [`Solver::run`], the greedy seed.
//!
//! Inside a cooperative portfolio
//! ([`CooperationPolicy`](crate::solver::CooperationPolicy)) the LNS member
//! additionally (a) re-seeds from the shared best deployment when it stalls,
//! and (b) steals destroy-neighbourhood hints — relaxation sets that
//! produced improvements in *other* members — from the portfolio's
//! work-stealing deque before falling back to a random draw.

use crate::budget::SearchBudget;
use crate::greedy::GreedySolver;
use crate::local::{VnsConfig, VnsSolver, Walk};
use crate::result::SolveResult;
use crate::solver::{SolveContext, Solver};
use idd_core::{Deployment, ProblemInstance};

/// Configuration of the LNS solver.
#[derive(Debug, Clone)]
pub struct LnsConfig {
    /// Backtrack limit per reinsertion search (paper: 500).
    pub failure_limit: u64,
    /// Time / iteration budget.
    pub budget: SearchBudget,
    /// RNG seed.
    pub seed: u64,
    /// Iterations without improvement before the member counts as *stalled*
    /// and (under a warm-start policy) re-seeds from the shared best
    /// deployment. `None` (the default) derives a slice of the budget via
    /// [`crate::local::derived_stall_iterations`]; `Some(n)` overrides it.
    /// Ignored outside cooperative portfolio runs.
    pub stall_iterations: Option<u64>,
    /// When the CP reinsertion search hits its failure limit without finding
    /// an improvement, try a cheap greedy repair instead of discarding the
    /// destroy set: relocate each destroyed index to its best position,
    /// with every candidate insertion scored by the delta evaluator
    /// (O(|from - to|) per probe instead of a full re-evaluation).
    pub delta_repair: bool,
}

impl Default for LnsConfig {
    fn default() -> Self {
        Self {
            failure_limit: 500,
            budget: SearchBudget::default(),
            seed: 0x1A5,
            stall_iterations: None,
            delta_repair: true,
        }
    }
}

/// The LNS solver.
#[derive(Debug, Clone, Default)]
pub struct LnsSolver {
    config: LnsConfig,
}

impl LnsSolver {
    /// Creates a solver with the default configuration and the given budget.
    pub fn new(budget: SearchBudget) -> Self {
        Self {
            config: LnsConfig {
                budget,
                ..LnsConfig::default()
            },
        }
    }

    /// Creates a solver with an explicit configuration.
    pub fn with_config(config: LnsConfig) -> Self {
        Self { config }
    }

    /// Improves `initial` until the budget runs out.
    pub fn solve(&self, instance: &ProblemInstance, initial: Deployment) -> SolveResult {
        self.solve_in(instance, initial, &SolveContext::new())
    }

    /// [`LnsSolver::solve`] inside a shared [`SolveContext`] (cancellable,
    /// publishing incumbent improvements).
    pub fn solve_in(
        &self,
        instance: &ProblemInstance,
        initial: Deployment,
        ctx: &SolveContext,
    ) -> SolveResult {
        let walk = Walk::start(ctx, &self.config.budget, self.config.stall_iterations);
        self.search(instance, initial, walk)
    }

    /// The VNS loop with a schedule that never fires and no polish, plus
    /// hint stealing and (per the config) delta repair.
    fn search(
        &self,
        instance: &ProblemInstance,
        initial: Deployment,
        walk: Walk<'_>,
    ) -> SolveResult {
        let c = &self.config;
        let never_adapts = VnsSolver::with_config(VnsConfig {
            initial_failure_limit: c.failure_limit,
            group_size: usize::MAX,
            seed: c.seed,
            shift_descent: false,
            ..VnsConfig::default()
        });
        never_adapts.search("lns", instance, initial, walk, true, c.delta_repair)
    }
}

impl Solver for LnsSolver {
    fn name(&self) -> &'static str {
        "lns"
    }

    /// Starts from the interaction-guided greedy order and improves it under
    /// `budget`; the clock starts before the greedy runs.
    fn run(
        &self,
        instance: &ProblemInstance,
        budget: SearchBudget,
        ctx: &SolveContext,
    ) -> SolveResult {
        let walk = Walk::start(ctx, &budget, self.config.stall_iterations);
        self.search(instance, GreedySolver::new().construct(instance), walk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idd_core::{IndexId, ObjectiveEvaluator};

    fn instance() -> ProblemInstance {
        let mut b = ProblemInstance::builder("lns");
        let i: Vec<IndexId> = (0..10)
            .map(|k| b.add_index(2.0 + (k % 5) as f64 * 2.0))
            .collect();
        for q in 0..8 {
            let qid = b.add_query(60.0 + q as f64 * 10.0);
            b.add_plan(qid, vec![i[q % 10]], 9.0);
            b.add_plan(qid, vec![i[q % 10], i[(q + 4) % 10]], 24.0);
        }
        b.add_build_interaction(i[2], i[3], 1.0);
        b.add_build_interaction(i[7], i[6], 2.0);
        b.build().unwrap()
    }

    #[test]
    fn lns_never_worsens_and_stays_valid() {
        let inst = instance();
        let initial = Deployment::identity(inst.num_indexes());
        let eval = ObjectiveEvaluator::new(&inst);
        let initial_area = eval.evaluate_area(&initial);
        let result = LnsSolver::new(SearchBudget::nodes(60)).solve(&inst, initial);
        assert!(result.objective <= initial_area + 1e-9);
        let d = result.deployment.unwrap();
        assert!(d.is_valid_for(&inst));
        assert!((eval.evaluate_area(&d) - result.objective).abs() < 1e-9);
    }

    #[test]
    fn lns_improves_greedy_on_this_instance() {
        let inst = instance();
        let greedy = GreedySolver::new().construct(&inst);
        let eval = ObjectiveEvaluator::new(&inst);
        let greedy_area = eval.evaluate_area(&greedy);
        let result = LnsSolver::new(SearchBudget::nodes(200)).solve(&inst, greedy);
        assert!(result.objective <= greedy_area + 1e-9);
    }

    #[test]
    fn deterministic_for_a_fixed_seed_and_node_budget() {
        let inst = instance();
        let initial = Deployment::identity(inst.num_indexes());
        let run = |seed| {
            LnsSolver::with_config(LnsConfig {
                seed,
                budget: SearchBudget::nodes(40),
                ..LnsConfig::default()
            })
            .solve(&inst, initial.clone())
            .objective
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn respects_precedences_through_the_reinsertion_search() {
        let mut b = ProblemInstance::builder("lns-prec");
        let i0 = b.add_index(6.0);
        let i1 = b.add_index(1.0);
        let i2 = b.add_index(2.0);
        let i3 = b.add_index(2.0);
        let q = b.add_query(50.0);
        b.add_plan(q, vec![i1], 35.0);
        b.add_plan(q, vec![i2], 10.0);
        b.add_plan(q, vec![i3], 5.0);
        b.add_precedence(i0, i1);
        let inst = b.build().unwrap();
        let initial = Deployment::from_raw([0, 1, 2, 3]);
        let result = LnsSolver::new(SearchBudget::nodes(80)).solve(&inst, initial);
        assert!(result.deployment.unwrap().is_valid_for(&inst));
    }
}
