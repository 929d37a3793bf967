//! Tabu search over the swap neighbourhood (Section 7.1).
//!
//! Two variants are implemented, matching the paper:
//!
//! * **TS-BSwap** evaluates every feasible pair swap each iteration and takes
//!   the best one — high quality per iteration, but an iteration costs
//!   `O(n²)` objective evaluations (the paper measures ~50 minutes per
//!   iteration on TPC-DS).
//! * **TS-FSwap** scans pairs in a random order and takes the first improving
//!   swap — much cheaper iterations, lower quality per iteration.
//!
//! Recently swapped indexes are *tabu* for a number of iterations (the tabu
//! length) unless the move improves on the best solution found so far
//! (aspiration).
//!
//! Inside a cooperative portfolio
//! ([`CooperationPolicy`](crate::solver::CooperationPolicy)) a stalled tabu
//! member re-seeds from the shared best deployment (clearing its tabu list,
//! which refers to the abandoned walk) and publishes the index pairs of
//! improving swaps as destroy-neighbourhood hints for LNS workers.

use crate::budget::SearchBudget;
use crate::constraints::OrderConstraints;
use crate::greedy::GreedySolver;
use crate::local::{swap_is_feasible, Walk};
use crate::result::SolveResult;
use crate::solver::{SolveContext, Solver};
use idd_core::{DeltaEvaluator, Deployment, ProblemInstance};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Which swap to take each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapStrategy {
    /// Evaluate all pairs, take the best (TS-BSwap).
    Best,
    /// Take the first improving pair in a random scan (TS-FSwap).
    First,
}

/// Configuration of the tabu search.
#[derive(Debug, Clone)]
pub struct TabuConfig {
    /// Swap strategy.
    pub strategy: SwapStrategy,
    /// How many iterations a swapped index stays tabu.
    pub tabu_length: usize,
    /// Time / iteration budget.
    pub budget: SearchBudget,
    /// RNG seed (used by the first-swap scan order).
    pub seed: u64,
    /// Iterations without improvement on the member's own best before it
    /// counts as *stalled* and (under a warm-start policy) re-seeds from the
    /// shared best deployment. `None` (the default) derives a slice of the
    /// budget via [`crate::local::derived_stall_iterations`]; `Some(n)`
    /// overrides it. Ignored outside cooperative portfolio runs.
    pub stall_iterations: Option<u64>,
}

impl Default for TabuConfig {
    fn default() -> Self {
        Self {
            strategy: SwapStrategy::Best,
            tabu_length: 7,
            budget: SearchBudget::default(),
            seed: 0x7AB,
            stall_iterations: None,
        }
    }
}

/// The tabu-search solver.
#[derive(Debug, Clone)]
pub struct TabuSolver {
    config: TabuConfig,
}

impl TabuSolver {
    /// Creates a solver with the given strategy and budget.
    pub fn new(strategy: SwapStrategy, budget: SearchBudget) -> Self {
        Self {
            config: TabuConfig {
                strategy,
                budget,
                ..TabuConfig::default()
            },
        }
    }

    /// Creates a solver with an explicit configuration.
    pub fn with_config(config: TabuConfig) -> Self {
        Self { config }
    }

    /// Improves `initial` until the budget runs out.
    pub fn solve(&self, instance: &ProblemInstance, initial: Deployment) -> SolveResult {
        self.solve_in(instance, initial, &SolveContext::new())
    }

    /// [`TabuSolver::solve`] inside a shared [`SolveContext`] (cancellable,
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

    fn search(
        &self,
        instance: &ProblemInstance,
        initial: Deployment,
        mut walk: Walk<'_>,
    ) -> SolveResult {
        let n = instance.num_indexes();
        let constraints = OrderConstraints::from_instance(instance);
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);

        // Best-swap scans run on the delta evaluator: an adjacent pair is
        // O(1), but a general pair walks its span, O(hi - lo). One full scan
        // therefore touches Σ(hi - lo) = (n³ - n)/6 = O(n³) positions — the
        // same order as O(n²) from-scratch evaluations of O(n) each; the
        // delta path only wins on the constant factor. The evaluator's base
        // is the walk's current position; `best_order` its best.
        let mut evaluator = DeltaEvaluator::new(instance, initial);
        let mut best_order = evaluator.base().clone();
        walk.begin(evaluator.base_area());

        // tabu_until[i] = first iteration at which index i may move again.
        let mut tabu_until = vec![0usize; n];

        while walk.next_iteration(n) {
            let iteration = walk.clock.nodes() as usize;

            // Cooperative warm-start: when stalled, restart the walk from
            // the portfolio's best deployment. The tabu list describes the
            // abandoned walk, so it is cleared alongside.
            if walk.adopt(&mut evaluator, &constraints) {
                best_order = evaluator.base().clone();
                tabu_until.fill(0);
            }

            let current_area = evaluator.base_area();

            // Collect candidate pairs.
            let mut pairs: Vec<(usize, usize)> = Vec::new();
            for a in 0..n {
                for b in (a + 1)..n {
                    pairs.push((a, b));
                }
            }
            if self.config.strategy == SwapStrategy::First {
                pairs.shuffle(&mut rng);
            }

            let mut chosen: Option<(usize, usize, f64)> = None;
            for &(a, b) in &pairs {
                if walk.clock.exhausted() {
                    break;
                }
                let order = evaluator.base().order();
                let ia = order[a];
                let ib = order[b];
                if !swap_is_feasible(&constraints, order, a, b) {
                    continue;
                }
                let area = evaluator.evaluate_swap(a, b);
                let is_tabu = tabu_until[ia.raw()] > iteration || tabu_until[ib.raw()] > iteration;
                // Aspiration: a tabu move is allowed if it beats the best.
                if is_tabu && area >= walk.best() - 1e-12 {
                    continue;
                }
                let better_than_chosen = chosen.map(|(_, _, v)| area < v).unwrap_or(true);
                if better_than_chosen {
                    chosen = Some((a, b, area));
                }
                if self.config.strategy == SwapStrategy::First && area < current_area - 1e-12 {
                    chosen = Some((a, b, area));
                    break;
                }
            }

            let Some((a, b, area)) = chosen else {
                break; // every move tabu and none aspirates: stuck
            };
            let ia = evaluator.base().order()[a];
            let ib = evaluator.base().order()[b];
            evaluator.commit_swap(a, b);
            tabu_until[ia.raw()] = iteration + self.config.tabu_length;
            tabu_until[ib.raw()] = iteration + self.config.tabu_length;

            if area < walk.best() - 1e-12 {
                best_order = evaluator.base().clone();
                // The improving pair is a natural 2-index destroy set.
                walk.improved(area, best_order.order(), vec![ia, ib]);
            } else {
                walk.no_improvement();
            }
        }

        walk.finish(self.name(), best_order)
    }
}

impl Solver for TabuSolver {
    fn name(&self) -> &'static str {
        match self.config.strategy {
            SwapStrategy::Best => "ts-bswap",
            SwapStrategy::First => "ts-fswap",
        }
    }

    /// Starts from the interaction-guided greedy order (the paper's setup
    /// for every local search) and improves it under `budget`; the clock
    /// starts before the greedy runs.
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
        let mut b = ProblemInstance::builder("tabu");
        let i: Vec<IndexId> = (0..8)
            .map(|k| b.add_index(2.0 + (k % 4) as f64 * 3.0))
            .collect();
        for q in 0..6 {
            let qid = b.add_query(50.0 + q as f64 * 15.0);
            b.add_plan(qid, vec![i[q % 8]], 8.0);
            b.add_plan(qid, vec![i[q % 8], i[(q + 3) % 8]], 22.0);
        }
        b.add_build_interaction(i[1], i[2], 1.5);
        b.add_build_interaction(i[5], i[4], 2.0);
        b.build().unwrap()
    }

    #[test]
    fn both_strategies_never_worsen_the_initial_solution() {
        let inst = instance();
        let eval = ObjectiveEvaluator::new(&inst);
        let initial = Deployment::identity(inst.num_indexes());
        let initial_area = eval.evaluate_area(&initial);
        for strategy in [SwapStrategy::Best, SwapStrategy::First] {
            let result =
                TabuSolver::new(strategy, SearchBudget::nodes(50)).solve(&inst, initial.clone());
            assert!(result.objective <= initial_area + 1e-9);
            let d = result.deployment.unwrap();
            assert!(d.is_valid_for(&inst));
            assert_eq!(eval.evaluate_area(&d), result.objective);
        }
    }

    #[test]
    fn improves_a_greedy_start_or_keeps_it() {
        let inst = instance();
        let greedy = GreedySolver::new().construct(&inst);
        let eval = ObjectiveEvaluator::new(&inst);
        let greedy_area = eval.evaluate_area(&greedy);
        let result =
            TabuSolver::new(SwapStrategy::Best, SearchBudget::nodes(100)).solve(&inst, greedy);
        assert!(result.objective <= greedy_area + 1e-9);
        assert!(!result.trajectory.is_empty());
    }

    #[test]
    fn respects_precedence_constraints() {
        let mut b = ProblemInstance::builder("tabu-prec");
        let i0 = b.add_index(8.0);
        let i1 = b.add_index(1.0);
        let i2 = b.add_index(2.0);
        let q = b.add_query(40.0);
        b.add_plan(q, vec![i1], 30.0);
        b.add_plan(q, vec![i2], 10.0);
        b.add_precedence(i0, i1);
        let inst = b.build().unwrap();
        let initial = Deployment::from_raw([0, 1, 2]);
        let result =
            TabuSolver::new(SwapStrategy::Best, SearchBudget::nodes(30)).solve(&inst, initial);
        assert!(result.deployment.unwrap().is_valid_for(&inst));
    }

    #[test]
    fn first_swap_is_deterministic_for_a_seed() {
        let inst = instance();
        let initial = Deployment::identity(inst.num_indexes());
        let run = |seed| {
            TabuSolver::with_config(TabuConfig {
                strategy: SwapStrategy::First,
                seed,
                budget: SearchBudget::nodes(40),
                ..TabuConfig::default()
            })
            .solve(&inst, initial.clone())
            .objective
        };
        assert_eq!(run(1), run(1));
    }
}
