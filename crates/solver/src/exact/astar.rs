//! A* / best-first search over built-index subsets.
//!
//! The remaining objective of a partial deployment depends only on the *set*
//! of indexes already built (not on the order used to reach it), so the
//! problem admits a shortest-path formulation over the subset lattice:
//! `g` = best known area to reach a subset, `h` = the admissible lower bound
//! of [`crate::exact::bounds::LowerBound`]. This is the A* approach the paper
//! attributes to earlier work [6, 13] — exact, but its frontier grows
//! exponentially, which is why it (like MIP) falls over well before CP does.
//! The solver therefore carries an explicit state cap that reports a
//! `DidNotFinish` outcome, mirroring the paper's out-of-memory entries.

use crate::budget::SearchBudget;
use crate::constraints::OrderConstraints;
use crate::exact::bounds::LowerBound;
use crate::result::{CoopStats, SolveOutcome, SolveResult};
use crate::solver::{SolveContext, Solver};
use idd_core::{Deployment, IndexId, ObjectiveEvaluator, ProblemInstance};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

/// Maximum number of distinct subsets kept in memory before giving up
/// (models the memory exhaustion the paper reports).
const MAX_STATES: usize = 2_000_000;

/// Configuration of the A* solver.
#[derive(Debug, Clone, Default)]
pub struct AStarConfig {
    /// Time / node budget.
    pub budget: SearchBudget,
}

/// Key for a subset of built indexes (bit-packed).
type SubsetKey = Vec<u64>;

fn key_with(key: &SubsetKey, raw: usize) -> SubsetKey {
    let mut k = key.clone();
    k[raw / 64] |= 1 << (raw % 64);
    k
}

fn key_contains(key: &SubsetKey, raw: usize) -> bool {
    key[raw / 64] & (1 << (raw % 64)) != 0
}

#[derive(Debug, Clone, PartialEq)]
struct Node {
    f: f64,
    g: f64,
    key: SubsetKey,
    depth: usize,
}

impl Eq for Node {}

impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on f (BinaryHeap is a max-heap, so reverse).
        other
            .f
            .partial_cmp(&self.f)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.depth.cmp(&other.depth))
    }
}

impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The A* solver.
#[derive(Debug, Clone, Default)]
pub struct AStarSolver {
    config: AStarConfig,
}

impl AStarSolver {
    /// Creates a solver with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a solver with an explicit configuration.
    pub fn with_config(config: AStarConfig) -> Self {
        Self { config }
    }

    /// Runs the search.
    pub fn solve(&self, instance: &ProblemInstance) -> SolveResult {
        self.solve_in(instance, &SolveContext::new())
    }

    /// Runs the search inside a shared [`SolveContext`] (cancellable; A*
    /// only ever has a solution at the very end, which is published then).
    pub fn solve_in(&self, instance: &ProblemInstance, ctx: &SolveContext) -> SolveResult {
        self.search(instance, ctx, MAX_STATES)
    }

    /// The search of [`AStarSolver::solve_in`], giving up once more than
    /// `max_states` subsets are kept.
    fn search(
        &self,
        instance: &ProblemInstance,
        ctx: &SolveContext,
        max_states: usize,
    ) -> SolveResult {
        let mut clock = self.config.budget.start_cancellable(ctx.cancel_token());
        let n = instance.num_indexes();
        let words = n.div_ceil(64);
        let evaluator = ObjectiveEvaluator::new(instance);
        let mut state = evaluator.prefix_state();
        let bound = LowerBound::new(instance);
        let constraints = OrderConstraints::from_instance(instance);

        // g-values and parent pointers (subset → (previous subset, index)).
        let mut best_g: HashMap<SubsetKey, f64> = HashMap::new();
        let mut parent: HashMap<SubsetKey, (SubsetKey, IndexId)> = HashMap::new();
        let mut heap: BinaryHeap<Node> = BinaryHeap::new();

        let start: SubsetKey = vec![0; words];
        let baseline = instance.baseline_runtime();
        best_g.insert(start.clone(), 0.0);
        heap.push(Node {
            f: bound.remaining(&vec![false; n], baseline),
            g: 0.0,
            key: start.clone(),
            depth: 0,
        });

        let full: SubsetKey = {
            let mut k = vec![0u64; words];
            for raw in 0..n {
                k[raw / 64] |= 1 << (raw % 64);
            }
            k
        };

        while let Some(node) = heap.pop() {
            if clock.exhausted() || best_g.len() > max_states {
                return SolveResult::did_not_finish(
                    "astar",
                    clock.elapsed_seconds(),
                    clock.nodes(),
                );
            }
            clock.count_node();

            // Stale entry?
            if let Some(&g) = best_g.get(&node.key) {
                if node.g > g + 1e-12 {
                    continue;
                }
            }

            if node.key == full {
                // Reconstruct the order.
                let mut order_rev: Vec<IndexId> = Vec::with_capacity(n);
                let mut cursor = node.key.clone();
                while let Some((prev, index)) = parent.get(&cursor) {
                    order_rev.push(*index);
                    cursor = prev.clone();
                }
                order_rev.reverse();
                let deployment = Deployment::new(order_rev);
                let objective = evaluator.evaluate_area(&deployment);
                ctx.publish_deployment(objective, deployment.order());
                let mut trajectory = crate::anytime::Trajectory::new();
                trajectory.record(clock.elapsed_seconds(), objective);
                return SolveResult {
                    solver: "astar".into(),
                    deployment: Some(deployment),
                    objective,
                    outcome: SolveOutcome::Optimal,
                    elapsed_seconds: clock.elapsed_seconds(),
                    nodes: clock.nodes(),
                    trajectory,
                    coop: CoopStats::default(),
                };
            }

            // Expand: the state holds this subset (in raw-id order; its
            // runtime and costs depend on the set only), and each child is
            // one push and one pop on top of it.
            while state.pop().is_some() {}
            for raw in (0..n).filter(|&raw| key_contains(&node.key, raw)) {
                state.push(IndexId::new(raw));
            }
            let runtime = state.runtime();

            for raw in 0..n {
                let index = IndexId::new(raw);
                if state.is_built(index) || !constraints.can_place(index, state.built()) {
                    continue;
                }
                let cost = state.build_cost(index);
                let g = node.g + runtime * cost;
                let child_key = key_with(&node.key, raw);
                let better = best_g
                    .get(&child_key)
                    .map(|&old| g < old - 1e-12)
                    .unwrap_or(true);
                if better {
                    best_g.insert(child_key.clone(), g);
                    parent.insert(child_key.clone(), (node.key.clone(), index));
                    state.push(index);
                    let h = bound.remaining(state.built(), state.runtime());
                    state.pop();
                    heap.push(Node {
                        f: g + h,
                        g,
                        key: child_key,
                        depth: node.depth + 1,
                    });
                }
            }
        }

        SolveResult::did_not_finish("astar", clock.elapsed_seconds(), clock.nodes())
    }
}

impl Solver for AStarSolver {
    fn name(&self) -> &'static str {
        "astar"
    }

    fn run(
        &self,
        instance: &ProblemInstance,
        budget: SearchBudget,
        ctx: &SolveContext,
    ) -> SolveResult {
        AStarSolver::with_config(AStarConfig { budget }).solve_in(instance, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::cp::{CpConfig, CpSolver};

    fn instance(seed: u64) -> ProblemInstance {
        let mut b = ProblemInstance::builder(format!("astar-{seed}"));
        let mut s = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(7);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let n = 6;
        let idx: Vec<IndexId> = (0..n).map(|_| b.add_index(1.0 + next() * 6.0)).collect();
        for q in 0..4 {
            let qid = b.add_query(30.0 + next() * 50.0);
            b.add_plan(qid, vec![idx[q % n]], 4.0 + next() * 8.0);
            b.add_plan(qid, vec![idx[q % n], idx[(q + 1) % n]], 12.0 + next() * 8.0);
        }
        b.add_build_interaction(idx[2], idx[1], 0.5);
        b.build().unwrap()
    }

    #[test]
    fn astar_matches_cp_optimum() {
        for seed in [1, 2, 3] {
            let inst = instance(seed);
            let astar = AStarSolver::with_config(AStarConfig {
                budget: SearchBudget::unlimited(),
            })
            .solve(&inst);
            let cp = CpSolver::with_config(CpConfig::plain(SearchBudget::unlimited())).solve(&inst);
            assert!(astar.is_optimal(), "seed {seed}");
            assert!(
                (astar.objective - cp.objective).abs() < 1e-6,
                "seed {seed}: astar {} cp {}",
                astar.objective,
                cp.objective
            );
        }
    }

    #[test]
    fn state_cap_produces_dnf() {
        let inst = instance(4);
        let result = AStarSolver::with_config(AStarConfig {
            budget: SearchBudget::unlimited(),
        })
        .search(&inst, &SolveContext::new(), 3);
        assert_eq!(result.outcome, SolveOutcome::DidNotFinish);
        assert!(!result.is_feasible());
    }

    #[test]
    fn precedences_are_respected() {
        let mut b = ProblemInstance::builder("astar-prec");
        let i0 = b.add_index(3.0);
        let i1 = b.add_index(1.0);
        let q = b.add_query(20.0);
        b.add_plan(q, vec![i1], 10.0);
        b.add_precedence(i0, i1);
        let inst = b.build().unwrap();
        let result = AStarSolver::new().solve(&inst);
        let d = result.deployment.unwrap();
        assert!(d.is_valid_for(&inst));
        assert_eq!(d.at(0), i0);
    }
}
