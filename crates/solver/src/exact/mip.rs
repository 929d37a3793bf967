//! MIP-style time-discretized branch-and-bound (paper Appendix B).
//!
//! The paper models the ordering problem as a mixed integer program by
//! discretizing deployment time into `|I| · 20` uniform steps and introducing
//! assignment, precedence and availability variables, then hands the model to
//! CPlex. CPlex is not available here, so this module reproduces the
//! *behaviour* that matters for the comparison instead:
//!
//! * the model-size accounting ([`MipSolver::model_size`]) shows how the
//!   discretization blows up the variable count (over a million variables for
//!   TPC-DS-sized instances, as the paper reports);
//! * the search is a best-first branch-and-bound whose bound is the weak
//!   relaxation [`LowerBound::remaining_weak`] (no ordering insight, exactly
//!   the weakness the paper ascribes to the linear relaxation), and whose
//!   frontier is kept in memory like a MIP solver's node tree — so it
//!   exhausts its memory cap on anything but small instances and reports
//!   `DidNotFinish`, mirroring the paper's "DF / out of memory" entries;
//! * objective values are computed on the discretized time grid, so the
//!   reported optimum can differ slightly from the exact CP optimum, just as
//!   a time-indexed MIP's does.

use crate::budget::SearchBudget;
use crate::constraints::OrderConstraints;
use crate::exact::bounds::LowerBound;
use crate::result::{CoopStats, SolveOutcome, SolveResult};
use crate::solver::{SolveContext, Solver};
use idd_core::{Deployment, IndexId, ObjectiveEvaluator, ProblemInstance};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Number of timesteps per index: the paper discretizes deployment time
/// into `|D| = 20·|I|` steps.
const TIMESTEPS_PER_INDEX: usize = 20;

/// Maximum number of open nodes kept in the frontier before the solver
/// declares itself out of memory.
const MAX_OPEN_NODES: usize = 200_000;

/// Configuration of the MIP-style solver.
#[derive(Debug, Clone, Default)]
pub struct MipConfig {
    /// Time / node budget.
    pub budget: SearchBudget,
}

/// Size of the discretized MIP model (Appendix B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelSize {
    /// Number of timesteps `|D|`.
    pub timesteps: usize,
    /// Total number of decision variables (A, B, C, X, Y, Z, CY).
    pub variables: usize,
    /// Total number of constraints.
    pub constraints: usize,
}

/// One open node of the best-first tree: a prefix of the deployment order.
#[derive(Debug, Clone, PartialEq)]
struct OpenNode {
    bound: f64,
    area: f64,
    order: Vec<IndexId>,
}

impl Eq for OpenNode {}
impl Ord for OpenNode {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .bound
            .partial_cmp(&self.bound)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.order.len().cmp(&other.order.len()))
    }
}
impl PartialOrd for OpenNode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The MIP-style solver.
#[derive(Debug, Clone, Default)]
pub struct MipSolver {
    config: MipConfig,
}

impl MipSolver {
    /// Creates a solver with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a solver with an explicit configuration.
    pub fn with_config(config: MipConfig) -> Self {
        Self { config }
    }

    /// Counts variables and constraints of the Appendix-B formulation for an
    /// instance (reported by the Table-5 harness to substantiate the paper's
    /// "over 1 million integer variables remain" observation).
    pub fn model_size(&self, instance: &ProblemInstance) -> ModelSize {
        let i = instance.num_indexes();
        let q = instance.num_queries();
        let p = instance.num_plans();
        let d = i * TIMESTEPS_PER_INDEX;
        // Variables: A_i, B_{i,j}, Ĉ_i, X̂_{q,d}, Ŷ_{q,p,d}, Ẑ_{i,d}, CY_{i,j}.
        let variables = i + i * i + i + q * d + p * d + i * d + i * i;
        // Constraints (13)-(23), counted per the quantifiers in Appendix B.
        let constraints = i * i            // (13)
            + i * i * i                     // (14)
            + i * i                         // (15)
            + q * d                         // (16)
            + p * d * 4                     // (17) per index in plan (approx. widest 4)
            + q * d                         // (19)
            + i * d                         // (20)
            + i                             // (21)
            + i * i                         // (22)
            + i; // (23)
        ModelSize {
            timesteps: d,
            variables,
            constraints,
        }
    }

    /// Runs the branch-and-bound.
    pub fn solve(&self, instance: &ProblemInstance) -> SolveResult {
        self.solve_in(instance, &SolveContext::new())
    }

    /// Runs the branch-and-bound inside a shared [`SolveContext`]
    /// (cancellable, publishing incumbent improvements).
    pub fn solve_in(&self, instance: &ProblemInstance, ctx: &SolveContext) -> SolveResult {
        self.search(instance, ctx, MAX_OPEN_NODES)
    }

    /// The branch-and-bound of [`MipSolver::solve_in`], giving up once more
    /// than `max_open_nodes` nodes are open.
    fn search(
        &self,
        instance: &ProblemInstance,
        ctx: &SolveContext,
        max_open_nodes: usize,
    ) -> SolveResult {
        let mut clock = self.config.budget.start_cancellable(ctx.cancel_token());
        let n = instance.num_indexes();
        let evaluator = ObjectiveEvaluator::new(instance);
        let mut state = evaluator.prefix_state();
        let bound = LowerBound::new(instance);
        let constraints = OrderConstraints::from_instance(instance);

        // Time quantum of the discretization.
        let total_cost = instance.total_base_build_cost();
        let quantum = (total_cost / (n * TIMESTEPS_PER_INDEX) as f64).max(f64::EPSILON);
        let quantize = |cost: f64| -> f64 { (cost / quantum).ceil() * quantum };

        let mut heap: BinaryHeap<OpenNode> = BinaryHeap::new();
        heap.push(OpenNode {
            bound: bound.remaining_weak(&vec![false; n]),
            area: 0.0,
            order: Vec::new(),
        });

        let mut best_area = f64::INFINITY;
        let mut best_order: Option<Vec<IndexId>> = None;
        let mut trajectory = crate::anytime::Trajectory::new();

        while let Some(node) = heap.pop() {
            if clock.exhausted() || heap.len() > max_open_nodes {
                // Out of budget or out of memory, exactly like the paper's DF rows.
                let elapsed = clock.elapsed_seconds();
                let nodes = clock.nodes();
                return match best_order {
                    Some(order) => SolveResult {
                        solver: "mip".into(),
                        objective: evaluator.evaluate_area(&Deployment::new(order.clone())),
                        deployment: Some(Deployment::new(order)),
                        outcome: SolveOutcome::Feasible,
                        elapsed_seconds: elapsed,
                        nodes,
                        trajectory,
                        coop: CoopStats::default(),
                    },
                    None => SolveResult::did_not_finish("mip", elapsed, nodes),
                };
            }
            clock.count_node();

            if node.bound >= best_area - 1e-9 {
                continue;
            }
            if node.order.len() == n {
                if node.area < best_area {
                    best_area = node.area;
                    best_order = Some(node.order.clone());
                    trajectory.record(clock.elapsed_seconds(), node.area);
                    // Publish the canonical (unquantized) area: shared-best
                    // consumers compare incumbents at ulp-level tolerances,
                    // so quantized node sums must not leak off this solver.
                    let canonical = evaluator.evaluate_area(&Deployment::new(node.order.clone()));
                    ctx.publish_deployment(canonical, &node.order);
                }
                continue;
            }

            // Expand: the state holds this prefix, and each child is one
            // push and one pop on top of it.
            while state.pop().is_some() {}
            for &index in &node.order {
                state.push(index);
            }
            let runtime = state.runtime();
            for raw in 0..n {
                let index = IndexId::new(raw);
                if state.is_built(index) || !constraints.can_place(index, state.built()) {
                    continue;
                }
                let cost = quantize(state.build_cost(index));
                let area = node.area + runtime * cost;
                state.push(index);
                let child_bound = area + bound.remaining_weak(state.built());
                state.pop();
                if child_bound >= best_area - 1e-9 {
                    continue;
                }
                let mut order = node.order.clone();
                order.push(index);
                heap.push(OpenNode {
                    bound: child_bound,
                    area,
                    order,
                });
            }
        }

        let elapsed = clock.elapsed_seconds();
        let nodes = clock.nodes();
        match best_order {
            Some(order) => SolveResult {
                solver: "mip".into(),
                objective: evaluator.evaluate_area(&Deployment::new(order.clone())),
                deployment: Some(Deployment::new(order)),
                outcome: SolveOutcome::Optimal,
                elapsed_seconds: elapsed,
                nodes,
                trajectory,
                coop: CoopStats::default(),
            },
            None => SolveResult::did_not_finish("mip", elapsed, nodes),
        }
    }
}

impl Solver for MipSolver {
    fn name(&self) -> &'static str {
        "mip"
    }

    fn run(
        &self,
        instance: &ProblemInstance,
        budget: SearchBudget,
        ctx: &SolveContext,
    ) -> SolveResult {
        MipSolver::with_config(MipConfig { budget }).solve_in(instance, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::cp::{CpConfig, CpSolver};

    fn instance() -> ProblemInstance {
        let mut b = ProblemInstance::builder("mip");
        let i0 = b.add_index(4.0);
        let i1 = b.add_index(6.0);
        let i2 = b.add_index(3.0);
        let i3 = b.add_index(5.0);
        let q0 = b.add_query(40.0);
        b.add_plan(q0, vec![i0], 10.0);
        b.add_plan(q0, vec![i0, i1], 25.0);
        let q1 = b.add_query(30.0);
        b.add_plan(q1, vec![i2], 12.0);
        b.add_plan(q1, vec![i3], 8.0);
        b.add_build_interaction(i0, i1, 1.0);
        b.build().unwrap()
    }

    #[test]
    fn mip_optimum_is_close_to_cp_optimum() {
        let inst = instance();
        let mip = MipSolver::with_config(MipConfig {
            budget: SearchBudget::unlimited(),
        })
        .solve(&inst);
        let cp = CpSolver::with_config(CpConfig::plain(SearchBudget::unlimited())).solve(&inst);
        assert!(mip.is_optimal());
        // The MIP search branches on discretized costs but the reported
        // objective is re-evaluated exactly, so the orders should agree up to
        // discretization noise.
        assert!(
            (mip.objective - cp.objective).abs() / cp.objective < 0.05,
            "mip {} vs cp {}",
            mip.objective,
            cp.objective
        );
    }

    #[test]
    fn model_size_grows_quadratically_with_indexes_and_plans() {
        let inst = instance();
        let solver = MipSolver::new();
        let size = solver.model_size(&inst);
        assert_eq!(size.timesteps, 4 * 20);
        assert!(size.variables > 500);
        assert!(size.constraints > size.variables);
        // Ten times the indexes/plans → far more than ten times the
        // variables (the discretization couples them multiplicatively).
        let mut big = ProblemInstance::builder("big");
        let ids: Vec<_> = (0..40).map(|_| big.add_index(1.0)).collect();
        for k in 0..20 {
            let q = big.add_query(10.0);
            big.add_plan(q, vec![ids[k], ids[(k + 1) % 40]], 2.0);
            big.add_plan(q, vec![ids[k]], 1.0);
        }
        let big = big.build().unwrap();
        let big_size = solver.model_size(&big);
        assert!(big_size.variables > 20 * size.variables);
    }

    #[test]
    fn memory_cap_reports_dnf_without_incumbent() {
        let inst = instance();
        let result = MipSolver::with_config(MipConfig {
            budget: SearchBudget::unlimited(),
        })
        .search(&inst, &SolveContext::new(), 2);
        // With an absurdly small frontier the solver cannot finish.
        assert_ne!(result.outcome, SolveOutcome::Optimal);
    }

    #[test]
    fn node_budget_is_honoured() {
        let inst = instance();
        let result = MipSolver::with_config(MipConfig {
            budget: SearchBudget::nodes(3),
        })
        .solve(&inst);
        assert!(result.nodes <= 4);
        assert_ne!(result.outcome, SolveOutcome::Optimal);
    }
}
