//! # Shard-and-recombine solving
//!
//! The Section-5 property analysis doubles as a *decomposer*: the same
//! structural facts the detectors consume (which plans share indexes, which
//! indexes compete for a query, which builds interact) define a coupling
//! graph over the indexes. Components of that graph are independent
//! sub-problems — an index's position relative to another component's
//! indexes never changes the objective — so each component ("shard") can be
//! solved by its own portfolio race and the per-shard schedules recombined:
//!
//! 1. [`properties::analyze`](crate::properties::analyze) finds the
//!    alliance groups, which pin shard membership. The coupling graph reads
//!    nothing else of the analysis, so the default configuration runs the
//!    alliance detector alone.
//! 2. [`CouplingGraph::build`] + [`CouplingGraph::partition`] — cut soft
//!    edges below the configured threshold (`0.0` cuts nothing ⇒ the
//!    partition is *exact*); hard precedence/alliance edges are never cut.
//! 3. [`shard::project`] each component onto a self-contained sub-instance
//!    and race the standard portfolio on every shard. The shards' member
//!    runs share one pool of threads, one per core: a free core takes the
//!    next member run of any shard.
//! 4. Read each shard schedule back as a benefit curve
//!    ([`idd_core::benefit_steps`]), decompose into maximal-density prefix
//!    blocks and [`recombine::merge`] by Smith's rule — the optimal
//!    order-preserving interleave.
//! 5. Re-evaluate the spliced order against the **full** instance with
//!    [`ObjectiveEvaluator`]; the reported objective is always that exact
//!    number, never a sum of shard objectives.
//!
//! The combined outcome claims [`SolveOutcome::Optimal`] only when the
//! partition was exact *and* every shard proved its own optimum: for
//! independent shards the block merge is optimal over order-preserving
//! interleaves, and an exchange argument shows some global optimum is
//! order-preserving over per-shard optima. Any cut edge demotes the claim to
//! `Feasible`.

pub mod graph;
pub mod recombine;
pub mod shard;

pub use graph::{CouplingEdge, CouplingGraph, Partition};
pub use recombine::ShardSchedule;
pub use shard::{project, ShardInstance};

use crate::anytime::Trajectory;
use crate::budget::SearchBudget;
use crate::portfolio::{PortfolioConfig, PortfolioSolver};
use crate::properties::{analyze, AnalysisOptions};
use crate::result::{CoopStats, SolveOutcome, SolveResult};
use crate::solver::{CooperationPolicy, SolveContext};
use idd_core::{benefit_steps, Deployment, IndexId, ObjectiveEvaluator, ProblemInstance};
use std::time::Instant;

/// Configuration for [`ShardedSolver`].
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// The solve's budget. Its node limit applies to each member run of
    /// each shard race. Its time limit is one deadline for the whole solve,
    /// from [`ShardedSolver::solve`]'s entry: a member run that starts with
    /// `left` of it left, `runs_left` runs not yet started (itself
    /// included) and one thread per core gets
    /// `min(left, left × threads / runs_left)`, and a monolithic fallback
    /// gets whatever is left.
    pub shard_budget: SearchBudget,
    /// Soft coupling edges with accumulated weight below this are cut.
    /// `0.0` (the default) cuts nothing: shards are exactly independent and
    /// recombination is lossless.
    pub cut_threshold: f64,
    /// Property-analysis configuration used to build the coupling graph.
    /// The graph reads only the alliance groups, so the default,
    /// `AnalysisOptions::drill_down("A")`, runs the alliance detector alone.
    pub analysis: AnalysisOptions,
    /// Passed through to each shard's [`PortfolioConfig`]: a member that
    /// proves its shard optimal cancels that shard's remaining runs only.
    pub cancel_on_optimal: bool,
    /// Passed through to each shard's [`PortfolioConfig`]; members cooperate
    /// only with the members of their own shard.
    pub cooperation: CooperationPolicy,
}

impl ShardedConfig {
    /// Default configuration with the given budget.
    pub fn with_budget(shard_budget: SearchBudget) -> Self {
        Self {
            shard_budget,
            cut_threshold: 0.0,
            analysis: AnalysisOptions::drill_down("A"),
            cancel_on_optimal: true,
            cooperation: CooperationPolicy::Off,
        }
    }
}

impl Default for ShardedConfig {
    fn default() -> Self {
        Self::with_budget(SearchBudget::default())
    }
}

/// One shard's members and solve result (shard-local ids in
/// `result.deployment`; `members[local.raw()]` maps them back).
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Parent-instance ids of the shard's indexes.
    pub members: Vec<IndexId>,
    /// The shard portfolio's combined result. Its `elapsed_seconds` is the
    /// wall time from the shard's first member run's start to its last
    /// run's end; other shards' runs share the threads in between, so the
    /// shards' times overlap and do not add up to the solve's.
    pub result: SolveResult,
}

/// The full outcome of a sharded solve.
#[derive(Debug, Clone)]
pub struct ShardedOutcome {
    /// The recombined result. `objective` is always re-evaluated against the
    /// full instance, bit-for-bit identical to
    /// [`ObjectiveEvaluator::evaluate`] on `deployment`.
    pub result: SolveResult,
    /// Per-shard reports (empty when the solve fell back to monolithic).
    pub shards: Vec<ShardReport>,
    /// Number of soft coupling edges the threshold cut.
    pub cut_edges: usize,
    /// Total weight of the cut edges.
    pub cut_weight: f64,
    /// `true` when no coupling was severed (recombination is lossless).
    pub exact: bool,
    /// `true` when the decomposer did not shard (the coupling graph is one
    /// component, or a shard race returned no deployment) and ran the plain
    /// portfolio instead.
    pub monolithic_fallback: bool,
}

impl ShardedOutcome {
    /// Number of shards the instance was split into (`1` for a monolithic
    /// fallback).
    pub fn num_shards(&self) -> usize {
        self.shards.len().max(1)
    }
}

/// Shard-and-recombine wrapper around the standard portfolio.
#[derive(Debug, Clone, Default)]
pub struct ShardedSolver {
    config: ShardedConfig,
}

impl ShardedSolver {
    /// Creates a sharded solver with the given configuration.
    pub fn new(config: ShardedConfig) -> Self {
        Self { config }
    }

    /// Convenience: default configuration with the given budget.
    pub fn recommended(shard_budget: SearchBudget) -> Self {
        Self::new(ShardedConfig::with_budget(shard_budget))
    }

    fn portfolio(&self) -> PortfolioSolver {
        PortfolioSolver::recommended(self.config.shard_budget).with_config(PortfolioConfig {
            budget: self.config.shard_budget,
            cancel_on_optimal: self.config.cancel_on_optimal,
            cooperation: self.config.cooperation,
        })
    }

    /// `shard_budget` with its time limit cut to what is left of the
    /// solve's deadline.
    fn left(&self, started: Instant) -> SearchBudget {
        let budget = self.config.shard_budget;
        SearchBudget {
            time_limit: budget
                .time_limit
                .map(|limit| limit.saturating_sub(started.elapsed())),
            ..budget
        }
    }

    fn monolithic(
        &self,
        instance: &ProblemInstance,
        started: Instant,
        exact: bool,
    ) -> ShardedOutcome {
        let outcome = self
            .portfolio()
            .race(instance, self.left(started), &SolveContext::new());
        let mut result = outcome.combined;
        result.solver = "sharded(monolithic-fallback)".to_string();
        result.elapsed_seconds = started.elapsed().as_secs_f64();
        ShardedOutcome {
            result,
            shards: Vec::new(),
            cut_edges: 0,
            cut_weight: 0.0,
            exact,
            monolithic_fallback: true,
        }
    }

    /// Solves `instance` by sharding along the coupling graph.
    pub fn solve(&self, instance: &ProblemInstance) -> ShardedOutcome {
        let started = Instant::now();

        let analysis = analyze(instance, self.config.analysis);
        let graph = CouplingGraph::build(instance, &analysis);
        let partition = graph.partition(self.config.cut_threshold);
        if partition.shards.len() <= 1 {
            return self.monolithic(instance, started, partition.is_exact());
        }

        let shard_instances: Vec<ShardInstance> = partition
            .shards
            .iter()
            .map(|members| shard::project(instance, members))
            .collect();

        // Every shard is one job of the portfolio's scheduler, with a
        // private SolveContext (no shared cancellation or incumbent across
        // shards — they are different instances), on one thread per core.
        let jobs: Vec<(&ProblemInstance, SolveContext)> = shard_instances
            .iter()
            .map(|shard| (&shard.instance, SolveContext::new()))
            .collect();
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let shard_results: Vec<SolveResult> = self
            .portfolio()
            .schedule(&jobs, threads, self.left(started))
            .into_iter()
            .map(|outcome| outcome.combined)
            .collect();

        // Read each shard's schedule back as a benefit curve with parent
        // ids, then merge by block density.
        let mut schedules = Vec::with_capacity(shard_results.len());
        for (shard, result) in shard_instances.iter().zip(&shard_results) {
            let Some(deployment) = result.deployment.as_ref() else {
                // The portfolio always contains greedy, so this is
                // unreachable in practice; degrade gracefully regardless.
                return self.monolithic(instance, started, partition.is_exact());
            };
            let value = ObjectiveEvaluator::new(&shard.instance).evaluate(deployment);
            let steps = benefit_steps(&value)
                .into_iter()
                .map(|mut s| {
                    s.index = shard.members[s.index.raw()];
                    s
                })
                .collect();
            schedules.push(ShardSchedule { steps });
        }
        let order = recombine::merge(&schedules);
        let deployment = Deployment::new(order);
        debug_assert!(deployment.is_valid_for(instance));

        // The one objective we report: the spliced order evaluated against
        // the full instance.
        let objective = ObjectiveEvaluator::new(instance).evaluate(&deployment).area;

        let all_optimal = shard_results
            .iter()
            .all(|r| r.outcome == SolveOutcome::Optimal);
        let outcome = if partition.is_exact() && all_optimal {
            SolveOutcome::Optimal
        } else {
            SolveOutcome::Feasible
        };

        let elapsed_seconds = started.elapsed().as_secs_f64();
        let mut trajectory = Trajectory::new();
        trajectory.record(elapsed_seconds, objective);
        let result = SolveResult {
            solver: format!("sharded(x{})", shard_results.len()),
            deployment: Some(deployment),
            objective,
            outcome,
            elapsed_seconds,
            nodes: shard_results.iter().map(|r| r.nodes).sum(),
            trajectory,
            coop: shard_results
                .iter()
                .fold(CoopStats::default(), |acc, r| acc.merged(r.coop)),
        };

        ShardedOutcome {
            result,
            shards: partition
                .shards
                .iter()
                .cloned()
                .zip(shard_results)
                .map(|(members, result)| ShardReport { members, result })
                .collect(),
            cut_edges: partition.cut_edges.len(),
            cut_weight: partition.cut_weight,
            exact: partition.is_exact(),
            monolithic_fallback: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three independent blocks with small integer-valued costs and
    /// speed-ups: every area is an exact small-integer f64 sum, so sharded
    /// and monolithic optima can be compared with `==`.
    fn three_blocks() -> ProblemInstance {
        let mut b = ProblemInstance::builder("three-blocks");
        let i0 = b.add_index(2.0);
        let i1 = b.add_index(3.0);
        let i2 = b.add_index(1.0);
        let i3 = b.add_index(4.0);
        let i4 = b.add_index(2.0);
        let q0 = b.add_query(40.0);
        b.add_plan(q0, vec![i0], 8.0);
        b.add_plan(q0, vec![i0, i1], 20.0);
        let q1 = b.add_query(30.0);
        b.add_plan(q1, vec![i2], 6.0);
        b.add_plan(q1, vec![i3], 9.0);
        let q2 = b.add_query(25.0);
        b.add_plan(q2, vec![i4], 10.0);
        b.build().unwrap()
    }

    fn budgeted() -> ShardedConfig {
        let mut config = ShardedConfig::with_budget(SearchBudget::nodes(200_000));
        config.cancel_on_optimal = false;
        config
    }

    #[test]
    fn zero_coupling_sharded_matches_monolithic_exactly() {
        let inst = three_blocks();
        let sharded = ShardedSolver::new(budgeted()).solve(&inst);
        assert!(!sharded.monolithic_fallback);
        assert!(sharded.exact);
        assert_eq!(sharded.shards.len(), 3);
        assert_eq!(sharded.result.outcome, SolveOutcome::Optimal);

        let mono = PortfolioSolver::recommended(SearchBudget::nodes(200_000))
            .solve_detailed_in(&inst, &SolveContext::new())
            .combined;
        assert_eq!(mono.outcome, SolveOutcome::Optimal);
        assert_eq!(
            sharded.result.objective, mono.objective,
            "lossless decomposition must reproduce the monolithic optimum"
        );

        // And the reported number is exactly the evaluator's.
        let deployment = sharded.result.deployment.as_ref().unwrap();
        assert!(deployment.is_valid_for(&inst));
        assert_eq!(
            sharded.result.objective,
            ObjectiveEvaluator::new(&inst).evaluate(deployment).area
        );
    }

    #[test]
    fn cut_partition_is_reverified_and_never_claims_optimal() {
        let inst = three_blocks();
        let mut config = budgeted();
        // Higher than every accumulated soft weight: cut everything soft.
        config.cut_threshold = 1_000.0;
        let outcome = ShardedSolver::new(config).solve(&inst);
        assert!(!outcome.monolithic_fallback);
        assert!(!outcome.exact);
        assert!(outcome.cut_edges > 0);
        assert_eq!(outcome.shards.len(), 5);
        assert_eq!(outcome.result.outcome, SolveOutcome::Feasible);
        let deployment = outcome.result.deployment.as_ref().unwrap();
        assert_eq!(
            outcome.result.objective,
            ObjectiveEvaluator::new(&inst).evaluate(deployment).area,
            "the reported objective must be the full-instance evaluation"
        );
    }

    #[test]
    fn single_component_falls_back_to_monolithic() {
        let mut b = ProblemInstance::builder("one-block");
        let i0 = b.add_index(2.0);
        let i1 = b.add_index(3.0);
        let q0 = b.add_query(40.0);
        b.add_plan(q0, vec![i0, i1], 20.0);
        let inst = b.build().unwrap();
        let outcome = ShardedSolver::new(budgeted()).solve(&inst);
        assert!(outcome.monolithic_fallback);
        assert_eq!(outcome.num_shards(), 1);
    }
}
