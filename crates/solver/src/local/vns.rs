//! Variable Neighborhood Search (Section 7.3).
//!
//! VNS is the LNS loop with a self-tuning schedule, and this module holds
//! that one large-neighbourhood loop for both solvers. Relaxations are
//! processed in groups of 20; if more than 75% of a group's reinsertion
//! searches ended with a *proof* (the CP search exhausted the neighbourhood
//! without finding a better solution — i.e. we are stuck in a local minimum
//! of that neighbourhood size), the relaxation size grows by 1% of the
//! indexes; otherwise the failure limit grows by 20% so the same-size
//! neighbourhood is explored more thoroughly. Each accepted reinsertion is
//! polished by a bounded-radius shift descent. The paper finds this
//! adaptive rule both faster to improve and more stable than
//! fixed-parameter LNS, and it is the method recommended for large
//! instances (Figures 11–13). [`LnsSolver`](crate::local::LnsSolver) runs
//! the same loop with a schedule that never fires, no polish, and its own
//! hint stealing and delta repair.
//!
//! The neighbourhoods respect the instance's hard precedences only. The
//! clock starts on entry, so a run's `elapsed_seconds` includes deriving
//! their closure and, under [`Solver::run`], the greedy seed.
//!
//! Inside a cooperative portfolio
//! ([`CooperationPolicy`](crate::solver::CooperationPolicy)) the VNS member
//! re-seeds from the shared best deployment when it stalls and publishes the
//! relaxation sets that produced improvements as destroy-neighbourhood hints
//! for LNS workers to steal.

use crate::budget::SearchBudget;
use crate::constraints::OrderConstraints;
use crate::exact::bounds::LowerBound;
use crate::greedy::GreedySolver;
use crate::local::{reinsert, relocate_best, Walk};
use crate::result::SolveResult;
use crate::solver::{SolveContext, Solver};
use idd_core::{DeltaEvaluator, Deployment, IndexId, ObjectiveEvaluator, ProblemInstance};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Fraction of the indexes relaxed at the start of a run (paper: 5%). LNS
/// relaxes this fraction throughout.
const INITIAL_RELAX_FRACTION: f64 = 0.05;

/// Share of proofs within a group above which the relaxation grows (paper:
/// 75%).
const PROOF_THRESHOLD: f64 = 0.75;

/// Relaxation-size increment, as a fraction of the indexes (paper: 1%).
const RELAX_INCREMENT: f64 = 0.01;

/// Failure-limit growth factor for a group that mostly hit its limit
/// (paper: +20%).
const FAILURE_GROWTH: f64 = 1.2;

/// How far a shift-descent relocation may move an index.
const SHIFT_RADIUS: usize = 8;

/// Configuration of the VNS solver.
#[derive(Debug, Clone)]
pub struct VnsConfig {
    /// Initial failure limit (paper: 500).
    pub initial_failure_limit: u64,
    /// Relaxations per adaptation group (paper: 20).
    pub group_size: usize,
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
    /// Polish each accepted reinsertion with a bounded-radius shift descent
    /// on the delta evaluator (first-improvement relocations of at most 8
    /// positions, each probe O(distance)). The CP reinsertion search
    /// explores *subset* neighbourhoods; this cheap pass catches the
    /// orthogonal "one index sits a few slots off" improvements.
    pub shift_descent: bool,
}

impl Default for VnsConfig {
    fn default() -> Self {
        Self {
            initial_failure_limit: 500,
            group_size: 20,
            budget: SearchBudget::default(),
            seed: 0x7145,
            stall_iterations: None,
            shift_descent: true,
        }
    }
}

/// The VNS solver.
#[derive(Debug, Clone, Default)]
pub struct VnsSolver {
    config: VnsConfig,
}

impl VnsSolver {
    /// Creates a solver with the default configuration and the given budget.
    pub fn new(budget: SearchBudget) -> Self {
        Self {
            config: VnsConfig {
                budget,
                ..VnsConfig::default()
            },
        }
    }

    /// Creates a solver with an explicit configuration.
    pub fn with_config(config: VnsConfig) -> Self {
        Self { config }
    }

    /// Improves `initial` until the budget runs out.
    pub fn solve(&self, instance: &ProblemInstance, initial: Deployment) -> SolveResult {
        self.solve_in(instance, initial, &SolveContext::new())
    }

    /// [`VnsSolver::solve`] inside a shared [`SolveContext`] (cancellable,
    /// publishing incumbent improvements).
    pub fn solve_in(
        &self,
        instance: &ProblemInstance,
        initial: Deployment,
        ctx: &SolveContext,
    ) -> SolveResult {
        let walk = Walk::start(ctx, &self.config.budget, self.config.stall_iterations);
        self.search("vns", instance, initial, walk, false, false)
    }

    /// The large-neighbourhood loop of LNS and VNS, run under `walk` (which
    /// carries the budget and stall threshold; the config's own are not
    /// read). `steal_hints` draws destroy sets from the shared hint deque
    /// before falling back to a random draw; `delta_repair` salvages a
    /// reinsertion that hit its failure limit. VNS sets neither, LNS both
    /// (the repair per its config).
    pub(crate) fn search(
        &self,
        name: &str,
        instance: &ProblemInstance,
        initial: Deployment,
        mut walk: Walk<'_>,
        steal_hints: bool,
        delta_repair: bool,
    ) -> SolveResult {
        let config = &self.config;
        let n = instance.num_indexes();
        let constraints = &OrderConstraints::from_instance(instance);
        let bound = LowerBound::new(instance);
        let evaluator = ObjectiveEvaluator::new(instance);
        let mut state = evaluator.prefix_state();
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);

        // The evaluator's base is the current order. It canonicalizes every
        // objective this member publishes and scores the relocations of the
        // polish and the repair below.
        let mut delta = DeltaEvaluator::new(instance, initial);
        walk.begin(delta.base_area());

        let mut relax_count =
            ((n as f64 * INITIAL_RELAX_FRACTION).ceil() as usize).clamp(2.min(n), n);
        let mut failure_limit = config.initial_failure_limit;
        let mut proofs_in_group = 0usize;
        let mut group_progress = 0usize;

        while walk.next_iteration(n) {
            // Cooperative warm-start: when stalled, jump to the portfolio's
            // best deployment instead of grinding on our own local optimum.
            walk.adopt(&mut delta, constraints);

            // Destroy set: prefer a stolen hint, else draw uniformly at
            // random.
            let stolen = if steal_hints { walk.steal(n) } else { None };
            let relaxed: Vec<IndexId> = stolen.unwrap_or_else(|| {
                let mut ids: Vec<usize> = (0..n).collect();
                ids.shuffle(&mut rng);
                ids[..relax_count]
                    .iter()
                    .map(|&r| IndexId::new(r))
                    .collect()
            });
            let fixed: Vec<IndexId> = delta
                .base()
                .order()
                .iter()
                .copied()
                .filter(|i| !relaxed.contains(i))
                .collect();

            let result = reinsert(
                &mut state,
                constraints,
                &bound,
                &fixed,
                &relaxed,
                walk.best(),
                failure_limit,
            );
            let improved = if let Some(order) = result.order {
                delta.set_base(Deployment::new(order));
                // Polish: a bounded-radius shift descent. The reinsertion
                // explores *subset* neighbourhoods; this cheap pass catches
                // the orthogonal "one index sits a few slots off" moves.
                let mut moved = config.shift_descent;
                while moved && !walk.clock.exhausted() {
                    moved = false;
                    for from in 0..n {
                        let window =
                            from.saturating_sub(SHIFT_RADIUS)..=(from + SHIFT_RADIUS).min(n - 1);
                        moved |= relocate_best(&mut delta, constraints, from, window);
                    }
                }
                true
            } else if delta_repair && !result.proved && !walk.clock.exhausted() {
                // The CP search hit its failure limit before exhausting the
                // neighbourhood. Salvage the destroy set with a greedy
                // repair: relocate each destroyed index to its best position.
                for &r in &relaxed {
                    let from = delta
                        .base()
                        .position_of(r)
                        .expect("destroy set is drawn from the current order");
                    relocate_best(&mut delta, constraints, from, 0..=n - 1);
                }
                delta.base_area() < walk.best() - 1e-12
            } else {
                false
            };
            if improved {
                // This destroy set just paid off: publish the order, and
                // share the set for other members to steal.
                walk.improved(delta.base_area(), delta.base().order(), relaxed);
            } else {
                walk.no_improvement();
            }

            if result.proved {
                proofs_in_group += 1;
            }
            group_progress += 1;

            // Adapt parameters after each group of relaxations.
            if group_progress >= config.group_size {
                let proof_ratio = proofs_in_group as f64 / group_progress as f64;
                if proof_ratio > PROOF_THRESHOLD {
                    // Stuck in small neighbourhoods: widen them.
                    let inc = ((n as f64 * RELAX_INCREMENT).ceil() as usize).max(1);
                    relax_count = (relax_count + inc).min(n);
                } else {
                    // Still hitting the failure limit: search deeper instead.
                    failure_limit = ((failure_limit as f64) * FAILURE_GROWTH).ceil() as u64;
                }
                proofs_in_group = 0;
                group_progress = 0;
            }
        }

        walk.finish(name, delta.base().clone())
    }
}

impl Solver for VnsSolver {
    fn name(&self) -> &'static str {
        "vns"
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
        let initial = GreedySolver::new().construct(instance);
        self.search("vns", instance, initial, walk, false, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::lns::LnsSolver;
    use idd_core::ObjectiveEvaluator;

    fn instance(seed: u64) -> ProblemInstance {
        let mut b = ProblemInstance::builder(format!("vns-{seed}"));
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(3);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let n = 14;
        let idx: Vec<IndexId> = (0..n).map(|_| b.add_index(2.0 + next() * 10.0)).collect();
        for q in 0..10 {
            let qid = b.add_query(50.0 + next() * 80.0);
            let a = idx[(q * 3) % n];
            let c = idx[(q * 5 + 1) % n];
            let d = idx[(q * 7 + 2) % n];
            b.add_plan(qid, vec![a], 5.0 + next() * 10.0);
            b.add_plan(qid, vec![a, c], 15.0 + next() * 10.0);
            b.add_plan(qid, vec![a, c, d], 25.0 + next() * 12.0);
        }
        b.add_build_interaction(idx[1], idx[0], 1.5);
        b.add_build_interaction(idx[4], idx[5], 2.0);
        b.add_build_interaction(idx[9], idx[8], 1.0);
        b.build().unwrap()
    }

    #[test]
    fn vns_never_worsens_and_stays_valid() {
        let inst = instance(1);
        let eval = ObjectiveEvaluator::new(&inst);
        let greedy = GreedySolver::new().construct(&inst);
        let greedy_area = eval.evaluate_area(&greedy);
        let result = VnsSolver::new(SearchBudget::nodes(120)).solve(&inst, greedy);
        assert!(result.objective <= greedy_area + 1e-9);
        let d = result.deployment.unwrap();
        assert!(d.is_valid_for(&inst));
        assert!((eval.evaluate_area(&d) - result.objective).abs() < 1e-9);
    }

    #[test]
    fn vns_matches_or_beats_fixed_parameter_lns_given_equal_iterations() {
        // The paper's headline local-search claim, scaled down: starting from
        // the same greedy solution and the same iteration budget, VNS should
        // end at least as good as LNS (it adapts its neighbourhood).
        let mut vns_wins = 0usize;
        let mut ties = 0usize;
        for seed in [2, 3, 4] {
            let inst = instance(seed);
            let greedy = GreedySolver::new().construct(&inst);
            let lns = LnsSolver::with_config(crate::local::lns::LnsConfig {
                budget: SearchBudget::nodes(150),
                seed,
                ..Default::default()
            })
            .solve(&inst, greedy.clone());
            let vns = VnsSolver::with_config(VnsConfig {
                budget: SearchBudget::nodes(150),
                seed,
                ..Default::default()
            })
            .solve(&inst, greedy);
            if vns.objective < lns.objective - 1e-9 {
                vns_wins += 1;
            } else if (vns.objective - lns.objective).abs() <= 1e-9 {
                ties += 1;
            }
        }
        assert!(
            vns_wins + ties >= 2,
            "VNS should match or beat LNS on most seeds (wins {vns_wins}, ties {ties})"
        );
    }

    #[test]
    fn adaptation_parameters_do_not_break_feasibility() {
        let inst = instance(5);
        let initial = Deployment::identity(inst.num_indexes());
        let result = VnsSolver::with_config(VnsConfig {
            budget: SearchBudget::nodes(60),
            group_size: 5,
            initial_failure_limit: 20,
            ..Default::default()
        })
        .solve(&inst, initial);
        assert!(result.deployment.unwrap().is_valid_for(&inst));
    }

    #[test]
    fn deterministic_for_a_fixed_seed_and_node_budget() {
        let inst = instance(6);
        let initial = Deployment::identity(inst.num_indexes());
        let run = |seed| {
            VnsSolver::with_config(VnsConfig {
                seed,
                budget: SearchBudget::nodes(50),
                ..Default::default()
            })
            .solve(&inst, initial.clone())
            .objective
        };
        assert_eq!(run(7), run(7));
    }
}
