//! CP-style branch-and-prune exact search (Section 6).
//!
//! The solver assigns deployment positions chronologically: at depth `d` it
//! chooses which index is deployed at position `d`. Pruning combines
//!
//! * the precedence closure (hard precedences plus every constraint derived
//!   by the Section-5 property analysis — the difference between the paper's
//!   "CP" and "CP+" rows),
//! * alliance gluing (once an alliance member is placed, the remaining
//!   members are the only candidates until the group is complete), and
//! * the admissible lower bound of [`crate::exact::bounds::LowerBound`]
//!   against the incumbent (branch-and-prune).
//!
//! Candidates at each node are ordered by a density heuristic so the first
//! dive already produces a good incumbent (the anytime behaviour the paper
//! reports for CP is poor on large instances; the same is visible here).

use crate::anytime::Trajectory;
use crate::budget::{BudgetClock, SearchBudget};
use crate::constraints::OrderConstraints;
use crate::exact::bounds::LowerBound;
use crate::properties::{self, AnalysisOptions};
use crate::result::{CoopStats, SolveOutcome, SolveResult};
use crate::solver::{SolveContext, Solver};
use idd_core::{Deployment, IndexId, ObjectiveEvaluator, PrefixState, ProblemInstance};

/// Configuration of the CP solver.
#[derive(Debug, Clone, Default)]
pub struct CpConfig {
    /// Time / node budget.
    pub budget: SearchBudget,
    /// Property analysis to run before the search (`AnalysisOptions::none()`
    /// reproduces the paper's plain "CP" row, `AnalysisOptions::all()` the
    /// "CP+" row; the default is `all()`).
    pub analysis: AnalysisOptions,
    /// Optional warm-start incumbent (e.g. the greedy order).
    pub initial: Option<Deployment>,
}

impl CpConfig {
    /// Plain CP (no additional constraints) with the given budget.
    pub fn plain(budget: SearchBudget) -> Self {
        Self {
            budget,
            analysis: AnalysisOptions::none(),
            initial: None,
        }
    }

    /// CP+ (all additional constraints) with the given budget.
    pub fn with_properties(budget: SearchBudget) -> Self {
        Self {
            budget,
            analysis: AnalysisOptions::all(),
            initial: None,
        }
    }
}

/// The CP branch-and-prune solver.
#[derive(Debug, Clone, Default)]
pub struct CpSolver {
    config: CpConfig,
}

struct SearchContext<'a> {
    constraints: &'a OrderConstraints,
    /// Per raw index: its best `speedup / width` over the plans using it,
    /// the numerator of the candidate-order density.
    plan_share: Vec<f64>,
    shared: &'a SolveContext,
    bound: LowerBound,
    clock: BudgetClock,
    best_area: f64,
    best_order: Option<Vec<IndexId>>,
    trajectory: Trajectory,
    complete: bool,
    /// Alliance group currently being emitted, if any: (group position in
    /// `constraints.alliances()`, members still to place).
    open_alliance: Option<(usize, Vec<IndexId>)>,
}

impl CpSolver {
    /// Creates a solver with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a solver with an explicit configuration.
    pub fn with_config(config: CpConfig) -> Self {
        Self { config }
    }

    /// Runs the search.
    pub fn solve(&self, instance: &ProblemInstance) -> SolveResult {
        self.solve_in(instance, &SolveContext::new())
    }

    /// Runs the search inside a shared [`SolveContext`] (cancellable, and
    /// publishing every incumbent improvement). The clock starts on entry,
    /// so the property analysis counts against the budget and shows in
    /// `elapsed_seconds`.
    pub fn solve_in(&self, instance: &ProblemInstance, shared: &SolveContext) -> SolveResult {
        let clock = self.config.budget.start_cancellable(shared.cancel_token());
        let analysis = properties::analyze(instance, self.config.analysis);
        self.search(instance, &analysis.constraints, shared, clock)
    }

    /// Runs the search against an externally prepared constraint set (used by
    /// the Table-6 drill-down so the analysis cost is not re-paid per row).
    pub fn solve_with_constraints(
        &self,
        instance: &ProblemInstance,
        constraints: &OrderConstraints,
    ) -> SolveResult {
        self.solve_with_constraints_in(instance, constraints, &SolveContext::new())
    }

    /// [`CpSolver::solve_with_constraints`] inside a shared context. The
    /// clock starts here: the constraints were prepared outside the run.
    pub fn solve_with_constraints_in(
        &self,
        instance: &ProblemInstance,
        constraints: &OrderConstraints,
        shared: &SolveContext,
    ) -> SolveResult {
        let clock = self.config.budget.start_cancellable(shared.cancel_token());
        self.search(instance, constraints, shared, clock)
    }

    /// The branch-and-prune search under `constraints`, on a running clock.
    fn search(
        &self,
        instance: &ProblemInstance,
        constraints: &OrderConstraints,
        shared: &SolveContext,
        clock: BudgetClock,
    ) -> SolveResult {
        let plan_share = instance
            .index_ids()
            .map(|i| {
                instance
                    .plans_using_index(i)
                    .iter()
                    .map(|&p| instance.plan_speedup(p) / instance.plan(p).width() as f64)
                    .fold(0.0, f64::max)
            })
            .collect();
        let mut ctx = SearchContext {
            constraints,
            plan_share,
            shared,
            bound: LowerBound::new(instance),
            clock,
            best_area: f64::INFINITY,
            best_order: None,
            trajectory: Trajectory::new(),
            complete: true,
            open_alliance: None,
        };

        // Warm start from the explicit initial deployment, if any.
        let evaluator = ObjectiveEvaluator::new(instance);
        if let Some(initial) = &self.config.initial {
            if initial.is_valid_for(instance) {
                let area = evaluator.evaluate_area(initial);
                ctx.best_area = area;
                ctx.best_order = Some(initial.order().to_vec());
                ctx.trajectory.record(ctx.clock.elapsed_seconds(), area);
                ctx.shared.publish_deployment(area, initial.order());
            }
        }

        // Cooperative warm start: a CP member (re)starting inside a
        // warm-start portfolio adopts the shared best *deployment* as its
        // initial incumbent when it beats the explicit one. This is sound
        // for the optimality proof — the bound is a feasible order the
        // member now holds (re-evaluated locally, never a bare objective
        // from another thread) — and it is what makes the paper's
        // Section-6 "heuristic seeds the exact search" loop work in both
        // directions inside the portfolio. Gated on the policy, so
        // `CooperationPolicy::Off` runs are bit-identical to before.
        if shared.cooperation().warm_starts() {
            if let Some(snapshot) = shared.incumbent().best_deployment() {
                let adopted = Deployment::new(snapshot.order);
                if adopted.is_valid_for(instance) {
                    let area = evaluator.evaluate_area(&adopted);
                    if area < ctx.best_area {
                        ctx.best_area = area;
                        ctx.best_order = Some(adopted.order().to_vec());
                        ctx.trajectory.record(ctx.clock.elapsed_seconds(), area);
                    }
                }
            }
        }

        let mut state = evaluator.prefix_state();
        let mut order: Vec<IndexId> = Vec::with_capacity(instance.num_indexes());
        Self::dfs(&mut ctx, &mut state, &mut order);

        let elapsed = ctx.clock.elapsed_seconds();
        let nodes = ctx.clock.nodes();
        let name = if constraints.num_ordered_pairs() > instance.precedences().len()
            || !constraints.alliances().is_empty()
        {
            "cp+"
        } else {
            "cp"
        };
        match ctx.best_order {
            Some(best) => SolveResult {
                solver: name.to_string(),
                deployment: Some(Deployment::new(best)),
                objective: ctx.best_area,
                outcome: if ctx.complete {
                    SolveOutcome::Optimal
                } else {
                    SolveOutcome::Feasible
                },
                elapsed_seconds: elapsed,
                nodes,
                trajectory: ctx.trajectory,
                coop: CoopStats::default(),
            },
            None => SolveResult::did_not_finish(name, elapsed, nodes),
        }
    }

    fn candidate_order(ctx: &SearchContext<'_>, state: &PrefixState<'_>) -> Vec<IndexId> {
        let n = ctx.plan_share.len();

        // Alliance gluing: while a group is open, only its remaining members
        // may be placed.
        if let Some((_, remaining)) = &ctx.open_alliance {
            let mut members: Vec<IndexId> = remaining
                .iter()
                .copied()
                .filter(|&i| !state.is_built(i) && ctx.constraints.can_place(i, state.built()))
                .collect();
            members.sort_unstable();
            return members;
        }

        let mut candidates: Vec<(f64, IndexId)> = (0..n)
            .map(IndexId::new)
            .filter(|&i| !state.is_built(i) && ctx.constraints.can_place(i, state.built()))
            .map(|i| {
                // Density heuristic: immediate best-plan speed-up over cost.
                let cost = state.build_cost(i).max(1e-12);
                (ctx.plan_share[i.raw()] / cost, i)
            })
            .collect();
        candidates.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        candidates.into_iter().map(|(_, i)| i).collect()
    }

    fn dfs(ctx: &mut SearchContext<'_>, state: &mut PrefixState<'_>, order: &mut Vec<IndexId>) {
        if ctx.clock.exhausted() {
            ctx.complete = false;
            return;
        }
        ctx.clock.count_node();

        if state.is_complete() {
            // The state's area is the canonical evaluator's, so what is
            // recorded and published carries its bits.
            let area = state.area();
            if area < ctx.best_area {
                ctx.best_area = area;
                ctx.best_order = Some(order.clone());
                ctx.trajectory.record(ctx.clock.elapsed_seconds(), area);
                ctx.shared.publish_deployment(area, order);
            }
            return;
        }

        // Branch-and-prune bound.
        let lb = state.area() + ctx.bound.remaining(state.built(), state.runtime());
        if lb >= ctx.best_area - 1e-9 {
            return;
        }

        let candidates = Self::candidate_order(ctx, state);
        for index in candidates {
            if ctx.clock.exhausted() {
                ctx.complete = false;
                return;
            }

            // Maintain alliance gluing state across the recursive call.
            let previous_alliance = ctx.open_alliance.clone();
            match &mut ctx.open_alliance {
                Some((_, remaining)) => {
                    remaining.retain(|&m| m != index);
                    if remaining.is_empty() {
                        ctx.open_alliance = None;
                    }
                }
                None => {
                    // Does this index open an alliance?
                    for (gi, group) in ctx.constraints.alliances().iter().enumerate() {
                        if group.contains(&index) {
                            let remaining: Vec<IndexId> = group
                                .iter()
                                .copied()
                                .filter(|&m| m != index && !state.is_built(m))
                                .collect();
                            if !remaining.is_empty() {
                                ctx.open_alliance = Some((gi, remaining));
                            }
                            break;
                        }
                    }
                }
            }

            state.push(index);
            order.push(index);
            Self::dfs(ctx, state, order);
            order.pop();
            state.pop();
            ctx.open_alliance = previous_alliance;
        }
    }
}

impl Solver for CpSolver {
    fn name(&self) -> &'static str {
        // The paper's naming: "cp+" once the Section-5 property constraints
        // participate, plain "cp" otherwise.
        if self.config.analysis == AnalysisOptions::none() {
            "cp"
        } else {
            "cp+"
        }
    }

    fn run(
        &self,
        instance: &ProblemInstance,
        budget: SearchBudget,
        ctx: &SolveContext,
    ) -> SolveResult {
        let mut config = self.config.clone();
        config.budget = budget;
        CpSolver::with_config(config).solve_in(instance, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::GreedySolver;
    use idd_core::ObjectiveEvaluator;

    fn brute_force_optimum(instance: &ProblemInstance) -> f64 {
        fn permutations(n: usize) -> Vec<Vec<usize>> {
            if n == 1 {
                return vec![vec![0]];
            }
            let smaller = permutations(n - 1);
            let mut out = Vec::new();
            for p in smaller {
                for pos in 0..=p.len() {
                    let mut q: Vec<usize> = p.clone();
                    q.insert(pos, n - 1);
                    out.push(q);
                }
            }
            out
        }
        let eval = ObjectiveEvaluator::new(instance);
        permutations(instance.num_indexes())
            .into_iter()
            .map(Deployment::from_raw)
            .filter(|d| d.is_valid_for(instance))
            .map(|d| eval.evaluate_area(&d))
            .fold(f64::INFINITY, f64::min)
    }

    fn small_instance(seed: u64) -> ProblemInstance {
        // Deterministic small instance with interactions, built without
        // external crates.
        let mut b = ProblemInstance::builder(format!("cp-{seed}"));
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let n = 6;
        let idx: Vec<IndexId> = (0..n).map(|_| b.add_index(2.0 + next() * 8.0)).collect();
        for q in 0..5 {
            let qid = b.add_query(40.0 + next() * 60.0);
            let a = idx[q % n];
            let c = idx[(q + 2) % n];
            b.add_plan(qid, vec![a], 5.0 + next() * 10.0);
            b.add_plan(qid, vec![a, c], 18.0 + next() * 10.0);
        }
        b.add_build_interaction(idx[0], idx[1], 1.0);
        b.add_build_interaction(idx[3], idx[2], 1.5);
        b.build().unwrap()
    }

    #[test]
    fn cp_finds_the_brute_force_optimum() {
        for seed in [1, 2, 3] {
            let inst = small_instance(seed);
            let result =
                CpSolver::with_config(CpConfig::plain(SearchBudget::unlimited())).solve(&inst);
            assert!(result.is_optimal());
            let expected = brute_force_optimum(&inst);
            assert!(
                (result.objective - expected).abs() < 1e-6,
                "seed {seed}: cp {} vs brute force {expected}",
                result.objective
            );
        }
    }

    #[test]
    fn cp_plus_matches_plain_cp_optimum() {
        // The additional constraints must not change the optimal objective.
        for seed in [4, 5, 6, 7] {
            let inst = small_instance(seed);
            let plain =
                CpSolver::with_config(CpConfig::plain(SearchBudget::unlimited())).solve(&inst);
            let plus = CpSolver::with_config(CpConfig::with_properties(SearchBudget::unlimited()))
                .solve(&inst);
            assert!(plain.is_optimal() && plus.is_optimal());
            assert!(
                (plain.objective - plus.objective).abs() < 1e-6,
                "seed {seed}: plain {} vs plus {}",
                plain.objective,
                plus.objective
            );
            // And the pruning never explores more nodes than plain CP.
            assert!(
                plus.nodes <= plain.nodes,
                "seed {seed}: {} > {}",
                plus.nodes,
                plain.nodes
            );
        }
    }

    #[test]
    fn warm_start_is_respected() {
        let inst = small_instance(8);
        let greedy = GreedySolver::new().construct(&inst);
        let mut config = CpConfig::with_properties(SearchBudget::nodes(1));
        config.initial = Some(greedy.clone());
        let result = CpSolver::with_config(config).solve(&inst);
        // With a one-node budget the solver can only return the warm start.
        assert!(result.is_feasible());
        let eval = ObjectiveEvaluator::new(&inst);
        assert!(result.objective <= eval.evaluate_area(&greedy) + 1e-9);
    }

    #[test]
    fn budget_exhaustion_reports_feasible_or_dnf() {
        let inst = small_instance(9);
        let result = CpSolver::with_config(CpConfig::plain(SearchBudget::nodes(2))).solve(&inst);
        assert!(matches!(
            result.outcome,
            SolveOutcome::Feasible | SolveOutcome::DidNotFinish
        ));
    }

    #[test]
    fn precedences_are_respected_by_the_optimum() {
        let mut b = ProblemInstance::builder("prec");
        let i0 = b.add_index(5.0);
        let i1 = b.add_index(1.0);
        let i2 = b.add_index(2.0);
        let q = b.add_query(60.0);
        b.add_plan(q, vec![i1], 30.0);
        b.add_plan(q, vec![i2], 10.0);
        b.add_precedence(i0, i1);
        let inst = b.build().unwrap();
        let result = CpSolver::with_config(CpConfig::plain(SearchBudget::unlimited())).solve(&inst);
        let d = result.deployment.unwrap();
        assert!(d.is_valid_for(&inst));
        assert!(d.position_of(i0).unwrap() < d.position_of(i1).unwrap());
    }
}
