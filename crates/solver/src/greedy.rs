//! The interaction-guided greedy algorithm (Section 7.4, Algorithm 1).
//!
//! At each step the index with the highest *density* is appended, where
//! density is the index's immediate benefit — plus a share of the speed-up of
//! every not-yet-feasible plan it participates in, split evenly among the
//! plan's still-missing indexes — divided by its effective build cost given
//! the indexes already chosen. The interaction credit is what distinguishes
//! this greedy from a naive benefit/cost ranking: it values indexes that
//! unlock future multi-index plans.
//!
//! # Cost of a step
//!
//! The order grows on one [`PrefixState`], and every unbuilt index keeps a
//! cached density. A density reads only the best speed-ups of the queries
//! the index has a plan for, the missing counts of those plans and the
//! index's effective build cost. So once the chosen index is pushed, only
//! the indexes in a plan of a query it serves and the targets it helps build
//! are re-scored, each in `O(plans using the index + its helpers)`. A step
//! costs an `O(n)` scan for the densest placeable index plus those
//! re-scores; scoring every query for every candidate, as Algorithm 1
//! reads, costs `O(n · Σ_p |p|)` a step. An index is placeable once its
//! direct hard predecessors are built. Counting them suffices, because the
//! built set stays closed under predecessors.
//!
//! # The same bits as scoring every query from scratch
//!
//! Algorithm 1 read literally re-derives every query's runtime with and
//! without each candidate. A cached density adds the same terms in the same
//! order. For each query with a plan that uses the candidate, in ascending
//! query order, it adds `previous − next`, then the credits of the query's
//! plans that use the candidate, in plan order. Any other query adds
//! `x − x = +0.0`, which leaves the sum unchanged: every term is finite and
//! non-negative, so the sum is never `−0.0`. The best speed-up with the
//! candidate is the state's best raised by the candidate's plans that miss
//! only it, and a maximum is exact. The scan keeps the first index of the
//! highest density in raw-id order, as the literal reading does.
//! `crates/idd/tests/greedy_differential.rs` compares the two.

use crate::budget::SearchBudget;
use crate::result::SolveResult;
use crate::solver::{SolveContext, Solver};
use idd_core::{
    Deployment, IndexId, ObjectiveEvaluator, PlanId, PrefixState, ProblemInstance, QueryId,
};
use std::time::Instant;

/// The greedy solver.
#[derive(Debug, Clone, Default)]
pub struct GreedySolver;

impl GreedySolver {
    /// Creates a greedy solver.
    pub fn new() -> Self {
        Self
    }

    /// Builds a deployment order for `instance`, honouring its hard
    /// precedence constraints.
    pub fn construct(&self, instance: &ProblemInstance) -> Deployment {
        construct(instance).0
    }

    /// Runs the greedy and wraps the result in a [`SolveResult`].
    pub fn solve(&self, instance: &ProblemInstance) -> SolveResult {
        let started = Instant::now();
        let (deployment, objective) = construct(instance);
        SolveResult::heuristic(
            self.name(),
            deployment,
            objective,
            started.elapsed().as_secs_f64(),
        )
    }
}

/// Algorithm 1 on one prefix state: the order and its area.
fn construct(instance: &ProblemInstance) -> (Deployment, f64) {
    let n = instance.num_indexes();
    let scorer = Scorer::new(instance);
    let evaluator = ObjectiveEvaluator::new(instance);
    let mut state = evaluator.prefix_state();

    // Unbuilt direct predecessors per index; an index is placeable at 0.
    let mut waiting = vec![0usize; n];
    let mut successors = vec![Vec::new(); n];
    for pr in instance.precedences() {
        waiting[pr.after.raw()] += 1;
        successors[pr.before.raw()].push(pr.after);
    }

    let mut order = Vec::with_capacity(n);
    // The unbuilt indexes, in raw-id order.
    let mut unbuilt: Vec<IndexId> = instance.index_ids().collect();
    let mut density = vec![0.0; n];
    // The indexes whose density the latest push may have changed.
    let mut stale = vec![true; n];
    for _ in 0..n {
        let mut chosen = None;
        let mut best_density = f64::NEG_INFINITY;
        for (position, &i) in unbuilt.iter().enumerate() {
            if stale[i.raw()] {
                stale[i.raw()] = false;
                density[i.raw()] = scorer.density(&state, i);
            }
            if waiting[i.raw()] == 0 && density[i.raw()] > best_density {
                best_density = density[i.raw()];
                chosen = Some(position);
            }
        }
        let position = chosen.expect("no placeable index left; precedence constraints are cyclic");
        let chosen = unbuilt.remove(position);
        state.push(chosen);
        order.push(chosen);
        for after in &successors[chosen.raw()] {
            waiting[after.raw()] -= 1;
        }
        for (q, _) in scorer.by_query(chosen) {
            for &pid in instance.plans_of_query(q) {
                for i in &instance.plan(pid).indexes {
                    stale[i.raw()] = true;
                }
            }
        }
        for (target, _) in instance.helps(chosen) {
            stale[target.raw()] = true;
        }
    }
    let area = state.area();
    (Deployment::new(order), area)
}

/// What a density reads, laid out per index.
struct Scorer<'a> {
    instance: &'a ProblemInstance,
    /// The plans that use each index, by ascending query, in plan order
    /// within a query.
    plans: Vec<Vec<PlanId>>,
}

impl<'a> Scorer<'a> {
    fn new(instance: &'a ProblemInstance) -> Self {
        let plans = instance
            .index_ids()
            .map(|i| {
                let mut plans = instance.plans_using_index(i).to_vec();
                plans.sort_by_key(|&p| instance.plan(p).query);
                plans
            })
            .collect();
        Self { instance, plans }
    }

    /// The queries `index` has a plan for, ascending, each with those plans.
    fn by_query(&self, index: IndexId) -> impl Iterator<Item = (QueryId, &[PlanId])> + '_ {
        let query = |p: PlanId| self.instance.plan(p).query;
        self.plans[index.raw()]
            .chunk_by(move |&a, &b| query(a) == query(b))
            .map(move |plans| (query(plans[0]), plans))
    }

    /// The density of adding `index` to `state`, which must not hold it.
    fn density(&self, state: &PrefixState<'_>, index: IndexId) -> f64 {
        let instance = self.instance;
        let mut benefit = 0.0;
        for (q, plans) in self.by_query(index) {
            let runtime = instance.query_runtime(q);
            let mut best = state.best_speedup(q);
            let previous = runtime - best;
            for &pid in plans {
                let s = instance.plan_speedup(pid);
                if state.missing(pid) == 1 && s > best {
                    best = s;
                }
            }
            // Immediate benefit of adding the candidate.
            let next = runtime - best;
            benefit += previous - next;

            // Credit for plans the candidate participates in that are still
            // missing other indexes (`interaction / |p \ N|` of Algorithm 1).
            for &pid in plans {
                let runtime_if_plan = runtime - instance.plan_speedup(pid);
                let interaction = next - runtime_if_plan;
                let missing = state.missing(pid) - 1;
                if interaction > 0.0 && missing > 0 {
                    benefit += interaction / missing as f64;
                }
            }
        }
        benefit / state.build_cost(index).max(1e-12)
    }
}

impl Solver for GreedySolver {
    fn name(&self) -> &'static str {
        "greedy"
    }

    /// Greedy is a one-shot construction: the budget only gates whether it
    /// starts at all (cancellation), and the single solution it produces is
    /// recorded as a one-point trajectory and published to the context.
    fn run(
        &self,
        instance: &ProblemInstance,
        _budget: SearchBudget,
        ctx: &SolveContext,
    ) -> SolveResult {
        if ctx.is_cancelled() {
            return SolveResult::did_not_finish(self.name(), 0.0, 0);
        }
        let mut result = self.solve(instance);
        result
            .trajectory
            .record(result.elapsed_seconds, result.objective);
        if let Some(deployment) = &result.deployment {
            ctx.publish_deployment(result.objective, deployment.order());
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper Section 4.2: covering index should be built first.
    fn competing_example() -> ProblemInstance {
        let mut b = ProblemInstance::builder("competing");
        let i_city = b.add_named_index("i(City)", 4.0);
        let i_cov = b.add_named_index("i(City,Salary)", 6.0);
        let q = b.add_named_query("avg_salary", 30.0);
        b.add_plan(q, vec![i_city], 5.0);
        b.add_plan(q, vec![i_cov], 20.0);
        b.add_build_interaction(i_city, i_cov, 3.0);
        b.build().unwrap()
    }

    #[test]
    fn greedy_prefers_the_denser_covering_index_first() {
        let inst = competing_example();
        let d = GreedySolver::new().construct(&inst);
        // density(i_cov) = 20/6 > density(i_city) = 5/4.
        assert_eq!(d.at(0), IndexId::new(1));
        assert!(d.is_valid_for(&inst));
    }

    #[test]
    fn interaction_credit_unlocks_multi_index_plans_early() {
        // A join query needs both i0 and i1; i2 has a small solo benefit.
        // Without the credit, i2 (solo benefit 6/2=3 density) would be picked
        // before i0/i1 (no solo benefit); with the credit, the pair comes
        // first.
        let mut b = ProblemInstance::builder("join");
        let i0 = b.add_index(2.0);
        let i1 = b.add_index(2.0);
        let i2 = b.add_index(2.0);
        let q_join = b.add_query(100.0);
        b.add_plan(q_join, vec![i0, i1], 80.0);
        let q_small = b.add_query(10.0);
        b.add_plan(q_small, vec![i2], 6.0);
        let inst = b.build().unwrap();

        let with_credit = GreedySolver::new().construct(&inst);
        // With the credit the join pair is scheduled before the small index.
        let pos2 = with_credit.position_of(IndexId::new(2)).unwrap();
        assert_eq!(
            pos2, 2,
            "small index should come last, order {with_credit:?}"
        );
    }

    #[test]
    fn greedy_respects_hard_precedences() {
        let mut b = ProblemInstance::builder("prec");
        let clustered = b.add_index(10.0);
        let secondary = b.add_index(1.0);
        let q = b.add_query(50.0);
        // The secondary looks far more attractive (cheap, huge benefit)...
        b.add_plan(q, vec![secondary], 40.0);
        b.add_plan(q, vec![clustered], 5.0);
        // ...but it must follow the clustered index.
        b.add_precedence(clustered, secondary);
        let inst = b.build().unwrap();
        let d = GreedySolver::new().construct(&inst);
        assert!(d.is_valid_for(&inst));
        assert_eq!(d.at(0), clustered);
    }

    #[test]
    fn solve_reports_objective_matching_evaluator() {
        let inst = competing_example();
        let r = GreedySolver::new().solve(&inst);
        let eval = ObjectiveEvaluator::new(&inst);
        assert_eq!(
            r.objective,
            eval.evaluate_area(r.deployment.as_ref().unwrap())
        );
        assert_eq!(r.solver, "greedy");
    }

    #[test]
    fn greedy_beats_worst_case_order_on_larger_instances() {
        use idd_core::Deployment;
        // Build a moderate instance by hand: 12 indexes, mixed plans.
        let mut b = ProblemInstance::builder("m");
        let idx: Vec<IndexId> = (0..12).map(|i| b.add_index(2.0 + (i % 5) as f64)).collect();
        for q in 0..8 {
            let qid = b.add_query(60.0 + q as f64 * 10.0);
            b.add_plan(qid, vec![idx[q % 12]], 10.0);
            b.add_plan(qid, vec![idx[q % 12], idx[(q + 3) % 12]], 25.0);
        }
        let inst = b.build().unwrap();
        let eval = ObjectiveEvaluator::new(&inst);
        let greedy = GreedySolver::new().construct(&inst);
        let greedy_area = eval.evaluate_area(&greedy);
        // Compare to the reverse-identity order (arbitrary but fixed).
        let reverse = Deployment::new((0..12).rev().map(IndexId::new).collect());
        let reverse_area = eval.evaluate_area(&reverse);
        assert!(greedy_area <= reverse_area);
    }
}
