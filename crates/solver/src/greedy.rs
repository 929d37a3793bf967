//! The interaction-guided greedy algorithm (Section 7.4, Algorithm 1).
//!
//! At each step the index with the highest *density* is appended, where
//! density is the index's immediate benefit — plus a share of the speed-up of
//! every not-yet-feasible plan it participates in, split evenly among the
//! plan's still-missing indexes — divided by its effective build cost given
//! the indexes already chosen. The interaction credit is what distinguishes
//! this greedy from a naive benefit/cost ranking: it values indexes that
//! unlock future multi-index plans.

use crate::budget::SearchBudget;
use crate::constraints::OrderConstraints;
use crate::result::SolveResult;
use crate::solver::{SolveContext, Solver};
use idd_core::{Deployment, IndexId, ObjectiveEvaluator, ProblemInstance};
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
        let n = instance.num_indexes();
        let evaluator = ObjectiveEvaluator::new(instance);
        let constraints = OrderConstraints::from_instance(instance);

        let mut order: Vec<IndexId> = Vec::with_capacity(n);
        let mut built = vec![false; n];

        for _ in 0..n {
            let mut best_index: Option<IndexId> = None;
            let mut best_density = f64::NEG_INFINITY;

            let current_runtime_by_query: Vec<f64> = instance
                .query_ids()
                .map(|q| instance.query_runtime(q) - evaluator.query_speedup_with(q, &built))
                .collect();

            for raw in 0..n {
                if built[raw] {
                    continue;
                }
                let candidate = IndexId::new(raw);
                if !constraints.can_place(candidate, &built) {
                    continue;
                }

                // Immediate benefit of adding the candidate.
                let mut with_candidate = built.clone();
                with_candidate[raw] = true;
                let mut benefit = 0.0;
                for q in instance.query_ids() {
                    let previous = current_runtime_by_query[q.raw()];
                    let next = instance.query_runtime(q)
                        - evaluator.query_speedup_with(q, &with_candidate);
                    benefit += previous - next;

                    // Credit for plans the candidate participates in that
                    // are still missing other indexes (`interaction / |p \ N|`
                    // of Algorithm 1).
                    for &pid in instance.plans_of_query(q) {
                        let plan = instance.plan(pid);
                        if !plan.uses(candidate) {
                            continue;
                        }
                        let runtime_if_plan =
                            instance.query_runtime(q) - instance.plan_speedup(pid);
                        let interaction = next - runtime_if_plan;
                        let missing = plan
                            .indexes
                            .iter()
                            .filter(|i| !with_candidate[i.raw()])
                            .count();
                        if interaction > 0.0 && missing > 0 {
                            benefit += interaction / missing as f64;
                        }
                    }
                }

                let cost = instance.effective_build_cost(candidate, &built).max(1e-12);
                let density = benefit / cost;
                if density > best_density {
                    best_density = density;
                    best_index = Some(candidate);
                }
            }

            // All remaining candidates blocked or zero-benefit: fall back to
            // any placeable index (ties broken by id for determinism).
            let chosen = best_index.unwrap_or_else(|| {
                (0..n)
                    .map(IndexId::new)
                    .find(|&i| !built[i.raw()] && constraints.can_place(i, &built))
                    .expect("no placeable index left; precedence constraints are cyclic")
            });
            built[chosen.raw()] = true;
            order.push(chosen);
        }

        Deployment::new(order)
    }

    /// Runs the greedy and wraps the result in a [`SolveResult`].
    pub fn solve(&self, instance: &ProblemInstance) -> SolveResult {
        let started = Instant::now();
        let deployment = self.construct(instance);
        let objective = ObjectiveEvaluator::new(instance).evaluate_area(&deployment);
        SolveResult::heuristic(
            self.name(),
            deployment,
            objective,
            started.elapsed().as_secs_f64(),
        )
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
