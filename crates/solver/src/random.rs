//! Random-permutation baselines (the "Random (AVG)" / "Random (MIN)" columns
//! of Table 7).

use crate::budget::SearchBudget;
use crate::constraints::OrderConstraints;
use crate::result::{SolveOutcome, SolveResult};
use crate::solver::{SolveContext, Solver};
use idd_core::{Deployment, IndexId, ObjectiveEvaluator, ProblemInstance};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Summary of a batch of random permutations.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomSummary {
    /// Number of permutations evaluated.
    pub samples: usize,
    /// Average objective over the batch.
    pub average: f64,
    /// Best (minimum) objective over the batch.
    pub minimum: f64,
    /// Worst (maximum) objective over the batch.
    pub maximum: f64,
    /// The best deployment found.
    pub best: Deployment,
}

/// Random-permutation generator / baseline solver.
#[derive(Debug, Clone)]
pub struct RandomSolver {
    seed: u64,
}

impl Default for RandomSolver {
    fn default() -> Self {
        Self { seed: 0x5EED }
    }
}

impl RandomSolver {
    /// Creates a random solver with an explicit seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Generates one random feasible permutation under the precedence
    /// closure `constraints`: indexes are drawn uniformly among those whose
    /// predecessors are already placed.
    fn random_deployment(
        &self,
        instance: &ProblemInstance,
        constraints: &OrderConstraints,
        rng: &mut impl Rng,
    ) -> Deployment {
        let n = instance.num_indexes();
        let mut placed = vec![false; n];
        let mut order = Vec::with_capacity(n);
        for _ in 0..n {
            let available: Vec<IndexId> = (0..n)
                .map(IndexId::new)
                .filter(|&i| !placed[i.raw()] && constraints.can_place(i, &placed))
                .collect();
            let &chosen = available
                .choose(rng)
                .expect("precedence constraints must be acyclic");
            placed[chosen.raw()] = true;
            order.push(chosen);
        }
        Deployment::new(order)
    }

    /// Evaluates `samples` random permutations (the paper uses 100).
    pub fn summarize(&self, instance: &ProblemInstance, samples: usize) -> RandomSummary {
        assert!(samples > 0, "need at least one sample");
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let constraints = OrderConstraints::from_instance(instance);
        let evaluator = ObjectiveEvaluator::new(instance);
        let mut total = 0.0;
        let mut best_area = f64::INFINITY;
        let mut worst_area = f64::NEG_INFINITY;
        let mut best = None;
        for _ in 0..samples {
            let d = self.random_deployment(instance, &constraints, &mut rng);
            let area = evaluator.evaluate_area(&d);
            total += area;
            if area > worst_area {
                worst_area = area;
            }
            if area < best_area {
                best_area = area;
                best = Some(d);
            }
        }
        RandomSummary {
            samples,
            average: total / samples as f64,
            minimum: best_area,
            maximum: worst_area,
            best: best.expect("samples > 0"),
        }
    }

    /// Runs the baseline and reports the *best* of `samples` permutations.
    pub fn solve(&self, instance: &ProblemInstance, samples: usize) -> SolveResult {
        let started = Instant::now();
        let summary = self.summarize(instance, samples);
        SolveResult::heuristic(
            "random",
            summary.best,
            summary.minimum,
            started.elapsed().as_secs_f64(),
        )
    }
}

impl Solver for RandomSolver {
    fn name(&self) -> &'static str {
        "random"
    }

    /// Keeps drawing random feasible permutations until the budget (or a
    /// cancellation) stops it, capped at the paper's 100 samples, tracking
    /// the best draw as an anytime incumbent.
    fn run(
        &self,
        instance: &ProblemInstance,
        budget: SearchBudget,
        ctx: &SolveContext,
    ) -> SolveResult {
        let mut clock = budget.start_cancellable(ctx.cancel_token());
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let constraints = OrderConstraints::from_instance(instance);
        let evaluator = ObjectiveEvaluator::new(instance);
        let mut result = SolveResult::did_not_finish(self.name(), 0.0, 0);
        while !clock.exhausted() && clock.nodes() < 100 {
            clock.count_node();
            let d = self.random_deployment(instance, &constraints, &mut rng);
            let area = evaluator.evaluate_area(&d);
            if area < result.objective {
                ctx.publish_deployment(area, d.order());
                result.objective = area;
                result.deployment = Some(d);
                result.outcome = SolveOutcome::Feasible;
                result.trajectory.record(clock.elapsed_seconds(), area);
            }
        }
        result.elapsed_seconds = clock.elapsed_seconds();
        result.nodes = clock.nodes();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instance() -> ProblemInstance {
        let mut b = ProblemInstance::builder("r");
        let i: Vec<IndexId> = (0..6).map(|k| b.add_index(2.0 + k as f64)).collect();
        for q in 0..4 {
            let qid = b.add_query(50.0 + 10.0 * q as f64);
            b.add_plan(qid, vec![i[q]], 15.0);
            b.add_plan(qid, vec![i[q], i[(q + 2) % 6]], 30.0);
        }
        b.add_precedence(i[0], i[5]);
        b.build().unwrap()
    }

    #[test]
    fn random_deployments_are_valid_and_respect_precedences() {
        let inst = instance();
        let solver = RandomSolver::new(7);
        let constraints = OrderConstraints::from_instance(&inst);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..20 {
            let d = solver.random_deployment(&inst, &constraints, &mut rng);
            assert!(d.is_valid_for(&inst));
        }
    }

    #[test]
    fn summary_statistics_are_consistent() {
        let inst = instance();
        let s = RandomSolver::new(3).summarize(&inst, 50);
        assert_eq!(s.samples, 50);
        assert!(s.minimum <= s.average);
        assert!(s.average <= s.maximum);
        let eval = ObjectiveEvaluator::new(&inst);
        assert!((eval.evaluate_area(&s.best) - s.minimum).abs() < 1e-9);
    }

    #[test]
    fn same_seed_reproduces_summary() {
        let inst = instance();
        let a = RandomSolver::new(11).summarize(&inst, 20);
        let b = RandomSolver::new(11).summarize(&inst, 20);
        assert_eq!(a.average, b.average);
        assert_eq!(a.minimum, b.minimum);
        let c = RandomSolver::new(12).summarize(&inst, 20);
        assert_ne!(a.average, c.average);
    }

    #[test]
    fn solve_reports_best_sample() {
        let inst = instance();
        let r = RandomSolver::new(5).solve(&inst, 30);
        assert!(r.is_feasible());
        assert_eq!(r.solver, "random");
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_panics() {
        let inst = instance();
        RandomSolver::new(5).summarize(&inst, 0);
    }
}
