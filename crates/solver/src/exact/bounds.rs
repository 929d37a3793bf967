//! Admissible lower bounds on the remaining objective area.

use idd_core::{ObjectiveEvaluator, ProblemInstance};

/// Precomputed data for the combinatorial lower bound used by the exact
/// searches.
///
/// For a prefix with current runtime `R_cur`, the remaining area of *any*
/// completion is at least
///
/// ```text
/// R_final · Σ_{i remaining} minCost(i)  +  (R_cur − R_final) · min_{i remaining} minCost(i)
/// ```
///
/// where `R_final` is the workload runtime once every index exists (the
/// lowest runtime ever reachable) and `minCost(i)` is index `i`'s build cost
/// with its best possible helper available. The first term charges every
/// remaining index its cheapest cost at the lowest possible runtime; the
/// second recognises that the very next index must be built while the runtime
/// is still `R_cur`.
#[derive(Debug, Clone)]
pub struct LowerBound {
    final_runtime: f64,
    min_costs: Vec<f64>,
}

impl LowerBound {
    /// Precomputes the bound data for an instance.
    pub fn new(instance: &ProblemInstance) -> Self {
        let evaluator = ObjectiveEvaluator::new(instance);
        let mut state = evaluator.prefix_state();
        for index in instance.index_ids() {
            state.push(index);
        }
        let final_runtime = state.runtime();
        let min_costs = instance
            .index_ids()
            .map(|i| instance.min_build_cost(i))
            .collect();
        Self {
            final_runtime,
            min_costs,
        }
    }

    /// Workload runtime when every candidate index exists.
    pub fn final_runtime(&self) -> f64 {
        self.final_runtime
    }

    /// Lower bound on the area still to be accumulated given the set of
    /// already-built indexes and the current runtime.
    pub fn remaining(&self, built: &[bool], current_runtime: f64) -> f64 {
        let mut sum = 0.0;
        let mut cheapest = f64::INFINITY;
        for (raw, &done) in built.iter().enumerate() {
            if !done {
                sum += self.min_costs[raw];
                if self.min_costs[raw] < cheapest {
                    cheapest = self.min_costs[raw];
                }
            }
        }
        if !cheapest.is_finite() {
            return 0.0;
        }
        self.final_runtime * sum + (current_runtime - self.final_runtime).max(0.0) * cheapest
    }

    /// A weaker bound (no "next step at current runtime" term), used by the
    /// MIP-style solver to mirror the weak linear relaxation the paper
    /// describes.
    pub fn remaining_weak(&self, built: &[bool]) -> f64 {
        let sum: f64 = built
            .iter()
            .enumerate()
            .filter(|(_, &done)| !done)
            .map(|(raw, _)| self.min_costs[raw])
            .sum();
        self.final_runtime * sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idd_core::{Deployment, ObjectiveEvaluator};

    fn instance() -> ProblemInstance {
        let mut b = ProblemInstance::builder("bound");
        let i0 = b.add_index(4.0);
        let i1 = b.add_index(6.0);
        let i2 = b.add_index(5.0);
        let q = b.add_query(30.0);
        b.add_plan(q, vec![i0], 5.0);
        b.add_plan(q, vec![i1], 20.0);
        let q2 = b.add_query(50.0);
        b.add_plan(q2, vec![i2], 10.0);
        b.add_build_interaction(i0, i1, 3.0);
        b.build().unwrap()
    }

    /// The bound from the empty prefix must not exceed the objective of any
    /// complete order (admissibility).
    #[test]
    fn bound_is_admissible_for_every_permutation() {
        let inst = instance();
        let bound = LowerBound::new(&inst);
        let eval = ObjectiveEvaluator::new(&inst);
        let empty = vec![false; 3];
        let lb = bound.remaining(&empty, inst.baseline_runtime());
        let weak = bound.remaining_weak(&empty);
        let orders = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for order in orders {
            let area = eval.evaluate_area(&Deployment::from_raw(order));
            assert!(lb <= area + 1e-9, "lb {lb} > area {area} for {order:?}");
            assert!(weak <= area + 1e-9);
        }
        assert!(
            weak <= lb + 1e-9,
            "weak bound must not exceed the strong one"
        );
    }

    #[test]
    fn bound_is_admissible_from_partial_prefixes() {
        let inst = instance();
        let bound = LowerBound::new(&inst);
        let eval = ObjectiveEvaluator::new(&inst);
        // Prefix [1]: remaining = {0, 2}.
        let mut state = eval.prefix_state();
        state.push(idd_core::IndexId::new(1));
        let prefix_area = state.area();
        let lb = bound.remaining(state.built(), state.runtime());
        for completion in [[0, 2], [2, 0]] {
            let full: Vec<usize> = std::iter::once(1).chain(completion).collect();
            let area = eval.evaluate_area(&Deployment::from_raw(full));
            assert!(prefix_area + lb <= area + 1e-9);
        }
    }

    #[test]
    fn fully_built_prefix_has_zero_remaining() {
        let inst = instance();
        let bound = LowerBound::new(&inst);
        assert_eq!(bound.remaining(&[true, true, true], 100.0), 0.0);
        assert_eq!(bound.remaining_weak(&[true, true, true]), 0.0);
    }

    #[test]
    fn min_cost_uses_best_helper() {
        let inst = instance();
        let bound = LowerBound::new(&inst);
        // The weak bound charges each unbuilt index its cheapest build cost
        // at the final runtime: i0 with its best helper (1.0), i1 alone
        // (6.0).
        let r = bound.final_runtime();
        assert_eq!(bound.remaining_weak(&[false, true, true]), r * 1.0);
        assert_eq!(bound.remaining_weak(&[true, false, true]), r * 6.0);
        assert!(r < inst.baseline_runtime());
    }
}
