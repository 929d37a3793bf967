//! Tail-index analysis (Section 5.5, Appendix D.6).
//!
//! The last few positions of an optimal order can often be pinned down by
//! enumeration: for a fixed *set* of tail indexes, the preceding indexes and
//! their interactions onto the tail are fully determined, so the tail
//! orderings within the same set are directly comparable ("tail champions").
//! If one index is the last index of every champion, it is the last index of
//! some optimal solution and every other index can be constrained to precede
//! it.
//!
//! [`analyze`] pins at most one index, and the property analysis calls it
//! once. After a pin every tail ends with the pinned index, so every
//! champion of a second call would end with it too and the pin would add
//! nothing: the paper's "iterate and recurse", which would go on to pin the
//! second-to-last index, is not implemented.
//!
//! Cost: a call first counts the feasible tails, without building them, up
//! to `budget + 1`; past the budget it gives up. It then scores one tail set
//! at a time and stops at the first champion whose last index differs from
//! the first set's. Each scored set pushes every other index onto one
//! [`PrefixState`] (`O(Σ plans using an index)`), and each of its orderings
//! then costs `len` pushes and pops on top. Only a call that pins scores
//! every feasible tail.

use crate::constraints::OrderConstraints;
use idd_core::{IndexId, ObjectiveEvaluator, PrefixState, ProblemInstance};

/// The feasible tails of `len` indexes under a constraint set. A tail is
/// walked backwards from the last position as a suffix (`suffix[0]` is the
/// last index): an index may take the last open slot when every index it
/// must precede already sits in a later slot. Every slot tries its
/// candidates by ascending raw id.
struct Tails {
    len: usize,
    /// Raw ids of the indexes each index must precede.
    successors: Vec<Vec<usize>>,
}

impl Tails {
    fn new(constraints: &OrderConstraints, len: usize) -> Self {
        let n = constraints.len();
        let successors = (0..n)
            .map(|a| {
                (0..n)
                    .filter(|&b| constraints.must_precede(IndexId::new(a), IndexId::new(b)))
                    .collect()
            })
            .collect();
        Self { len, successors }
    }

    /// Calls `visit` on every feasible tail drawn from `members` (raw ids,
    /// ascending) until it returns `false`. Returns `false` when stopped.
    fn walk(&self, members: &[usize], mut visit: impl FnMut(&[usize]) -> bool) -> bool {
        let mut used = vec![false; self.successors.len()];
        let mut suffix = Vec::with_capacity(self.len);
        self.extend(members, &mut used, &mut suffix, &mut visit)
    }

    fn extend(
        &self,
        members: &[usize],
        used: &mut [bool],
        suffix: &mut Vec<usize>,
        visit: &mut impl FnMut(&[usize]) -> bool,
    ) -> bool {
        if suffix.len() == self.len {
            return visit(suffix);
        }
        for &candidate in members {
            if used[candidate] || !self.successors[candidate].iter().all(|&s| used[s]) {
                continue;
            }
            used[candidate] = true;
            suffix.push(candidate);
            let go_on = self.extend(members, used, suffix, visit);
            suffix.pop();
            used[candidate] = false;
            if !go_on {
                return false;
            }
        }
        true
    }

    /// Number of feasible tails, counted up to `limit`.
    fn count(&self, members: &[usize], limit: usize) -> usize {
        let mut count = 0;
        self.walk(members, |_| {
            count += 1;
            count < limit
        });
        count
    }

    /// `true` when `suffix` is the first ordering of its set that the walk
    /// meets: no member could have taken an earlier slot held by a larger
    /// raw id.
    fn is_first_of_its_set(&self, suffix: &[usize]) -> bool {
        (1..suffix.len()).all(|slot| {
            let member = suffix[slot];
            let free_from = suffix[..slot]
                .iter()
                .rposition(|s| self.successors[member].contains(s))
                .map_or(0, |p| p + 1);
            suffix[free_from..slot]
                .iter()
                .all(|&earlier| earlier < member)
        })
    }
}

/// Objective contribution of a tail sequence given that every other index is
/// already built: `state` holds exactly the other indexes, and is left so.
fn tail_objective(state: &mut PrefixState<'_>, tail: &[IndexId]) -> f64 {
    let mut area = 0.0;
    for &t in tail {
        area += state.runtime() * state.build_cost(t);
        state.push(t);
    }
    for _ in tail {
        state.pop();
    }
    area
}

/// Runs the tail analysis: if there are at most `budget` feasible tails and
/// every tail champion ends with the same index, constrain all other
/// indexes to precede it. Returns the number of indexes newly pinned
/// (0 or 1).
pub fn analyze(
    instance: &ProblemInstance,
    constraints: &mut OrderConstraints,
    tail_length: usize,
    budget: usize,
) -> usize {
    let n = instance.num_indexes();
    if n < 2 {
        return 0;
    }
    let len = tail_length.min(n).max(1);
    let tails = Tails::new(constraints, len);
    let all: Vec<usize> = (0..n).collect();
    let count = tails.count(&all, budget.saturating_add(1));
    if count == 0 || count > budget {
        return 0;
    }

    // Score one tail set at a time. A set's champion is the first of its
    // orderings, in walk order, with the smallest tail objective.
    let evaluator = ObjectiveEvaluator::new(instance);
    let mut first: Option<usize> = None;
    let agree = tails.walk(&all, |suffix| {
        if !tails.is_first_of_its_set(suffix) {
            return true;
        }
        let mut members = suffix.to_vec();
        members.sort_unstable();
        let mut state = evaluator.prefix_state();
        for raw in (0..n).filter(|raw| members.binary_search(raw).is_err()) {
            state.push(IndexId::new(raw));
        }
        let mut champion: Option<(f64, usize)> = None;
        tails.walk(&members, |ordering| {
            let tail: Vec<IndexId> = ordering
                .iter()
                .rev()
                .map(|&raw| IndexId::new(raw))
                .collect();
            let objective = tail_objective(&mut state, &tail);
            match champion {
                Some((best, _)) if best <= objective => {}
                _ => champion = Some((objective, ordering[0])),
            }
            true
        });
        let last = champion.map(|(_, last)| last);
        if first.is_none() {
            first = last;
        }
        first == last
    });
    let first = match first {
        Some(raw) if agree => IndexId::new(raw),
        _ => return 0,
    };

    // Pin `first` as the very last index (unless it already is).
    let mut added = 0;
    for raw in 0..n {
        let other = IndexId::new(raw);
        if other != first
            && !constraints.must_precede(other, first)
            && constraints.add_before(other, first)
        {
            added = 1;
        }
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An instance where one index is obviously the worst thing to build
    /// early: zero benefit, large cost, no interactions.
    fn deadweight_instance() -> (ProblemInstance, IndexId) {
        let mut b = ProblemInstance::builder("deadweight");
        let useful1 = b.add_index(2.0);
        let useful2 = b.add_index(3.0);
        let deadweight = b.add_index(20.0);
        let q0 = b.add_query(100.0);
        b.add_plan(q0, vec![useful1], 40.0);
        let q1 = b.add_query(80.0);
        b.add_plan(q1, vec![useful2], 30.0);
        // The deadweight index has a tiny benefit so it is not useless, just
        // always the right thing to postpone.
        let q2 = b.add_query(10.0);
        b.add_plan(q2, vec![deadweight], 0.5);
        (b.build().unwrap(), deadweight)
    }

    #[test]
    fn deadweight_index_is_pinned_last() {
        // With tail length = |I| there is a single tail group whose champion
        // is the global optimum; its last index (the deadweight) gets pinned.
        let (inst, deadweight) = deadweight_instance();
        let mut constraints = OrderConstraints::from_instance(&inst);
        let fixed = analyze(&inst, &mut constraints, 3, 10_000);
        assert_eq!(fixed, 1);
        for other in inst.index_ids() {
            if other != deadweight {
                assert!(constraints.must_precede(other, deadweight));
            }
        }
    }

    #[test]
    fn enumeration_respects_existing_constraints() {
        let (inst, deadweight) = deadweight_instance();
        let mut constraints = OrderConstraints::from_instance(&inst);
        // Pretend another index must be last instead; the tails must honour it.
        let forced_last = inst.index_ids().find(|&i| i != deadweight).unwrap();
        for other in inst.index_ids() {
            if other != forced_last {
                constraints.add_before(other, forced_last);
            }
        }
        let all: Vec<usize> = inst.index_ids().map(IndexId::raw).collect();
        let mut visited = 0;
        Tails::new(&constraints, 2).walk(&all, |suffix| {
            visited += 1;
            assert_eq!(suffix[0], forced_last.raw());
            true
        });
        assert!(visited > 0);
    }

    #[test]
    fn budget_overflow_returns_none() {
        // Six length-3 tails: a budget of 1 stops the count at 2, and the
        // analysis gives up without pinning the deadweight.
        let (inst, _) = deadweight_instance();
        let mut constraints = OrderConstraints::from_instance(&inst);
        let all: Vec<usize> = inst.index_ids().map(IndexId::raw).collect();
        let tails = Tails::new(&constraints, 3);
        assert_eq!(tails.count(&all, 2), 2);
        assert_eq!(tails.count(&all, usize::MAX), 6);
        assert_eq!(analyze(&inst, &mut constraints, 3, 1), 0);
        assert_eq!(constraints.num_ordered_pairs(), 0);
    }

    #[test]
    fn tail_objective_accounts_for_build_interactions() {
        let mut b = ProblemInstance::builder("tail-build");
        let i0 = b.add_index(10.0);
        let i1 = b.add_index(10.0);
        let q = b.add_query(50.0);
        b.add_plan(q, vec![i0], 20.0);
        b.add_plan(q, vec![i1], 25.0);
        b.add_build_interaction(i0, i1, 6.0);
        let inst = b.build().unwrap();
        let evaluator = ObjectiveEvaluator::new(&inst);
        let mut state = evaluator.prefix_state();
        state.push(i1);
        // Tail [i0] (everything else built): i0 costs 10-6=4, runtime is 25.
        let obj = tail_objective(&mut state, &[i0]);
        assert!((obj - (50.0 - 25.0) * 4.0).abs() < 1e-9);
    }

    #[test]
    fn single_index_instance_is_a_noop() {
        let mut b = ProblemInstance::builder("one");
        let i0 = b.add_index(1.0);
        let q = b.add_query(5.0);
        b.add_plan(q, vec![i0], 1.0);
        let inst = b.build().unwrap();
        let mut c = OrderConstraints::from_instance(&inst);
        assert_eq!(analyze(&inst, &mut c, 3, 1000), 0);
    }
}
