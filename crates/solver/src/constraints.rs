//! Ordering constraints: hard precedences plus the additional constraints
//! derived by the problem-property analysis of Section 5.
//!
//! [`OrderConstraints`] maintains a precedence DAG (`before ≺ after`) with its
//! transitive closure, so the exact searches can ask in O(1) whether an index
//! may still be placed, and the local searches can check candidate moves
//! cheaply. Alliances (indexes that must be built consecutively) are kept as
//! separate groups because they are stronger than plain precedences.

use idd_core::{IndexId, ProblemInstance};
use serde::{Deserialize, Serialize};

/// A set of alliance groups plus a precedence DAG over indexes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OrderConstraints {
    n: usize,
    /// `closure[a][b]` — index `a` must be deployed before index `b`.
    closure: Vec<Vec<bool>>,
    /// Groups of indexes that must be deployed consecutively.
    alliances: Vec<Vec<IndexId>>,
}

impl OrderConstraints {
    /// Creates an empty constraint set over `n` indexes.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            closure: vec![vec![false; n]; n],
            alliances: Vec::new(),
        }
    }

    /// Creates a constraint set seeded with the instance's hard precedences.
    pub fn from_instance(instance: &ProblemInstance) -> Self {
        let mut c = Self::new(instance.num_indexes());
        for pr in instance.precedences() {
            c.add_before(pr.before, pr.after);
        }
        c
    }

    /// Number of indexes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the constraint set covers no indexes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Adds `before ≺ after` and updates the transitive closure.
    /// Returns `false` (and changes nothing) when the new edge would create a
    /// cycle or is a self-edge; returns `true` when the constraint is new or
    /// already implied.
    pub fn add_before(&mut self, before: IndexId, after: IndexId) -> bool {
        let (b, a) = (before.raw(), after.raw());
        if b == a || self.closure[a][b] {
            return false;
        }
        if self.closure[b][a] {
            return true;
        }
        // New edge: propagate — everything that must precede `before` must
        // also precede everything that must follow `after`.
        let preds: Vec<usize> = (0..self.n)
            .filter(|&x| x == b || self.closure[x][b])
            .collect();
        let succs: Vec<usize> = (0..self.n)
            .filter(|&y| y == a || self.closure[a][y])
            .collect();
        for &x in &preds {
            for &y in &succs {
                if x != y {
                    self.closure[x][y] = true;
                }
            }
        }
        true
    }

    /// `true` when `before ≺ after` is required (directly or transitively).
    pub fn must_precede(&self, before: IndexId, after: IndexId) -> bool {
        self.closure[before.raw()][after.raw()]
    }

    /// Number of ordered pairs in the closure (a measure of pruning power).
    pub fn num_ordered_pairs(&self) -> usize {
        self.closure
            .iter()
            .map(|row| row.iter().filter(|&&b| b).count())
            .sum()
    }

    /// Registers an alliance: the given indexes must be deployed
    /// consecutively (in any internal order not contradicting the DAG).
    /// Groups of fewer than two indexes and groups already registered are
    /// ignored.
    pub fn add_alliance(&mut self, members: Vec<IndexId>) {
        if members.len() >= 2 && !self.alliances.contains(&members) {
            self.alliances.push(members);
        }
    }

    /// The registered alliances.
    pub fn alliances(&self) -> &[Vec<IndexId>] {
        &self.alliances
    }

    /// `true` when `index` may be placed next, given the set of already
    /// placed indexes (bitmap by raw id): all of its required predecessors
    /// must already be placed.
    pub fn can_place(&self, index: IndexId, placed: &[bool]) -> bool {
        let i = index.raw();
        (0..self.n).all(|x| !self.closure[x][i] || placed[x])
    }

    /// Checks a complete order against the precedence closure (alliances are
    /// not checked here; they are search hints rather than feasibility
    /// requirements unless they came from hard precedences).
    pub fn is_satisfied_by(&self, order: &[IndexId]) -> bool {
        let mut pos = vec![usize::MAX; self.n];
        for (p, &i) in order.iter().enumerate() {
            pos[i.raw()] = p;
        }
        for a in 0..self.n {
            for b in 0..self.n {
                if self.closure[a][b]
                    && pos[a] != usize::MAX
                    && pos[b] != usize::MAX
                    && pos[a] > pos[b]
                {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: usize) -> IndexId {
        IndexId::new(i)
    }

    #[test]
    fn transitive_closure_is_maintained() {
        let mut c = OrderConstraints::new(4);
        assert!(c.add_before(id(0), id(1)));
        assert!(c.add_before(id(1), id(2)));
        assert!(c.must_precede(id(0), id(2)));
        assert!(!c.must_precede(id(2), id(0)));
        assert!(c.must_precede(id(0), id(1)));
        assert!(!c.must_precede(id(0), id(3)));
    }

    #[test]
    fn cycles_are_rejected() {
        let mut c = OrderConstraints::new(3);
        c.add_before(id(0), id(1));
        c.add_before(id(1), id(2));
        assert!(!c.add_before(id(2), id(0)));
        assert!(!c.must_precede(id(2), id(0)));
        assert!(!c.add_before(id(1), id(1)));
    }

    #[test]
    fn can_place_requires_predecessors() {
        let mut c = OrderConstraints::new(3);
        c.add_before(id(0), id(2));
        assert!(c.can_place(id(0), &[false, false, false]));
        assert!(c.can_place(id(1), &[false, false, false]));
        assert!(!c.can_place(id(2), &[false, false, false]));
        assert!(c.can_place(id(2), &[true, false, false]));
    }

    #[test]
    fn order_satisfaction_check() {
        let mut c = OrderConstraints::new(3);
        c.add_before(id(2), id(0));
        assert!(c.is_satisfied_by(&[id(2), id(0), id(1)]));
        assert!(!c.is_satisfied_by(&[id(0), id(2), id(1)]));
    }

    #[test]
    fn from_instance_reads_hard_precedences() {
        let mut builder = ProblemInstance::builder("c");
        let i0 = builder.add_index(1.0);
        let i1 = builder.add_index(1.0);
        builder.add_precedence(i0, i1);
        let q = builder.add_query(5.0);
        builder.add_plan(q, vec![i0], 1.0);
        let inst = builder.build().unwrap();
        let c = OrderConstraints::from_instance(&inst);
        assert!(c.must_precede(i0, i1));
        assert_eq!(c.num_ordered_pairs(), 1);
    }
}
