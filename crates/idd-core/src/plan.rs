//! Query plans (atomic configurations).

use crate::types::{IndexId, PlanId, QueryId};
use serde::{Deserialize, Serialize};

/// A query plan, called an *atomic configuration* in the what-if literature:
/// a set of indexes that, when all present, speed up one query by
/// [`QueryPlan::speedup`] seconds compared to its original runtime.
///
/// The empty plan (original runtime, zero speed-up) is implicit and never
/// stored: [`crate::InstanceBuilder::build`] rejects a plan with no index.
/// A query may have many plans; the optimizer always uses the fastest
/// *available* one, which creates the paper's *competing interactions*.
/// Plans with two or more indexes encode *query interactions*.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryPlan {
    /// Dense identifier of this plan within its [`crate::ProblemInstance`].
    pub id: PlanId,
    /// The query this plan belongs to.
    pub query: QueryId,
    /// The indexes the plan requires, sorted ascending with no duplicates.
    pub indexes: Vec<IndexId>,
    /// `qspdup(p, q)`: seconds saved compared to the query's original runtime
    /// when every index in `indexes` is available.
    pub speedup: f64,
}

impl QueryPlan {
    /// Creates a plan, sorting and deduplicating the index set.
    pub fn new(id: PlanId, query: QueryId, mut indexes: Vec<IndexId>, speedup: f64) -> Self {
        indexes.sort_unstable();
        indexes.dedup();
        Self {
            id,
            query,
            indexes,
            speedup,
        }
    }

    /// Number of indexes the plan requires.
    pub fn width(&self) -> usize {
        self.indexes.len()
    }

    /// Returns `true` when the plan uses the given index.
    pub fn uses(&self, index: IndexId) -> bool {
        self.indexes.binary_search(&index).is_ok()
    }

    /// Returns `true` when every index of the plan appears in `available`
    /// (a bitmap keyed by raw index id).
    pub fn available_in(&self, available: &[bool]) -> bool {
        self.indexes.iter().all(|i| available[i.raw()])
    }

    /// Returns `true` when this plan requires at least two indexes, i.e. it
    /// encodes a *query interaction* between indexes.
    pub fn is_interaction(&self) -> bool {
        self.indexes.len() >= 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(ids: &[usize], speedup: f64) -> QueryPlan {
        QueryPlan::new(
            PlanId::new(0),
            QueryId::new(0),
            ids.iter().copied().map(IndexId::new).collect(),
            speedup,
        )
    }

    #[test]
    fn new_sorts_and_dedups() {
        let p = plan(&[3, 1, 3, 2], 5.0);
        assert_eq!(
            p.indexes,
            vec![IndexId::new(1), IndexId::new(2), IndexId::new(3)]
        );
        assert_eq!(p.width(), 3);
    }

    #[test]
    fn uses_is_exact() {
        let p = plan(&[1, 4], 5.0);
        assert!(p.uses(IndexId::new(1)));
        assert!(p.uses(IndexId::new(4)));
        assert!(!p.uses(IndexId::new(2)));
    }

    #[test]
    fn availability_requires_all_indexes() {
        let p = plan(&[0, 2], 5.0);
        assert!(!p.available_in(&[true, true, false]));
        assert!(!p.available_in(&[false, true, true]));
        assert!(p.available_in(&[true, false, true]));
    }

    #[test]
    fn interaction_means_two_or_more_indexes() {
        assert!(!plan(&[1], 1.0).is_interaction());
        assert!(plan(&[1, 2], 1.0).is_interaction());
    }

    #[test]
    fn serde_round_trip() {
        let p = plan(&[0, 5], 2.5);
        let json = serde_json::to_string(&p).unwrap();
        let back: QueryPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
