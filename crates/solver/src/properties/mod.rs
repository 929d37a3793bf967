//! Problem-specific properties (paper Section 5 / Appendix D).
//!
//! Each detector derives ordering constraints that hold in at least one
//! optimal solution, so adding them never changes the optimal objective but
//! shrinks the search space — by several orders of magnitude in the paper's
//! Table 6. The detectors are:
//!
//! * [`alliance`] — indexes that only ever appear in plans together must be
//!   built consecutively;
//! * [`colonized`] — an index that never appears without its "colonizer" is
//!   built after it;
//! * [`dominated`] — an index whose benefit can never exceed another's (and
//!   is never cheaper to build) is built after it;
//! * [`disjoint`] — fully independent indexes are ordered by density;
//! * [`tail`] — scoring the feasible tails can pin the last index.
//!
//! [`analyze`] runs each enabled detector once, in the order above, and
//! accumulates everything into an [`OrderConstraints`]. The first four read
//! only the instance, so running them again would find nothing new; each
//! one's count in the [`AnalysisReport`] holds only the pairs it added that
//! no earlier constraint implied. The tail step reads the constraints so
//! far and pins at most one index; a second call would find every tail
//! ending with that index and add nothing. The paper's "iterate and
//! recurse" (Section 5.6), which would go on to pin the second-to-last
//! index, is not implemented.

pub mod alliance;
pub mod colonized;
pub mod disjoint;
pub mod dominated;
pub mod tail;

use crate::constraints::OrderConstraints;
use idd_core::{IndexId, ProblemInstance};
use serde::{Deserialize, Serialize};

/// Length of the tails the tail step scores.
const TAIL_LENGTH: usize = 3;

/// Most feasible tails the tail step scores: with more, it gives up
/// without scoring any.
const TAIL_BUDGET: usize = 50_000;

/// Which detectors to run (used by the Table-6 drill-down).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnalysisOptions {
    /// Detect alliances (A).
    pub alliances: bool,
    /// Detect colonized indexes (C).
    pub colonized: bool,
    /// Detect dominated indexes (M — "min/max domination").
    pub dominated: bool,
    /// Detect disjoint indexes (D).
    pub disjoint: bool,
    /// Run the tail-index analysis (T) on tails of length 3, giving up
    /// past 50 000 feasible tails.
    pub tail: bool,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        Self::all()
    }
}

impl AnalysisOptions {
    /// Every detector enabled (the paper's "+ACMDT" configuration).
    pub fn all() -> Self {
        Self {
            alliances: true,
            colonized: true,
            dominated: true,
            disjoint: true,
            tail: true,
        }
    }

    /// No detector enabled (plain CP / MIP).
    pub fn none() -> Self {
        Self {
            alliances: false,
            colonized: false,
            dominated: false,
            disjoint: false,
            tail: false,
        }
    }

    /// The cumulative configurations of Table 6:
    /// `"", "A", "AC", "ACM", "ACMD", "ACMDT"`.
    pub fn drill_down(level: &str) -> Self {
        let mut o = Self::none();
        for c in level.chars() {
            match c {
                'A' => o.alliances = true,
                'C' => o.colonized = true,
                'M' => o.dominated = true,
                'D' => o.disjoint = true,
                'T' => o.tail = true,
                _ => {}
            }
        }
        o
    }
}

/// Result of the property analysis.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnalysisReport {
    /// All derived ordering constraints (including the instance's hard
    /// precedences).
    pub constraints: OrderConstraints,
    /// Number of alliance groups found.
    pub num_alliances: usize,
    /// Pairs colonized-index detection added that no earlier constraint
    /// implied.
    pub num_colonized_pairs: usize,
    /// Pairs domination detection added that no earlier constraint
    /// implied.
    pub num_dominated_pairs: usize,
    /// Pairs disjoint-density detection added that no earlier constraint
    /// implied.
    pub num_disjoint_pairs: usize,
    /// Indexes pinned by the tail analysis (0 or 1).
    pub num_tail_fixed: usize,
    /// Total ordered pairs in the final closure.
    pub total_ordered_pairs: usize,
}

/// Runs each enabled detector once: alliances, colonized, dominated,
/// disjoint, then the tail step.
pub fn analyze(instance: &ProblemInstance, options: AnalysisOptions) -> AnalysisReport {
    let mut constraints = OrderConstraints::from_instance(instance);
    if options.alliances {
        for group in alliance::detect(instance) {
            constraints.add_alliance(group);
        }
    }
    let mut run = |enabled: bool, detect: fn(&ProblemInstance) -> Vec<(IndexId, IndexId)>| {
        if enabled {
            add_new_pairs(&mut constraints, detect(instance))
        } else {
            0
        }
    };
    let num_colonized_pairs = run(options.colonized, colonized::detect);
    let num_dominated_pairs = run(options.dominated, dominated::detect);
    let num_disjoint_pairs = run(options.disjoint, disjoint::detect);
    let num_tail_fixed = if options.tail {
        tail::analyze(instance, &mut constraints, TAIL_LENGTH, TAIL_BUDGET)
    } else {
        0
    };

    AnalysisReport {
        num_alliances: constraints.alliances().len(),
        num_colonized_pairs,
        num_dominated_pairs,
        num_disjoint_pairs,
        num_tail_fixed,
        total_ordered_pairs: constraints.num_ordered_pairs(),
        constraints,
    }
}

/// Adds each `(before, after)` pair and returns how many were new: neither
/// implied by the constraints already present nor rejected as a cycle.
fn add_new_pairs(constraints: &mut OrderConstraints, pairs: Vec<(IndexId, IndexId)>) -> usize {
    pairs
        .into_iter()
        .filter(|&(before, after)| {
            !constraints.must_precede(before, after) && constraints.add_before(before, after)
        })
        .count()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Figure 5-like instance: i0,i2 and i3,i5 only ever appear in plans
    /// together (two alliances); i4 also appears with i1.
    pub(crate) fn alliance_instance() -> ProblemInstance {
        let mut b = ProblemInstance::builder("alliance");
        let i: Vec<IndexId> = (0..6).map(|_| b.add_index(5.0)).collect();
        let q0 = b.add_query(100.0);
        b.add_plan(q0, vec![i[0], i[2]], 30.0);
        b.add_plan(q0, vec![i[0], i[2], i[4]], 50.0);
        let q1 = b.add_query(80.0);
        b.add_plan(q1, vec![i[1], i[4]], 20.0);
        let q2 = b.add_query(60.0);
        b.add_plan(q2, vec![i[3], i[5]], 25.0);
        b.build().unwrap()
    }

    #[test]
    fn full_analysis_runs_and_reports() {
        let inst = alliance_instance();
        let report = analyze(&inst, AnalysisOptions::all());
        assert!(report.num_alliances >= 2, "report: {report:?}");
        assert_eq!(
            report.total_ordered_pairs,
            report.constraints.num_ordered_pairs()
        );
    }

    #[test]
    fn none_options_only_keep_hard_precedences() {
        let mut b = ProblemInstance::builder("p");
        let i0 = b.add_index(1.0);
        let i1 = b.add_index(1.0);
        let q = b.add_query(10.0);
        b.add_plan(q, vec![i0], 2.0);
        b.add_precedence(i0, i1);
        let inst = b.build().unwrap();
        let report = analyze(&inst, AnalysisOptions::none());
        assert_eq!(report.total_ordered_pairs, 1);
        assert_eq!(report.num_alliances, 0);
    }

    #[test]
    fn drill_down_parsing() {
        let o = AnalysisOptions::drill_down("ACM");
        assert!(o.alliances && o.colonized && o.dominated);
        assert!(!o.disjoint && !o.tail);
        let all = AnalysisOptions::drill_down("ACMDT");
        assert!(all.tail);
        assert_eq!(AnalysisOptions::drill_down(""), AnalysisOptions::none());
    }

    #[test]
    fn analysis_constraints_never_make_the_instance_infeasible() {
        let inst = alliance_instance();
        let report = analyze(&inst, AnalysisOptions::all());
        // There must exist at least one topological order.
        let n = inst.num_indexes();
        let mut placed = vec![false; n];
        for _ in 0..n {
            let next = (0..n)
                .map(IndexId::new)
                .find(|&i| !placed[i.raw()] && report.constraints.can_place(i, &placed));
            assert!(next.is_some(), "constraints admit no feasible order");
            placed[next.unwrap().raw()] = true;
        }
    }
}
