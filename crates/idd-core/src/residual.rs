//! Prefix-freeze support: residual instances for mid-flight replanning.
//!
//! When a deployment is interrupted mid-flight (the workload drifted, the
//! target index set was revised, a build failed), the indexes already built
//! are *frozen* — they can be neither un-built nor reordered — and the only
//! remaining decision is the order of the unbuilt suffix. That suffix is
//! itself an instance of the same optimization problem, over a smaller index
//! set, with every constant conditioned on the built prefix:
//!
//! * a query's baseline runtime drops by the best speed-up it already enjoys;
//! * a plan that is partially available shrinks to its *missing* indexes and
//!   keeps only its *marginal* speed-up over the query's current best;
//! * an index's creation cost drops by the best build interaction among
//!   already-built helpers, and interactions from still-unbuilt helpers keep
//!   only their margin over that floor;
//! * precedence constraints whose `before` side is built are discharged.
//!
//! The reduction is exact: for any suffix order, `prefix area + residual
//! area == full area` (up to floating-point association), so optimizing the
//! residual instance with any solver optimizes the real remaining decision.
//! [`ResidualInstance`] carries the id mapping between the two worlds; a
//! full deployment is reassembled with [`Deployment::splice`] as
//! `built ++ in-flight ++ lifted suffix`.

use crate::error::{CoreError, Result};
use crate::instance::ProblemInstance;
use crate::solution::Deployment;
use crate::types::IndexId;

/// A residual problem instance for the unbuilt suffix of a deployment,
/// together with the id mapping back to its parent instance.
///
/// With concurrent build slots, a replan can fire while builds are still
/// running. Those *in-flight* indexes are committed: they can no more be
/// reordered than the built prefix, yet their completions still discount
/// query costs and future builds. [`ProblemInstance::residual_for_replan`]
/// therefore conditions the residual on built ∪ in-flight and records the
/// in-flight order here, so callers can reassemble
/// `built ++ in-flight ++ replanned suffix` with [`Deployment::splice`] and
/// assert no in-flight index leaked into the reordering.
#[derive(Debug, Clone)]
pub struct ResidualInstance {
    instance: ProblemInstance,
    /// Residual id (dense) → parent id.
    to_parent: Vec<IndexId>,
    /// Parent raw id → residual id, `None` for built/excluded/in-flight
    /// indexes.
    from_parent: Vec<Option<IndexId>>,
    /// Parent ids of the builds that were in flight when the residual was
    /// derived, in dispatch order. Empty for serial (build-boundary)
    /// residuals.
    in_flight: Vec<IndexId>,
}

impl ResidualInstance {
    /// The residual instance itself (solvers consume this directly).
    pub fn instance(&self) -> &ProblemInstance {
        &self.instance
    }

    /// The parent id of a residual index.
    pub fn parent_id(&self, residual: IndexId) -> IndexId {
        self.to_parent[residual.raw()]
    }

    /// The residual id of a parent index, if it is part of the residual.
    pub fn residual_id(&self, parent: IndexId) -> Option<IndexId> {
        self.from_parent.get(parent.raw()).copied().flatten()
    }

    /// Maps a residual-order slice back to parent ids.
    pub fn lift_order(&self, order: &[IndexId]) -> Vec<IndexId> {
        order.iter().map(|&i| self.parent_id(i)).collect()
    }

    /// Projects a parent-id suffix order into residual ids. Returns `None`
    /// when the projection is not a permutation of the residual indexes
    /// (some residual index missing, a built/excluded index present, or a
    /// duplicate) — the caller then has no usable warm start.
    pub fn project_order(&self, parent_order: &[IndexId]) -> Option<Deployment> {
        if parent_order.len() != self.to_parent.len() {
            return None;
        }
        let mut seen = vec![false; self.to_parent.len()];
        let mut out = Vec::with_capacity(parent_order.len());
        for &p in parent_order {
            let r = self.residual_id(p)?;
            if std::mem::replace(&mut seen[r.raw()], true) {
                return None;
            }
            out.push(r);
        }
        Some(Deployment::new(out))
    }

    /// The builds that were in flight when this residual was derived, in
    /// dispatch order (parent ids). Empty unless the residual came from
    /// [`ProblemInstance::residual_for_replan`].
    pub fn in_flight(&self) -> &[IndexId] {
        &self.in_flight
    }
}

impl ProblemInstance {
    /// Derives the residual instance for the unbuilt suffix, given a bitmap
    /// of already-built indexes. See [`crate::residual`] for the reduction.
    ///
    /// A replan may fire while builds are still in flight (concurrent build
    /// slots): `in_flight` lists those committed builds in dispatch order
    /// (empty at a build boundary). They are conditioned on exactly like
    /// the built prefix — their completions *will* discount query costs and
    /// future builds — but, like the prefix, they are excluded from the
    /// reordering decision: they appear in no residual id and the replanned
    /// suffix is spliced *behind* them ([`Deployment::splice`]).
    ///
    /// Indexes marked `excluded` (and not built) are dropped from the target
    /// set entirely — they appear in no residual plan, help no residual
    /// build, and are never scheduled. This models design revisions that
    /// retract indexes mid-deployment.
    ///
    /// # Errors
    ///
    /// Fails with [`CoreError::PrecedenceViolated`] when a hard precedence
    /// points from an uncommitted index to a committed one (the prefix was
    /// not a feasible partial deployment) or from an excluded index to a
    /// retained one, and with [`CoreError::EmptyInstance`] when nothing
    /// remains to build.
    ///
    /// # Panics
    ///
    /// Panics if an in-flight index is already built or excluded — that is a
    /// scheduler bug, not a recoverable state.
    pub fn residual_for_replan(
        &self,
        built: &[bool],
        in_flight: &[IndexId],
        excluded: &[bool],
    ) -> Result<ResidualInstance> {
        let mut committed = built.to_vec();
        for &i in in_flight {
            assert!(
                !built[i.raw()] && !excluded[i.raw()],
                "in-flight {i} is already built or excluded"
            );
            assert!(!committed[i.raw()], "in-flight {i} listed twice");
            committed[i.raw()] = true;
        }
        // From here on, in-flight builds count as built.
        let built = &committed[..];
        let n = self.num_indexes();
        assert_eq!(built.len(), n, "built bitmap must cover every index");
        assert_eq!(excluded.len(), n, "excluded bitmap must cover every index");

        // Dense residual ids in parent-id order (deterministic).
        let mut to_parent = Vec::new();
        let mut from_parent = vec![None; n];
        for raw in 0..n {
            if !built[raw] && !excluded[raw] {
                from_parent[raw] = Some(IndexId::new(to_parent.len()));
                to_parent.push(IndexId::new(raw));
            }
        }
        if to_parent.is_empty() {
            return Err(CoreError::EmptyInstance);
        }

        let mut b = ProblemInstance::builder(format!("{}:residual", self.name()));

        // Indexes: base cost conditioned on the built prefix.
        let mut prefix_floor = vec![0.0_f64; n];
        for &parent in &to_parent {
            let meta = self.index_meta(parent);
            let floor = self
                .helpers_of(parent)
                .iter()
                .filter(|(h, _)| built[h.raw()])
                .map(|(_, s)| *s)
                .fold(0.0_f64, f64::max);
            prefix_floor[parent.raw()] = floor;
            let mut reduced = meta.clone();
            reduced.creation_cost = meta.creation_cost - floor;
            b.push_index(reduced);
        }

        // Queries: baseline runtime drops by the best already-available
        // speed-up (unweighted; the weight is preserved on the query).
        let mut available_best = vec![0.0_f64; self.num_queries()];
        for plan in self.plans() {
            if plan.available_in(built) && plan.speedup > available_best[plan.query.raw()] {
                available_best[plan.query.raw()] = plan.speedup;
            }
        }
        for q in self.queries() {
            let mut reduced = q.clone();
            reduced.original_runtime = q.original_runtime - available_best[q.id.raw()];
            b.push_query(reduced);
        }

        // Plans: keep the missing indexes and the marginal speed-up. A plan
        // touching an excluded index can never complete and is dropped; a
        // plan whose margin over the current best is zero contributes
        // nothing and is dropped too.
        for plan in self.plans() {
            if plan.available_in(built) {
                continue; // already realized, folded into the query baseline
            }
            if plan.indexes.iter().any(|i| excluded[i.raw()]) {
                continue;
            }
            let margin = plan.speedup - available_best[plan.query.raw()];
            if margin <= 0.0 {
                continue;
            }
            let missing: Vec<IndexId> = plan
                .indexes
                .iter()
                .filter(|i| !built[i.raw()])
                .map(|i| from_parent[i.raw()].expect("unbuilt, unexcluded index is residual"))
                .collect();
            debug_assert!(!missing.is_empty());
            b.add_plan(plan.query, missing, margin);
        }

        // Build interactions among remaining indexes: only the margin over
        // the prefix floor survives.
        for bi in self.build_interactions() {
            let (Some(target), Some(helper)) =
                (from_parent[bi.target.raw()], from_parent[bi.helper.raw()])
            else {
                continue;
            };
            let margin = bi.speedup - prefix_floor[bi.target.raw()];
            if margin > 0.0 {
                b.add_build_interaction(target, helper, margin);
            }
        }

        // Precedences: both-remaining pairs survive; a built `before`
        // discharges the constraint; a built/excluded `after` with an
        // unbuilt `before` means the prefix (or the exclusion) broke the
        // constraint.
        for pr in self.precedences() {
            match (from_parent[pr.before.raw()], from_parent[pr.after.raw()]) {
                (Some(before), Some(after)) => b.add_precedence(before, after),
                (None, _) if built[pr.before.raw()] => {} // discharged
                (_, None) if excluded[pr.after.raw()] && !built[pr.after.raw()] => {
                    // The constrained index left the target set: vacuous.
                }
                (None, Some(_)) if excluded[pr.before.raw()] => {
                    // A retained index can no longer get its prerequisite.
                    return Err(CoreError::PrecedenceViolated {
                        before: pr.before,
                        after: pr.after,
                    });
                }
                _ => {
                    return Err(CoreError::PrecedenceViolated {
                        before: pr.before,
                        after: pr.after,
                    });
                }
            }
        }

        Ok(ResidualInstance {
            instance: b.build()?,
            to_parent,
            from_parent,
            in_flight: in_flight.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::ObjectiveEvaluator;

    /// 4 indexes, competing plans, build interactions and one precedence.
    fn parent() -> ProblemInstance {
        let mut b = ProblemInstance::builder("parent");
        let i0 = b.add_index(4.0);
        let i1 = b.add_index(6.0);
        let i2 = b.add_index(3.0);
        let i3 = b.add_index(5.0);
        let q0 = b.add_query(30.0);
        b.add_plan(q0, vec![i0], 5.0);
        b.add_plan(q0, vec![i1], 20.0);
        let q1 = b.add_query(40.0);
        b.add_plan(q1, vec![i2, i3], 25.0);
        b.add_plan(q1, vec![i2], 8.0);
        b.add_build_interaction(i1, i0, 2.0);
        b.add_build_interaction(i3, i2, 1.5);
        b.add_build_interaction(i3, i1, 1.0);
        b.add_precedence(i2, i3);
        b.build().unwrap()
    }

    fn built_bitmap(n: usize, built: &[usize]) -> Vec<bool> {
        let mut bm = vec![false; n];
        for &i in built {
            bm[i] = true;
        }
        bm
    }

    /// `built ++ in-flight ++ lifted suffix` in parent ids, spliced as a
    /// replan does.
    fn spliced(residual: &ResidualInstance, built: &[IndexId], suffix: &Deployment) -> Deployment {
        let mut committed = built.to_vec();
        committed.extend_from_slice(residual.in_flight());
        Deployment::splice(&committed, &residual.lift_order(suffix.order()))
    }

    #[test]
    fn residual_area_is_additive_with_the_prefix() {
        let inst = parent();
        let eval = ObjectiveEvaluator::new(&inst);
        // Freeze the prefix [i0, i2]; the suffix decision is over {i1, i3}.
        let prefix = [IndexId::new(0), IndexId::new(2)];
        let built = built_bitmap(4, &[0, 2]);
        let residual = inst.residual_for_replan(&built, &[], &[false; 4]).unwrap();
        assert_eq!(residual.instance().num_indexes(), 2);
        let mut prefix_state = eval.prefix_state();
        for &index in &prefix {
            prefix_state.push(index);
        }
        let prefix_area = prefix_state.area();

        let res_eval = ObjectiveEvaluator::new(residual.instance());
        for suffix_raw in [[0usize, 1], [1, 0]] {
            let suffix = Deployment::from_raw(suffix_raw);
            let res_area = res_eval.evaluate_area(&suffix);
            let full = spliced(&residual, &prefix, &suffix);
            let full_area = eval.evaluate_area(&full);
            assert!(
                (prefix_area + res_area - full_area).abs() < 1e-9,
                "suffix {suffix_raw:?}: {prefix_area} + {res_area} != {full_area}"
            );
        }
    }

    #[test]
    fn costs_and_speedups_are_conditioned_on_the_prefix() {
        let inst = parent();
        let built = built_bitmap(4, &[0, 2]);
        let residual = inst.residual_for_replan(&built, &[], &[false; 4]).unwrap();
        let r = residual.instance();
        // i1 keeps id order: residual 0 = parent 1, residual 1 = parent 3.
        assert_eq!(residual.parent_id(IndexId::new(0)), IndexId::new(1));
        assert_eq!(residual.parent_id(IndexId::new(1)), IndexId::new(3));
        // i1's cost dropped by the built helper i0 (6 - 2), i3's by i2.
        assert_eq!(r.creation_cost(IndexId::new(0)), 4.0);
        assert_eq!(r.creation_cost(IndexId::new(1)), 3.5);
        // q0 already enjoys the 5s plan; the 20s plan keeps its 15s margin.
        assert_eq!(r.query_runtime(crate::types::QueryId::new(0)), 25.0);
        assert_eq!(r.query_runtime(crate::types::QueryId::new(1)), 32.0);
        // i3's interaction from unbuilt helper i1 keeps only its margin over
        // the built floor (1.0 - 1.5 < 0: dropped).
        assert_eq!(r.build_speedup(IndexId::new(1), IndexId::new(0)), 0.0);
    }

    #[test]
    fn project_and_lift_round_trip() {
        let inst = parent();
        let built = built_bitmap(4, &[0]);
        let residual = inst.residual_for_replan(&built, &[], &[false; 4]).unwrap();
        let parent_suffix = [IndexId::new(2), IndexId::new(3), IndexId::new(1)];
        let projected = residual.project_order(&parent_suffix).unwrap();
        assert_eq!(residual.lift_order(projected.order()), parent_suffix);
        // A projection containing a built index is rejected.
        assert!(residual
            .project_order(&[IndexId::new(0), IndexId::new(3), IndexId::new(1)])
            .is_none());
        // Wrong length and duplicates are rejected.
        assert!(residual.project_order(&parent_suffix[..2]).is_none());
        assert!(residual
            .project_order(&[IndexId::new(2), IndexId::new(2), IndexId::new(1)])
            .is_none());
    }

    #[test]
    fn infeasible_prefix_is_rejected() {
        let inst = parent();
        // i3 built without its prerequisite i2.
        let built = built_bitmap(4, &[3]);
        assert!(matches!(
            inst.residual_for_replan(&built, &[], &[false; 4]),
            Err(CoreError::PrecedenceViolated { .. })
        ));
    }

    #[test]
    fn nothing_left_is_rejected() {
        let inst = parent();
        let built = built_bitmap(4, &[0, 1, 2, 3]);
        assert!(matches!(
            inst.residual_for_replan(&built, &[], &[false; 4]),
            Err(CoreError::EmptyInstance)
        ));
    }

    #[test]
    fn exclusions_drop_plans_and_discharge_paired_precedences() {
        let inst = parent();
        let built = built_bitmap(4, &[0]);
        // Drop i3 from the target set: q1's wide plan dies with it, and the
        // i2→i3 precedence is discharged because its `after` side left too.
        let mut excluded = vec![false; 4];
        excluded[3] = true;
        let residual = inst.residual_for_replan(&built, &[], &excluded).unwrap();
        assert_eq!(residual.instance().num_indexes(), 2); // i1, i2
        let r = residual.instance();
        assert!(r.precedences().is_empty());
        // q1 keeps only its i2-only plan.
        let q1_plans = r.plans_of_query(crate::types::QueryId::new(1));
        assert_eq!(q1_plans.len(), 1);
        assert_eq!(r.plan(q1_plans[0]).speedup, 8.0);
    }

    #[test]
    fn in_flight_residual_conditions_like_built_but_never_reorders() {
        let inst = parent();
        // i0 is built; i2 is mid-build when the replan fires. The residual
        // decision is over {i1, i3} only, conditioned on i0 AND i2.
        let built = built_bitmap(4, &[0]);
        let in_flight = [IndexId::new(2)];
        let excluded = vec![false; 4];
        let residual = inst
            .residual_for_replan(&built, &in_flight, &excluded)
            .unwrap();
        assert_eq!(residual.in_flight(), &in_flight);
        assert_eq!(residual.instance().num_indexes(), 2);
        // No residual id maps to the in-flight index…
        assert!(residual.residual_id(IndexId::new(2)).is_none());
        for r in 0..residual.instance().num_indexes() {
            assert_ne!(residual.parent_id(IndexId::new(r)), IndexId::new(2));
        }
        // …but its conditioning matches the plain residual that treats i2 as
        // already built: same costs, same runtimes, same plans.
        let as_built = inst
            .residual_for_replan(&built_bitmap(4, &[0, 2]), &[], &[false; 4])
            .unwrap();
        let (a, b) = (residual.instance(), as_built.instance());
        assert_eq!(a.num_indexes(), b.num_indexes());
        for raw in 0..a.num_indexes() {
            assert_eq!(
                a.creation_cost(IndexId::new(raw)),
                b.creation_cost(IndexId::new(raw))
            );
        }
        for q in 0..a.num_queries() {
            assert_eq!(
                a.query_runtime(crate::types::QueryId::new(q)),
                b.query_runtime(crate::types::QueryId::new(q))
            );
        }
        assert_eq!(a.num_plans(), b.num_plans());
        // The i2→i3 precedence is discharged by the in-flight commitment.
        assert!(a.precedences().is_empty());

        // Splicing keeps both commitments verbatim, in order.
        let suffix = Deployment::from_raw([1, 0]);
        let full = spliced(&residual, &[IndexId::new(0)], &suffix);
        assert!(full.starts_with(&[IndexId::new(0), IndexId::new(2)]));
        assert_eq!(full.len(), 4);

        // Exactness: once the in-flight build completes, prefix + residual
        // areas add up to the full area for any suffix order.
        let eval = ObjectiveEvaluator::new(&inst);
        let committed_prefix = [IndexId::new(0), IndexId::new(2)];
        let mut prefix_state = eval.prefix_state();
        for index in committed_prefix {
            prefix_state.push(index);
        }
        let prefix_area = prefix_state.area();
        let res_eval = ObjectiveEvaluator::new(residual.instance());
        for raw in [[0usize, 1], [1, 0]] {
            let s = Deployment::from_raw(raw);
            let full_area = eval.evaluate_area(&spliced(&residual, &[IndexId::new(0)], &s));
            assert!((prefix_area + res_eval.evaluate_area(&s) - full_area).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_in_flight_replan_residual_matches_the_plain_residual() {
        // With nothing in flight the replan residual is the plain
        // build-boundary residual: no in-flight record, and splicing is
        // `built prefix ++ lifted suffix`.
        let inst = parent();
        let built = built_bitmap(4, &[0]);
        let residual = inst.residual_for_replan(&built, &[], &[false; 4]).unwrap();
        assert!(residual.in_flight().is_empty());
        let suffix = Deployment::from_raw([2, 0, 1]);
        assert_eq!(
            spliced(&residual, &[IndexId::new(0)], &suffix),
            Deployment::from_raw([0, 3, 1, 2])
        );
    }

    #[test]
    #[should_panic(expected = "already built or excluded")]
    fn in_flight_overlapping_built_is_a_scheduler_bug() {
        let inst = parent();
        let built = built_bitmap(4, &[0]);
        let _ = inst.residual_for_replan(&built, &[IndexId::new(0)], &[false; 4]);
    }

    #[test]
    fn excluding_a_prerequisite_of_a_retained_index_is_rejected() {
        let inst = parent();
        let built = built_bitmap(4, &[]);
        let mut excluded = vec![false; 4];
        excluded[2] = true; // i2 gone, i3 retained but requires i2 first
        assert!(matches!(
            inst.residual_for_replan(&built, &[], &excluded),
            Err(CoreError::PrecedenceViolated { .. })
        ));
    }
}
