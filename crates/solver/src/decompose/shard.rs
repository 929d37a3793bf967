//! Projection of one shard onto a self-contained sub-instance.
//!
//! A shard keeps its member indexes (re-numbered densely, parent metadata
//! preserved), every query that has at least one plan fully inside the
//! member set, those fully-contained plans, and the intra-shard build
//! interactions and precedences. When the partition is exact (no coupling
//! edge cut) this projection is lossless for *ordering*: a plan, query
//! competition, interaction or precedence crossing shard boundaries cannot
//! exist, so the shard's contribution to the global objective depends only
//! on its internal order — queries outside the shard contribute a constant
//! baseline no matter where the shard's builds land on the clock.
//!
//! When edges *were* cut, cross-boundary plans are dropped and a query may
//! be projected into several shards (each sees only its own plans for it);
//! the recombined order is then an approximation — which is why the
//! decomposer re-evaluates the spliced order against the full instance and
//! reports that exact number, never the sum of shard objectives.

use idd_core::{IndexId, InstanceBuilder, ProblemInstance};

/// One shard's projected sub-instance plus the id mapping back to the
/// parent.
#[derive(Debug, Clone)]
pub struct ShardInstance {
    /// The self-contained sub-instance (dense shard-local ids).
    pub instance: ProblemInstance,
    /// `members[local.raw()]` is the parent id of shard-local index `local`.
    pub members: Vec<IndexId>,
}

/// Projects `members` (sorted parent ids) of `parent` onto a sub-instance.
pub fn project(parent: &ProblemInstance, members: &[IndexId]) -> ShardInstance {
    debug_assert!(members.windows(2).all(|w| w[0] < w[1]), "members sorted");
    let mut remap: Vec<Option<IndexId>> = vec![None; parent.num_indexes()];
    let mut builder = InstanceBuilder::new(format!(
        "{}/shard[{}..]",
        parent.name(),
        members.first().map(|m| m.raw()).unwrap_or(0)
    ));

    for (local, &m) in members.iter().enumerate() {
        let mut meta = parent.index_meta(m).clone();
        meta.id = IndexId::new(local);
        let id = builder.push_index(meta);
        debug_assert_eq!(id.raw(), local);
        remap[m.raw()] = Some(id);
    }
    let contained = |ids: &[IndexId]| ids.iter().all(|i| remap[i.raw()].is_some());

    for q in parent.query_ids() {
        let kept: Vec<_> = parent
            .plans_of_query(q)
            .iter()
            .filter(|&&p| contained(&parent.plan(p).indexes))
            .collect();
        if kept.is_empty() {
            continue;
        }
        let local_q = builder.push_query(parent.query(q).clone());
        for &&p in &kept {
            let plan = parent.plan(p);
            let indexes = plan
                .indexes
                .iter()
                .map(|i| remap[i.raw()].expect("plan is contained"))
                .collect();
            builder.add_plan(local_q, indexes, plan.speedup);
        }
    }

    for bi in parent.build_interactions() {
        if let (Some(target), Some(helper)) = (remap[bi.target.raw()], remap[bi.helper.raw()]) {
            builder.add_build_interaction(target, helper, bi.speedup);
        }
    }
    for pr in parent.precedences() {
        if let (Some(before), Some(after)) = (remap[pr.before.raw()], remap[pr.after.raw()]) {
            builder.add_precedence(before, after);
        }
    }

    let instance = builder
        .build()
        .expect("projection of a valid instance stays valid");
    ShardInstance {
        instance,
        members: members.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idd_core::{Deployment, ObjectiveEvaluator};

    fn two_blocks() -> ProblemInstance {
        let mut b = ProblemInstance::builder("two-blocks");
        let i0 = b.add_index(2.0);
        let i1 = b.add_index(3.0);
        let i2 = b.add_index(4.0);
        let q0 = b.add_query(60.0);
        b.add_plan(q0, vec![i0], 10.0);
        b.add_plan(q0, vec![i0, i1], 25.0);
        let q1 = b.add_query(50.0);
        b.add_plan(q1, vec![i2], 12.0);
        b.add_build_interaction(i1, i0, 1.0);
        b.add_precedence(i0, i1);
        b.build().unwrap()
    }

    #[test]
    fn projection_keeps_contained_structure_only() {
        let parent = two_blocks();
        let shard = project(&parent, &[IndexId::new(0), IndexId::new(1)]);
        assert_eq!(shard.instance.num_indexes(), 2);
        assert_eq!(shard.instance.num_queries(), 1);
        assert_eq!(shard.instance.num_plans(), 2);
        assert_eq!(shard.instance.build_interactions().len(), 1);
        assert_eq!(shard.instance.precedences().len(), 1);

        let other = project(&parent, &[IndexId::new(2)]);
        assert_eq!(other.instance.num_indexes(), 1);
        assert_eq!(other.instance.num_queries(), 1);
        assert_eq!(other.instance.build_interactions().len(), 0);
    }

    #[test]
    fn shard_objective_matches_parent_marginals() {
        // On an exact partition, a shard's step benefits and costs equal
        // what the same builds realize inside the parent instance, so the
        // shard evaluator's step trace is trustworthy for recombination.
        let parent = two_blocks();
        let shard = project(&parent, &[IndexId::new(0), IndexId::new(1)]);
        let shard_value =
            ObjectiveEvaluator::new(&shard.instance).evaluate(&Deployment::from_raw([0, 1]));
        let parent_value =
            ObjectiveEvaluator::new(&parent).evaluate(&Deployment::from_raw([0, 1, 2]));
        for (s, p) in shard_value.steps.iter().zip(&parent_value.steps) {
            assert_eq!(s.build_cost, p.build_cost);
            assert_eq!(
                s.runtime_before - s.runtime_after,
                p.runtime_before - p.runtime_after
            );
        }
    }

    #[test]
    fn parent_order_mapping_round_trips() {
        let parent = two_blocks();
        let shard = project(&parent, &[IndexId::new(0), IndexId::new(2)]);
        let order: Vec<IndexId> = [1, 0].map(|local| shard.members[local]).to_vec();
        assert_eq!(order, vec![IndexId::new(2), IndexId::new(0)]);
    }
}
