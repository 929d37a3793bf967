//! The problem instance: everything the solvers need, nothing more.

use crate::error::{check_finite, CoreError, Result};
use crate::index::IndexMeta;
use crate::interaction::{BuildInteraction, Precedence};
use crate::plan::QueryPlan;
use crate::query::QueryMeta;
use crate::types::{IndexId, PlanId, QueryId};
use serde::{Deserialize, Serialize};

/// A complete instance of the index deployment ordering problem — the
/// "matrix file" of the paper's Figure 3.
///
/// It bundles the constants of the mathematical model (Table 2):
/// `qtime(q)`, `qspdup(p, q)`, `ctime(i)`, `cspdup(i, j)`, the feasible plans
/// `plans(q)` and any hard precedence constraints, plus descriptive metadata
/// used by reports and examples.
///
/// The struct is immutable once built; use [`ProblemInstance::builder`] or
/// [`InstanceBuilder`] to construct one, which validates referential
/// integrity, value ranges and precedence acyclicity.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(try_from = "RawInstance", into = "RawInstance")]
pub struct ProblemInstance {
    name: String,
    indexes: Vec<IndexMeta>,
    queries: Vec<QueryMeta>,
    plans: Vec<QueryPlan>,
    build_interactions: Vec<BuildInteraction>,
    precedences: Vec<Precedence>,

    // Derived lookup structures (rebuilt after deserialization, not stored).
    plans_by_query: Vec<Vec<PlanId>>,
    plans_by_index: Vec<Vec<PlanId>>,
    helpers_by_target: Vec<Vec<(IndexId, f64)>>,
    targets_by_helper: Vec<Vec<(IndexId, f64)>>,
}

/// Serialized form of [`ProblemInstance`] (no derived lookup tables).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RawInstance {
    name: String,
    indexes: Vec<IndexMeta>,
    queries: Vec<QueryMeta>,
    plans: Vec<QueryPlan>,
    build_interactions: Vec<BuildInteraction>,
    precedences: Vec<Precedence>,
}

impl From<ProblemInstance> for RawInstance {
    fn from(p: ProblemInstance) -> Self {
        RawInstance {
            name: p.name,
            indexes: p.indexes,
            queries: p.queries,
            plans: p.plans,
            build_interactions: p.build_interactions,
            precedences: p.precedences,
        }
    }
}

impl TryFrom<RawInstance> for ProblemInstance {
    type Error = CoreError;

    fn try_from(raw: RawInstance) -> Result<Self> {
        let mut b = InstanceBuilder::new(raw.name);
        for idx in raw.indexes {
            b.push_index(idx);
        }
        for q in raw.queries {
            b.push_query(q);
        }
        for p in raw.plans {
            b.push_plan(p);
        }
        for bi in raw.build_interactions {
            b.add_build_interaction(bi.target, bi.helper, bi.speedup);
        }
        for pr in raw.precedences {
            b.add_precedence(pr.before, pr.after);
        }
        b.build()
    }
}

impl ProblemInstance {
    /// Starts building a new instance with the given name.
    pub fn builder(name: impl Into<String>) -> InstanceBuilder {
        InstanceBuilder::new(name)
    }

    /// The instance name (e.g. `"tpch"`, `"tpcds"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of candidate indexes `|I|`.
    pub fn num_indexes(&self) -> usize {
        self.indexes.len()
    }

    /// Number of workload queries `|Q|`.
    pub fn num_queries(&self) -> usize {
        self.queries.len()
    }

    /// Number of query plans (atomic configurations) `|P|`.
    pub fn num_plans(&self) -> usize {
        self.plans.len()
    }

    /// All index descriptions.
    pub fn indexes(&self) -> &[IndexMeta] {
        &self.indexes
    }

    /// All query descriptions.
    pub fn queries(&self) -> &[QueryMeta] {
        &self.queries
    }

    /// All query plans.
    pub fn plans(&self) -> &[QueryPlan] {
        &self.plans
    }

    /// All build interactions.
    pub fn build_interactions(&self) -> &[BuildInteraction] {
        &self.build_interactions
    }

    /// All hard precedence constraints.
    pub fn precedences(&self) -> &[Precedence] {
        &self.precedences
    }

    /// Metadata of one index.
    pub fn index_meta(&self, id: IndexId) -> &IndexMeta {
        &self.indexes[id.raw()]
    }

    /// Metadata of one query.
    pub fn query(&self, id: QueryId) -> &QueryMeta {
        &self.queries[id.raw()]
    }

    /// One query plan.
    pub fn plan(&self, id: PlanId) -> &QueryPlan {
        &self.plans[id.raw()]
    }

    /// `ctime(i)`: base creation cost of an index (no helpers available).
    pub fn creation_cost(&self, id: IndexId) -> f64 {
        self.indexes[id.raw()].creation_cost
    }

    /// Weighted original runtime of a query (`weight · qtime(q)`).
    pub fn query_runtime(&self, id: QueryId) -> f64 {
        self.queries[id.raw()].weighted_runtime()
    }

    /// Weighted speed-up of a plan (`weight(q) · qspdup(p, q)`).
    pub fn plan_speedup(&self, id: PlanId) -> f64 {
        let plan = &self.plans[id.raw()];
        plan.speedup * self.queries[plan.query.raw()].weight
    }

    /// `R_∅`: total weighted workload runtime before any index is built.
    pub fn baseline_runtime(&self) -> f64 {
        self.queries.iter().map(QueryMeta::weighted_runtime).sum()
    }

    /// Sum of base creation costs `Σ ctime(i)` — the deployment time if no
    /// build interaction is ever exploited.
    pub fn total_base_build_cost(&self) -> f64 {
        self.indexes.iter().map(|i| i.creation_cost).sum()
    }

    /// Plans belonging to one query (the `plans(q)` of the paper).
    pub fn plans_of_query(&self, q: QueryId) -> &[PlanId] {
        &self.plans_by_query[q.raw()]
    }

    /// Plans that use a given index.
    pub fn plans_using_index(&self, i: IndexId) -> &[PlanId] {
        &self.plans_by_index[i.raw()]
    }

    /// Build interactions that can speed up the creation of `target`,
    /// as `(helper, cspdup)` pairs.
    pub fn helpers_of(&self, target: IndexId) -> &[(IndexId, f64)] {
        &self.helpers_by_target[target.raw()]
    }

    /// Build interactions in the other direction: indexes whose creation
    /// `helper` can speed up, as `(target, cspdup)` pairs.
    pub fn helps(&self, helper: IndexId) -> &[(IndexId, f64)] {
        &self.targets_by_helper[helper.raw()]
    }

    /// `cspdup(target, helper)` or 0 when no interaction exists.
    pub fn build_speedup(&self, target: IndexId, helper: IndexId) -> f64 {
        self.helpers_by_target[target.raw()]
            .iter()
            .find(|(h, _)| *h == helper)
            .map(|(_, s)| *s)
            .unwrap_or(0.0)
    }

    /// The effective creation cost of `target` given a bitmap of already
    /// built indexes: `ctime(i) − max_{j built} cspdup(i, j)`.
    pub fn effective_build_cost(&self, target: IndexId, built: &[bool]) -> f64 {
        let base = self.creation_cost(target);
        let best = self.helpers_by_target[target.raw()]
            .iter()
            .filter(|(h, _)| built[h.raw()])
            .map(|(_, s)| *s)
            .fold(0.0_f64, f64::max);
        base - best
    }

    /// The best possible creation cost of `target` (every helper available).
    pub fn min_build_cost(&self, target: IndexId) -> f64 {
        let best = self.helpers_by_target[target.raw()]
            .iter()
            .map(|(_, s)| *s)
            .fold(0.0_f64, f64::max);
        self.creation_cost(target) - best
    }

    /// Iterator over all index ids.
    pub fn index_ids(&self) -> impl Iterator<Item = IndexId> + '_ {
        (0..self.indexes.len()).map(IndexId::new)
    }

    /// Iterator over all query ids.
    pub fn query_ids(&self) -> impl Iterator<Item = QueryId> + '_ {
        (0..self.queries.len()).map(QueryId::new)
    }

    /// Iterator over all plan ids.
    pub fn plan_ids(&self) -> impl Iterator<Item = PlanId> + '_ {
        (0..self.plans.len()).map(PlanId::new)
    }

    /// Returns a builder pre-populated with this instance's content, useful
    /// for deriving reduced or modified instances.
    pub fn to_builder(&self) -> InstanceBuilder {
        let mut b = InstanceBuilder::new(self.name.clone());
        for idx in &self.indexes {
            b.push_index(idx.clone());
        }
        for q in &self.queries {
            b.push_query(q.clone());
        }
        for p in &self.plans {
            b.push_plan(p.clone());
        }
        for bi in &self.build_interactions {
            b.add_build_interaction(bi.target, bi.helper, bi.speedup);
        }
        for pr in &self.precedences {
            b.add_precedence(pr.before, pr.after);
        }
        b
    }
}

/// Builder for [`ProblemInstance`] with validation at [`InstanceBuilder::build`].
#[derive(Debug, Clone)]
pub struct InstanceBuilder {
    name: String,
    indexes: Vec<IndexMeta>,
    queries: Vec<QueryMeta>,
    plans: Vec<QueryPlan>,
    build_interactions: Vec<BuildInteraction>,
    precedences: Vec<Precedence>,
}

impl InstanceBuilder {
    /// Creates an empty builder.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            indexes: Vec::new(),
            queries: Vec::new(),
            plans: Vec::new(),
            build_interactions: Vec::new(),
            precedences: Vec::new(),
        }
    }

    /// Adds an index with only a creation cost; returns its id.
    pub fn add_index(&mut self, creation_cost: f64) -> IndexId {
        let id = IndexId::new(self.indexes.len());
        self.indexes.push(IndexMeta::simple(id, creation_cost));
        id
    }

    /// Adds an index with a name and creation cost; returns its id.
    pub fn add_named_index(&mut self, name: impl Into<String>, creation_cost: f64) -> IndexId {
        let id = IndexId::new(self.indexes.len());
        self.indexes
            .push(IndexMeta::named(id, name, "", Vec::new(), creation_cost));
        id
    }

    /// Adds a fully described index; its `id` field is overwritten with the
    /// next dense id, which is returned.
    pub fn push_index(&mut self, mut meta: IndexMeta) -> IndexId {
        let id = IndexId::new(self.indexes.len());
        meta.id = id;
        self.indexes.push(meta);
        id
    }

    /// Adds a query with only an original runtime; returns its id.
    pub fn add_query(&mut self, original_runtime: f64) -> QueryId {
        let id = QueryId::new(self.queries.len());
        self.queries.push(QueryMeta::simple(id, original_runtime));
        id
    }

    /// Adds a named query; returns its id.
    pub fn add_named_query(&mut self, name: impl Into<String>, original_runtime: f64) -> QueryId {
        let id = QueryId::new(self.queries.len());
        self.queries
            .push(QueryMeta::named(id, name, original_runtime));
        id
    }

    /// Adds a fully described query; its `id` field is overwritten with the
    /// next dense id, which is returned.
    pub fn push_query(&mut self, mut meta: QueryMeta) -> QueryId {
        let id = QueryId::new(self.queries.len());
        meta.id = id;
        self.queries.push(meta);
        id
    }

    /// Overrides the weight of an already-added query (used by workload
    /// drift, where only the relative importance of queries moves).
    ///
    /// # Panics
    /// Panics when `query` has not been added yet.
    pub fn set_query_weight(&mut self, query: QueryId, weight: f64) {
        self.queries[query.raw()].weight = weight;
    }

    /// Adds a plan for `query` requiring `indexes` with the given speed-up;
    /// returns its id.
    pub fn add_plan(&mut self, query: QueryId, indexes: Vec<IndexId>, speedup: f64) -> PlanId {
        let id = PlanId::new(self.plans.len());
        self.plans.push(QueryPlan::new(id, query, indexes, speedup));
        id
    }

    /// Adds a pre-built plan; its `id` field is overwritten with the next
    /// dense id, which is returned.
    pub fn push_plan(&mut self, mut plan: QueryPlan) -> PlanId {
        let id = PlanId::new(self.plans.len());
        plan.id = id;
        self.plans.push(plan);
        id
    }

    /// Declares that building `target` is `speedup` seconds cheaper when
    /// `helper` already exists.
    pub fn add_build_interaction(&mut self, target: IndexId, helper: IndexId, speedup: f64) {
        self.build_interactions
            .push(BuildInteraction::new(target, helper, speedup));
    }

    /// Declares that `before` must be deployed before `after`.
    pub fn add_precedence(&mut self, before: IndexId, after: IndexId) {
        self.precedences.push(Precedence::new(before, after));
    }

    /// Number of indexes added so far.
    pub fn num_indexes(&self) -> usize {
        self.indexes.len()
    }

    /// Number of queries added so far.
    pub fn num_queries(&self) -> usize {
        self.queries.len()
    }

    /// Number of plans added so far.
    pub fn num_plans(&self) -> usize {
        self.plans.len()
    }

    /// Validates the accumulated data and produces the immutable instance.
    pub fn build(self) -> Result<ProblemInstance> {
        let n = self.indexes.len();
        if n == 0 {
            return Err(CoreError::EmptyInstance);
        }

        for idx in &self.indexes {
            check_value(idx.creation_cost, || format!("creation cost of {}", idx.id))?;
        }
        for q in &self.queries {
            check_value(q.original_runtime, || {
                format!("original runtime of {}", q.id)
            })?;
            check_value(q.weight, || format!("weight of {}", q.id))?;
        }

        for plan in &self.plans {
            if plan.query.raw() >= self.queries.len() {
                return Err(CoreError::UnknownQuery(plan.query));
            }
            check_value(plan.speedup, || format!("speed-up of {}", plan.id))?;
            if plan.indexes.is_empty() {
                return Err(CoreError::EmptyPlan(plan.id));
            }
            let qtime = self.queries[plan.query.raw()].original_runtime;
            if plan.speedup > qtime + 1e-9 {
                return Err(CoreError::SpeedupExceedsRuntime {
                    plan: plan.id,
                    speedup: plan.speedup,
                    runtime: qtime,
                });
            }
            let mut seen = vec![false; n];
            for &i in &plan.indexes {
                if i.raw() >= n {
                    return Err(CoreError::UnknownIndex(i));
                }
                if seen[i.raw()] {
                    return Err(CoreError::DuplicateIndexInPlan {
                        plan: plan.id,
                        index: i,
                    });
                }
                seen[i.raw()] = true;
            }
        }

        for bi in &self.build_interactions {
            if bi.target.raw() >= n {
                return Err(CoreError::UnknownIndex(bi.target));
            }
            if bi.helper.raw() >= n {
                return Err(CoreError::UnknownIndex(bi.helper));
            }
            if bi.target == bi.helper {
                return Err(CoreError::SelfInteraction(bi.target));
            }
            check_value(bi.speedup, || {
                format!("build interaction speed-up on {}", bi.target)
            })?;
            let cost = self.indexes[bi.target.raw()].creation_cost;
            if bi.speedup > cost + 1e-9 {
                return Err(CoreError::InteractionExceedsBuildCost {
                    target: bi.target,
                    speedup: bi.speedup,
                    cost,
                });
            }
        }

        for pr in &self.precedences {
            if pr.before.raw() >= n {
                return Err(CoreError::UnknownIndex(pr.before));
            }
            if pr.after.raw() >= n {
                return Err(CoreError::UnknownIndex(pr.after));
            }
            if pr.before == pr.after {
                return Err(CoreError::SelfInteraction(pr.before));
            }
        }
        check_precedence_acyclic(n, &self.precedences)?;

        // Derived lookups.
        let mut plans_by_query = vec![Vec::new(); self.queries.len()];
        let mut plans_by_index = vec![Vec::new(); n];
        for plan in &self.plans {
            plans_by_query[plan.query.raw()].push(plan.id);
            for &i in &plan.indexes {
                plans_by_index[i.raw()].push(plan.id);
            }
        }
        let mut helpers_by_target = vec![Vec::new(); n];
        let mut targets_by_helper = vec![Vec::new(); n];
        for bi in &self.build_interactions {
            helpers_by_target[bi.target.raw()].push((bi.helper, bi.speedup));
            targets_by_helper[bi.helper.raw()].push((bi.target, bi.speedup));
        }

        Ok(ProblemInstance {
            name: self.name,
            indexes: self.indexes,
            queries: self.queries,
            plans: self.plans,
            build_interactions: self.build_interactions,
            precedences: self.precedences,
            plans_by_query,
            plans_by_index,
            helpers_by_target,
            targets_by_helper,
        })
    }
}

/// Checks that a numeric field (cost, runtime, weight, speed-up) is finite
/// and non-negative. `what` names the field; it is only built on error.
fn check_value(value: f64, what: impl Fn() -> String) -> Result<()> {
    check_finite(value, &what)?;
    if value < 0.0 {
        return Err(CoreError::NegativeValue {
            what: what(),
            value,
        });
    }
    Ok(())
}

/// Verifies the precedence graph has no cycle via Kahn's algorithm.
fn check_precedence_acyclic(n: usize, precedences: &[Precedence]) -> Result<()> {
    let mut indegree = vec![0usize; n];
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for pr in precedences {
        adj[pr.before.raw()].push(pr.after.raw());
        indegree[pr.after.raw()] += 1;
    }
    let mut queue: Vec<usize> = (0..n).filter(|&v| indegree[v] == 0).collect();
    let mut visited = 0usize;
    while let Some(v) = queue.pop() {
        visited += 1;
        for &w in &adj[v] {
            indegree[w] -= 1;
            if indegree[w] == 0 {
                queue.push(w);
            }
        }
    }
    if visited != n {
        let witness = indegree
            .iter()
            .position(|&d| d > 0)
            .map(IndexId::new)
            .unwrap_or(IndexId::new(0));
        return Err(CoreError::PrecedenceCycle { witness });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the paper's Section 4.2 running example:
    /// i0 = i1(City), i1 = i2(City, Salary); a query sped up 5s by {i0} and
    /// 20s by {i1}; i0 builds 3s faster given i1, i1 builds 2s faster given i0.
    pub(crate) fn competing_example() -> ProblemInstance {
        let mut b = ProblemInstance::builder("competing");
        let i_city = b.add_named_index("i(City)", 4.0);
        let i_cov = b.add_named_index("i(City,Salary)", 6.0);
        let q = b.add_named_query("avg_salary_by_city", 30.0);
        b.add_plan(q, vec![i_city], 5.0);
        b.add_plan(q, vec![i_cov], 20.0);
        b.add_build_interaction(i_city, i_cov, 3.0);
        b.add_build_interaction(i_cov, i_city, 2.0);
        b.build().unwrap()
    }

    #[test]
    fn builder_produces_consistent_lookups() {
        let inst = competing_example();
        assert_eq!(inst.num_indexes(), 2);
        assert_eq!(inst.num_queries(), 1);
        assert_eq!(inst.num_plans(), 2);
        assert_eq!(inst.plans_of_query(QueryId::new(0)).len(), 2);
        assert_eq!(inst.plans_using_index(IndexId::new(0)).len(), 1);
        assert_eq!(inst.baseline_runtime(), 30.0);
        assert_eq!(inst.total_base_build_cost(), 10.0);
    }

    #[test]
    fn build_speedup_lookup() {
        let inst = competing_example();
        assert_eq!(inst.build_speedup(IndexId::new(0), IndexId::new(1)), 3.0);
        assert_eq!(inst.build_speedup(IndexId::new(1), IndexId::new(0)), 2.0);
        assert_eq!(inst.build_speedup(IndexId::new(0), IndexId::new(0)), 0.0);
    }

    #[test]
    fn effective_build_cost_uses_best_available_helper() {
        let inst = competing_example();
        // Nothing built: base cost.
        assert_eq!(
            inst.effective_build_cost(IndexId::new(0), &[false, false]),
            4.0
        );
        // Helper built: cost drops by cspdup.
        assert_eq!(
            inst.effective_build_cost(IndexId::new(0), &[false, true]),
            1.0
        );
        assert_eq!(inst.min_build_cost(IndexId::new(0)), 1.0);
    }

    #[test]
    fn rejects_plan_with_unknown_index() {
        let mut b = ProblemInstance::builder("bad");
        let q = b.add_query(10.0);
        b.add_index(1.0);
        b.add_plan(q, vec![IndexId::new(5)], 1.0);
        assert!(matches!(b.build(), Err(CoreError::UnknownIndex(_))));
    }

    #[test]
    fn rejects_speedup_larger_than_runtime() {
        let mut b = ProblemInstance::builder("bad");
        let q = b.add_query(10.0);
        let i = b.add_index(1.0);
        b.add_plan(q, vec![i], 11.0);
        assert!(matches!(
            b.build(),
            Err(CoreError::SpeedupExceedsRuntime { .. })
        ));
    }

    #[test]
    fn rejects_build_interaction_exceeding_cost() {
        let mut b = ProblemInstance::builder("bad");
        let i0 = b.add_index(1.0);
        let i1 = b.add_index(2.0);
        b.add_build_interaction(i0, i1, 1.5);
        assert!(matches!(
            b.build(),
            Err(CoreError::InteractionExceedsBuildCost { .. })
        ));
    }

    #[test]
    fn rejects_precedence_cycle() {
        let mut b = ProblemInstance::builder("bad");
        let i0 = b.add_index(1.0);
        let i1 = b.add_index(1.0);
        let i2 = b.add_index(1.0);
        b.add_precedence(i0, i1);
        b.add_precedence(i1, i2);
        b.add_precedence(i2, i0);
        assert!(matches!(b.build(), Err(CoreError::PrecedenceCycle { .. })));
    }

    #[test]
    fn accepts_acyclic_precedence_chain() {
        let mut b = ProblemInstance::builder("ok");
        let i0 = b.add_index(1.0);
        let i1 = b.add_index(1.0);
        let i2 = b.add_index(1.0);
        b.add_precedence(i0, i1);
        b.add_precedence(i1, i2);
        assert!(b.build().is_ok());
    }

    #[test]
    fn rejects_empty_instance() {
        let b = ProblemInstance::builder("empty");
        assert!(matches!(b.build(), Err(CoreError::EmptyInstance)));
    }

    #[test]
    fn rejects_self_interaction() {
        let mut b = ProblemInstance::builder("bad");
        let i0 = b.add_index(1.0);
        b.add_build_interaction(i0, i0, 0.5);
        assert!(matches!(b.build(), Err(CoreError::SelfInteraction(_))));
    }

    #[test]
    fn rejects_non_finite_values() {
        let mut b = ProblemInstance::builder("nan");
        b.add_index(f64::NAN);
        let err = b.build().unwrap_err();
        assert!(matches!(err, CoreError::NonFiniteValue { .. }), "{err}");
        assert!(err.to_string().contains("must be finite"), "{err}");

        // (weight, plan speed-up, build interaction speed-up)
        let build = |weight: f64, speedup: f64, interaction: f64| {
            let mut b = ProblemInstance::builder("values");
            let i0 = b.add_index(4.0);
            let i1 = b.add_index(6.0);
            let mut q = QueryMeta::simple(QueryId::new(0), 30.0);
            q.weight = weight;
            let q = b.push_query(q);
            b.add_plan(q, vec![i0], speedup);
            b.add_build_interaction(i1, i0, interaction);
            b.build()
        };
        assert!(build(1.0, 5.0, 2.0).is_ok());
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            for values in [(bad, 5.0, 2.0), (1.0, bad, 2.0), (1.0, 5.0, bad)] {
                let err = build(values.0, values.1, values.2).unwrap_err();
                assert!(
                    matches!(err, CoreError::NonFiniteValue { .. }),
                    "{values:?}: {err}"
                );
            }
        }
        assert!(matches!(
            build(-1.0, 5.0, 2.0),
            Err(CoreError::NegativeValue { .. })
        ));
    }

    #[test]
    fn weighted_runtime_and_speedup_scale_with_weight() {
        let mut b = ProblemInstance::builder("weighted");
        let i0 = b.add_index(1.0);
        let mut q = QueryMeta::simple(QueryId::new(0), 10.0);
        q.weight = 3.0;
        let q = b.push_query(q);
        b.add_plan(q, vec![i0], 4.0);
        let inst = b.build().unwrap();
        assert_eq!(inst.query_runtime(QueryId::new(0)), 30.0);
        assert_eq!(inst.plan_speedup(PlanId::new(0)), 12.0);
        assert_eq!(inst.baseline_runtime(), 30.0);
    }

    #[test]
    fn serde_round_trip_rebuilds_lookups() {
        let inst = competing_example();
        let json = serde_json::to_string(&inst).unwrap();
        let back: ProblemInstance = serde_json::from_str(&json).unwrap();
        assert_eq!(back.num_plans(), inst.num_plans());
        assert_eq!(back.plans_using_index(IndexId::new(1)).len(), 1);
        assert_eq!(back.build_speedup(IndexId::new(0), IndexId::new(1)), 3.0);
    }

    #[test]
    fn to_builder_round_trips() {
        let inst = competing_example();
        let rebuilt = inst.to_builder().build().unwrap();
        assert_eq!(rebuilt.num_indexes(), inst.num_indexes());
        assert_eq!(rebuilt.num_plans(), inst.num_plans());
        assert_eq!(rebuilt.baseline_runtime(), inst.baseline_runtime());
    }
}
