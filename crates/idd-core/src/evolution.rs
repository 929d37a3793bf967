//! Evolution events: how a deployment's world changes mid-flight.
//!
//! The paper's motivating scenario (Section 1) is an OLAP installation whose
//! workload *evolves while indexes are still being deployed*: query mixes
//! shift, the design advisor revises the target index set, builds fail and
//! must be retried. This module is the declarative model of those changes —
//! a seeded, fully deterministic [`EvolutionScenario`] that a deployment
//! runtime (the `idd-deploy` crate) replays against a running schedule.
//!
//! The model deliberately lives in `idd-core`: an evolution scenario is part
//! of the *problem statement* for evolving OLAP, not of any particular
//! runtime or solver. Generators for realistic scenarios live in
//! `idd-workloads`.

use crate::error::{check_finite, CoreError, Result};
use crate::instance::ProblemInstance;
use crate::types::{IndexId, QueryId};
use serde::{Deserialize, Serialize};

/// A workload drift: some queries change weight (the paper notes weighting a
/// query is equivalent to scaling its runtime, so this models both "this
/// report is suddenly hot" and "that dashboard was retired").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadDrift {
    /// `(query, new weight)` pairs; queries not listed keep their weight.
    pub weights: Vec<(QueryId, f64)>,
}

impl WorkloadDrift {
    /// Applies the drift to an instance, returning the re-weighted instance.
    /// Ids are unchanged; only query weights move.
    ///
    /// Scenarios are serde round-trippable, so a stale scenario may name
    /// queries the instance does not have: that is an error, never a panic.
    pub fn apply_to(&self, instance: &ProblemInstance) -> Result<ProblemInstance> {
        let mut b = instance.to_builder();
        for &(q, w) in &self.weights {
            if q.raw() >= instance.num_queries() {
                return Err(CoreError::UnknownQuery(q));
            }
            b.set_query_weight(q, w.max(0.0));
        }
        b.build()
    }
}

/// One index added to the target set by a design revision.
///
/// References to existing structure use parent-instance ids; the new index
/// itself receives the next dense id when the revision is applied. To keep
/// revisions composable and id-stable, a new index's plans pair it only with
/// *existing* indexes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IndexAddition {
    /// Human-readable name of the new index.
    pub name: String,
    /// `ctime` of the new index.
    pub creation_cost: f64,
    /// Plans gained: `(query, existing partner indexes, speedup)`. The new
    /// index is implicitly part of every listed plan.
    pub plans: Vec<(QueryId, Vec<IndexId>, f64)>,
    /// Existing indexes whose presence speeds up building the new one, as
    /// `(helper, saving)`.
    pub helped_by: Vec<(IndexId, f64)>,
    /// Existing indexes the new one can speed up, as `(target, saving)`.
    /// Targets that are already built simply gain nothing.
    pub helps: Vec<(IndexId, f64)>,
    /// Existing indexes that must be deployed before the new one. Safe by
    /// construction: the new index is always unbuilt when the revision
    /// lands, so the constraint can never contradict the frozen prefix.
    pub after: Vec<IndexId>,
}

/// A design revision: indexes added to and/or dropped from the target set.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DesignRevision {
    /// New candidate indexes (appended with fresh dense ids, in order).
    pub add: Vec<IndexAddition>,
    /// Indexes retracted from the target set. Already-built indexes cannot
    /// be retracted (the runtime counts such requests as ineffective).
    pub drop: Vec<IndexId>,
}

impl DesignRevision {
    /// Applies the *additions* of this revision to an instance, returning
    /// the extended instance and the ids assigned to the new indexes.
    /// Drops are not applied here: retracted indexes stay in the instance
    /// (ids must remain stable) and are excluded from scheduling by the
    /// runtime via the `excluded` set of
    /// [`ProblemInstance::residual_for_replan`].
    ///
    /// Out-of-model values are clamped rather than rejected: a plan speed-up
    /// is capped at the query's runtime, an interaction saving at the
    /// target's creation cost — a revision describes intent, and the model's
    /// invariants win. References to queries or indexes the instance does
    /// not have are errors (a stale, deserialized scenario must surface as
    /// a failed event, never a panic).
    pub fn apply_additions(
        &self,
        instance: &ProblemInstance,
    ) -> Result<(ProblemInstance, Vec<IndexId>)> {
        for add in &self.add {
            if let Some(&(query, _, _)) = add
                .plans
                .iter()
                .find(|(q, _, _)| q.raw() >= instance.num_queries())
            {
                return Err(CoreError::UnknownQuery(query));
            }
            if let Some(&(target, _)) = add
                .helps
                .iter()
                .find(|(t, _)| t.raw() >= instance.num_indexes())
            {
                return Err(CoreError::UnknownIndex(target));
            }
        }
        let mut b = instance.to_builder();
        let mut new_ids = Vec::with_capacity(self.add.len());
        for add in &self.add {
            let id = b.add_named_index(add.name.clone(), add.creation_cost.max(0.0));
            new_ids.push(id);
        }
        for (add, &id) in self.add.iter().zip(&new_ids) {
            for (query, partners, speedup) in &add.plans {
                let mut indexes = partners.clone();
                indexes.push(id);
                let cap = instance.query(*query).original_runtime;
                b.add_plan(*query, indexes, speedup.clamp(0.0, cap));
            }
            for &(helper, saving) in &add.helped_by {
                b.add_build_interaction(id, helper, saving.clamp(0.0, add.creation_cost));
            }
            for &(target, saving) in &add.helps {
                let cap = instance.creation_cost(target);
                b.add_build_interaction(target, id, saving.clamp(0.0, cap));
            }
            for &before in &add.after {
                b.add_precedence(before, id);
            }
        }
        Ok((b.build()?, new_ids))
    }
}

/// What changes at one point of the deployment clock.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// Query weights change.
    Drift(WorkloadDrift),
    /// The target index set is revised.
    Revision(DesignRevision),
}

// The vendored serde derive supports field-less enums only, so the tagged
// representation (`{"drift": {...}}` / `{"revision": {...}}`) is hand-rolled.
impl Serialize for EventKind {
    fn to_value(&self) -> serde::Value {
        let (tag, value) = match self {
            EventKind::Drift(d) => ("drift", d.to_value()),
            EventKind::Revision(r) => ("revision", r.to_value()),
        };
        serde::Value::Object(vec![(tag.to_string(), value)])
    }
}

impl Deserialize for EventKind {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        match v.as_object() {
            Some([(tag, value)]) => match tag.as_str() {
                "drift" => Ok(EventKind::Drift(Deserialize::from_value(value)?)),
                "revision" => Ok(EventKind::Revision(Deserialize::from_value(value)?)),
                other => Err(serde::Error::custom(format!(
                    "unknown EventKind tag `{other}`"
                ))),
            },
            _ => Err(serde::Error::custom(
                "expected a single-key object for EventKind",
            )),
        }
    }
}

/// One evolution event, stamped with the deployment-clock time at which it
/// becomes visible. A deterministic runtime applies events at the first
/// build boundary at or after `at` (an in-flight build is atomic).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvolutionEvent {
    /// Deployment-clock time at which the event lands.
    pub at: f64,
    /// What changes.
    pub kind: EventKind,
}

/// A deterministic build-failure specification: the first `failures`
/// attempts to build `index` fail after `waste_fraction` of its effective
/// build cost has been spent, then the build succeeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BuildFailure {
    /// The index whose build fails.
    pub index: IndexId,
    /// Number of failed attempts before success.
    pub failures: u32,
    /// Fraction of the effective build cost wasted per failed attempt
    /// (clamped to `[0, 1]` by consumers).
    pub waste_fraction: f64,
}

/// A complete, seeded evolution scenario: timed events plus per-index build
/// failures. Replayed deterministically by the deployment runtime.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EvolutionScenario {
    /// Scenario name (reports and tables).
    pub name: String,
    /// Timed events; the runtime processes them in `at` order (ties in
    /// listed order).
    pub events: Vec<EvolutionEvent>,
    /// Build failures, keyed by index.
    pub failures: Vec<BuildFailure>,
}

impl EvolutionScenario {
    /// An empty scenario (nothing ever changes).
    pub fn quiet(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            events: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// `true` when the scenario contains no events and no failures.
    pub fn is_quiet(&self) -> bool {
        self.events.is_empty() && self.failures.is_empty()
    }

    /// The finite-value contract: every event time and every failure's
    /// waste fraction is finite. (A drift weight or a revision's costs are
    /// checked where they enter an instance, by its builder.)
    pub fn check_finite(&self) -> Result<()> {
        for (k, event) in self.events.iter().enumerate() {
            check_finite(event.at, || format!("time of event {k}"))?;
        }
        for failure in &self.failures {
            check_finite(failure.waste_fraction, || {
                format!("waste fraction of {}", failure.index)
            })?;
        }
        Ok(())
    }

    /// The events sorted by time (stable: ties keep their listed order).
    pub fn sorted_events(&self) -> Vec<EvolutionEvent> {
        let mut events = self.events.clone();
        events.sort_by(|a, b| a.at.total_cmp(&b.at));
        events
    }

    /// The failure spec for one index, if any.
    pub fn failure_for(&self, index: IndexId) -> Option<&BuildFailure> {
        self.failures.iter().find(|f| f.index == index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ProblemInstance {
        let mut b = ProblemInstance::builder("evo");
        let i0 = b.add_index(4.0);
        let i1 = b.add_index(6.0);
        let q0 = b.add_query(30.0);
        b.add_plan(q0, vec![i0], 5.0);
        b.add_plan(q0, vec![i1], 20.0);
        b.add_build_interaction(i1, i0, 2.0);
        b.build().unwrap()
    }

    #[test]
    fn drift_rescales_weights_only() {
        let inst = base();
        let drift = WorkloadDrift {
            weights: vec![(QueryId::new(0), 3.0)],
        };
        let drifted = drift.apply_to(&inst).unwrap();
        assert_eq!(drifted.baseline_runtime(), 90.0);
        assert_eq!(drifted.num_indexes(), inst.num_indexes());
        assert_eq!(drifted.num_plans(), inst.num_plans());
        // Negative weights are clamped to zero, not rejected.
        let zeroed = WorkloadDrift {
            weights: vec![(QueryId::new(0), -1.0)],
        }
        .apply_to(&inst)
        .unwrap();
        assert_eq!(zeroed.baseline_runtime(), 0.0);
    }

    #[test]
    fn infinite_drift_weight_is_an_error() {
        let drift = WorkloadDrift {
            weights: vec![(QueryId::new(0), f64::INFINITY)],
        };
        assert!(matches!(
            drift.apply_to(&base()),
            Err(CoreError::NonFiniteValue { .. })
        ));
    }

    #[test]
    fn revision_appends_indexes_with_stable_existing_ids() {
        let inst = base();
        let revision = DesignRevision {
            add: vec![IndexAddition {
                name: "i_new".into(),
                creation_cost: 3.0,
                plans: vec![(QueryId::new(0), vec![IndexId::new(0)], 12.0)],
                helped_by: vec![(IndexId::new(1), 1.0)],
                helps: vec![(IndexId::new(0), 99.0)], // clamped to ctime(i0)
                after: vec![IndexId::new(0)],
            }],
            drop: vec![IndexId::new(1)],
        };
        let (revised, new_ids) = revision.apply_additions(&inst).unwrap();
        assert_eq!(new_ids, vec![IndexId::new(2)]);
        assert_eq!(revised.num_indexes(), 3);
        // Existing structure untouched.
        assert_eq!(revised.creation_cost(IndexId::new(0)), 4.0);
        assert_eq!(revised.build_speedup(IndexId::new(1), IndexId::new(0)), 2.0);
        // New structure in place, with the oversized saving clamped.
        assert_eq!(revised.build_speedup(IndexId::new(2), IndexId::new(1)), 1.0);
        assert_eq!(revised.build_speedup(IndexId::new(0), IndexId::new(2)), 4.0);
        assert_eq!(revised.precedences().len(), 1);
        // The new plan contains the new index plus its partner.
        let plans = revised.plans_using_index(IndexId::new(2));
        assert_eq!(plans.len(), 1);
        assert_eq!(revised.plan(plans[0]).width(), 2);
        // Drops are *not* applied here (ids must stay stable).
        assert_eq!(revision.drop, vec![IndexId::new(1)]);
    }

    #[test]
    fn stale_ids_error_instead_of_panicking() {
        let inst = base();
        // Drift naming a query the instance does not have.
        let drift = WorkloadDrift {
            weights: vec![(QueryId::new(9), 2.0)],
        };
        assert!(matches!(
            drift.apply_to(&inst),
            Err(CoreError::UnknownQuery(_))
        ));
        // Addition whose plan targets an unknown query.
        let bad_plan = DesignRevision {
            add: vec![IndexAddition {
                name: "x".into(),
                creation_cost: 1.0,
                plans: vec![(QueryId::new(9), vec![], 1.0)],
                helped_by: vec![],
                helps: vec![],
                after: vec![],
            }],
            drop: vec![],
        };
        assert!(matches!(
            bad_plan.apply_additions(&inst),
            Err(CoreError::UnknownQuery(_))
        ));
        // Addition helping an unknown index.
        let bad_helps = DesignRevision {
            add: vec![IndexAddition {
                name: "y".into(),
                creation_cost: 1.0,
                plans: vec![],
                helped_by: vec![],
                helps: vec![(IndexId::new(42), 0.5)],
                after: vec![],
            }],
            drop: vec![],
        };
        assert!(matches!(
            bad_helps.apply_additions(&inst),
            Err(CoreError::UnknownIndex(_))
        ));
        // Unknown partner / helper / precedence ids surface through the
        // builder's own validation rather than a panic.
        let bad_partner = DesignRevision {
            add: vec![IndexAddition {
                name: "z".into(),
                creation_cost: 1.0,
                plans: vec![(QueryId::new(0), vec![IndexId::new(42)], 1.0)],
                helped_by: vec![],
                helps: vec![],
                after: vec![],
            }],
            drop: vec![],
        };
        assert!(bad_partner.apply_additions(&inst).is_err());
    }

    #[test]
    fn scenario_sorting_is_stable_and_failure_lookup_works() {
        let drift = |at: f64| EvolutionEvent {
            at,
            kind: EventKind::Drift(WorkloadDrift { weights: vec![] }),
        };
        let scenario = EvolutionScenario {
            name: "s".into(),
            events: vec![drift(5.0), drift(1.0), drift(5.0)],
            failures: vec![BuildFailure {
                index: IndexId::new(1),
                failures: 2,
                waste_fraction: 0.5,
            }],
        };
        assert!(!scenario.is_quiet());
        let sorted = scenario.sorted_events();
        assert_eq!(
            sorted.iter().map(|e| e.at).collect::<Vec<_>>(),
            vec![1.0, 5.0, 5.0]
        );
        assert!(scenario.failure_for(IndexId::new(1)).is_some());
        assert!(scenario.failure_for(IndexId::new(0)).is_none());
        assert!(EvolutionScenario::quiet("q").is_quiet());
    }

    #[test]
    fn serde_round_trip() {
        let scenario = EvolutionScenario {
            name: "rt".into(),
            events: vec![EvolutionEvent {
                at: 2.5,
                kind: EventKind::Revision(DesignRevision {
                    add: vec![],
                    drop: vec![IndexId::new(0)],
                }),
            }],
            failures: vec![],
        };
        let json = serde_json::to_string(&scenario).unwrap();
        let back: EvolutionScenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, scenario);
    }
}
