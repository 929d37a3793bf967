//! Typed deployment-journal records: the append-only execution log of a
//! deployment run.
//!
//! A deployment runtime (the `idd-deploy` crate) appends one record per
//! observable action — dispatching a build into a slot, a failed attempt, a
//! completion, an evolution event landing, a replan decision — each stamped
//! with the exact deployment clock and, where it applies, the slot. The journal is the *ground truth* of what a
//! run did: replaying it against the seed instance and initial plan must
//! reconstruct the identical `DeploymentReport` bit-for-bit, which is why
//! every `f64` here is the exact value the runtime computed (no rounding,
//! no derived quantities that could drift).
//!
//! The record model lives in `idd-core` next to [`crate::evolution`] for the
//! same reason the evolution model does: a journal is part of the *problem
//! record* for evolving OLAP — what happened, when — not of any particular
//! runtime. The runtime-side container and replayer live in
//! `idd_deploy::journal`.
//!
//! Like [`crate::evolution::EventKind`], the record enum serializes as a
//! tagged single-key object (`{"dispatch": {...}}`), hand-rolled because the
//! vendored serde derive supports field-less enums only. Deserialization is
//! strict: unknown tags, multi-key or non-object payloads, and duplicate
//! fields are errors, never defaults.

use crate::error::{check_finite, Result};
use crate::evolution::EvolutionEvent;
use crate::types::IndexId;
use serde::{Deserialize, Serialize};

/// A build was dispatched into a free slot.
///
/// Carries everything replay needs to reconstruct the build's slot
/// occupancy without the scenario: the effective cost the runtime computed
/// at dispatch and the failure spec it looked up (`retries` failed attempts
/// of `waste_per_failure` clock each precede the successful attempt).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DispatchRecord {
    /// Deployment clock at dispatch (the build's `start`).
    pub clock: f64,
    /// Slot the build occupies until completion.
    pub slot: usize,
    /// Dispatch sequence number (position in the realized order, 0-based).
    pub position: usize,
    /// The index being built.
    pub index: IndexId,
    /// How far into the pending suffix the dispatcher reached (0 = the
    /// planned head; `d > 0` = a work-conserving overtake past `d` blocked
    /// indexes).
    pub plan_offset: usize,
    /// Effective build cost, priced against the indexes *completed* at
    /// dispatch.
    pub cost: f64,
    /// Failed attempts this build suffers before succeeding.
    pub retries: u32,
    /// Clock wasted per failed attempt.
    pub waste_per_failure: f64,
}

/// One failed build attempt inside an occupied slot.
///
/// Redundant with the owning [`DispatchRecord`] by construction — replay
/// recomputes each attempt and cross-checks these stamps, so a journal
/// edited or corrupted mid-flight surfaces as divergence instead of a
/// silently different report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailRecord {
    /// Deployment clock at which this attempt started.
    pub clock: f64,
    /// Slot the failing build occupies.
    pub slot: usize,
    /// The index whose build attempt failed.
    pub index: IndexId,
    /// Attempt number, 1-based.
    pub attempt: u32,
    /// Clock this attempt wasted.
    pub wasted: f64,
}

/// A build completed and its index became available.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompleteRecord {
    /// Deployment clock at completion (the build's `finish`).
    pub clock: f64,
    /// Slot the build vacated.
    pub slot: usize,
    /// The index that became available.
    pub index: IndexId,
    /// Cumulative realized cost after integrating up to this completion —
    /// the exact accumulator rounded once, which is what a realized-cost-
    /// over-time polyline plots and what replay cross-checks bit-for-bit.
    pub realized: f64,
}

/// An evolution event landed at a completion boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Deployment clock when the event took effect (`max(clock, event.at)`:
    /// events land at the first boundary at or after their timestamp).
    pub clock: f64,
    /// The event, verbatim.
    pub event: EvolutionEvent,
}

/// A replan fired: the runtime chose a new pending suffix.
///
/// Stores the *decision* (the chosen order and the solver's scoring), not
/// the runtime's frozen-commitment snapshot — replay reconstructs that from
/// its own committed/in-flight state, so a journal whose suffix contradicts
/// the frozen prefix fails plan validation instead of replaying quietly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplanDecision {
    /// Deployment clock at which the replan happened.
    pub clock: f64,
    /// What triggered it ("drift", "revision", "failure", or a `+`-joined
    /// batch).
    pub trigger: String,
    /// The chosen pending suffix, in execution order.
    pub pending: Vec<IndexId>,
    /// Residual objective of the order previously in flight, if it was
    /// still usable as a warm start.
    pub warm_start_objective: Option<f64>,
    /// Residual objective of the chosen suffix.
    pub objective: f64,
    /// Which solver produced the chosen order.
    pub solver: String,
    /// `true` when the replan strictly improved on the in-flight order.
    pub improved: bool,
}

/// One record of a deployment journal, in the order the runtime acted.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A build was dispatched into a slot.
    Dispatch(DispatchRecord),
    /// A build attempt failed inside its slot.
    Fail(FailRecord),
    /// A build completed.
    Complete(CompleteRecord),
    /// An evolution event landed.
    EventLanded(EventRecord),
    /// A replan chose a new pending suffix.
    Replan(ReplanDecision),
}

impl JournalRecord {
    /// The deployment clock stamped on the record.
    pub fn clock(&self) -> f64 {
        match self {
            JournalRecord::Dispatch(r) => r.clock,
            JournalRecord::Fail(r) => r.clock,
            JournalRecord::Complete(r) => r.clock,
            JournalRecord::EventLanded(r) => r.clock,
            JournalRecord::Replan(r) => r.clock,
        }
    }

    /// The finite-value contract: every number the record carries is
    /// finite, as in every record a run writes.
    pub fn check_finite(&self) -> Result<()> {
        let numbers: &[(&str, f64)] = match self {
            JournalRecord::Dispatch(r) => &[
                ("clock", r.clock),
                ("cost", r.cost),
                ("waste_per_failure", r.waste_per_failure),
            ],
            JournalRecord::Fail(r) => &[("clock", r.clock), ("wasted", r.wasted)],
            JournalRecord::Complete(r) => &[("clock", r.clock), ("realized", r.realized)],
            JournalRecord::EventLanded(r) => &[("clock", r.clock), ("at", r.event.at)],
            JournalRecord::Replan(r) => &[
                ("clock", r.clock),
                ("objective", r.objective),
                (
                    "warm_start_objective",
                    r.warm_start_objective.unwrap_or(0.0),
                ),
            ],
        };
        for &(field, value) in numbers {
            check_finite(value, || format!("{} record's {field}", self.tag()))?;
        }
        Ok(())
    }

    /// The record's tag, as serialized ("dispatch", "fail", "complete",
    /// "event", "replan").
    pub fn tag(&self) -> &'static str {
        match self {
            JournalRecord::Dispatch(_) => "dispatch",
            JournalRecord::Fail(_) => "fail",
            JournalRecord::Complete(_) => "complete",
            JournalRecord::EventLanded(_) => "event",
            JournalRecord::Replan(_) => "replan",
        }
    }
}

// The vendored serde derive supports field-less enums only, so the tagged
// representation (`{"dispatch": {...}}`, ...) is hand-rolled, exactly like
// `EventKind`'s.
impl Serialize for JournalRecord {
    fn to_value(&self) -> serde::Value {
        let (tag, value) = match self {
            JournalRecord::Dispatch(r) => ("dispatch", r.to_value()),
            JournalRecord::Fail(r) => ("fail", r.to_value()),
            JournalRecord::Complete(r) => ("complete", r.to_value()),
            JournalRecord::EventLanded(r) => ("event", r.to_value()),
            JournalRecord::Replan(r) => ("replan", r.to_value()),
        };
        serde::Value::Object(vec![(tag.to_string(), value)])
    }
}

impl Deserialize for JournalRecord {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        match v.as_object() {
            Some([(tag, value)]) => match tag.as_str() {
                "dispatch" => Ok(JournalRecord::Dispatch(Deserialize::from_value(value)?)),
                "fail" => Ok(JournalRecord::Fail(Deserialize::from_value(value)?)),
                "complete" => Ok(JournalRecord::Complete(Deserialize::from_value(value)?)),
                "event" => Ok(JournalRecord::EventLanded(Deserialize::from_value(value)?)),
                "replan" => Ok(JournalRecord::Replan(Deserialize::from_value(value)?)),
                other => Err(serde::Error::custom(format!(
                    "unknown JournalRecord tag `{other}`"
                ))),
            },
            _ => Err(serde::Error::custom(
                "expected a single-key object for JournalRecord",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evolution::{EventKind, WorkloadDrift};
    use crate::types::QueryId;

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Dispatch(DispatchRecord {
                clock: 0.0,
                slot: 0,
                position: 0,
                index: IndexId::new(2),
                plan_offset: 1,
                cost: 4.5,
                retries: 2,
                waste_per_failure: 1.25,
            }),
            JournalRecord::Fail(FailRecord {
                clock: 0.0,
                slot: 0,
                index: IndexId::new(2),
                attempt: 1,
                wasted: 1.25,
            }),
            JournalRecord::Complete(CompleteRecord {
                clock: 7.0,
                slot: 0,
                index: IndexId::new(2),
                realized: 123.456,
            }),
            JournalRecord::EventLanded(EventRecord {
                clock: 7.0,
                event: EvolutionEvent {
                    at: 6.5,
                    kind: EventKind::Drift(WorkloadDrift {
                        weights: vec![(QueryId::new(1), 3.0)],
                    }),
                },
            }),
            JournalRecord::Replan(ReplanDecision {
                clock: 7.0,
                trigger: "drift+failure".into(),
                pending: vec![IndexId::new(1), IndexId::new(0)],
                warm_start_objective: Some(99.5),
                objective: 88.25,
                solver: "greedy".into(),
                improved: true,
            }),
        ]
    }

    #[test]
    fn every_record_round_trips_through_json() {
        for record in sample_records() {
            let json = serde_json::to_string(&record).unwrap();
            let back: JournalRecord = serde_json::from_str(&json).unwrap();
            assert_eq!(back, record, "round trip of {json}");
            // The serialized form is the tagged single-key object.
            assert!(
                json.starts_with(&format!("{{\"{}\":", record.tag())),
                "{json}"
            );
        }
    }

    #[test]
    fn clock_and_tag_accessors_cover_every_variant() {
        let clocks: Vec<f64> = sample_records().iter().map(JournalRecord::clock).collect();
        assert_eq!(clocks, vec![0.0, 0.0, 7.0, 7.0, 7.0]);
        let tags: Vec<&str> = sample_records().iter().map(JournalRecord::tag).collect();
        assert_eq!(
            tags,
            vec!["dispatch", "fail", "complete", "event", "replan"]
        );
    }

    #[test]
    fn malformed_payloads_error_instead_of_defaulting() {
        use serde::Value;
        // Unknown tag.
        let unknown = Value::Object(vec![("retry".into(), Value::Object(vec![]))]);
        assert!(JournalRecord::from_value(&unknown).is_err());
        // Multi-key object is ambiguous, not first-wins.
        let multi = Value::Object(vec![
            ("replan".into(), Value::Object(vec![])),
            ("dispatch".into(), Value::Object(vec![])),
        ]);
        assert!(JournalRecord::from_value(&multi).is_err());
        // Empty object and non-object payloads.
        assert!(JournalRecord::from_value(&Value::Object(vec![])).is_err());
        assert!(JournalRecord::from_value(&Value::String("dispatch".into())).is_err());
        // A tag whose payload is missing required fields.
        let hollow = Value::Object(vec![("complete".into(), Value::Object(vec![]))]);
        assert!(JournalRecord::from_value(&hollow).is_err());
    }
}
