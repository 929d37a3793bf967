//! The deployment journal: the append-only record of a run, and the
//! replayer that reconstructs the run's report from it — bit-for-bit.
//!
//! [`DeployRuntime::execute_journaled`](crate::DeployRuntime::execute_journaled)
//! emits one typed [`JournalRecord`] per action taken (dispatch, failed
//! attempt, completion, event landing, replan decision), each stamped with
//! the exact clock and slot. [`DeploymentJournal`] holds them in order and
//! serializes to JSONL — one compact JSON object per line — via the
//! vendored serde, so a journal survives a process boundary.
//!
//! [`replay`] consumes a journal plus the *seed* of the run (the original
//! instance and initial plan) and feeds each recorded decision into the
//! runtime's own transitions — one per record kind, the very code the live
//! event loop drives (see the [`crate::runtime`] module docs). The result is
//! the identical [`DeploymentReport`], field by field, `f64`s compared by
//! bit pattern — the property the `journal_replay` proptest wall pins across
//! the serial-equivalence scenario grid. Replay is also a *verifier*: every
//! stamp a transition derives (dispatch costs, attempt clocks, completion
//! clocks, running realized cost) is cross-checked against the recorded
//! one, so a truncated, reordered, or hand-edited journal surfaces as
//! [`ReplayError::Diverged`] instead of a quietly different report, and a
//! record carrying a non-finite number as [`ReplayError::InvalidRecord`].
//!
//! What replay does *not* need is exactly what makes the journal a faithful
//! record: no scenario (events are embedded verbatim, failure specs ride on
//! the dispatch records), no solver (replans carry their chosen suffix), no
//! policy knobs (slot assignment is explicit on every record).

use crate::report::DeploymentReport;
use crate::runtime::{DeployError, RunState};
use idd_core::{
    CoreError, Deployment, IndexId, JournalRecord, ObjectiveEvaluator, ProblemInstance,
};
use std::rc::Rc;

/// An ordered, append-only record of one deployment run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DeploymentJournal {
    records: Vec<JournalRecord>,
}

impl DeploymentJournal {
    /// Wraps an ordered record list into a journal.
    pub fn new(records: Vec<JournalRecord>) -> Self {
        Self { records }
    }

    /// The records, in the order the runtime acted.
    pub fn records(&self) -> &[JournalRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when the run took no recorded action (an empty plan against a
    /// quiet scenario).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Serializes the journal to JSONL: one compact JSON object per record,
    /// one record per line, in order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for record in &self.records {
            out.push_str(
                &serde_json::to_string(record).expect("journal serialization is infallible"),
            );
            out.push('\n');
        }
        out
    }

    /// Parses a journal from JSONL text (blank lines are skipped). Any
    /// malformed line is an error naming its 1-based line number.
    pub fn from_jsonl(text: &str) -> Result<Self, ReplayError> {
        let mut records = Vec::new();
        for (number, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let record: JournalRecord =
                serde_json::from_str(line).map_err(|e| ReplayError::Malformed {
                    line: number + 1,
                    message: e.to_string(),
                })?;
            records.push(record);
        }
        Ok(Self { records })
    }
}

/// Why a replay could not reconstruct the report.
#[derive(Debug)]
pub enum ReplayError {
    /// A journal line failed to parse as a [`JournalRecord`]. The line
    /// number is 1-based and typed (not baked into the message), so
    /// callers — the `replay` CLI in particular — can point at the exact
    /// offending line of the input file.
    Malformed {
        /// 1-based line number of the offending JSONL line.
        line: usize,
        /// The parse error for that line.
        message: String,
    },
    /// The journal contradicts what re-execution derives from the seed
    /// instance — a stamp fails its bit-for-bit cross-check, a record refers
    /// to state that does not exist (an index not pending, a completion with
    /// nothing in flight, an occupied slot), or a replanned plan fails
    /// validation. The journal and the seed do not describe the same run.
    Diverged(String),
    /// A record breaks the finite-value contract
    /// ([`JournalRecord::check_finite`]): a run never writes a non-finite
    /// number, so the journal was edited or corrupted.
    InvalidRecord {
        /// 1-based position of the record in the journal.
        record: usize,
        /// The contract violation.
        error: CoreError,
    },
    /// Re-applying a recorded event failed the same way it would have
    /// failed live (e.g. a revision referencing unknown structure).
    Run(DeployError),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Malformed { line, message } => {
                write!(f, "malformed journal: line {line}: {message}")
            }
            ReplayError::Diverged(msg) => write!(f, "replay diverged from journal: {msg}"),
            ReplayError::InvalidRecord { record, error } => {
                write!(f, "invalid journal record {record}: {error}")
            }
            ReplayError::Run(e) => write!(f, "replay failed: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<DeployError> for ReplayError {
    fn from(e: DeployError) -> Self {
        ReplayError::Run(e)
    }
}

fn diverged(msg: impl Into<String>) -> ReplayError {
    ReplayError::Diverged(msg.into())
}

/// Exact bit-pattern equality check for a recorded `f64` stamp.
fn check_bits(what: &str, recorded: f64, derived: f64) -> Result<(), ReplayError> {
    if recorded.to_bits() != derived.to_bits() {
        return Err(diverged(format!(
            "{what}: journal says {recorded}, replay derives {derived}"
        )));
    }
    Ok(())
}

/// Position in the in-flight list of the build of `index`, which a `what`
/// record says occupies `slot`.
fn in_flight_at(
    state: &RunState,
    what: &str,
    index: IndexId,
    slot: usize,
) -> Result<usize, ReplayError> {
    let in_flight = state.schedule.in_flight();
    let at = in_flight
        .iter()
        .position(|f| f.index == index)
        .ok_or_else(|| diverged(format!("{what} of {index} with no such build in flight")))?;
    if in_flight[at].slot != slot {
        return Err(diverged(format!(
            "{what} of {index} in slot {slot} but the build occupies slot {}",
            in_flight[at].slot
        )));
    }
    Ok(at)
}

/// Reconstructs the [`DeploymentReport`] of the run that produced `journal`,
/// given the run's seed: the original instance and the initial plan.
///
/// The reconstruction is **bit-for-bit** because it drives the runtime's own
/// transitions — the same state machine, [`idd_core::ExactSum`] accumulator
/// and [`idd_core::PrefixState`] over the completed set as
/// [`DeployRuntime::execute`](crate::DeployRuntime::execute) — taking every
/// *decision* (what to dispatch where, what suffix a replan chose) from
/// the journal instead of from a scenario, solver, or config.
/// Every stamp a transition derives is cross-checked against the recorded
/// one; any mismatch is a [`ReplayError::Diverged`].
pub fn replay(
    instance: &ProblemInstance,
    initial: &Deployment,
    journal: &DeploymentJournal,
) -> Result<DeploymentReport, ReplayError> {
    initial
        .validate(instance)
        .map_err(DeployError::InvalidInitialPlan)?;
    let mut state = RunState::new(instance, initial);
    // One completed set, rebuilt only when a landed event changes the
    // instance — exactly as the live loop keeps it.
    let mut current = Rc::clone(&state.instance);
    let mut evaluator = ObjectiveEvaluator::new(&current);
    let mut completed = state.completed(&evaluator);

    for (k, record) in journal.records().iter().enumerate() {
        record
            .check_finite()
            .map_err(|error| ReplayError::InvalidRecord {
                record: k + 1,
                error,
            })?;
        match record {
            JournalRecord::EventLanded(r) => {
                let landed = state.land_event(r.event.clone())?;
                check_bits("event clock", r.clock, landed.clock)?;
                current = Rc::clone(&state.instance);
                evaluator = ObjectiveEvaluator::new(&current);
                completed = state.completed(&evaluator);
            }

            JournalRecord::Replan(d) => {
                let adopted = state.adopt_replan(d.clone());
                check_bits("replan clock", d.clock, adopted.clock)?;
                state.validate_plan()?;
            }

            JournalRecord::Dispatch(d) => {
                let refused = if state.schedule.pending.get(d.plan_offset) != Some(&d.index) {
                    Some(format!(
                        "at plan offset {} does not match the pending suffix",
                        d.plan_offset
                    ))
                } else if !state.schedule.eligible(&state.instance, d.index) {
                    Some("before its precedence prerequisites completed".to_string())
                } else if !state.schedule.slot_is_free(d.slot) {
                    Some(format!("into occupied slot {}", d.slot))
                } else {
                    None
                };
                if let Some(why) = refused {
                    return Err(diverged(format!("dispatch of {} {why}", d.index)));
                }
                let derived = state.dispatch(&completed, d.plan_offset, d.slot, |_, _| {
                    (d.retries, d.waste_per_failure)
                });
                if derived.position != d.position {
                    return Err(diverged(format!(
                        "dispatch of {} at position {} but {} builds are committed",
                        d.index, d.position, derived.position
                    )));
                }
                check_bits("dispatch clock", d.clock, derived.clock)?;
                check_bits("dispatch cost", d.cost, derived.cost)?;
            }

            JournalRecord::Fail(f) => {
                let at = in_flight_at(&state, "failed attempt", f.index, f.slot)?;
                let build = state.schedule.in_flight()[at];
                let derived = f
                    .attempt
                    .checked_sub(1)
                    .and_then(|k| build.failed_attempts().nth(k as usize))
                    .ok_or_else(|| {
                        diverged(format!(
                            "attempt {} of {} outside its {} recorded retries",
                            f.attempt, f.index, build.retries
                        ))
                    })?;
                check_bits("failed-attempt clock", f.clock, derived.clock)?;
                check_bits("failed-attempt waste", f.wasted, derived.wasted)?;
            }

            JournalRecord::Complete(c) => {
                let at = in_flight_at(&state, "completion", c.index, c.slot)?;
                let derived = state.complete(&mut completed, at);
                check_bits("completion clock", c.clock, derived.clock)?;
                check_bits("realized cost at completion", c.realized, derived.realized)?;
            }
        }
    }

    if !state.schedule.is_idle() {
        return Err(diverged(format!(
            "journal ended with {} pending and {} in-flight builds",
            state.schedule.pending.len(),
            state.schedule.in_flight().len()
        )));
    }
    Ok(state.finish().0)
}
