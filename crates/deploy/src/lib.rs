//! # idd-deploy — online deployment runtime for evolving OLAP
//!
//! The solvers in `idd-solver` optimize one static instance offline and
//! stop. This crate is the *online* half the paper's title promises: a
//! deterministic discrete-event runtime that **executes** a deployment order
//! against a simulated query stream — on one or several concurrent build
//! slots — and reacts to the world changing underneath it.
//!
//! * [`DeployRuntime`] — the executor. Its scheduling is
//!   [`idd_core::SlotSchedule`], the one k-slot list scheduler the
//!   slot-aware replan scorer runs too: builds enter `build_slots` slots
//!   under a [`DispatchPolicy`] (defined in `idd-core`, re-exported here)
//!   — head-of-line by default, or work-conserving, whose overtakes the
//!   report records — and the event loop steps from one build
//!   *completion* to the next. At every completion boundary the runtime
//!   lands due [`EvolutionScenario`](idd_core::EvolutionScenario) events
//!   (workload drift, design revisions; build failures are handled
//!   in-line), freezes the built prefix **and the in-flight set**, derives
//!   a residual instance for the unbuilt suffix
//!   ([`idd_core::ProblemInstance::residual_for_replan`]), re-optimizes it
//!   with the configured [`Replanner`](idd_solver::replan::Replanner) —
//!   warm-started from the pending order — and splices the result back
//!   behind the frozen commitment.
//! * [`DeployConfig`] — the policy surface: replan strategy and budget,
//!   `build_slots` (default 1 = the serial model of the paper),
//!   [`DispatchPolicy`], [`ReplanTrigger`] (`OnFailure` also replans when
//!   a build reports failed attempts), and `slot_aware_replan`
//!   (score replan candidates with the realized k-slot objective of
//!   [`idd_core::SlotScheduleEvaluator`] instead of the serial proxy).
//! * [`DeploymentReport`] — the realized timeline: executed builds (with
//!   slot assignment, `start`/`finish` stamps and the `plan_offset` each
//!   work-conserving overtake recorded), replan records (each carrying its
//!   frozen-commitment and in-flight snapshots), realized cumulative cost,
//!   wasted clock, retry and out-of-order dispatch counts.
//! * [`DeploymentJournal`] and [`replay`] — one typed record per action,
//!   the run's ground truth. The runtime's state has one transition per
//!   record kind; the event loop only decides, and [`replay`] feeds the
//!   recorded decisions into the same transitions, rebuilding the report
//!   bit-for-bit. Runtime telemetry
//!   ([`DeployRuntime::with_telemetry`]) is the projection of the journal
//!   records at their single append point, so the two cannot disagree.
//!
//! Invariants, encoded in the runtime and locked down by this crate's
//! proptests (`replan_props` and the `serial_equivalence` differential
//! suite):
//!
//! 1. committed work — the built prefix *and* every in-flight build — is
//!    never reordered, rebuilt, or cancelled;
//! 2. every spliced order satisfies the (possibly revised) precedence
//!    closure — validated before execution continues — no build is
//!    dispatched before its precedence prerequisites have *completed*,
//!    and under work-conserving dispatch no free slot idles while an
//!    eligible pending index exists (the `work_conserving` suite);
//! 3. with `build_slots = 1` (the default) the unified scheduler reproduces
//!    the paper's serial executor **bit-for-bit** — checked against a
//!    serial oracle that lives in the tests, on public APIs only, and
//!    restates the drop rules rather than calling the runtime's — and with
//!    a quiet scenario the realized cost equals the offline objective
//!    exactly (the runtime steps the offline evaluator's own arithmetic).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod journal;
pub mod report;
pub mod runtime;

pub use journal::{replay, DeploymentJournal, ReplayError};
pub use report::{DeploymentReport, ExecutedBuild, ReplanRecord};
pub use runtime::{DeployConfig, DeployError, DeployRuntime, DispatchPolicy, ReplanTrigger};

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::journal::{replay, DeploymentJournal, ReplayError};
    pub use crate::report::{DeploymentReport, ExecutedBuild, ReplanRecord};
    pub use crate::runtime::{
        DeployConfig, DeployError, DeployRuntime, DispatchPolicy, ReplanTrigger,
    };
    pub use idd_core::{EventKind, EvolutionEvent, EvolutionScenario, JournalRecord};
    pub use idd_solver::replan::{ReplanStrategy, Replanner};
}
