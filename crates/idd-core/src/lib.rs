//! # idd-core — problem model for index deployment ordering
//!
//! This crate defines the mathematical model of the *index deployment order
//! problem* from "Optimizing Index Deployment Order for Evolving OLAP"
//! (EDBT 2012), Section 4:
//!
//! * [`IndexMeta`], [`QueryMeta`], [`QueryPlan`] — the workload artefacts
//!   produced by a physical-design advisor plus a what-if optimizer.
//! * [`BuildInteraction`] and [`Precedence`] — the build-time interactions and
//!   hard ordering constraints between indexes.
//! * [`ProblemInstance`] — the full "matrix file" of Figure 3: original query
//!   runtimes, plan speed-ups, index creation costs and interactions.
//! * [`Deployment`] — a candidate solution (a permutation of the indexes).
//! * [`ObjectiveEvaluator`] — computes the objective `Σ R_{i-1}·C_i`
//!   (the area under the improvement curve of Figure 4), both from scratch and
//!   incrementally for local search.
//! * [`InstanceStats`] — the statistics reported in Table 4 of the paper.
//! * [`reduce`](mod@crate::reduce) — the density reductions (low / mid /
//!   full) used by the exact-search experiments of Tables 5 and 6.
//!
//! The crate is deliberately free of any solver logic: solvers live in
//! `idd-solver`, workload generation in `idd-workloads` and the synthetic
//! DBMS substrate in `idd-whatif`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod accsum;
pub mod curve;
pub mod error;
pub mod evolution;
pub mod index;
pub mod instance;
pub mod interaction;
pub mod journal;
pub mod matrix;
pub mod objective;
pub mod plan;
pub mod query;
pub mod reduce;
pub mod residual;
pub mod slotsched;
pub mod solution;
pub mod stats;
pub mod types;

pub mod prelude;

pub use accsum::ExactSum;
pub use curve::{
    benefit_steps, density_blocks, BenefitStep, CurvePoint, ImprovementCurve, ScheduleBlock,
};
pub use error::{CoreError, Result};
pub use evolution::{
    BuildFailure, DesignRevision, EventKind, EvolutionEvent, EvolutionScenario, IndexAddition,
    WorkloadDrift,
};
pub use index::IndexMeta;
pub use instance::{InstanceBuilder, ProblemInstance};
pub use interaction::{BuildInteraction, Precedence};
pub use journal::{
    CompleteRecord, DispatchRecord, EventRecord, FailRecord, JournalRecord, ReplanDecision,
};
pub use matrix::MatrixFile;
pub use objective::{DeltaEvaluator, ObjectiveEvaluator, ObjectiveValue, PrefixState, StepMetrics};
pub use plan::QueryPlan;
pub use query::QueryMeta;
pub use reduce::{reduce, Density, ReduceOptions};
pub use residual::ResidualInstance;
pub use slotsched::{
    DispatchPolicy, SlotBuild, SlotSchedule, SlotScheduleEvaluator, SlotScheduleValue,
};
pub use solution::Deployment;
pub use stats::InstanceStats;
pub use types::{IndexId, PlanId, QueryId};
