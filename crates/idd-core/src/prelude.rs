//! Convenience re-exports of the most commonly used core types.

pub use crate::accsum::ExactSum;
pub use crate::curve::{CurvePoint, ImprovementCurve};
pub use crate::error::{CoreError, Result as CoreResult};
pub use crate::evolution::{
    BuildFailure, DesignRevision, EventKind, EvolutionEvent, EvolutionScenario, IndexAddition,
    WorkloadDrift,
};
pub use crate::index::IndexMeta;
pub use crate::instance::{InstanceBuilder, ProblemInstance};
pub use crate::interaction::{BuildInteraction, Precedence};
pub use crate::matrix::MatrixFile;
pub use crate::objective::{
    DeltaEvaluator, ObjectiveEvaluator, ObjectiveValue, PrefixState, StepMetrics,
};
pub use crate::plan::QueryPlan;
pub use crate::query::QueryMeta;
pub use crate::reduce::{reduce, Density, ReduceOptions};
pub use crate::residual::ResidualInstance;
pub use crate::slotsched::{DispatchPolicy, SlotScheduleEvaluator, SlotScheduleValue};
pub use crate::solution::Deployment;
pub use crate::stats::InstanceStats;
pub use crate::types::{IndexId, PlanId, QueryId};
