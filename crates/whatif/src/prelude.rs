//! Convenience re-exports of the most commonly used what-if types.

pub use crate::advisor::{Advisor, AdvisorConfig, ScoredCandidate};
pub use crate::build_cost::BuildCostModel;
pub use crate::catalog::{Catalog, Column, Table};
pub use crate::cost::CostModel;
pub use crate::error::{Result as WhatIfResult, WhatIfError};
pub use crate::extract::{extract_instance, ExtractionConfig};
pub use crate::optimizer::{Optimizer, PlanChoice};
pub use crate::physical::{CandidateIndex, PhysicalConfig};
pub use crate::query::{
    Aggregate, ColumnRef, JoinEdge, Predicate, PredicateKind, QuerySpec, Workload,
};
pub use crate::whatif::{AtomicConfiguration, WhatIfOptimizer, WhatIfOptions};
