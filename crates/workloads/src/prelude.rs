//! Convenience re-exports of the workload generators.

pub use crate::calibration::{CalibrationReport, PaperTargets};
pub use crate::evolution::{
    drift_scenario, failure_scenario, mixed_scenario, revision_scenario, EvolutionConfig,
};
pub use crate::synthetic::{generate as generate_synthetic, SyntheticConfig, SyntheticGenerator};
pub use crate::{tpcds_instance, tpch_instance};
