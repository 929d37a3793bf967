//! # idd-workloads — benchmark workloads for the index ordering problem
//!
//! The paper evaluates on problem instances derived from TPC-H (22 queries,
//! 31 suggested indexes) and TPC-DS (102 queries, 148 suggested indexes) by a
//! commercial design tool plus a what-if optimizer. Neither the commercial
//! tool nor the original benchmark data is available here, so this crate
//! generates *TPC-H-like* and *TPC-DS-like* workloads — star/snowflake
//! schemas with realistic cardinalities and analytic query shapes — and runs
//! them through the `idd-whatif` substrate to produce instances whose Table-4
//! statistics (number of indexes, plans, interaction counts, widest plan) are
//! in the same regime as the paper's.
//!
//! * [`tpch`] — an 8-table schema and 22 queries patterned on TPC-H.
//! * [`tpcds`] — a 17-table schema and 102 generated queries patterned on
//!   TPC-DS (wider joins, many more plans and interactions).
//! * [`synthetic`] — a direct random-instance generator used for solver unit
//!   tests, property tests and micro-benchmarks (no what-if pass needed).
//! * [`calibration`] — compares generated instances against the paper's
//!   Table 4 and reports whether the shape matches.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod calibration;
pub mod evolution;
pub mod synthetic;
pub mod tpcds;
pub mod tpch;

pub mod prelude;

pub use calibration::{CalibrationReport, PaperTargets};
pub use evolution::{
    drift_scenario, failure_scenario, mixed_scenario, revision_scenario, EvolutionConfig,
};
pub use synthetic::{
    generate_block_structured, BlockStructuredConfig, SyntheticConfig, SyntheticGenerator,
};

use idd_core::ProblemInstance;
use idd_whatif::extract_instance;

/// Builds the TPC-H-like problem instance with the paper's index budget (31).
pub fn tpch_instance() -> idd_whatif::Result<ProblemInstance> {
    extract_instance(&tpch::workload(), tpch::extraction_config())
}

/// Builds the TPC-DS-like problem instance with the paper's index budget (148).
pub fn tpcds_instance() -> idd_whatif::Result<ProblemInstance> {
    extract_instance(&tpcds::workload(), tpcds::extraction_config())
}
