//! # idd-whatif — a synthetic DBMS substrate with a what-if optimizer
//!
//! The paper obtains its problem instances by asking a commercial DBMS's
//! *what-if* interface to evaluate hypothetical indexes against a workload:
//! the query optimizer reports, for each query, the best *atomic
//! configuration* (the set of hypothetical indexes its best plan would use)
//! and the estimated cost, and a separate pass estimates index creation costs
//! and build interactions. This crate is a self-contained replacement for that
//! machinery:
//!
//! * [`catalog`] — tables, columns and their statistics (row counts, widths,
//!   distinct values) for a star-schema data warehouse.
//! * [`query`] — a simplified analytic query description: a fact table,
//!   dimension joins, filter predicates, group-by columns and aggregates.
//! * [`physical`] — candidate indexes and physical configurations.
//! * [`cost`] — a textbook cost model (sequential/random page I/O, per-tuple
//!   CPU, sort cost, hash and index-nested-loop joins) with selectivity
//!   estimation. Its constants are fixed, as the paper's instances all come
//!   from one DBMS's cost model, so the model holds no state.
//! * [`optimizer`] — picks the cheapest access path / join strategy for a
//!   query under a given physical configuration and reports which indexes the
//!   winning plan uses. Every what-if call folds its costs from a per-query
//!   cache of the plan terms no configuration changes.
//! * [`whatif`] — the what-if driver: repeatedly optimizes each query while
//!   removing the indexes of the best plan, producing the competing atomic
//!   configurations of the paper (Section 8).
//! * [`advisor`] — a small index advisor that enumerates and selects candidate
//!   indexes from the workload, standing in for the commercial design tool.
//! * [`build_cost`] — index creation costs and pair-wise build interactions
//!   (scan-an-existing-index / skip-the-sort savings).
//! * [`extract`] — glues everything together and emits an
//!   [`idd_core::ProblemInstance`].
//!
//! The substitution is sound for the reproduction because the ordering
//! problem only consumes the matrix of costs/benefits/interactions: any cost
//! model that produces structurally equivalent matrices (multi-index plans,
//! competing plans, build interactions) exercises the same downstream code
//! paths.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod advisor;
pub mod build_cost;
pub mod catalog;
pub mod cost;
pub mod error;
pub mod extract;
pub mod optimizer;
pub mod physical;
pub mod query;
pub mod whatif;

pub mod prelude;

pub use advisor::{Advisor, AdvisorConfig};
pub use catalog::{Catalog, Column, Table};
pub use error::{Result, WhatIfError};
pub use extract::{extract_instance, ExtractionConfig};
pub use optimizer::{Optimizer, PlanChoice};
pub use physical::{CandidateIndex, PhysicalConfig};
pub use query::{Aggregate, ColumnRef, JoinEdge, Predicate, QuerySpec, Workload};
pub use whatif::{AtomicConfiguration, WhatIfOptimizer, WhatIfOptions};
