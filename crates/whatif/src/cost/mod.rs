//! The cost model: constants, selectivity estimation and operator costs.
//!
//! The model follows the shape of textbook / PostgreSQL-style costing:
//! sequential and random page I/O, per-tuple CPU, B-tree descent, sort and
//! hash costs. Absolute numbers are not meant to match any particular engine;
//! what matters for the reproduction is that the *relative* costs create the
//! same structure the paper relies on — covering indexes beat narrow ones,
//! multi-index star-join plans beat single-index plans, and wide indexes make
//! narrow ones cheap to build.

pub mod model;
pub(crate) mod params;
pub mod selectivity;

pub use model::CostModel;
pub use selectivity::{predicate_selectivity, table_selectivity};
