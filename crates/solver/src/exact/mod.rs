//! Exact search algorithms: CP branch-and-prune, A*, and a MIP-style
//! time-discretized branch-and-bound.

pub mod astar;
pub mod bounds;
pub mod cp;
pub mod mip;

pub use astar::{AStarConfig, AStarSolver};
pub use bounds::LowerBound;
pub use cp::{CpConfig, CpSolver};
pub use mip::{MipConfig, MipSolver};
