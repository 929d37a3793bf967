//! Convenience re-exports of the solver toolbox.

pub use crate::anytime::{Trajectory, TrajectoryPoint};
pub use crate::budget::SearchBudget;
pub use crate::constraints::OrderConstraints;
pub use crate::dp::DpSolver;
pub use crate::exact::{AStarConfig, AStarSolver, CpConfig, CpSolver, MipConfig, MipSolver};
pub use crate::greedy::GreedySolver;
pub use crate::local::{
    LnsConfig, LnsSolver, SwapStrategy, TabuConfig, TabuSolver, VnsConfig, VnsSolver,
};
pub use crate::portfolio::{PortfolioConfig, PortfolioOutcome, PortfolioSolver};
pub use crate::properties::{analyze, AnalysisOptions, AnalysisReport};
pub use crate::random::{RandomSolver, RandomSummary};
pub use crate::replan::{ReplanOutcome, ReplanStrategy, Replanner};
pub use crate::result::{CoopStats, SolveOutcome, SolveResult};
pub use crate::solver::{
    CancelToken, CooperationPolicy, IncumbentSnapshot, NeighborhoodHints, SharedIncumbent,
    SolveContext, Solver,
};
