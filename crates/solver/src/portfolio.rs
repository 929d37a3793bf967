//! A concurrent anytime *portfolio* of solvers.
//!
//! The paper's Section-7/8 evaluation shows that different techniques win at
//! different time budgets: greedy is instant, local search dominates within
//! seconds, and only CP+properties delivers optimality proofs. A portfolio
//! exploits exactly that complementarity — run several member solvers
//! *concurrently* against one wall-clock deadline and report the best
//! incumbent any of them found:
//!
//! * every member runs on its own `std::thread`, sharing a
//!   [`SolveContext`] (versioned incumbent cell + cancellation token + hint
//!   deque);
//! * improvements — objective *and* deployment order — are published to the
//!   shared incumbent as they happen, so an external observer (or a nested
//!   portfolio) always sees the best known solution;
//! * under a [`CooperationPolicy`] beyond [`CooperationPolicy::Off`], the
//!   race becomes a *team*: stalled local searches warm-start from the
//!   shared best deployment, and (with stealing on) LNS members pull
//!   destroy-neighbourhood hints that other members published;
//! * the first member to finish with an [`SolveOutcome::Optimal`] proof
//!   cancels the race — the remaining members stop cooperatively at their
//!   next budget check;
//! * the member trajectories are merged into one portfolio trajectory (the
//!   pointwise minimum), which is what an anytime consumer would have
//!   observed.
//!
//! By construction the portfolio's reported objective is the minimum over
//! its members' results — it is never worse than its best member.

use crate::anytime::Trajectory;
use crate::budget::SearchBudget;
use crate::exact::{CpConfig, CpSolver};
use crate::greedy::GreedySolver;
use crate::local::{SwapStrategy, TabuConfig, TabuSolver, VnsSolver};
use crate::result::{CoopStats, SolveOutcome, SolveResult};
use crate::solver::{CooperationPolicy, SolveContext, Solver};
use idd_core::ProblemInstance;
use idd_telemetry::Telemetry;

/// Configuration of the portfolio runner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PortfolioConfig {
    /// Wall-clock / node deadline each member races against.
    pub budget: SearchBudget,
    /// Cancel the whole race as soon as one member proves optimality
    /// (`true` in every sensible deployment; `false` lets tests observe all
    /// members running to completion).
    pub cancel_on_optimal: bool,
    /// How much shared state the members may *read*:
    /// [`CooperationPolicy::Off`] reproduces the independent race
    /// bit-for-bit, the warm-start policies turn the race into a team.
    pub cooperation: CooperationPolicy,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        Self {
            budget: SearchBudget::default(),
            cancel_on_optimal: true,
            cooperation: CooperationPolicy::Off,
        }
    }
}

/// The detailed outcome of a portfolio race: the merged result plus every
/// member's individual report (in member order).
#[derive(Debug, Clone)]
pub struct PortfolioOutcome {
    /// The combined result: best member deployment/objective, merged
    /// trajectory, summed node counts.
    pub combined: SolveResult,
    /// Each member's own result, in the order the members were registered.
    pub members: Vec<SolveResult>,
}

impl PortfolioOutcome {
    /// The best (smallest) objective any member reported, ∞ when none was
    /// feasible.
    pub fn best_member_objective(&self) -> f64 {
        self.members
            .iter()
            .map(|r| r.objective)
            .fold(f64::INFINITY, f64::min)
    }

    /// The name of the member whose result the combined report adopted.
    pub fn winner(&self) -> Option<&str> {
        let best = self.best_member_objective();
        self.members
            .iter()
            .find(|r| r.is_feasible() && r.objective <= best)
            .map(|r| r.solver.as_str())
    }
}

/// A concurrent portfolio of [`Solver`]s racing one deadline.
pub struct PortfolioSolver {
    config: PortfolioConfig,
    members: Vec<Box<dyn Solver>>,
    telemetry: Telemetry,
}

impl PortfolioSolver {
    /// A portfolio over the paper's recommended complementary trio —
    /// greedy (instant incumbent), VNS (fast improvement), CP+properties
    /// (optimality proofs) — plus best-swap tabu as a fourth perspective.
    pub fn recommended(budget: SearchBudget) -> Self {
        Self::with_members(
            budget,
            vec![
                Box::new(GreedySolver::new()),
                Box::new(VnsSolver::new(budget)),
                Box::new(CpSolver::with_config(CpConfig::with_properties(budget))),
                Box::new(TabuSolver::with_config(TabuConfig {
                    strategy: SwapStrategy::Best,
                    budget,
                    ..TabuConfig::default()
                })),
            ],
        )
    }

    /// A portfolio over an explicit member list.
    pub fn with_members(budget: SearchBudget, members: Vec<Box<dyn Solver>>) -> Self {
        assert!(!members.is_empty(), "portfolio needs at least one member");
        Self {
            config: PortfolioConfig {
                budget,
                ..PortfolioConfig::default()
            },
            members,
            telemetry: Telemetry::off(),
        }
    }

    /// Overrides the configuration (builder style).
    pub fn with_config(mut self, config: PortfolioConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the cooperation policy (builder style).
    pub fn with_cooperation(mut self, cooperation: CooperationPolicy) -> Self {
        self.config.cooperation = cooperation;
        self
    }

    /// Attaches a telemetry handle (builder style). The default is
    /// [`Telemetry::off`], under which the race is bit-identical to an
    /// uninstrumented one. With a recording handle, each member gets its
    /// own track (`solver/<index>-<name>`) carrying a wall-clock `run`
    /// span, incumbent-publish / restart / adoption / hint marks, and
    /// end-of-run counters.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The configured cooperation policy.
    pub fn cooperation(&self) -> CooperationPolicy {
        self.config.cooperation
    }

    /// Number of member solvers (== concurrent threads during a race).
    pub fn num_members(&self) -> usize {
        self.members.len()
    }

    /// Member names, in registration order.
    pub fn member_names(&self) -> Vec<&'static str> {
        self.members.iter().map(|m| m.name()).collect()
    }

    /// Races the members and returns the combined result.
    pub fn solve(&self, instance: &ProblemInstance) -> SolveResult {
        self.solve_detailed(instance).combined
    }

    /// Races the members inside a *fresh* context and reports both the
    /// combined and the per-member results.
    pub fn solve_detailed(&self, instance: &ProblemInstance) -> PortfolioOutcome {
        self.race(instance, self.config.budget, &SolveContext::new())
    }

    /// Races the members inside the *caller's* context — shared cancel
    /// token, incumbent and hint deque — and reports both the combined and
    /// the per-member results. Pre-seeding the context's incumbent before
    /// calling this is how a replan warm-starts the race from the order
    /// currently in flight.
    pub fn solve_detailed_in(
        &self,
        instance: &ProblemInstance,
        ctx: &SolveContext,
    ) -> PortfolioOutcome {
        self.race(instance, self.config.budget, ctx)
    }

    fn race(
        &self,
        instance: &ProblemInstance,
        budget: SearchBudget,
        ctx: &SolveContext,
    ) -> PortfolioOutcome {
        let clock = SearchBudget::unlimited().start();
        // Apply the configured policy without mutating the caller's context:
        // the derived handle shares the cancel token, incumbent cell and
        // hint deque, so outer cancellation and observation still work.
        let ctx = &ctx.with_policy(self.config.cooperation);
        // Register member tracks on this thread, in member order, *before*
        // spawning: track ids are then deterministic regardless of how the
        // OS schedules the race.
        let tracks: Vec<_> = self
            .members
            .iter()
            .enumerate()
            .map(|(k, member)| {
                self.telemetry
                    .register(format!("solver/{:02}-{}", k, member.name()))
            })
            .collect();
        let members: Vec<SolveResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .members
                .iter()
                .zip(&tracks)
                .map(|(member, track)| {
                    scope.spawn(move || {
                        // Park this member's recorder in the thread-local
                        // slot so the local searches (whose trait signature
                        // carries no telemetry) can emit through the free
                        // functions; the guard submits the buffer when the
                        // member finishes.
                        let _guard = track.install();
                        idd_telemetry::span_begin("run");
                        let result = member.run(instance, budget, ctx);
                        idd_telemetry::span_end("run");
                        if self.config.cancel_on_optimal && result.is_optimal() {
                            ctx.cancel_token().cancel();
                        }
                        result
                    })
                })
                .collect();
            handles
                .into_iter()
                .zip(&self.members)
                .map(|(handle, member)| {
                    handle
                        .join()
                        .unwrap_or_else(|_| SolveResult::did_not_finish(member.name(), 0.0, 0))
                })
                .collect()
        });

        let combined = Self::combine(&members, clock.elapsed_seconds());
        PortfolioOutcome { combined, members }
    }

    /// Folds member results into the portfolio report: minimum objective,
    /// best outcome, merged trajectory, summed node counts.
    fn combine(members: &[SolveResult], elapsed_seconds: f64) -> SolveResult {
        let best = members
            .iter()
            .filter(|r| r.is_feasible())
            .min_by(|a, b| a.objective.total_cmp(&b.objective));

        // Merge trajectories; a member without one (constructive heuristics
        // report a bare result) contributes its final solution as one point.
        let mut trajectory = Trajectory::new();
        for member in members {
            let member_trajectory = if member.trajectory.is_empty() && member.is_feasible() {
                let mut t = Trajectory::new();
                t.record(member.elapsed_seconds, member.objective);
                t
            } else {
                member.trajectory.clone()
            };
            trajectory = trajectory.merge(&member_trajectory);
        }

        let outcome = if members.iter().any(|r| r.is_optimal()) {
            SolveOutcome::Optimal
        } else if best.is_some() {
            SolveOutcome::Feasible
        } else {
            SolveOutcome::DidNotFinish
        };

        SolveResult {
            solver: "portfolio".to_string(),
            deployment: best.and_then(|r| r.deployment.clone()),
            objective: best.map(|r| r.objective).unwrap_or(f64::INFINITY),
            outcome,
            elapsed_seconds,
            nodes: members.iter().map(|r| r.nodes).sum(),
            trajectory,
            coop: members
                .iter()
                .fold(CoopStats::default(), |acc, r| acc.merged(r.coop)),
        }
    }
}

impl std::fmt::Debug for PortfolioSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PortfolioSolver")
            .field("config", &self.config)
            .field("members", &self.member_names())
            .finish()
    }
}

impl Solver for PortfolioSolver {
    fn name(&self) -> &'static str {
        "portfolio"
    }

    /// Races the members inside the *caller's* context: an outer
    /// cancellation stops every member, and (because the context is shared)
    /// a member proving optimality cancels the outer context too.
    fn run(
        &self,
        instance: &ProblemInstance,
        budget: SearchBudget,
        ctx: &SolveContext,
    ) -> SolveResult {
        self.race(instance, budget, ctx).combined
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::DpSolver;
    use crate::exact::{AStarSolver, MipSolver};
    use crate::local::LnsSolver;
    use crate::random::RandomSolver;
    use crate::solver::CancelToken;
    use idd_core::{IndexId, ObjectiveEvaluator};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn instance(n: usize) -> ProblemInstance {
        let mut b = ProblemInstance::builder(format!("portfolio-{n}"));
        let idx: Vec<IndexId> = (0..n).map(|k| b.add_index(2.0 + (k % 5) as f64)).collect();
        for q in 0..n.max(4) {
            let qid = b.add_query(50.0 + (q % 7) as f64 * 12.0);
            b.add_plan(qid, vec![idx[q % n]], 9.0);
            b.add_plan(qid, vec![idx[q % n], idx[(q + 2) % n]], 21.0);
        }
        b.add_build_interaction(idx[0], idx[1], 1.0);
        b.build().unwrap()
    }

    #[test]
    fn portfolio_is_never_worse_than_its_best_member() {
        let inst = instance(7);
        let outcome =
            PortfolioSolver::recommended(SearchBudget::bounded(2.0, 400)).solve_detailed(&inst);
        assert!(outcome.combined.is_feasible());
        assert!(outcome.combined.objective <= outcome.best_member_objective() + 1e-12);
        assert_eq!(outcome.members.len(), 4);
        assert!(outcome.winner().is_some());
        let d = outcome.combined.deployment.as_ref().unwrap();
        assert!(d.is_valid_for(&inst));
        assert!(
            (ObjectiveEvaluator::new(&inst).evaluate_area(d) - outcome.combined.objective).abs()
                < 1e-9
        );
    }

    #[test]
    fn optimal_member_marks_the_combined_result_optimal() {
        let inst = instance(6);
        let outcome =
            PortfolioSolver::recommended(SearchBudget::seconds(30.0)).solve_detailed(&inst);
        // CP+ proves 6-index instances in milliseconds.
        assert_eq!(outcome.combined.outcome, SolveOutcome::Optimal);
        // And the proof's objective is the minimum — no member beat it.
        let cp = outcome
            .members
            .iter()
            .find(|r| r.solver.starts_with("cp"))
            .unwrap();
        assert!(cp.is_optimal());
        assert!((outcome.combined.objective - cp.objective).abs() < 1e-9);
    }

    #[test]
    fn merged_trajectory_tracks_the_best_member_everywhere() {
        let inst = instance(8);
        // Every solver the crate implements, raced together.
        let budget = SearchBudget::bounded(2.0, 300);
        let members: Vec<Box<dyn Solver>> = vec![
            Box::new(GreedySolver::new()),
            Box::new(DpSolver::new()),
            Box::new(RandomSolver::default()),
            Box::new(CpSolver::with_config(CpConfig::plain(budget))),
            Box::new(CpSolver::with_config(CpConfig::with_properties(budget))),
            Box::new(AStarSolver::new()),
            Box::new(MipSolver::new()),
            Box::new(TabuSolver::new(SwapStrategy::Best, budget)),
            Box::new(TabuSolver::new(SwapStrategy::First, budget)),
            Box::new(LnsSolver::new(budget)),
            Box::new(VnsSolver::new(budget)),
        ];
        let outcome = PortfolioSolver::with_members(budget, members).solve_detailed(&inst);
        let merged = &outcome.combined.trajectory;
        assert!(!merged.is_empty());
        // The merged curve's final value equals the best member objective.
        assert!((merged.final_objective() - outcome.combined.objective).abs() < 1e-6);
        // And at every member point, merged ≤ member.
        for member in &outcome.members {
            for p in member.trajectory.points() {
                assert!(merged.objective_at(p.elapsed_seconds) <= p.objective + 1e-9);
            }
        }
    }

    #[test]
    fn outer_cancellation_stops_the_race_early() {
        let inst = instance(9);
        let portfolio = PortfolioSolver::with_members(
            SearchBudget::unlimited(),
            vec![
                Box::new(VnsSolver::new(SearchBudget::unlimited())),
                Box::new(LnsSolver::new(SearchBudget::unlimited())),
            ],
        );
        let ctx = SolveContext::new();
        let cancel: CancelToken = ctx.cancel_token().clone();
        let done = AtomicUsize::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                let r = portfolio.run(&inst, SearchBudget::unlimited(), &ctx);
                assert!(r.is_feasible());
                done.store(1, Ordering::SeqCst);
            });
            std::thread::sleep(std::time::Duration::from_millis(50));
            cancel.cancel();
        });
        // The scope joined, so the unlimited-budget members really stopped.
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_portfolio_panics() {
        PortfolioSolver::with_members(SearchBudget::default(), vec![]);
    }
}
