//! A concurrent anytime *portfolio* of solvers.
//!
//! The paper's Section-7/8 evaluation shows that different techniques win at
//! different time budgets: greedy is instant, local search dominates within
//! seconds, and only CP+properties delivers optimality proofs. A portfolio
//! exploits exactly that complementarity — run several member solvers
//! *concurrently* against one wall-clock deadline and report the best
//! incumbent any of them found:
//!
//! * in a race every member runs on its own `std::thread`, sharing a
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
//!
//! One scheduler runs every race. It takes *jobs* (an instance and its
//! context each) and runs their (job, member) pairs on a fixed number of
//! scoped threads, each thread pulling the next run from an atomic counter.
//! A race is one job on one thread per member; the sharded solver
//! ([`crate::decompose`]) hands it every shard as a job on one thread per
//! core, so a free core takes the next member run of any shard. Each job
//! keeps its own context, so cancellation and cooperation stay within it.

use crate::anytime::Trajectory;
use crate::budget::SearchBudget;
use crate::exact::{CpConfig, CpSolver};
use crate::greedy::GreedySolver;
use crate::local::{SwapStrategy, TabuConfig, TabuSolver, VnsSolver};
use crate::result::{CoopStats, SolveOutcome, SolveResult};
use crate::solver::{CooperationPolicy, SolveContext, Solver};
use idd_core::ProblemInstance;
use idd_telemetry::Telemetry;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

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
    /// uninstrumented one. With a recording handle, each member run gets
    /// its own track (`solver/<index>-<name>`, registered in run order)
    /// carrying a wall-clock `run` span, incumbent-publish / restart /
    /// adoption / hint marks, and end-of-run counters.
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

    /// Races the members on `instance` inside `ctx`: one job on one thread
    /// per member, so every member starts at once.
    pub(crate) fn race(
        &self,
        instance: &ProblemInstance,
        budget: SearchBudget,
        ctx: &SolveContext,
    ) -> PortfolioOutcome {
        let mut outcomes = self.schedule(&[(instance, ctx.clone())], self.members.len(), budget);
        outcomes.pop().expect("one job, one outcome")
    }

    /// Runs every (job, member) pair of `jobs` on `threads` scoped threads
    /// and returns each job's outcome, in job order.
    ///
    /// Runs are numbered job-major, members in registration order, and each
    /// thread pulls the next number from an atomic counter, so a thread
    /// that finishes a run starts the next one at once. A job's member runs
    /// share its context, with the configured [`CooperationPolicy`] applied;
    /// a member that proves optimality cancels only its own job.
    ///
    /// `budget`'s node limit applies to each run; its time limit is one
    /// deadline for the whole call, which [`run_budget`] shares out as runs
    /// start. A job's member results are folded by
    /// [`PortfolioSolver::combine`] in member order, and its
    /// `elapsed_seconds` is the wall time from its first run's start to its
    /// last run's end.
    pub(crate) fn schedule(
        &self,
        jobs: &[(&ProblemInstance, SolveContext)],
        threads: usize,
        budget: SearchBudget,
    ) -> Vec<PortfolioOutcome> {
        let started = Instant::now();
        let deadline = budget
            .time_limit
            .and_then(|limit| started.checked_add(limit));
        // Apply the configured policy without mutating the callers'
        // contexts: a derived handle shares the cancel token, incumbent cell
        // and hint deque, so outer cancellation and observation still work.
        let contexts: Vec<SolveContext> = jobs
            .iter()
            .map(|(_, ctx)| ctx.with_policy(self.config.cooperation))
            .collect();
        let width = self.members.len();
        let runs = jobs.len() * width;
        // Register every run's track on this thread, in run order, *before*
        // spawning: track ids are then deterministic regardless of how the
        // OS schedules the runs.
        let tracks: Vec<_> = (0..runs)
            .map(|run| {
                let k = run % width;
                self.telemetry
                    .register(format!("solver/{:02}-{}", k, self.members[k].name()))
            })
            .collect();
        let next = AtomicUsize::new(0);
        let threads = threads.clamp(1, runs.max(1));
        let worker = || {
            let mut done = Vec::new();
            loop {
                // Relaxed: the counter only hands out run numbers; results
                // come back through the joins.
                let run = next.fetch_add(1, Ordering::Relaxed);
                if run >= runs {
                    return done;
                }
                let (instance, ctx) = (jobs[run / width].0, &contexts[run / width]);
                let member = &self.members[run % width];
                let left = SearchBudget {
                    time_limit: deadline.map(|d| d.saturating_duration_since(Instant::now())),
                    node_limit: budget.node_limit,
                };
                let share = run_budget(left, threads, runs - run);
                // Park this run's recorder in the thread-local slot so the
                // local searches (whose trait signature carries no
                // telemetry) can emit through the free functions; the guard
                // submits the buffer when the run finishes.
                let _guard = tracks[run].install();
                let begun = Instant::now();
                idd_telemetry::span_begin("run");
                let result =
                    panic::catch_unwind(AssertUnwindSafe(|| member.run(instance, share, ctx)))
                        .unwrap_or_else(|_| SolveResult::did_not_finish(member.name(), 0.0, 0));
                idd_telemetry::span_end("run");
                if self.config.cancel_on_optimal && result.is_optimal() {
                    ctx.cancel_token().cancel();
                }
                done.push((run, begun, Instant::now(), result));
            }
        };
        let mut finished: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
            handles
                .into_iter()
                .flat_map(|handle| handle.join().expect("a run's panic is caught"))
                .collect()
        });
        finished.sort_unstable_by_key(|&(run, ..)| run);

        let mut finished = finished.into_iter();
        (0..jobs.len())
            .map(|_| {
                let job: Vec<_> = finished.by_ref().take(width).collect();
                let begun = job.iter().map(|&(_, begun, ..)| begun).min();
                let ended = job.iter().map(|&(_, _, ended, _)| ended).max();
                let elapsed = ended.zip(begun).map_or(0.0, |(e, b)| (e - b).as_secs_f64());
                let members: Vec<SolveResult> =
                    job.into_iter().map(|(.., result)| result).collect();
                let combined = Self::combine(&members, elapsed);
                PortfolioOutcome { combined, members }
            })
            .collect()
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

/// The budget of one member run: `left`'s node limit, and a share of its
/// time limit, the time left before the deadline. With `runs_left` runs
/// still to start (this one included) on `threads` threads, the run gets
/// `min(left, left × threads / runs_left)`: once every remaining run has a
/// thread of its own, a run may use all the time left; before that, the
/// time left is split evenly over the runs still to come, and a run that
/// ends early leaves its unused time to the later ones.
fn run_budget(left: SearchBudget, threads: usize, runs_left: usize) -> SearchBudget {
    SearchBudget {
        time_limit: left.time_limit.map(|time| {
            if runs_left <= threads {
                return time;
            }
            let share = time.as_secs_f64() * threads as f64 / runs_left as f64;
            Duration::try_from_secs_f64(share).map_or(time, |share| share.min(time))
        }),
        node_limit: left.node_limit,
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

    /// Every result of an outcome, combined first: solver, order, objective
    /// bits, nodes and outcome.
    fn key(outcome: &PortfolioOutcome) -> Vec<String> {
        std::iter::once(&outcome.combined)
            .chain(&outcome.members)
            .map(|r| {
                format!(
                    "{} {:?} {:x} {} {:?}",
                    r.solver,
                    r.deployment.as_ref().map(|d| d.order().to_vec()),
                    r.objective.to_bits(),
                    r.nodes,
                    r.outcome
                )
            })
            .collect()
    }

    #[test]
    fn scheduled_jobs_do_not_depend_on_the_thread_count() {
        // With node budgets, cooperation off and no cancellation, a job's
        // outcome is a function of its instance: the same on 1, 2 and 4
        // threads, and the same as a race on the instance alone.
        let instances: Vec<ProblemInstance> = (5..10).map(instance).collect();
        let budget = SearchBudget::nodes(40);
        let portfolio = PortfolioSolver::recommended(budget).with_config(PortfolioConfig {
            budget,
            cancel_on_optimal: false,
            cooperation: CooperationPolicy::Off,
        });
        let keys = |threads: usize| -> Vec<Vec<String>> {
            let jobs: Vec<_> = instances
                .iter()
                .map(|inst| (inst, SolveContext::new()))
                .collect();
            portfolio
                .schedule(&jobs, threads, budget)
                .iter()
                .map(key)
                .collect()
        };
        let raced: Vec<Vec<String>> = instances
            .iter()
            .map(|inst| key(&portfolio.solve_detailed(inst)))
            .collect();
        for threads in [1, 2, 4] {
            assert_eq!(keys(threads), raced, "{threads} threads");
        }
    }

    #[test]
    fn a_proof_cancels_only_its_own_job() {
        // CP+ proves the 6-index instance within the node budget (561
        // nodes) but not the 10-index one. On one thread the second job
        // starts after the proof, and its CP+ run must still spend its
        // whole budget: the proof cancelled only the first job's context.
        let (small, large) = (instance(6), instance(10));
        let jobs = [(&small, SolveContext::new()), (&large, SolveContext::new())];
        let budget = SearchBudget::nodes(1_000);
        let members: Vec<Box<dyn Solver>> = vec![
            Box::new(GreedySolver::new()),
            Box::new(CpSolver::with_config(CpConfig::with_properties(budget))),
        ];
        let outcomes = PortfolioSolver::with_members(budget, members).schedule(&jobs, 1, budget);
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].combined.outcome, SolveOutcome::Optimal);
        assert!(jobs[0].1.is_cancelled());
        assert!(!jobs[1].1.is_cancelled());
        let [greedy, cp] = &outcomes[1].members[..] else {
            panic!("two members");
        };
        assert!(greedy.is_feasible());
        assert_eq!(cp.outcome, SolveOutcome::Feasible);
        assert_eq!(cp.nodes, 1_000);
        for (outcome, (inst, _)) in outcomes.iter().zip(&jobs) {
            let d = outcome.combined.deployment.as_ref().unwrap();
            assert!(d.is_valid_for(inst));
        }
    }

    #[test]
    fn run_budget_passes_no_time_limit_and_the_node_limit_through() {
        for budget in [
            SearchBudget::nodes(20),
            SearchBudget::unlimited(),
            SearchBudget::bounded(3.0, 7),
            SearchBudget::seconds(0.0),
        ] {
            for (threads, runs_left) in [(1, 1), (1, 9), (2, 64), (4, 3)] {
                let share = run_budget(budget, threads, runs_left);
                assert_eq!(share.node_limit, budget.node_limit);
                assert_eq!(share.time_limit.is_none(), budget.time_limit.is_none());
            }
        }
    }

    #[test]
    fn run_budget_never_exceeds_the_time_left() {
        let limits = [
            Duration::ZERO,
            Duration::from_nanos(1),
            Duration::from_millis(7),
            Duration::from_secs(2),
            Duration::new(123_456_789, 987_654_321),
            Duration::new(4_503_599_627, 370_496_999),
            Duration::from_secs_f64(1e18),
            Duration::MAX,
        ];
        for time in limits {
            let left = SearchBudget {
                time_limit: Some(time),
                node_limit: None,
            };
            for threads in [1, 2, 3, 4, 64] {
                for runs_left in [1, 2, 3, 5, 64, 128, 10_000] {
                    let share = run_budget(left, threads, runs_left).time_limit.unwrap();
                    assert!(share <= time, "{time:?} {threads} {runs_left}");
                    if runs_left <= threads {
                        assert_eq!(share, time, "a run with a thread to itself");
                    }
                }
            }
        }
        // Before that, the runs still to start split the time left.
        let left = SearchBudget::bounded(2.0, 20);
        assert_eq!(run_budget(left, 2, 64), SearchBudget::bounded(0.0625, 20));
        assert_eq!(
            run_budget(left, 2, 3).time_limit,
            Some(Duration::from_secs_f64(4.0 / 3.0))
        );
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_portfolio_panics() {
        PortfolioSolver::with_members(SearchBudget::default(), vec![]);
    }
}
