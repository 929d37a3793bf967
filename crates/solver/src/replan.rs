//! Mid-flight replanning: re-optimizing the unbuilt suffix of a deployment.
//!
//! When an evolution event lands (workload drift, design revision, …) the
//! deployment runtime freezes the built prefix and derives a *residual*
//! instance for the unbuilt suffix
//! ([`ProblemInstance::residual_for_replan`](idd_core::ProblemInstance::residual_for_replan)).
//! This module answers the follow-up question: *given that residual instance
//! and the order we were about to execute, what should the new suffix order
//! be?*
//!
//! Three strategies, in increasing effort:
//!
//! * [`ReplanStrategy::KeepOrder`] — no re-optimization; the current suffix
//!   order is kept verbatim (the "static plan that ignores events" baseline
//!   of the `table9` experiment).
//! * [`ReplanStrategy::Greedy`] — one pass of the interaction-guided greedy
//!   over the residual instance; instant, and already workload-aware.
//! * [`ReplanStrategy::Portfolio`] — the cooperative portfolio (greedy,
//!   tabu, LNS, VNS, CP+) raced over the residual instance, *warm-started
//!   from the current suffix order*: the incumbent order is published to the
//!   [`SharedIncumbent`](crate::solver::SharedIncumbent) before the race and
//!   handed to the CP member as its initial incumbent
//!   ([`CpConfig::initial`]), so every improvement is an improvement over
//!   the plan actually in flight.
//!
//! Whatever the strategy, the returned order is never worse than the warm
//! start: replanning can only help, by construction.
//!
//! A [`Replanner`] has two entry points: [`Replanner::replan`] over a
//! residual instance and [`Replanner::replan_around`] over a deployment's
//! pending suffix. Both take the [`SuffixScoring`] that ranks the
//! candidates and the slots still occupied at the replan point
//! (`busy_until`), which only slot-aware scoring reads: it ranks candidates
//! with [`SlotScheduleEvaluator`], the deploy runtime's own k-slot list
//! scheduler, under the runtime's [`DispatchPolicy`].

use crate::budget::SearchBudget;
use crate::exact::{CpConfig, CpSolver};
use crate::greedy::GreedySolver;
use crate::local::{
    LnsConfig, LnsSolver, SwapStrategy, TabuConfig, TabuSolver, VnsConfig, VnsSolver,
};
use crate::portfolio::{PortfolioConfig, PortfolioSolver};
use crate::result::CoopStats;
use crate::solver::{CooperationPolicy, SolveContext, Solver};
use idd_core::{
    Deployment, DispatchPolicy, IndexId, ObjectiveEvaluator, ProblemInstance, ResidualInstance,
    SlotScheduleEvaluator,
};

/// How to re-optimize a residual instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplanStrategy {
    /// Keep the current suffix order (the event-ignoring baseline).
    KeepOrder,
    /// One interaction-guided greedy pass over the residual instance.
    Greedy,
    /// The cooperative portfolio, warm-started from the current order.
    Portfolio {
        /// Cooperation policy for the race ([`CooperationPolicy::Off`]
        /// keeps every member deterministic under node budgets).
        cooperation: CooperationPolicy,
        /// Cancel the race on the first optimality proof. Leave `false`
        /// when bit-for-bit reproducibility matters: cancellation timing is
        /// scheduler-dependent.
        cancel_on_optimal: bool,
    },
}

impl ReplanStrategy {
    /// Short label used by reports ("static", "greedy", "portfolio").
    pub fn label(&self) -> &'static str {
        match self {
            ReplanStrategy::KeepOrder => "static",
            ReplanStrategy::Greedy => "greedy",
            ReplanStrategy::Portfolio { .. } => "portfolio",
        }
    }
}

/// How candidate suffix orders are *scored* (and therefore ranked) during
/// a replan. Orthogonal to the [`ReplanStrategy`], which decides how
/// candidates are *generated*.
///
/// The internal searches always *optimize* the serial objective (that is
/// what their delta evaluators speak); the scoring decides which candidate
/// — warm start included — *wins*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SuffixScoring {
    /// The serial objective area
    /// ([`ObjectiveEvaluator::evaluate_area`]) — the paper's one-build-at-
    /// a-time model. Exact for a serial executor; a proxy for a concurrent
    /// one.
    Serial,
    /// The realized k-slot area: each candidate is list-scheduled onto
    /// `slots` concurrent build slots by [`SlotScheduleEvaluator`] under the
    /// executing runtime's dispatch policy, so candidates are ranked by the
    /// cost the runtime will actually realize on a quiet tail. With
    /// `slots = 1` this coincides with [`SuffixScoring::Serial`]
    /// bit-for-bit.
    SlotAware {
        /// Number of concurrent build slots to schedule onto.
        slots: usize,
        /// How the schedule admits pending builds into free slots.
        dispatch: DispatchPolicy,
    },
}

impl SuffixScoring {
    /// Short label for reports ("serial" / "slot-aware").
    pub fn label(&self) -> &'static str {
        match self {
            SuffixScoring::Serial => "serial",
            SuffixScoring::SlotAware { .. } => "slot-aware",
        }
    }
}

/// A replanner: strategy + per-replan budget.
#[derive(Debug, Clone)]
pub struct Replanner {
    /// The strategy to apply at every replan point.
    pub strategy: ReplanStrategy,
    /// Budget for each replan (node budgets keep runs machine-independent).
    pub budget: SearchBudget,
}

/// The outcome of one replan over a residual instance.
#[derive(Debug, Clone)]
pub struct ReplanOutcome {
    /// The chosen suffix order, in *residual* ids.
    pub deployment: Deployment,
    /// Its objective on the residual instance, under the [`SuffixScoring`]
    /// the replan ran with (serial area, or realized k-slot area when
    /// slot-aware).
    pub objective: f64,
    /// The objective of the warm-start order under the same scoring, if one
    /// was usable.
    pub warm_start_objective: Option<f64>,
    /// Which solver produced the chosen order ("warm-start" when nothing
    /// beat the incumbent plan).
    pub solver: String,
    /// `true` when the chosen order strictly improves on the warm start.
    pub improved: bool,
    /// Merged cooperation counters of the portfolio race (zeros otherwise).
    pub coop: CoopStats,
    /// Wall-clock seconds spent replanning.
    pub elapsed_seconds: f64,
}

impl Replanner {
    /// Creates a replanner.
    pub fn new(strategy: ReplanStrategy, budget: SearchBudget) -> Self {
        Self { strategy, budget }
    }

    /// Re-optimizes `residual`, warm-starting from `warm_start` (the
    /// current suffix order projected into residual ids) when it is a valid
    /// order for the residual instance, and ranking candidates by
    /// `scoring`.
    ///
    /// `busy_until[i]` is the offset (from the residual's t = 0) at which
    /// the i-th slot still occupied at the replan point frees up; only
    /// slot-aware scoring reads it. Pass `&[]` when every slot is free.
    ///
    /// Candidates are compared deterministically: the warm start first, then
    /// each solver output in roster order, keeping the first strict
    /// improvement on ties — so a node-budgeted, cooperation-off replan is
    /// bit-for-bit reproducible.
    pub fn replan(
        &self,
        residual: &ProblemInstance,
        warm_start: Option<&Deployment>,
        scoring: SuffixScoring,
        busy_until: &[f64],
    ) -> ReplanOutcome {
        let started = std::time::Instant::now();
        let evaluator = ObjectiveEvaluator::new(residual);
        // With slot-aware scoring (on more than one slot) every candidate —
        // warm start included — is ranked by its realized k-slot area; the
        // solvers underneath still *search* with the serial objective
        // (their delta evaluators speak serial), so this re-scores their
        // outputs. With serial scoring (or one slot) the closure is the
        // plain serial area and behavior is unchanged bit-for-bit.
        let slot_evaluator = match scoring {
            SuffixScoring::SlotAware { slots, dispatch } if slots > 1 => Some(
                SlotScheduleEvaluator::new(residual, slots, dispatch).with_busy_until(busy_until),
            ),
            _ => None,
        };
        let score = |d: &Deployment| match &slot_evaluator {
            Some(slot) => slot.evaluate_area(d),
            None => evaluator.evaluate_area(d),
        };
        let warm = warm_start
            .filter(|d| d.is_valid_for(residual))
            .map(|d| (d.clone(), score(d)));
        let warm_objective = warm.as_ref().map(|(_, a)| *a);

        let mut best = warm
            .clone()
            .map(|(d, a)| (d, a, "warm-start".to_string()))
            .unwrap_or_else(|| {
                // No usable warm start (fresh instance, stale projection):
                // greedy provides the incumbent every strategy measures
                // against.
                let d = GreedySolver::new().construct(residual);
                let a = score(&d);
                (d, a, "greedy".to_string())
            });

        let mut coop = CoopStats::default();
        match self.strategy {
            ReplanStrategy::KeepOrder => {}
            // Without a usable warm start the incumbent already is the
            // greedy order.
            ReplanStrategy::Greedy if warm.is_none() => {}
            ReplanStrategy::Greedy => {
                let d = GreedySolver::new().construct(residual);
                let a = score(&d);
                if a < best.1 - 1e-12 {
                    best = (d, a, "greedy".to_string());
                }
            }
            ReplanStrategy::Portfolio {
                cooperation,
                cancel_on_optimal,
            } => {
                let portfolio = PortfolioSolver::with_members(
                    self.budget,
                    replan_roster(self.budget, warm.as_ref().map(|(d, _)| d.clone())),
                )
                .with_config(PortfolioConfig {
                    budget: self.budget,
                    cancel_on_optimal,
                    cooperation,
                });
                // Publish the in-flight order so warm-start members adopt it
                // and every observer sees "never worse than the plan we
                // already had". The incumbent lives in the members' search
                // domain — the *serial* objective — so the warm start is
                // published at its serial area even when candidates are
                // ranked slot-aware (identical bits under serial scoring).
                let ctx = SolveContext::new();
                if let Some((d, _)) = &warm {
                    ctx.publish_deployment(evaluator.evaluate_area(d), d.order());
                }
                let outcome = portfolio.solve_detailed_in(residual, &ctx);
                coop = outcome.combined.coop;
                for member in &outcome.members {
                    if let Some(d) = &member.deployment {
                        // Members report the serial area they searched
                        // with; under slot-aware scoring each candidate is
                        // re-scored by the k-slot schedule before it may
                        // unseat the incumbent.
                        let objective = match &slot_evaluator {
                            Some(slot) => slot.evaluate_area(d),
                            None => member.objective,
                        };
                        if objective < best.1 - 1e-12 {
                            best = (d.clone(), objective, member.solver.clone());
                        }
                    }
                }
            }
        }

        let improved = warm_objective.is_some_and(|w| best.1 < w - 1e-12);
        ReplanOutcome {
            deployment: best.0,
            objective: best.1,
            warm_start_objective: warm_objective,
            solver: best.2,
            improved,
            coop,
            elapsed_seconds: started.elapsed().as_secs_f64(),
        }
    }

    /// Replans the pending suffix of a partially-executed deployment
    /// *around* its committed work: `residual` carries the conditioning on
    /// the built prefix plus any in-flight builds
    /// ([`idd_core::ProblemInstance::residual_for_replan`]), `pending` is
    /// the surviving suffix — the parent-id order that was about to
    /// execute, which becomes the warm start when it projects cleanly — and
    /// `scoring` and `busy_until` (the in-flight builds' remaining times)
    /// are passed on as [`Replanner::replan`] takes them.
    ///
    /// Returns the replan outcome (residual ids, as
    /// [`Replanner::replan`] does) together with the new pending order
    /// lifted back to parent ids. In-flight indexes never appear in the
    /// returned order — they are not residual indexes, so no strategy can
    /// schedule (or rebuild) them; callers splice the result behind their
    /// frozen commitment with [`idd_core::Deployment::splice`] (the deploy
    /// runtime appends it to its dispatch-order committed sequence; a caller
    /// tracking the built prefix and the in-flight set separately splices
    /// onto `built ++ in-flight`).
    ///
    /// Returns `None` when `pending` is not a permutation of the residual
    /// indexes — plan maintenance went out of sync with the instance, which
    /// callers must surface as a bug rather than replan around.
    pub fn replan_around(
        &self,
        residual: &ResidualInstance,
        pending: &[IndexId],
        scoring: SuffixScoring,
        busy_until: &[f64],
    ) -> Option<(ReplanOutcome, Vec<IndexId>)> {
        let warm = residual.project_order(pending)?;
        let outcome = self.replan(residual.instance(), Some(&warm), scoring, busy_until);
        let new_pending = residual.lift_order(outcome.deployment.order());
        debug_assert!(
            new_pending
                .iter()
                .all(|i| !residual.in_flight().contains(i)),
            "replan scheduled an in-flight index"
        );
        Some((outcome, new_pending))
    }
}

/// The replan roster: greedy (instant), best-swap tabu, LNS, VNS, CP+ with
/// the in-flight order as its initial incumbent. Fixed seeds — a replan at
/// the same residual instance is reproducible.
fn replan_roster(budget: SearchBudget, warm_start: Option<Deployment>) -> Vec<Box<dyn Solver>> {
    vec![
        Box::new(GreedySolver::new()),
        Box::new(TabuSolver::with_config(TabuConfig {
            strategy: SwapStrategy::Best,
            budget,
            ..TabuConfig::default()
        })),
        Box::new(LnsSolver::with_config(LnsConfig {
            budget,
            ..LnsConfig::default()
        })),
        Box::new(VnsSolver::with_config(VnsConfig {
            budget,
            ..VnsConfig::default()
        })),
        Box::new(CpSolver::with_config(CpConfig {
            budget,
            initial: warm_start,
            ..CpConfig::with_properties(budget)
        })),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use idd_core::IndexId;

    fn residual_like(n: usize) -> ProblemInstance {
        let mut b = ProblemInstance::builder("replan");
        let idx: Vec<IndexId> = (0..n).map(|k| b.add_index(2.0 + (k % 4) as f64)).collect();
        for q in 0..n {
            let qid = b.add_query(40.0 + (q % 5) as f64 * 20.0);
            b.add_plan(qid, vec![idx[q % n]], 7.0);
            b.add_plan(qid, vec![idx[q % n], idx[(q + 2) % n]], 19.0);
        }
        b.add_build_interaction(idx[0], idx[1], 1.0);
        b.build().unwrap()
    }

    #[test]
    fn keep_order_returns_the_warm_start_verbatim() {
        let inst = residual_like(6);
        let warm = Deployment::from_raw([5, 4, 3, 2, 1, 0]);
        let replanner = Replanner::new(ReplanStrategy::KeepOrder, SearchBudget::nodes(10));
        let outcome = replanner.replan(&inst, Some(&warm), SuffixScoring::Serial, &[]);
        assert_eq!(outcome.deployment, warm);
        assert_eq!(outcome.solver, "warm-start");
        assert!(!outcome.improved);
        assert_eq!(outcome.warm_start_objective, Some(outcome.objective));
    }

    #[test]
    fn missing_warm_start_falls_back_to_greedy() {
        let inst = residual_like(5);
        let greedy = GreedySolver::new().construct(&inst);
        for strategy in [ReplanStrategy::KeepOrder, ReplanStrategy::Greedy] {
            let replanner = Replanner::new(strategy, SearchBudget::nodes(10));
            let outcome = replanner.replan(&inst, None, SuffixScoring::Serial, &[]);
            assert_eq!(outcome.solver, "greedy");
            assert_eq!(outcome.deployment, greedy);
            assert!(outcome.deployment.is_valid_for(&inst));
            assert!(outcome.warm_start_objective.is_none());
            assert!(!outcome.improved);
            // A stale warm start (wrong length) is treated as missing.
            let stale = Deployment::from_raw([0, 1]);
            let outcome2 = replanner.replan(&inst, Some(&stale), SuffixScoring::Serial, &[]);
            assert_eq!(outcome2.solver, "greedy");
        }
    }

    #[test]
    fn replanning_never_worsens_the_warm_start() {
        let inst = residual_like(7);
        let evaluator = ObjectiveEvaluator::new(&inst);
        let warm = Deployment::identity(7);
        let warm_area = evaluator.evaluate_area(&warm);
        for strategy in [
            ReplanStrategy::KeepOrder,
            ReplanStrategy::Greedy,
            ReplanStrategy::Portfolio {
                cooperation: CooperationPolicy::Off,
                cancel_on_optimal: false,
            },
        ] {
            let outcome = Replanner::new(strategy, SearchBudget::nodes(60)).replan(
                &inst,
                Some(&warm),
                SuffixScoring::Serial,
                &[],
            );
            assert!(
                outcome.objective <= warm_area + 1e-12,
                "{}: {} > {warm_area}",
                strategy.label(),
                outcome.objective
            );
            assert!(outcome.deployment.is_valid_for(&inst));
            assert_eq!(
                evaluator.evaluate_area(&outcome.deployment),
                outcome.objective
            );
            assert_eq!(outcome.improved, outcome.objective < warm_area - 1e-12);
        }
    }

    #[test]
    fn deterministic_portfolio_replan_is_reproducible() {
        let inst = residual_like(6);
        let warm = Deployment::identity(6);
        let run = || {
            Replanner::new(
                ReplanStrategy::Portfolio {
                    cooperation: CooperationPolicy::Off,
                    cancel_on_optimal: false,
                },
                SearchBudget::nodes(50),
            )
            .replan(&inst, Some(&warm), SuffixScoring::Serial, &[])
        };
        let a = run();
        let b = run();
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        assert_eq!(a.deployment, b.deployment);
        assert_eq!(a.solver, b.solver);
    }

    #[test]
    fn replan_around_keeps_in_flight_out_of_the_new_suffix() {
        // Parent world: 6 indexes; i0 built, i1 and i4 in flight, the
        // pending suffix is [i5, i3, i2]. Whatever the strategy returns, the
        // committed indexes must never reappear.
        let parent = residual_like(6);
        let mut built = vec![false; 6];
        built[0] = true;
        let in_flight = [IndexId::new(1), IndexId::new(4)];
        let residual = parent
            .residual_for_replan(&built, &in_flight, &[false; 6])
            .unwrap();
        let pending = [IndexId::new(5), IndexId::new(3), IndexId::new(2)];
        for strategy in [
            ReplanStrategy::KeepOrder,
            ReplanStrategy::Greedy,
            ReplanStrategy::Portfolio {
                cooperation: CooperationPolicy::Off,
                cancel_on_optimal: false,
            },
        ] {
            let replanner = Replanner::new(strategy, SearchBudget::nodes(40));
            let (outcome, new_pending) = replanner
                .replan_around(&residual, &pending, SuffixScoring::Serial, &[])
                .expect("pending is a permutation of the residual");
            // Same index set as the old pending, no committed index leaked.
            let mut sorted = new_pending.clone();
            sorted.sort_unstable_by_key(|i| i.raw());
            assert_eq!(sorted, [IndexId::new(2), IndexId::new(3), IndexId::new(5)]);
            // The warm start survived as a candidate: never worse.
            let warm_area = outcome.warm_start_objective.expect("projected cleanly");
            assert!(outcome.objective <= warm_area + 1e-12);
            // The spliced order extends the frozen commitment verbatim.
            let mut committed = vec![IndexId::new(0)];
            committed.extend_from_slice(residual.in_flight());
            let spliced = Deployment::splice(&committed, &new_pending);
            assert!(spliced.starts_with(&[IndexId::new(0), IndexId::new(1), IndexId::new(4)]));
            assert!(spliced.is_valid_for(&parent));
        }
    }

    #[test]
    fn replan_around_rejects_a_desynced_pending_order() {
        let parent = residual_like(5);
        let built = vec![false; 5];
        let residual = parent
            .residual_for_replan(&built, &[IndexId::new(0)], &[false; 5])
            .unwrap();
        let replanner = Replanner::new(ReplanStrategy::Greedy, SearchBudget::nodes(10));
        // Pending that still names the in-flight index is out of sync.
        let stale = [
            IndexId::new(0),
            IndexId::new(1),
            IndexId::new(2),
            IndexId::new(3),
        ];
        assert!(replanner
            .replan_around(&residual, &stale, SuffixScoring::Serial, &[])
            .is_none());
        // Pending that lost an index is out of sync too.
        assert!(replanner
            .replan_around(
                &residual,
                &[IndexId::new(1), IndexId::new(2)],
                SuffixScoring::Serial,
                &[],
            )
            .is_none());
    }

    #[test]
    fn slot_aware_scoring_with_one_slot_is_bit_identical_to_serial() {
        // `SlotAware { slots: 1 }` short-circuits to the serial evaluator,
        // so every candidate scores identically and the whole outcome —
        // winner, objective bits, solver label — is unchanged.
        let inst = residual_like(6);
        let warm = Deployment::identity(6);
        let strategy = ReplanStrategy::Portfolio {
            cooperation: CooperationPolicy::Off,
            cancel_on_optimal: false,
        };
        let serial = Replanner::new(strategy, SearchBudget::nodes(50)).replan(
            &inst,
            Some(&warm),
            SuffixScoring::Serial,
            &[],
        );
        for dispatch in [DispatchPolicy::HeadOfLine, DispatchPolicy::WorkConserving] {
            let slot = Replanner::new(strategy, SearchBudget::nodes(50)).replan(
                &inst,
                Some(&warm),
                SuffixScoring::SlotAware { slots: 1, dispatch },
                &[],
            );
            assert_eq!(slot.objective.to_bits(), serial.objective.to_bits());
            assert_eq!(slot.deployment, serial.deployment);
            assert_eq!(slot.solver, serial.solver);
            assert_eq!(
                slot.warm_start_objective.map(f64::to_bits),
                serial.warm_start_objective.map(f64::to_bits)
            );
        }
    }

    #[test]
    fn slot_aware_scoring_keeps_a_slot_friendly_warm_start() {
        // Three equal-cost indexes; i1 carries the big speedup but is gated
        // behind i0. Serially the greedy order [i0, i1, i2] wins (unlock the
        // 40s speedup as early as possible: area 90·4 + 80·4 + 40·4 = 840 vs
        // the warm start's 90·4 + 80·4 + 72·4 = 968). On two head-of-line
        // slots the picture flips: [i0, i1, i2] idles slot 1 behind the gate
        // (area 90·4 + 80·4 = 680) while the in-flight order [i0, i2, i1]
        // keeps both slots busy (90·4 + 72·4 = 648). Serial scoring must
        // replace the warm start; slot-aware must keep it.
        let mut b = ProblemInstance::builder("slots");
        let i0 = b.add_index(4.0);
        let i1 = b.add_index(4.0);
        let i2 = b.add_index(4.0);
        let q0 = b.add_query(20.0);
        b.add_plan(q0, vec![i0], 10.0);
        let q1 = b.add_query(50.0);
        b.add_plan(q1, vec![i1], 40.0);
        let q2 = b.add_query(20.0);
        b.add_plan(q2, vec![i2], 8.0);
        b.add_precedence(i0, i1);
        let inst = b.build().unwrap();
        let warm = Deployment::from_raw([0, 2, 1]);

        let serial = Replanner::new(ReplanStrategy::Greedy, SearchBudget::nodes(10)).replan(
            &inst,
            Some(&warm),
            SuffixScoring::Serial,
            &[],
        );
        assert_eq!(serial.deployment, Deployment::from_raw([0, 1, 2]));
        assert_eq!(serial.solver, "greedy");
        assert!((serial.objective - 840.0).abs() < 1e-9);
        assert!(serial.improved);

        let slot_aware = Replanner::new(ReplanStrategy::Greedy, SearchBudget::nodes(10)).replan(
            &inst,
            Some(&warm),
            SuffixScoring::SlotAware {
                slots: 2,
                dispatch: DispatchPolicy::HeadOfLine,
            },
            &[],
        );
        assert_eq!(slot_aware.deployment, warm, "slot-friendly order survives");
        assert_eq!(slot_aware.solver, "warm-start");
        assert!((slot_aware.objective - 648.0).abs() < 1e-9);
        assert_eq!(slot_aware.warm_start_objective, Some(slot_aware.objective));
        assert!(!slot_aware.improved);

        // The reported objective really is the realized two-slot area.
        let realized = SlotScheduleEvaluator::new(&inst, 2, DispatchPolicy::HeadOfLine)
            .evaluate_area(&slot_aware.deployment);
        assert_eq!(slot_aware.objective.to_bits(), realized.to_bits());
    }

    #[test]
    fn strategy_labels() {
        assert_eq!(ReplanStrategy::KeepOrder.label(), "static");
        assert_eq!(ReplanStrategy::Greedy.label(), "greedy");
        assert_eq!(
            ReplanStrategy::Portfolio {
                cooperation: CooperationPolicy::WarmStart,
                cancel_on_optimal: true
            }
            .label(),
            "portfolio"
        );
        assert_eq!(SuffixScoring::Serial.label(), "serial");
        assert_eq!(
            SuffixScoring::SlotAware {
                slots: 4,
                dispatch: DispatchPolicy::WorkConserving
            }
            .label(),
            "slot-aware"
        );
    }
}
