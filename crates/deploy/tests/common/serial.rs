//! The serial oracle: the paper's one-build-at-a-time deployment (§4.1),
//! restated on public APIs only, against which `serial_equivalence` and
//! `work_conserving` pin [`idd_deploy::DeployRuntime::execute`] at one
//! build slot, report field by report field.
//!
//! It shares no scheduling code with the runtime: it uses neither
//! `SlotSchedule` nor `SlotScheduleEvaluator`, and none of the runtime's
//! private state. Builds run one at a time in plan order, each priced
//! against the indexes built before it; a failed attempt wastes its share
//! of the build at the runtime level in force. Events land at build
//! boundaries (once the plan is exhausted the next one lands whenever it
//! comes, with no idle cost in between), and each boundary that landed
//! events replans once with the serial scoring. The drop rules of a
//! revision are restated here, not called:
//!
//! * a drop of a built (or unknown) index is ineffective;
//! * a drop that would orphan a dependent still scheduled behind a
//!   precedence is refused, and counts as ineffective too;
//! * any other drop retracts the index from the plan.
//!
//! Only the replanner is taken from a configuration: the serial model has
//! no slots, no dispatch choice and no failure trigger, so `build_slots`,
//! `dispatch`, `slot_aware_replan` and `trigger` do not reach it.

use idd_core::{
    Deployment, EventKind, EvolutionEvent, EvolutionScenario, ExactSum, IndexId,
    ObjectiveEvaluator, ProblemInstance,
};
use idd_deploy::{DeployError, DeploymentReport, ExecutedBuild, ReplanRecord};
use idd_solver::replan::{Replanner, SuffixScoring};

/// Executes `initial` serially against `scenario`, replanning with
/// `replanner` whenever events land. See the module docs.
pub fn serial_oracle(
    replanner: &Replanner,
    instance: &ProblemInstance,
    initial: &Deployment,
    scenario: &EvolutionScenario,
) -> Result<DeploymentReport, DeployError> {
    initial
        .validate(instance)
        .map_err(DeployError::InvalidInitialPlan)?;
    let n = instance.num_indexes();
    let mut run = SerialRun {
        instance: instance.clone(),
        pending: initial.order().to_vec(),
        built: vec![false; n],
        excluded: vec![false; n],
        clock: 0.0,
        realized: ExactSum::new(),
        report: DeploymentReport::default(),
    };
    // Earliest event last, so `pop` yields events in time order.
    let mut queue = scenario.sorted_events();
    queue.reverse();

    loop {
        let mut triggers: Vec<&str> = Vec::new();
        while queue
            .last()
            .is_some_and(|e| e.at <= run.clock || run.pending.is_empty())
        {
            let event = queue.pop().expect("peeked");
            run.clock = run.clock.max(event.at);
            run.apply(&event)?;
            let label = match event.kind {
                EventKind::Drift(_) => "drift",
                EventKind::Revision(_) => "revision",
            };
            if !triggers.contains(&label) {
                triggers.push(label);
            }
        }
        if !triggers.is_empty() {
            run.replan(replanner, &triggers.join("+"))?;
        }

        // The built prefix on the current instance version.
        let evaluator = ObjectiveEvaluator::new(&run.instance);
        let mut prefix = evaluator.prefix_state();
        for b in &run.report.builds {
            prefix.push(b.index);
        }
        if run.pending.is_empty() && queue.is_empty() {
            run.report.final_runtime = prefix.runtime();
            break;
        }

        // Build in plan order until the next event is due.
        while !run.pending.is_empty() && !queue.last().is_some_and(|e| e.at <= run.clock) {
            let index = run.pending.remove(0);
            let start = run.clock;
            let runtime_before = prefix.runtime();
            let cost = prefix.build_cost(index);
            let (retries, waste) = scenario.failure_for(index).map_or((0, 0.0), |f| {
                (f.failures, cost * f.waste_fraction.clamp(0.0, 1.0))
            });
            let mut wasted = 0.0;
            for _ in 0..retries {
                run.realized.add_prod(runtime_before, waste);
                wasted += waste;
            }
            run.realized.add_prod(runtime_before, cost);
            prefix.push(index);
            run.clock += wasted + cost;
            run.built[index.raw()] = true;
            let report = &mut run.report;
            report.builds.push(ExecutedBuild {
                position: report.builds.len(),
                index,
                slot: 0,
                start,
                finish: run.clock,
                cost,
                wasted,
                retries,
                plan_offset: 0,
                runtime_before,
                runtime_after: prefix.runtime(),
            });
            report.total_build_time += cost;
            report.total_wasted += wasted;
            report.retries += retries;
        }
    }

    run.report.realized_cost = run.realized.value();
    run.report.total_clock = run.clock;
    Ok(run.report)
}

/// The state of one serial run; `report.builds` is the built prefix.
struct SerialRun {
    instance: ProblemInstance,
    pending: Vec<IndexId>,
    built: Vec<bool>,
    excluded: Vec<bool>,
    clock: f64,
    realized: ExactSum,
    report: DeploymentReport,
}

impl SerialRun {
    fn prefix(&self) -> Vec<IndexId> {
        self.report.builds.iter().map(|b| b.index).collect()
    }

    /// Applies one event: a drift re-weights the instance; a revision adds
    /// its indexes at the end of the plan, then rules on its drops in order.
    fn apply(&mut self, event: &EvolutionEvent) -> Result<(), DeployError> {
        match &event.kind {
            EventKind::Drift(drift) => self.instance = drift.apply_to(&self.instance)?,
            EventKind::Revision(revision) => {
                let (revised, added) = revision.apply_additions(&self.instance)?;
                self.instance = revised;
                let n = self.instance.num_indexes();
                self.built.resize(n, false);
                self.excluded.resize(n, false);
                self.pending.extend(added);
                for &dropped in &revision.drop {
                    let orphans = || {
                        self.instance.precedences().iter().any(|pr| {
                            pr.before == dropped
                                && !self.built[pr.after.raw()]
                                && !self.excluded[pr.after.raw()]
                        })
                    };
                    if dropped.raw() >= n || self.built[dropped.raw()] || orphans() {
                        self.report.ineffective_drops += 1;
                    } else {
                        self.excluded[dropped.raw()] = true;
                        self.pending.retain(|&i| i != dropped);
                    }
                }
            }
        }
        self.report.events_applied += 1;
        Ok(())
    }

    /// Re-optimizes the pending suffix around the built prefix (when one is
    /// pending), then checks the whole plan against the current
    /// precedences.
    fn replan(&mut self, replanner: &Replanner, trigger: &str) -> Result<(), DeployError> {
        if !self.pending.is_empty() {
            let residual = self
                .instance
                .residual_for_replan(&self.built, &[], &self.excluded)?;
            let (outcome, pending) = replanner
                .replan_around(&residual, &self.pending, SuffixScoring::Serial, &[])
                .ok_or_else(|| {
                    DeployError::InvalidPlan("pending order is not a residual permutation".into())
                })?;
            self.report.replans.push(ReplanRecord {
                clock: self.clock,
                trigger: trigger.to_string(),
                frozen_prefix: self.prefix(),
                in_flight: Vec::new(),
                suffix_len: pending.len(),
                warm_start_objective: outcome.warm_start_objective,
                objective: outcome.objective,
                solver: outcome.solver,
                improved: outcome.improved,
            });
            self.pending = pending;
        }
        let plan = Deployment::splice(&self.prefix(), &self.pending);
        for pr in self.instance.precedences() {
            match (plan.position_of(pr.before), plan.position_of(pr.after)) {
                (_, None) => {}
                (Some(before), Some(after)) if before < after => {}
                _ => {
                    return Err(DeployError::InvalidPlan(format!(
                        "plan breaks precedence {} -> {}",
                        pr.before, pr.after
                    )))
                }
            }
        }
        Ok(())
    }
}
