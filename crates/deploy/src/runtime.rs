//! The deterministic discrete-event deployment runtime.
//!
//! [`DeployRuntime::execute`] runs a deployment order against a simulated
//! query stream on `k = build_slots` concurrent build slots. The scheduling
//! is [`idd_core::SlotSchedule`], the one k-slot list scheduler the
//! slot-aware replan scorer ([`idd_core::SlotScheduleEvaluator`]) runs
//! too: builds enter the lowest free slot under the configured
//! [`DispatchPolicy`] (defined in `idd-core`, re-exported here) —
//! head-of-line by default, or work-conserving, whose overtakes are
//! recorded as [`ExecutedBuild::plan_offset`] and counted in
//! [`DeploymentReport::out_of_order_dispatches`]. A slot holds its build
//! (failed attempts included) until the index becomes available, and the
//! event loop steps from one build *completion* to the next (earliest
//! finish first, dispatch order breaking ties).
//!
//! Evolution events land at completion boundaries (an in-flight attempt is
//! atomic), and — under a replanning policy — the runtime re-optimizes the
//! unbuilt suffix whenever the world changes:
//!
//! 1. the built prefix **and the in-flight set** are frozen (never
//!    reordered, never rebuilt, never cancelled);
//! 2. a residual instance for the unbuilt suffix is derived from the
//!    *current* (drifted / revised) instance via
//!    [`ProblemInstance::residual_for_replan`] — in-flight completions
//!    still discount query costs, they just cannot be reordered;
//! 3. the configured [`Replanner`] re-optimizes it, warm-started from the
//!    order currently pending ([`Replanner::replan_around`]);
//! 4. the new suffix is spliced back behind the frozen commitment and
//!    validated against the (possibly revised) precedence closure before
//!    execution continues.
//!
//! Everything is deterministic: same instance, same initial plan, same
//! scenario, same configuration ⇒ same report. Two exact invariants anchor
//! the model:
//!
//! * with `build_slots = 1` (the default) the unified scheduler is the
//!   paper's serial executor **bit-for-bit**, report field by report field.
//!   Its oracle lives in the tests (`tests/common/serial.rs`): a serial
//!   executor written on public APIs only, which restates the drop rules
//!   of [`EventKind::Revision`] instead of calling this module's; the
//!   `serial_equivalence` and `work_conserving` suites compare the two;
//! * with a quiet scenario and one slot the realized cumulative cost equals
//!   the offline objective exactly (the runtime pushes its completions onto
//!   an [`idd_core::PrefixState`], the evaluator's own step).
//!
//! # One state machine, one event stream
//!
//! The run state drives the shared schedule and has one *transition* per
//! journal record kind — an event landing, an adopted replan, a dispatch
//! (its failed attempts follow from it) and a completion — plus the closing
//! step that rounds the realized cost. A transition derives every stamp its record carries (cost, clocks,
//! realized cost, runtime levels), updates the report and returns the
//! record. The event loop of [`DeployRuntime::execute_journaled`] only
//! *decides*: which pending position goes into which slot, which failure
//! spec a build gets, and which suffix a replan adopts.
//! [`crate::journal::replay`] feeds the recorded decisions into the very
//! same transitions and cross-checks the stamps they derive, so replay
//! cannot drift from the runtime.
//!
//! Every record passes through one append point, which also projects it
//! onto the telemetry tracks when telemetry is on
//! ([`DeployRuntime::with_telemetry`]). Runtime telemetry is the projection
//! of the journal, so the two cannot disagree; it is still emitted live, so
//! its wall-clock stamps show where a run spent its time.
//!
//! # Cost model with overlapping builds
//!
//! The realized cumulative cost generalizes from `Σ runtime · build_time`
//! to the workload runtime *integrated over the deployment wall-clock*:
//! while any build is running, every unit of wall-clock costs the current
//! runtime level, which drops only when builds **complete**. A build is
//! priced against the indexes completed when it starts — dispatching an
//! index before its build-interaction helper completes forfeits the
//! discount, which is exactly the trade-off `table10` measures against the
//! shorter makespan. [`idd_core::SlotScheduleEvaluator`] runs the same
//! scheduler on a quiet tail, so it reproduces this model offline
//! (bit-for-bit on a quiet run); a slot-aware replan
//! ([`DeployConfig::with_slot_aware_replan`]) scores candidate suffixes
//! with it instead of the serial proxy.

use crate::journal::DeploymentJournal;
use crate::report::{DeploymentReport, ExecutedBuild, ReplanRecord};
use idd_core::{
    CompleteRecord, CoreError, Deployment, DispatchRecord, EventKind, EventRecord, EvolutionEvent,
    EvolutionScenario, IndexId, JournalRecord, ObjectiveEvaluator, PrefixState, ProblemInstance,
    ReplanDecision, SlotSchedule,
};
use idd_solver::replan::{ReplanStrategy, Replanner, SuffixScoring};
use idd_solver::SearchBudget;
use idd_telemetry::{Telemetry, TrackRecorder};
use std::rc::Rc;

pub use idd_core::DispatchPolicy;

/// Errors a deployment run can hit.
#[derive(Debug)]
pub enum DeployError {
    /// The initial plan is not a valid deployment of the instance.
    InvalidInitialPlan(CoreError),
    /// The scenario breaks the finite-value contract: a non-finite event
    /// time or waste fraction ([`EvolutionScenario::check_finite`]).
    InvalidScenario(CoreError),
    /// An evolution event produced an inconsistent instance.
    InfeasibleEvent(CoreError),
    /// A replanned (or event-maintained) plan failed validation — a bug in
    /// the replanning pipeline, surfaced instead of executed.
    InvalidPlan(String),
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::InvalidInitialPlan(e) => write!(f, "invalid initial plan: {e}"),
            DeployError::InvalidScenario(e) => write!(f, "invalid scenario: {e}"),
            DeployError::InfeasibleEvent(e) => write!(f, "infeasible evolution event: {e}"),
            DeployError::InvalidPlan(msg) => write!(f, "invalid in-flight plan: {msg}"),
        }
    }
}

impl std::error::Error for DeployError {}

impl From<CoreError> for DeployError {
    fn from(e: CoreError) -> Self {
        DeployError::InfeasibleEvent(e)
    }
}

/// When the runtime re-optimizes the pending suffix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplanTrigger {
    /// Replan when evolution events (drift / revision) land — the original
    /// serial behavior, and the default.
    #[default]
    OnEvent,
    /// Additionally replan when a build reports failed attempts: the wasted
    /// clock delayed everything behind the failing index, so the suffix
    /// order chosen before the failure may no longer be the right one.
    /// The failure replan fires at the failing build's completion boundary
    /// with trigger label `"failure"`.
    OnFailure,
}

/// Configuration of a deployment run.
#[derive(Debug, Clone)]
pub struct DeployConfig {
    /// How (and whether) to re-optimize the suffix when a replan fires.
    /// [`ReplanStrategy::KeepOrder`] is the static baseline: events are
    /// *applied* (weights drift, indexes appear/disappear) but the suffix
    /// order is kept. The runtime hands it the candidate scoring
    /// `slot_aware_replan` selects.
    pub replanner: Replanner,
    /// Number of concurrent build slots. `1` (the default) reproduces the
    /// serial runtime bit-for-bit; `0` is treated as `1`
    /// ([`DeployConfig::with_build_slots`] normalizes it eagerly, and the
    /// executor clamps again for configs built by hand).
    pub build_slots: usize,
    /// How pending builds are admitted into free slots. Defaults to
    /// [`DispatchPolicy::HeadOfLine`].
    pub dispatch: DispatchPolicy,
    /// Score replan candidates with the k-slot list-schedule objective
    /// ([`idd_core::SlotScheduleEvaluator`], `k = build_slots`, matching
    /// this config's dispatch policy) instead of the serial proxy
    /// ([`SuffixScoring::Serial`]). With one slot the two objectives
    /// coincide bit-for-bit, so this is a no-op there. Defaults to `false`.
    pub slot_aware_replan: bool,
    /// What fires a replan. Defaults to [`ReplanTrigger::OnEvent`].
    pub trigger: ReplanTrigger,
}

impl Default for DeployConfig {
    fn default() -> Self {
        Self {
            replanner: Replanner::new(ReplanStrategy::KeepOrder, SearchBudget::nodes(200)),
            build_slots: 1,
            dispatch: DispatchPolicy::default(),
            slot_aware_replan: false,
            trigger: ReplanTrigger::OnEvent,
        }
    }
}

impl DeployConfig {
    /// The static baseline: execute the plan as-is, ignoring every chance
    /// to re-optimize.
    pub fn static_plan() -> Self {
        Self::default()
    }

    /// Replan with one greedy pass per event.
    pub fn greedy_replan() -> Self {
        Self {
            replanner: Replanner::new(ReplanStrategy::Greedy, SearchBudget::nodes(200)),
            ..Self::default()
        }
    }

    /// Replan with the warm-started portfolio under the given budget.
    pub fn portfolio_replan(
        cooperation: idd_solver::CooperationPolicy,
        cancel_on_optimal: bool,
        budget: SearchBudget,
    ) -> Self {
        Self {
            replanner: Replanner::new(
                ReplanStrategy::Portfolio {
                    cooperation,
                    cancel_on_optimal,
                },
                budget,
            ),
            ..Self::default()
        }
    }

    /// Sets the number of concurrent build slots (`0` is normalized to
    /// `1` — a runtime with no slots could never dispatch anything).
    pub fn with_build_slots(mut self, slots: usize) -> Self {
        self.build_slots = slots.max(1);
        self
    }

    /// Sets the dispatch policy.
    pub fn with_dispatch(mut self, dispatch: DispatchPolicy) -> Self {
        self.dispatch = dispatch;
        self
    }

    /// Enables (or disables) scoring replan candidates with the k-slot
    /// list-schedule objective instead of the serial proxy.
    pub fn with_slot_aware_replan(mut self, slot_aware: bool) -> Self {
        self.slot_aware_replan = slot_aware;
        self
    }

    /// Sets the replan trigger policy.
    pub fn with_trigger(mut self, trigger: ReplanTrigger) -> Self {
        self.trigger = trigger;
        self
    }
}

/// The deployment runtime. See the module docs for the execution model.
#[derive(Debug, Clone, Default)]
pub struct DeployRuntime {
    config: DeployConfig,
    telemetry: Telemetry,
    /// Prefix for telemetry track names, so one collector can hold several
    /// runs side by side (e.g. `"quiet x2/"` in the `trace` bench bin).
    trace_scope: String,
}

/// The replan-trigger label of an event.
fn trigger_label(kind: &EventKind) -> &'static str {
    match kind {
        EventKind::Drift(_) => "drift",
        EventKind::Revision(_) => "revision",
    }
}

/// The runtime telemetry of one run: its journal records projected onto
/// one event-loop track (`deploy`) and one track per build slot
/// (`slot<j>`). Only [`RunState::append`] feeds it, so telemetry is derived
/// from the journal and the two cannot disagree.
struct Tracks {
    deploy: TrackRecorder,
    slots: Vec<TrackRecorder>,
    /// Per slot, its busy intervals `(dispatch, completion)` in order, the
    /// last one open while the slot holds a build. They are disjoint and
    /// time-ordered because a slot is reused only after its build
    /// completes; their gaps become the idle spans at finish.
    busy: Vec<Vec<(f64, f64)>>,
}

impl Tracks {
    /// Registers the tracks, or returns `None` when `telemetry` is off —
    /// then nothing is projected, and execution is bit-identical to an
    /// uninstrumented run by construction.
    fn register(telemetry: &Telemetry, scope: &str, slots: usize) -> Option<Self> {
        if !telemetry.is_enabled() {
            return None;
        }
        Some(Self {
            deploy: telemetry.register(format!("{scope}deploy")).recorder(),
            slots: (0..slots)
                .map(|j| telemetry.register(format!("{scope}slot{j}")).recorder())
                .collect(),
            busy: vec![Vec::new(); slots],
        })
    }

    /// Projects one record; `pending` is the pending-queue depth once the
    /// record's transition applied.
    fn project(&mut self, record: &JournalRecord, pending: usize) {
        match record {
            JournalRecord::EventLanded(r) => {
                self.deploy
                    .mark_at(r.clock, "event", trigger_label(&r.event.kind));
                self.deploy.gauge_at(r.clock, "pending", pending as f64);
            }
            JournalRecord::Replan(r) => {
                let detail = format!(
                    "trigger={} solver={} improved={}",
                    r.trigger, r.solver, r.improved
                );
                self.deploy.mark_at(r.clock, "replan", detail);
            }
            JournalRecord::Dispatch(r) => {
                self.busy[r.slot].push((r.clock, r.clock));
                let detail = format!("{} position={}", r.index, r.position);
                self.slots[r.slot].mark_at(r.clock, "dispatch", detail);
            }
            JournalRecord::Fail(r) => {
                let detail = format!("{} attempt={}", r.index, r.attempt);
                self.slots[r.slot].mark_at(r.clock, "fail", detail);
            }
            JournalRecord::Complete(r) => {
                let busy = self.busy[r.slot]
                    .last_mut()
                    .expect("a build completes in the slot it was dispatched into");
                busy.1 = r.clock;
                self.slots[r.slot].span("busy", busy.0, busy.1);
                self.slots[r.slot].mark_at(r.clock, "complete", r.index.to_string());
                self.deploy.gauge_at(r.clock, "pending", pending as f64);
            }
        }
    }

    /// Emits each slot's idle spans: the gaps between its busy intervals
    /// over `[0, makespan]`, so that per slot busy + idle == makespan (and
    /// summed, busy + idle == slots × makespan — the invariant the
    /// `slot_accounting` suite checks against the report totals).
    fn finish(&mut self, makespan: f64) {
        for (recorder, intervals) in self.slots.iter_mut().zip(&self.busy) {
            let mut cursor = 0.0;
            for &(start, end) in intervals {
                if start > cursor {
                    recorder.span("idle", cursor, start);
                }
                cursor = f64::max(cursor, end);
            }
            if makespan > cursor {
                recorder.span("idle", cursor, makespan);
            }
        }
    }
}

/// The run's state machine, shared by the live runtime and the journal
/// replayer (`crate::journal`). The scheduling itself is the shared
/// [`SlotSchedule`]; this state adds what belongs to a run: the instance as
/// events change it, the committed order, the report, the journal and the
/// telemetry tracks.
///
/// Each journal record kind has one *transition* —
/// [`RunState::land_event`], [`RunState::adopt_replan`],
/// [`RunState::dispatch`] and [`RunState::complete`] — plus the closing
/// [`RunState::finish`] (see the module docs). The live loop supplies the
/// decisions from the scenario, the replanner and the dispatch policy;
/// replay supplies the recorded ones.
pub(crate) struct RunState {
    /// The current (drifted / revised) instance. Shared, so that an
    /// [`ObjectiveEvaluator`] and the completed set's [`PrefixState`] over
    /// it can borrow one version of it while the transitions update the
    /// rest of the state.
    pub(crate) instance: Rc<ProblemInstance>,
    /// The k-slot schedule, in parent ids; its exact accumulator is
    /// `report.realized_cost`, rounded once at the end of the run.
    pub(crate) schedule: SlotSchedule,
    /// Parent-id dispatch order of every committed build — completed *and*
    /// in-flight (append-only; the frozen commitment at any moment).
    committed: Vec<IndexId>,
    /// Parent-id completion order of finished builds, pushed onto a fresh
    /// prefix state when the instance changes ([`RunState::completed`]).
    completed_order: Vec<IndexId>,
    /// Parent-id bitmap of retracted (dropped, unbuilt) indexes.
    excluded: Vec<bool>,
    report: DeploymentReport,
    /// Every record passed to [`RunState::append`], in order. Only the live
    /// runtime appends (replay checks the records it is fed); `finish` hands
    /// it out as the run's [`DeploymentJournal`].
    journal: Vec<JournalRecord>,
    /// Runtime telemetry, projected from the records as they are appended.
    tracks: Option<Tracks>,
}

impl RunState {
    pub(crate) fn new(instance: &ProblemInstance, initial: &Deployment) -> Self {
        let n = instance.num_indexes();
        RunState {
            instance: Rc::new(instance.clone()),
            schedule: SlotSchedule::new(n, initial.order().iter().copied()),
            committed: Vec::with_capacity(n),
            completed_order: Vec::with_capacity(n),
            excluded: vec![false; n],
            report: DeploymentReport::default(),
            journal: Vec::new(),
            tracks: None,
        }
    }

    /// `true` when `raw` is committed: completed or occupying a slot.
    fn is_committed(&self, raw: usize) -> bool {
        self.schedule.built[raw]
            || self
                .schedule
                .in_flight()
                .iter()
                .any(|f| f.index.raw() == raw)
    }

    /// Validates the in-flight plan: `committed ++ pending` must cover
    /// exactly the unexcluded (or already committed) indexes once each and
    /// satisfy every applicable precedence of the current instance.
    pub(crate) fn validate_plan(&self) -> Result<(), DeployError> {
        let n = self.instance.num_indexes();
        let mut position = vec![usize::MAX; n];
        let plan = self.committed.iter().chain(&self.schedule.pending);
        for (p, &i) in plan.enumerate() {
            if i.raw() >= n {
                return Err(DeployError::InvalidPlan(format!("{i} is out of range")));
            }
            if position[i.raw()] != usize::MAX {
                return Err(DeployError::InvalidPlan(format!("{i} is scheduled twice")));
            }
            position[i.raw()] = p;
        }
        for (raw, &pos) in position.iter().enumerate() {
            let scheduled = pos != usize::MAX;
            let should_be = !self.excluded[raw] || self.is_committed(raw);
            if scheduled != should_be {
                return Err(DeployError::InvalidPlan(format!(
                    "index i{raw} is {} the plan but should {}be",
                    if scheduled { "in" } else { "missing from" },
                    if should_be { "" } else { "not " },
                )));
            }
        }
        for pr in self.instance.precedences() {
            let before = position[pr.before.raw()];
            let after = position[pr.after.raw()];
            if after == usize::MAX {
                continue; // constrained index left the target set: vacuous
            }
            if before == usize::MAX {
                return Err(DeployError::InvalidPlan(format!(
                    "{} requires retracted prerequisite {}",
                    pr.after, pr.before
                )));
            }
            if before > after {
                return Err(DeployError::InvalidPlan(format!(
                    "plan violates precedence {} -> {}",
                    pr.before, pr.after
                )));
            }
        }
        Ok(())
    }

    /// Applies one timed event, mutating the instance / target set and the
    /// mechanically-maintained pending order (additions append, drops
    /// remove).
    fn apply_event(&mut self, event: &EvolutionEvent) -> Result<(), DeployError> {
        match &event.kind {
            EventKind::Drift(drift) => {
                self.instance = Rc::new(drift.apply_to(&self.instance)?);
            }
            EventKind::Revision(revision) => {
                let (revised, new_ids) = revision.apply_additions(&self.instance)?;
                self.instance = Rc::new(revised);
                let n = self.instance.num_indexes();
                self.schedule.built.resize(n, false);
                self.excluded.resize(n, false);
                // New indexes join the plan at the end (a replan will place
                // them properly; the static baseline keeps them there).
                self.schedule.pending.extend(new_ids);
                for &dropped in &revision.drop {
                    if dropped.raw() >= n || self.is_committed(dropped.raw()) {
                        // Already built — or mid-build: a slot cannot
                        // un-build what it is building.
                        self.report.ineffective_drops += 1;
                        continue;
                    }
                    // Tentatively retract, but refuse drops that orphan a
                    // still-scheduled dependent behind a precedence.
                    self.excluded[dropped.raw()] = true;
                    let orphans = self.instance.precedences().iter().any(|pr| {
                        pr.before == dropped
                            && !self.is_committed(pr.after.raw())
                            && !self.excluded[pr.after.raw()]
                    });
                    if orphans {
                        self.excluded[dropped.raw()] = false;
                        self.report.ineffective_drops += 1;
                    } else {
                        self.schedule.pending.retain(|&i| i != dropped);
                    }
                }
            }
        }
        Ok(())
    }

    /// The completed set over `evaluator` — an evaluator of the current
    /// version of `self.instance`: the completions pushed in order. A pure
    /// function of (instance, completion order); in-flight builds hold no
    /// state until they complete. The dispatch and complete transitions
    /// keep it in step until the instance changes.
    pub(crate) fn completed<'e>(&self, evaluator: &'e ObjectiveEvaluator<'e>) -> PrefixState<'e> {
        debug_assert_eq!(
            evaluator.baseline_runtime(),
            self.instance.baseline_runtime()
        );
        let mut completed = evaluator.prefix_state();
        for &i in &self.completed_order {
            completed.push(i);
        }
        completed
    }

    /// Transition for an [`EventRecord`]: `event` lands at the first
    /// boundary at or after its timestamp — a post-deployment event
    /// advances the clock, with no idle cost in between — and is applied.
    /// The caller rebuilds its evaluator and completed set on the changed
    /// instance.
    pub(crate) fn land_event(&mut self, event: EvolutionEvent) -> Result<EventRecord, DeployError> {
        self.schedule.clock = self.schedule.clock.max(event.at);
        self.apply_event(&event)?;
        self.report.events_applied += 1;
        Ok(EventRecord {
            clock: self.schedule.clock,
            event,
        })
    }

    /// Transition for a [`ReplanDecision`]: the chosen suffix replaces the
    /// pending order, and the report records the replan with a snapshot of
    /// the frozen commitment taken from this state — so a suffix that
    /// contradicts the commitment fails [`RunState::validate_plan`], which
    /// the caller runs next. Returns the decision stamped with the clock.
    pub(crate) fn adopt_replan(&mut self, decision: ReplanDecision) -> ReplanDecision {
        let decision = ReplanDecision {
            clock: self.schedule.clock,
            ..decision
        };
        self.report.replans.push(ReplanRecord {
            clock: decision.clock,
            trigger: decision.trigger.clone(),
            frozen_prefix: self.committed.clone(),
            in_flight: self.schedule.in_flight().iter().map(|f| f.index).collect(),
            suffix_len: decision.pending.len(),
            warm_start_objective: decision.warm_start_objective,
            objective: decision.objective,
            solver: decision.solver.clone(),
            improved: decision.improved,
        });
        self.schedule.pending = decision.pending.iter().copied().collect();
        decision
    }

    /// Transition for a [`DispatchRecord`]: the index at `plan_offset` in the
    /// pending suffix enters `slot` ([`SlotSchedule::dispatch`], which
    /// prices it and applies the failure spec `failure` returns). The failed
    /// attempts' records are [`idd_core::SlotBuild::failed_attempts`] of the
    /// new in-flight build.
    pub(crate) fn dispatch(
        &mut self,
        completed: &PrefixState<'_>,
        plan_offset: usize,
        slot: usize,
        failure: impl FnOnce(IndexId, f64) -> (u32, f64),
    ) -> DispatchRecord {
        let build = self
            .schedule
            .dispatch(completed, plan_offset, slot, failure);
        debug_assert_eq!(build.position, self.committed.len());
        self.report.builds.push(ExecutedBuild {
            position: build.position,
            index: build.index,
            slot,
            start: build.start,
            finish: build.finish,
            cost: build.cost,
            wasted: build.wasted,
            retries: build.retries,
            plan_offset,
            runtime_before: completed.runtime(),
            runtime_after: f64::NAN, // filled at completion
        });
        self.report.total_build_time += build.cost;
        self.report.total_wasted += build.wasted;
        self.report.retries += build.retries;
        self.committed.push(build.index);
        DispatchRecord {
            clock: build.start,
            slot,
            position: build.position,
            index: build.index,
            plan_offset,
            cost: build.cost,
            retries: build.retries,
            waste_per_failure: build.waste_per_failure,
        }
    }

    /// Transition for a [`CompleteRecord`]: the in-flight build at `at`
    /// finishes ([`SlotSchedule::complete`] accrues its span and lands it).
    pub(crate) fn complete(
        &mut self,
        completed: &mut PrefixState<'_>,
        at: usize,
    ) -> CompleteRecord {
        let build = self.schedule.complete(completed, at);
        self.report.builds[build.position].runtime_after = completed.runtime();
        self.completed_order.push(build.index);
        CompleteRecord {
            clock: build.finish,
            slot: build.slot,
            index: build.index,
            realized: self.schedule.realized.value(),
        }
    }

    /// The run's single append point: every journal record the live
    /// runtime takes passes through here and, when telemetry is on, is
    /// projected onto the `deploy` / `slot<j>` tracks as it is appended.
    fn append(&mut self, record: JournalRecord) {
        if let Some(tracks) = &mut self.tracks {
            tracks.project(&record, self.schedule.pending.len());
        }
        self.journal.push(record);
    }

    /// The closing step: the final runtime is the completion order pushed
    /// on the final (drifted / revised) instance — the offline evaluator's
    /// own arithmetic — the exact realized cost is rounded once, and each
    /// slot track gets its idle spans.
    pub(crate) fn finish(mut self) -> (DeploymentReport, DeploymentJournal) {
        let evaluator = ObjectiveEvaluator::new(&self.instance);
        self.report.final_runtime = self.completed(&evaluator).runtime();
        self.report.realized_cost = self.schedule.realized.value();
        self.report.total_clock = self.schedule.clock;
        self.report.out_of_order_dispatches = self.schedule.overtakes();
        if let Some(tracks) = &mut self.tracks {
            tracks.finish(self.schedule.clock);
        }
        debug_assert!(self.report.prefixes_respected());
        debug_assert!(self.report.in_flight_respected());
        (self.report, DeploymentJournal::new(self.journal))
    }
}

/// The scenario's failure spec for `index`, priced at its dispatch `cost`:
/// `(failed attempts, clock wasted per failed attempt)`.
fn failure_spec(scenario: &EvolutionScenario, index: IndexId, cost: f64) -> (u32, f64) {
    scenario.failure_for(index).map_or((0, 0.0), |failure| {
        (
            failure.failures,
            cost * failure.waste_fraction.clamp(0.0, 1.0),
        )
    })
}

impl DeployRuntime {
    /// Creates a runtime with the given configuration.
    pub fn new(config: DeployConfig) -> Self {
        Self {
            config,
            telemetry: Telemetry::off(),
            trace_scope: String::new(),
        }
    }

    /// Attaches a telemetry handle (builder style). The default is
    /// [`Telemetry::off`], under which execution is bit-identical to an
    /// uninstrumented run. With a recording handle, each run registers one
    /// event-loop track (`deploy`: event / replan marks and a
    /// `pending` queue-depth gauge) plus one track per build slot
    /// (`slot<j>`: dispatch / fail / complete marks, `busy` spans per
    /// build, and `idle` spans covering the gaps). The tracks are the
    /// projection of the run's journal records, made live as each record
    /// is appended: every stamp is the record's own logical clock.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Prefixes this runtime's telemetry track names (builder style), so
    /// several runs can share one collector without colliding.
    pub fn with_trace_scope(mut self, scope: impl Into<String>) -> Self {
        self.trace_scope = scope.into();
        self
    }

    /// Executes `initial` against `scenario` on `build_slots` concurrent
    /// slots. See the module docs for the execution model and invariants.
    ///
    /// Equivalent to [`DeployRuntime::execute_journaled`] with the journal
    /// dropped (it is recorded either way).
    pub fn execute(
        &self,
        instance: &ProblemInstance,
        initial: &Deployment,
        scenario: &EvolutionScenario,
    ) -> Result<DeploymentReport, DeployError> {
        self.execute_journaled(instance, initial, scenario)
            .map(|(report, _)| report)
    }

    /// Executes like [`DeployRuntime::execute`] and additionally returns the
    /// run's [`DeploymentJournal`]: one typed record per action taken
    /// (dispatch, failed attempt, completion, event landing, replan),
    /// stamped with the exact clock and slot.
    /// [`crate::journal::replay`] reconstructs the identical report from the
    /// journal bit-for-bit.
    ///
    /// This loop only *decides* — which pending position goes into which
    /// slot, which failure spec a build gets, which suffix a replan adopts;
    /// the run state's transitions do the rest (see the module docs).
    pub fn execute_journaled(
        &self,
        instance: &ProblemInstance,
        initial: &Deployment,
        scenario: &EvolutionScenario,
    ) -> Result<(DeploymentReport, DeploymentJournal), DeployError> {
        initial
            .validate(instance)
            .map_err(DeployError::InvalidInitialPlan)?;
        scenario
            .check_finite()
            .map_err(DeployError::InvalidScenario)?;
        let slots = self.config.build_slots.max(1);
        let policy = self.config.dispatch;
        let mut state = RunState::new(instance, initial);
        state.tracks = Tracks::register(&self.telemetry, &self.trace_scope, slots);
        // Replan triggers raised since the last replan.
        let mut triggers: Vec<&'static str> = Vec::new();

        // Earliest event last, so `pop` yields events in time order.
        let mut queue = scenario.sorted_events();
        queue.reverse();

        loop {
            // 1. Land every event due at this completion boundary. (Once
            //    nothing is pending or in flight, future events land too —
            //    they start a new tail, with no idle cost in between.)
            while queue
                .last()
                .is_some_and(|e| e.at <= state.schedule.clock || state.schedule.is_idle())
            {
                let landed = state.land_event(queue.pop().expect("peeked"))?;
                let label = trigger_label(&landed.event.kind);
                if !triggers.contains(&label) {
                    triggers.push(label);
                }
                state.append(JournalRecord::EventLanded(landed));
            }

            // 2. Replan once for everything raised at this boundary, and
            //    let plan validation surface whatever the events broke
            //    (e.g. an addition behind a retracted prerequisite).
            if !triggers.is_empty() {
                let trigger = triggers.join("+");
                triggers.clear();
                if let Some(decision) = self.replan(&mut state, &trigger)? {
                    state.append(JournalRecord::Replan(decision));
                }
                state.validate_plan()?;
            }

            // 3. Nothing pending, in flight, or queued: done.
            if state.schedule.is_idle() && queue.is_empty() {
                return Ok(state.finish());
            }

            // Events and replans only happen in this outer loop, so one
            // completed set serves the dispatch/complete inner loop below;
            // it is rebuilt because a landed event may have changed the
            // instance.
            let current = Rc::clone(&state.instance);
            let evaluator = ObjectiveEvaluator::new(&current);
            let mut completed = state.completed(&evaluator);

            loop {
                // 4. Dispatch pending work into free slots (lowest slot id
                //    first) until the slots are full or the policy admits
                //    nothing more: under head-of-line that is a blocked (or
                //    exhausted) plan head; under work-conserving it means
                //    *no* pending index has all prerequisites completed. No
                //    event can be due here: the outer loop drained
                //    everything at or before this clock, and the inner loop
                //    breaks at the completion that makes the next one due.
                debug_assert!(!queue.last().is_some_and(|e| e.at <= state.schedule.clock));
                while let Some(slot) = state.schedule.free_slot(slots) {
                    let Some(pos) = state.schedule.next_dispatchable(&state.instance, policy)
                    else {
                        break;
                    };
                    let dispatched = state.dispatch(&completed, pos, slot, |index, cost| {
                        failure_spec(scenario, index, cost)
                    });
                    let build = *state.schedule.in_flight().last().expect("just dispatched");
                    state.append(JournalRecord::Dispatch(dispatched));
                    for failed in build.failed_attempts() {
                        state.append(JournalRecord::Fail(failed));
                    }
                }

                // 5. Advance: complete the earliest in-flight build. With
                //    nothing in flight, hand back to the outer loop (which
                //    lands the due — or, with an empty plan, the next
                //    future — event, or finishes).
                let Some(at) = state.schedule.next_completion() else {
                    break;
                };
                let failed = state.schedule.in_flight()[at].retries > 0;
                let record = state.complete(&mut completed, at);
                state.append(JournalRecord::Complete(record));

                // A failure-triggered replan fires at the failing build's
                // completion boundary.
                let failure_trigger = self.config.trigger == ReplanTrigger::OnFailure && failed;
                if failure_trigger {
                    triggers.push("failure");
                }

                // Hand back to the outer loop when this completion made an
                // event due or raised a trigger — landing and replanning
                // mutate the instance, which invalidates the completed set.
                if failure_trigger || queue.last().is_some_and(|e| e.at <= state.schedule.clock) {
                    break;
                }
            }
        }
    }

    /// Decides a replan and adopts it: freezes the commitment (the built
    /// prefix and the in-flight set), derives the residual instance,
    /// re-optimizes it warm-started from the pending order, checks the
    /// splice behind the commitment, and hands the decision to
    /// [`RunState::adopt_replan`]. Returns the adopted decision (the journal
    /// record), or `None` when nothing is pending.
    fn replan(
        &self,
        state: &mut RunState,
        trigger: &str,
    ) -> Result<Option<ReplanDecision>, DeployError> {
        if state.schedule.pending.is_empty() {
            return Ok(None);
        }
        let in_flight: Vec<IndexId> = state.schedule.in_flight().iter().map(|f| f.index).collect();
        let residual = state.instance.residual_for_replan(
            &state.schedule.built,
            &in_flight,
            &state.excluded,
        )?;
        // Score candidates with what this runtime will actually realize:
        // the k-slot list-schedule objective when slot-aware replanning is
        // on (same slot count and dispatch policy), the serial proxy
        // otherwise.
        let scoring = if self.config.slot_aware_replan {
            SuffixScoring::SlotAware {
                slots: self.config.build_slots.max(1),
                dispatch: self.config.dispatch,
            }
        } else {
            SuffixScoring::Serial
        };
        let pending: Vec<IndexId> = state.schedule.pending.iter().copied().collect();
        // In-flight builds keep their slots until they finish, so the
        // scorer sees them as busy. Mechanical plan maintenance (appends on
        // addition, removals on drop) must keep the suffix a permutation of
        // the residual indexes; if it ever does not, surface the bug — a
        // silent fallback would turn the static baseline into a replanning
        // policy.
        let (outcome, new_pending) = self
            .config
            .replanner
            .replan_around(&residual, &pending, scoring, &state.schedule.busy_until())
            .ok_or_else(|| {
                DeployError::InvalidPlan(
                    "in-flight suffix is not a permutation of the residual indexes".into(),
                )
            })?;

        // The spliced order must extend the frozen commitment and satisfy
        // the (possibly revised) closure — checked here *and* by
        // validate_plan.
        let spliced = Deployment::splice(&state.committed, &new_pending);
        if !spliced.starts_with(&state.committed) {
            return Err(DeployError::InvalidPlan(
                "replan reordered the frozen commitment".into(),
            ));
        }

        Ok(Some(state.adopt_replan(ReplanDecision {
            clock: state.schedule.clock,
            trigger: trigger.to_string(),
            pending: new_pending,
            warm_start_objective: outcome.warm_start_objective,
            objective: outcome.objective,
            solver: outcome.solver,
            improved: outcome.improved,
        })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idd_core::{DesignRevision, EvolutionEvent, IndexAddition, QueryId, WorkloadDrift};

    /// The paper-style competing example plus a second query, so drift has
    /// something to move between.
    fn instance() -> ProblemInstance {
        let mut b = ProblemInstance::builder("runtime");
        let i0 = b.add_index(4.0);
        let i1 = b.add_index(6.0);
        let i2 = b.add_index(3.0);
        let i3 = b.add_index(5.0);
        let q0 = b.add_query(30.0);
        b.add_plan(q0, vec![i0], 5.0);
        b.add_plan(q0, vec![i1], 20.0);
        let q1 = b.add_query(40.0);
        b.add_plan(q1, vec![i2], 8.0);
        b.add_plan(q1, vec![i2, i3], 25.0);
        b.add_build_interaction(i1, i0, 2.0);
        b.add_build_interaction(i3, i2, 1.5);
        b.build().unwrap()
    }

    fn drift_at(at: f64, query: usize, weight: f64) -> EvolutionEvent {
        EvolutionEvent {
            at,
            kind: EventKind::Drift(WorkloadDrift {
                weights: vec![(QueryId::new(query), weight)],
            }),
        }
    }

    #[test]
    fn quiet_scenario_reproduces_the_offline_objective_bit_for_bit() {
        let inst = instance();
        let plan = Deployment::from_raw([1, 0, 3, 2]);
        let offline = ObjectiveEvaluator::new(&inst).evaluate(&plan);
        let report = DeployRuntime::default()
            .execute(&inst, &plan, &EvolutionScenario::quiet("none"))
            .unwrap();
        assert_eq!(report.realized_cost.to_bits(), offline.area.to_bits());
        assert_eq!(report.final_runtime, offline.final_runtime);
        assert_eq!(report.total_clock, offline.deployment_time);
        assert_eq!(report.realized_order(), plan);
        assert!(report.replans.is_empty());
        assert_eq!(report.events_applied, 0);
    }

    #[test]
    fn drift_changes_realized_cost_even_for_the_static_plan() {
        let inst = instance();
        let plan = Deployment::from_raw([0, 1, 2, 3]);
        let offline = ObjectiveEvaluator::new(&inst).evaluate_area(&plan);
        let scenario = EvolutionScenario {
            name: "drift".into(),
            events: vec![drift_at(4.0, 1, 5.0)],
            failures: vec![],
        };
        let report = DeployRuntime::new(DeployConfig::static_plan())
            .execute(&inst, &plan, &scenario)
            .unwrap();
        // Same order executed, but the cost after t=4 is paid at the new
        // weights, so realized != offline.
        assert_eq!(report.realized_order(), plan);
        assert!(report.realized_cost > offline);
        assert_eq!(report.events_applied, 1);
        // The static baseline records its (non-)replans as warm-start keeps.
        assert_eq!(report.replans.len(), 1);
        assert_eq!(report.replans[0].solver, "warm-start");
        assert!(!report.replans[0].improved);
    }

    #[test]
    fn replanning_beats_the_static_plan_on_a_hostile_drift() {
        let inst = instance();
        // Offline-optimal-ish start that serves q0 first; then q1 becomes
        // 10x as important while q0 evaporates.
        let plan = Deployment::from_raw([1, 0, 2, 3]);
        let scenario = EvolutionScenario {
            name: "hostile".into(),
            events: vec![EvolutionEvent {
                at: 6.0, // right after the first build
                kind: EventKind::Drift(WorkloadDrift {
                    weights: vec![(QueryId::new(0), 0.1), (QueryId::new(1), 10.0)],
                }),
            }],
            failures: vec![],
        };
        let static_cost = DeployRuntime::new(DeployConfig::static_plan())
            .execute(&inst, &plan, &scenario)
            .unwrap()
            .realized_cost;
        let replanned = DeployRuntime::new(DeployConfig::greedy_replan())
            .execute(&inst, &plan, &scenario)
            .unwrap();
        assert!(
            replanned.realized_cost < static_cost - 1e-9,
            "greedy replan {} must beat static {static_cost}",
            replanned.realized_cost
        );
        assert!(replanned.prefixes_respected());
        assert_eq!(replanned.replans.len(), 1);
        assert!(replanned.replans[0].improved);
    }

    #[test]
    fn revisions_extend_and_shrink_the_plan_mid_flight() {
        let inst = instance();
        let plan = Deployment::from_raw([0, 1, 2, 3]);
        let scenario = EvolutionScenario {
            name: "revision".into(),
            events: vec![EvolutionEvent {
                at: 4.0,
                kind: EventKind::Revision(DesignRevision {
                    add: vec![IndexAddition {
                        name: "late_arrival".into(),
                        creation_cost: 2.0,
                        plans: vec![(QueryId::new(1), vec![], 30.0)],
                        helped_by: vec![(IndexId::new(2), 1.0)],
                        helps: vec![],
                        after: vec![IndexId::new(0)],
                    }],
                    drop: vec![IndexId::new(3), IndexId::new(0)],
                }),
            }],
            failures: vec![],
        };
        let report = DeployRuntime::new(DeployConfig::greedy_replan())
            .execute(&inst, &plan, &scenario)
            .unwrap();
        let order = report.realized_order();
        // i0 was already built when the drop landed: ineffective. i3 was
        // retracted. The new index was built.
        assert_eq!(report.ineffective_drops, 1);
        assert_eq!(order.len(), 4);
        assert!(order.position_of(IndexId::new(3)).is_none());
        assert!(order.position_of(IndexId::new(4)).is_some());
        // The addition's precedence (i0 before the new index) holds.
        assert!(
            order.position_of(IndexId::new(0)).unwrap()
                < order.position_of(IndexId::new(4)).unwrap()
        );
        assert!(report.prefixes_respected());
    }

    #[test]
    fn failures_waste_clock_and_are_reported() {
        let inst = instance();
        let plan = Deployment::from_raw([0, 1, 2, 3]);
        let quiet_cost = DeployRuntime::default()
            .execute(&inst, &plan, &EvolutionScenario::quiet("q"))
            .unwrap()
            .realized_cost;
        let scenario = EvolutionScenario {
            name: "flaky".into(),
            events: vec![],
            failures: vec![idd_core::BuildFailure {
                index: IndexId::new(1),
                failures: 2,
                waste_fraction: 0.5,
            }],
        };
        let report = DeployRuntime::default()
            .execute(&inst, &plan, &scenario)
            .unwrap();
        assert_eq!(report.retries, 2);
        // i1 costs 4 effective (6 - 2 from i0): two half-cost failures
        // waste 4.0 clock at the post-i0 workload runtime of 65s
        // (q0 30→25 via its 5s plan, q1 still 40).
        assert!((report.total_wasted - 4.0).abs() < 1e-9);
        assert!((report.realized_cost - (quiet_cost + 65.0 * 4.0)).abs() < 1e-9);
        assert_eq!(report.total_clock, report.total_build_time + 4.0);
        assert_eq!(report.builds[1].retries, 2);
        assert_eq!(report.builds[1].wasted, 4.0);
    }

    #[test]
    fn post_completion_revisions_start_a_new_tail() {
        let inst = instance();
        let plan = Deployment::from_raw([0, 1, 2, 3]);
        // Deployment lasts 4+4+3+3.5 = 14.5s; the revision lands at t=50.
        let scenario = EvolutionScenario {
            name: "late".into(),
            events: vec![EvolutionEvent {
                at: 50.0,
                kind: EventKind::Revision(DesignRevision {
                    add: vec![IndexAddition {
                        name: "after_the_fact".into(),
                        creation_cost: 1.0,
                        plans: vec![(QueryId::new(0), vec![], 25.0)],
                        helped_by: vec![],
                        helps: vec![],
                        after: vec![],
                    }],
                    drop: vec![],
                }),
            }],
            failures: vec![],
        };
        let report = DeployRuntime::new(DeployConfig::greedy_replan())
            .execute(&inst, &plan, &scenario)
            .unwrap();
        assert_eq!(report.builds.len(), 5);
        // The tail build starts when the event lands, with no idle cost.
        assert_eq!(report.builds[4].start, 50.0);
        assert_eq!(report.total_clock, 51.0);
        assert_eq!(report.total_build_time, 15.5);
    }

    #[test]
    fn invalid_initial_plan_is_rejected() {
        let inst = instance();
        let short = Deployment::from_raw([0, 1]);
        let err = DeployRuntime::default()
            .execute(&inst, &short, &EvolutionScenario::quiet("q"))
            .unwrap_err();
        assert!(matches!(err, DeployError::InvalidInitialPlan(_)));
        assert!(err.to_string().contains("invalid initial plan"));
    }

    #[test]
    fn two_slot_quiet_timeline_hand_computed() {
        // Plan [0,1,2,3] on two slots. Dispatch order is plan order; i1 and
        // i3 start before their helpers complete, so they pay full price —
        // the makespan shrinks from 14.5 to 11 anyway:
        //
        //   slot 0: i0 [0,4]           i2 [4,7]
        //   slot 1: i1 [0,6]           i3 [6,11]
        //   runtime: 70 →(i0@4) 65 →(i1@6) 50 →(i2@7) 42 →(i3@11) 25
        //   realized = 70·4 + 65·2 + 50·1 + 42·4 = 628
        let inst = instance();
        let plan = Deployment::from_raw([0, 1, 2, 3]);
        let report = DeployRuntime::new(DeployConfig::static_plan().with_build_slots(2))
            .execute(&inst, &plan, &EvolutionScenario::quiet("q"))
            .unwrap();
        assert_eq!(report.realized_order(), plan);
        assert_eq!(report.slots_used(), 2);
        let slots: Vec<usize> = report.builds.iter().map(|b| b.slot).collect();
        assert_eq!(slots, [0, 1, 0, 1]);
        let costs: Vec<f64> = report.builds.iter().map(|b| b.cost).collect();
        assert_eq!(
            costs,
            [4.0, 6.0, 3.0, 5.0],
            "in-flight helpers discount nothing"
        );
        let finishes: Vec<f64> = report.builds.iter().map(|b| b.finish).collect();
        assert_eq!(finishes, [4.0, 6.0, 7.0, 11.0]);
        assert!((report.realized_cost - 628.0).abs() < 1e-9);
        assert_eq!(report.total_clock, 11.0);
        assert_eq!(report.total_build_time, 18.0);
        assert_eq!(report.final_runtime, 25.0);

        // The serial run pays 837 over 14.5s: concurrency wins here even
        // though it forfeits both build-interaction discounts.
        let serial = DeployRuntime::default()
            .execute(&inst, &plan, &EvolutionScenario::quiet("q"))
            .unwrap();
        assert!((serial.realized_cost - 837.0).abs() < 1e-9);
        assert_eq!(serial.total_clock, 14.5);
        assert!(report.realized_cost < serial.realized_cost);
    }

    #[test]
    fn precedence_blocks_dispatch_until_the_prerequisite_completes() {
        let mut b = ProblemInstance::builder("gate");
        let i0 = b.add_index(4.0);
        let i1 = b.add_index(6.0);
        let i2 = b.add_index(3.0);
        let q0 = b.add_query(50.0);
        b.add_plan(q0, vec![i0], 10.0);
        b.add_plan(q0, vec![i1], 30.0);
        b.add_plan(q0, vec![i2], 5.0);
        b.add_precedence(i0, i1);
        let inst = b.build().unwrap();
        let plan = Deployment::from_raw([0, 1, 2]);
        let report = DeployRuntime::new(DeployConfig::static_plan().with_build_slots(2))
            .execute(&inst, &plan, &EvolutionScenario::quiet("q"))
            .unwrap();
        // i1 is the head while i0 is in flight: the second slot must idle
        // (no skipping ahead to i2 — dispatch is strictly in plan order).
        assert_eq!(report.builds[0].start, 0.0);
        assert_eq!(report.builds[1].index, IndexId::new(1));
        assert_eq!(report.builds[1].start, 4.0, "gated on i0's completion");
        assert_eq!(report.builds[2].index, IndexId::new(2));
        assert_eq!(report.builds[2].start, 4.0, "freed alongside the gate");
        assert_eq!(report.builds[2].slot, 1);
        assert!(report.realized_order().is_valid_for(&inst));
        assert_eq!(report.out_of_order_dispatches, 0);
        assert!(report.builds.iter().all(|b| b.plan_offset == 0));
    }

    #[test]
    fn work_conserving_dispatch_overtakes_a_blocked_head() {
        // Same gate as the head-of-line test: plan [0,1,2] with i0 → i1, two
        // slots. Head-of-line idles slot 1 until i0 completes; the
        // work-conserving dispatcher reaches past the blocked i1 and starts
        // i2 at t=0, recording the overtake without reordering the plan.
        let mut b = ProblemInstance::builder("gate");
        let i0 = b.add_index(4.0);
        let i1 = b.add_index(6.0);
        let i2 = b.add_index(3.0);
        let q0 = b.add_query(50.0);
        b.add_plan(q0, vec![i0], 10.0);
        b.add_plan(q0, vec![i1], 30.0);
        b.add_plan(q0, vec![i2], 5.0);
        b.add_precedence(i0, i1);
        let inst = b.build().unwrap();
        let plan = Deployment::from_raw([0, 1, 2]);
        let hol = DeployRuntime::new(DeployConfig::static_plan().with_build_slots(2))
            .execute(&inst, &plan, &EvolutionScenario::quiet("q"))
            .unwrap();
        let wc = DeployRuntime::new(
            DeployConfig::static_plan()
                .with_build_slots(2)
                .with_dispatch(DispatchPolicy::WorkConserving),
        )
        .execute(&inst, &plan, &EvolutionScenario::quiet("q"))
        .unwrap();
        let dispatched: Vec<usize> = wc.builds.iter().map(|b| b.index.raw()).collect();
        assert_eq!(dispatched, [0, 2, 1], "i2 overtakes the gated i1");
        assert_eq!(wc.builds[1].start, 0.0, "slot 1 never idles");
        assert_eq!(wc.builds[1].slot, 1);
        assert_eq!(wc.builds[1].plan_offset, 1, "reached one past the head");
        assert_eq!(wc.builds[0].plan_offset, 0);
        assert_eq!(wc.builds[2].plan_offset, 0, "i1 is the head once i2 left");
        assert_eq!(wc.out_of_order_dispatches, 1);
        assert!(wc.realized_order().is_valid_for(&inst));
        // Keeping the slot busy is strictly cheaper here, and no slower.
        assert!(
            wc.realized_cost < hol.realized_cost - 1e-9,
            "work-conserving {} must beat idling {}",
            wc.realized_cost,
            hol.realized_cost
        );
        assert!(wc.total_clock <= hol.total_clock);
    }

    #[test]
    fn work_conserving_with_one_slot_is_bit_identical_to_head_of_line() {
        // With one slot nothing is ever in flight at a dispatch point, and a
        // validated plan's head is always eligible — the first-eligible scan
        // degenerates to head-only, bit for bit.
        let inst = instance();
        let plan = Deployment::from_raw([0, 1, 2, 3]);
        let scenario = EvolutionScenario {
            name: "mixed".into(),
            events: vec![drift_at(4.5, 1, 6.0)],
            failures: vec![idd_core::BuildFailure {
                index: IndexId::new(2),
                failures: 1,
                waste_fraction: 0.5,
            }],
        };
        let hol = DeployRuntime::new(DeployConfig::greedy_replan())
            .execute(&inst, &plan, &scenario)
            .unwrap();
        let wc = DeployRuntime::new(
            DeployConfig::greedy_replan().with_dispatch(DispatchPolicy::WorkConserving),
        )
        .execute(&inst, &plan, &scenario)
        .unwrap();
        assert_eq!(wc, hol);
        assert_eq!(wc.out_of_order_dispatches, 0);
    }

    #[test]
    fn build_slots_are_normalized_in_the_builder() {
        assert_eq!(
            DeployConfig::static_plan().with_build_slots(0).build_slots,
            1
        );
        assert_eq!(
            DeployConfig::static_plan().with_build_slots(3).build_slots,
            3
        );
        assert_eq!(DeployConfig::default().build_slots, 1);
        assert_eq!(DeployConfig::default().dispatch, DispatchPolicy::HeadOfLine);
        assert!(!DeployConfig::default().slot_aware_replan);
    }

    #[test]
    fn mid_flight_replan_freezes_the_in_flight_set() {
        let inst = instance();
        let plan = Deployment::from_raw([0, 1, 2, 3]);
        // Two slots: i0 [0,4] and i1 [0,6] overlap; the drift lands at the
        // i0 completion boundary (t=4) while i1 is still building.
        let scenario = EvolutionScenario {
            name: "midflight".into(),
            events: vec![drift_at(3.5, 1, 10.0)],
            failures: vec![],
        };
        let report = DeployRuntime::new(DeployConfig::greedy_replan().with_build_slots(2))
            .execute(&inst, &plan, &scenario)
            .unwrap();
        assert_eq!(report.replans.len(), 1);
        let replan = &report.replans[0];
        assert_eq!(replan.clock, 4.0);
        assert_eq!(replan.frozen_prefix, [IndexId::new(0), IndexId::new(1)]);
        assert_eq!(replan.in_flight, [IndexId::new(1)]);
        assert_eq!(replan.suffix_len, 2);
        assert!(report.prefixes_respected());
        assert!(report.in_flight_respected());
        // The in-flight build was neither cancelled nor rebuilt.
        assert_eq!(report.builds[1].index, IndexId::new(1));
        assert_eq!(report.builds[1].finish, 6.0);
        assert_eq!(report.builds.len(), 4);
    }

    #[test]
    fn on_failure_trigger_recovers_realized_cost() {
        let inst = instance();
        // A deliberately mediocre tail: after i0, the pending order serves
        // the big q1 speed-up last.
        let plan = Deployment::from_raw([0, 3, 1, 2]);
        let scenario = EvolutionScenario {
            name: "flaky".into(),
            events: vec![],
            failures: vec![idd_core::BuildFailure {
                index: IndexId::new(0),
                failures: 2,
                waste_fraction: 0.9,
            }],
        };
        let ignore = DeployRuntime::new(DeployConfig::greedy_replan())
            .execute(&inst, &plan, &scenario)
            .unwrap();
        assert!(ignore.replans.is_empty(), "OnEvent never fires here");
        let react = DeployRuntime::new(
            DeployConfig::greedy_replan().with_trigger(ReplanTrigger::OnFailure),
        )
        .execute(&inst, &plan, &scenario)
        .unwrap();
        assert_eq!(react.replans.len(), 1);
        assert_eq!(react.replans[0].trigger, "failure");
        assert!(react.replans[0].improved);
        assert!(
            react.realized_cost < ignore.realized_cost - 1e-9,
            "failure-triggered replan {} must recover cost vs {}",
            react.realized_cost,
            ignore.realized_cost
        );
        // Same failures either way — the replan reorders the suffix only.
        assert_eq!(react.retries, ignore.retries);
        assert_eq!(react.builds[0].index, IndexId::new(0));
    }

    #[test]
    fn drifts_at_two_boundaries_replan_once_each() {
        let inst = instance();
        let plan = Deployment::from_raw([0, 1, 2, 3]);
        // Serial boundaries: 4, 8, 11, 14.5. The two drifts land at
        // different boundaries (8 and 11), 4.5 clock apart.
        let scenario = EvolutionScenario {
            name: "burst".into(),
            events: vec![drift_at(4.5, 1, 3.0), drift_at(9.0, 0, 0.5)],
            failures: vec![],
        };
        let eager = DeployRuntime::new(DeployConfig::static_plan())
            .execute(&inst, &plan, &scenario)
            .unwrap();
        assert_eq!(eager.replans.len(), 2);
    }

    #[test]
    fn a_permanently_blocked_head_surfaces_as_an_infeasible_event() {
        // A revision retracts i1, a second one adds X behind an
        // `after = [i1]` precedence, and a third event is still queued.
        // After the batch lands, the pending head X is permanently
        // ineligible and nothing is in flight — the clock can never reach
        // the queued event. The replan at the landing boundary must surface
        // the broken precedence instead of waiting for it.
        let inst = instance();
        let plan = Deployment::from_raw([0, 1, 2, 3]);
        let scenario = EvolutionScenario {
            name: "stuck".into(),
            events: vec![
                EvolutionEvent {
                    at: 3.0,
                    kind: EventKind::Revision(DesignRevision {
                        add: vec![],
                        drop: vec![IndexId::new(1), IndexId::new(2), IndexId::new(3)],
                    }),
                },
                EvolutionEvent {
                    at: 3.5,
                    kind: EventKind::Revision(DesignRevision {
                        add: vec![IndexAddition {
                            name: "orphaned".into(),
                            creation_cost: 2.0,
                            plans: vec![(QueryId::new(0), vec![], 10.0)],
                            helped_by: vec![],
                            helps: vec![],
                            after: vec![IndexId::new(1)],
                        }],
                        drop: vec![],
                    }),
                },
                drift_at(6.0, 0, 2.0),
            ],
            failures: vec![],
        };
        let eager = DeployRuntime::new(DeployConfig::static_plan())
            .execute(&inst, &plan, &scenario)
            .unwrap_err();
        assert!(matches!(eager, DeployError::InfeasibleEvent(_)), "{eager}");
    }

    #[test]
    fn coincident_events_trigger_exactly_one_replan() {
        let inst = instance();
        let plan = Deployment::from_raw([0, 1, 2, 3]);
        let scenario = EvolutionScenario {
            name: "coincident".into(),
            events: vec![
                drift_at(4.0, 1, 2.0),
                drift_at(4.0, 0, 3.0),
                EvolutionEvent {
                    at: 4.0,
                    kind: EventKind::Revision(DesignRevision {
                        add: vec![],
                        drop: vec![IndexId::new(3)],
                    }),
                },
            ],
            failures: vec![],
        };
        let report = DeployRuntime::new(DeployConfig::greedy_replan())
            .execute(&inst, &plan, &scenario)
            .unwrap();
        assert_eq!(report.events_applied, 3);
        assert_eq!(report.replans.len(), 1, "coincident events batch");
        assert_eq!(report.replans[0].trigger, "drift+revision");
    }

    #[test]
    fn zero_slots_are_clamped_to_one() {
        let inst = instance();
        let plan = Deployment::from_raw([1, 0, 3, 2]);
        let scenario = EvolutionScenario {
            name: "drift".into(),
            events: vec![drift_at(5.0, 1, 4.0)],
            failures: vec![],
        };
        let zero = DeployRuntime::new(DeployConfig::greedy_replan().with_build_slots(0))
            .execute(&inst, &plan, &scenario)
            .unwrap();
        let one = DeployRuntime::new(DeployConfig::greedy_replan())
            .execute(&inst, &plan, &scenario)
            .unwrap();
        assert_eq!(zero, one);
    }
}
