//! The k-slot list scheduler, written once: the deploy runtime, its
//! journal replay and the slot-aware replan scorer all drive
//! [`SlotSchedule`].
//!
//! [`ObjectiveEvaluator::evaluate_area`](crate::ObjectiveEvaluator::evaluate_area)
//! scores an order under the paper's serial model. On `k` concurrent slots
//! builds overlap, an index dispatched before its helper *completes*
//! forfeits the discount, and the workload runtime integrates over the
//! shorter overlapped wall-clock — so the serial area is only a proxy for
//! what a concurrent runtime pays. [`SlotSchedule`] holds the pending
//! suffix, the builds in flight, the completed set, the clock and the exact
//! realized cost, and applies the rules:
//!
//! * an index is *eligible* once every precedence prerequisite has
//!   *completed*, and the [`DispatchPolicy`] scan picks the next index to
//!   run ([`SlotSchedule::next_dispatchable`]);
//! * dispatch fills the lowest-numbered free slot and prices the build
//!   against the completed set, so an in-flight helper discounts nothing
//!   ([`SlotSchedule::dispatch`]);
//! * completions land earliest-finish-first, dispatch order breaking ties,
//!   each elapsed span accruing `runtime · duration` into one [`ExactSum`]
//!   ([`SlotSchedule::complete`]).
//!
//! The caller holds the completed set as a [`PrefixState`]: dispatch prices
//! with its `build_cost`, and a completion accrues at its `runtime`, then
//! pushes, so the state steps through the completion order.
//!
//! The deploy runtime (`idd-deploy`) drives the schedule through its
//! journal transitions, adding events, replans and failures.
//! [`SlotScheduleEvaluator`] runs it on a quiet tail, so on a quiet run it
//! *is* the runtime, bit for bit; it adds only the slots a mid-flight
//! replan sees still occupied ([`SlotScheduleEvaluator::with_busy_until`]).
//! With `k = 1` every order degenerates to the serial schedule and the
//! evaluator reproduces the serial area bit-for-bit, which lets a
//! replanner switch objectives without perturbing single-slot behavior.

use crate::accsum::ExactSum;
use crate::instance::ProblemInstance;
use crate::journal::FailRecord;
use crate::objective::{ObjectiveEvaluator, PrefixState};
use crate::solution::Deployment;
use crate::types::IndexId;
use std::collections::VecDeque;

/// How pending builds are admitted into free slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchPolicy {
    /// Only the planned head may dispatch: a head blocked behind an
    /// incomplete precedence prerequisite idles every free slot behind it.
    /// The default — dispatch order equals plan order, which keeps
    /// multi-slot runs predictable.
    #[default]
    HeadOfLine,
    /// The first *eligible* pending index in plan order dispatches, without
    /// reordering the plan, so no free slot idles while eligible work is
    /// pending; every dispatch past the head is an overtake. With one slot
    /// this is head-of-line: when the slot is free nothing is in flight,
    /// and a valid plan's head is then always eligible.
    WorkConserving,
}

/// A build occupying a slot: dispatched, not yet completed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotBuild {
    /// The index being built.
    pub index: IndexId,
    /// The slot it occupies.
    pub slot: usize,
    /// Dispatch sequence number: the builds dispatched before this one.
    pub position: usize,
    /// Clock at dispatch, when the first attempt starts.
    pub start: f64,
    /// `start + (wasted + cost)`, the completion time.
    pub finish: f64,
    /// Effective build cost of the successful attempt, priced against the
    /// indexes completed at `start`.
    pub cost: f64,
    /// Failed attempts before the successful one.
    pub retries: u32,
    /// Clock each failed attempt wastes.
    pub waste_per_failure: f64,
    /// Clock all failed attempts waste, accumulated one at a time.
    pub wasted: f64,
}

impl SlotBuild {
    /// The journal records of this build's failed attempts, in order. The
    /// attempts run back to back from the build's start: attempt `k` starts
    /// after `k − 1` wasted attempts, accumulated one at a time.
    pub fn failed_attempts(self) -> impl Iterator<Item = FailRecord> {
        let mut clock = self.start;
        (1..=self.retries).map(move |attempt| {
            let record = FailRecord {
                clock,
                slot: self.slot,
                index: self.index,
                attempt,
                wasted: self.waste_per_failure,
            };
            clock += self.waste_per_failure;
            record
        })
    }
}

/// The state of a k-slot list schedule and its rules (see the module docs).
/// The pending suffix, the completed set, the clock and the realized sum are
/// plain data the deploy runtime edits between boundaries (events land,
/// replans adopt a new suffix); the builds in flight change only through
/// [`SlotSchedule::dispatch`] and [`SlotSchedule::complete`].
#[derive(Debug, Clone)]
pub struct SlotSchedule {
    /// The planned unbuilt suffix, in execution order. A `VecDeque` so head
    /// dispatch is O(1) (and a work-conserving overtake at position `p`
    /// costs `O(min(p, n − p))`, not a full shift).
    pub pending: VecDeque<IndexId>,
    /// Builds occupying slots, in dispatch order.
    in_flight: Vec<SlotBuild>,
    /// Bitmap of *completed* indexes, keyed by raw index id.
    pub built: Vec<bool>,
    /// The schedule clock: the time of the current boundary.
    pub clock: f64,
    /// Exact accumulator of the realized cost: every `runtime · duration`
    /// product lands here error-free and is rounded once, so a quiet
    /// one-slot schedule reproduces the offline objective area bit-for-bit
    /// (the offline evaluator sums the same products the same way).
    pub realized: ExactSum,
    /// Builds dispatched so far.
    dispatched: usize,
    /// Dispatches that overtook a blocked planned head.
    overtakes: usize,
}

impl SlotSchedule {
    /// A schedule at t = 0 over an instance of `n` indexes: nothing
    /// completed or in flight, `pending` planned.
    pub fn new(n: usize, pending: impl IntoIterator<Item = IndexId>) -> Self {
        Self {
            pending: pending.into_iter().collect(),
            in_flight: Vec::new(),
            built: vec![false; n],
            clock: 0.0,
            realized: ExactSum::new(),
            dispatched: 0,
            overtakes: 0,
        }
    }

    /// `true` when `index` may be dispatched: every precedence prerequisite
    /// in `instance` has *completed* (an in-flight prerequisite blocks
    /// dispatch — the dependency is on the built artifact, not on the
    /// commitment).
    pub fn eligible(&self, instance: &ProblemInstance, index: IndexId) -> bool {
        instance
            .precedences()
            .iter()
            .all(|pr| pr.after != index || self.built[pr.before.raw()])
    }

    /// Position in `pending` of the next index `policy` admits into a free
    /// slot, if any. Eligibility depends only on the *completed* set, so
    /// the answer is stable across the dispatches of one boundary.
    pub fn next_dispatchable(
        &self,
        instance: &ProblemInstance,
        policy: DispatchPolicy,
    ) -> Option<usize> {
        let limit = match policy {
            DispatchPolicy::HeadOfLine => self.pending.len().min(1),
            DispatchPolicy::WorkConserving => self.pending.len(),
        };
        (0..limit).find(|&pos| self.eligible(instance, self.pending[pos]))
    }

    /// The builds occupying slots, in dispatch order.
    pub fn in_flight(&self) -> &[SlotBuild] {
        &self.in_flight
    }

    /// Dispatches so far that overtook a blocked planned head.
    pub fn overtakes(&self) -> usize {
        self.overtakes
    }

    /// `true` when nothing is pending or in flight.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty() && self.in_flight.is_empty()
    }

    /// `true` when no in-flight build occupies `slot`.
    pub fn slot_is_free(&self, slot: usize) -> bool {
        self.in_flight.iter().all(|f| f.slot != slot)
    }

    /// The lowest-numbered of slots `0..slots` that no build occupies.
    pub fn free_slot(&self, slots: usize) -> Option<usize> {
        (0..slots).find(|&slot| self.slot_is_free(slot))
    }

    /// Position in `in_flight` of the build that completes next: earliest
    /// finish first, dispatch order breaking ties (`in_flight` is in
    /// dispatch order, and `min_by` keeps the first of equal elements).
    pub fn next_completion(&self) -> Option<usize> {
        self.in_flight
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.finish.total_cmp(&b.finish))
            .map(|(at, _)| at)
    }

    /// Offsets from the clock at which the in-flight builds free their
    /// slots, in dispatch order — the occupied slots a replan at this
    /// boundary sees ([`SlotScheduleEvaluator::with_busy_until`]).
    pub fn busy_until(&self) -> Vec<f64> {
        self.in_flight
            .iter()
            .map(|f| f.finish - self.clock)
            .collect()
    }

    /// Dispatches the index at `plan_offset` in the pending suffix into
    /// `slot` at the current clock. The build is priced against the
    /// completed set, `completed` ([`PrefixState::build_cost`]: an
    /// in-flight helper discounts nothing); `failure` maps (index, cost) to
    /// its failure spec — `(retries, waste_per_failure)`: that many attempts
    /// waste that much clock each before the build succeeds, all inside
    /// this slot — and the slot stays occupied until completion.
    pub fn dispatch(
        &mut self,
        completed: &PrefixState<'_>,
        plan_offset: usize,
        slot: usize,
        failure: impl FnOnce(IndexId, f64) -> (u32, f64),
    ) -> SlotBuild {
        let index = self
            .pending
            .remove(plan_offset)
            .expect("plan offset within the pending suffix");
        self.overtakes += usize::from(plan_offset > 0);
        let cost = completed.build_cost(index);
        let (retries, waste_per_failure) = failure(index, cost);
        let mut wasted = 0.0;
        for _ in 0..retries {
            wasted += waste_per_failure;
        }
        let build = SlotBuild {
            index,
            slot,
            position: self.dispatched,
            start: self.clock,
            finish: self.clock + (wasted + cost),
            cost,
            retries,
            waste_per_failure,
            wasted,
        };
        self.in_flight.push(build);
        self.dispatched += 1;
        build
    }

    /// Completes the in-flight build at `at`: the workload cost of
    /// `[clock, finish]` accrues at the runtime level of `completed`, the
    /// clock advances, and the index lands ([`PrefixState::push`], so the
    /// completed set's pushes follow completion order).
    pub fn complete(&mut self, completed: &mut PrefixState<'_>, at: usize) -> SlotBuild {
        let build = self.in_flight.remove(at);
        // When nothing has been accrued since this build started (always
        // true with one slot), split the span into the serial per-attempt
        // products so the one-slot schedule reproduces the serial
        // arithmetic bit-for-bit; otherwise accrue the remaining span in one
        // piece (the runtime level is constant over it — every earlier
        // completion has already been processed).
        let (attempts, last) = if self.clock.to_bits() == build.start.to_bits() {
            (build.retries as usize, build.cost)
        } else {
            (0, build.finish - self.clock)
        };
        let runtime = completed.runtime();
        for span in std::iter::repeat_n(build.waste_per_failure, attempts).chain([last]) {
            self.realized.add_prod(runtime, span);
        }
        self.clock = build.finish;
        completed.push(build.index);
        self.built[build.index.raw()] = true;
        build
    }

    /// Advances the clock to `at` with nothing completing — an occupied
    /// slot draining — accruing the span at `runtime`. A no-op unless `at`
    /// is later than the clock.
    fn wait_until(&mut self, runtime: f64, at: f64) {
        if at > self.clock {
            self.realized.add_prod(runtime, at - self.clock);
            self.clock = at;
        }
    }
}

/// What one list-scheduled run of an order realized on `k` slots.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotScheduleValue {
    /// The realized k-slot objective area: workload runtime integrated over
    /// the schedule's wall-clock, canonically rounded once.
    pub area: f64,
    /// The schedule makespan (completion time of the last build).
    pub makespan: f64,
    /// Workload runtime once every index has completed.
    pub final_runtime: f64,
    /// Number of builds dispatched ahead of a blocked planned head (always
    /// `0` under head-of-line rules, where nothing may overtake).
    pub overtakes: usize,
}

/// List-schedules deployment orders onto `k` concurrent build slots with
/// [`SlotSchedule`] and returns the realized k-slot objective area. See the
/// module docs for the exact semantics and the bit-for-bit guarantees.
#[derive(Debug, Clone)]
pub struct SlotScheduleEvaluator<'a> {
    instance: &'a ProblemInstance,
    evaluator: ObjectiveEvaluator<'a>,
    slots: usize,
    policy: DispatchPolicy,
    /// Offsets (from the schedule's t = 0) at which initially-occupied
    /// slots become free, latest first; empty = every slot free at once.
    busy_until: Vec<f64>,
}

impl<'a> SlotScheduleEvaluator<'a> {
    /// An evaluator over `slots` concurrent slots (`0` is treated as `1`,
    /// like the deploy runtime's `build_slots`) under `policy`.
    pub fn new(instance: &'a ProblemInstance, slots: usize, policy: DispatchPolicy) -> Self {
        Self {
            instance,
            evaluator: ObjectiveEvaluator::new(instance),
            slots: slots.max(1),
            policy,
            busy_until: Vec::new(),
        }
    }

    /// Marks slots as initially occupied: `busy[i]` is the offset from the
    /// schedule's t = 0 at which the i-th occupied slot frees up. This is
    /// what a mid-flight replan sees — in-flight builds hold some slots
    /// past the replan point, so a candidate suffix that assumes all `k`
    /// slots are free at once is scored against a schedule that cannot
    /// happen. Non-finite or non-positive offsets count as free
    /// immediately; offsets beyond the slot count are ignored (there is
    /// nothing left to occupy).
    pub fn with_busy_until(mut self, busy: &[f64]) -> Self {
        self.busy_until = busy
            .iter()
            .copied()
            .take(self.slots)
            .filter(|b| b.is_finite() && *b > 0.0)
            .collect();
        self.busy_until.sort_by(|a, b| b.total_cmp(a));
        self
    }

    /// The realized k-slot objective area of `order` (no timeline detail).
    pub fn evaluate_area(&self, order: &Deployment) -> f64 {
        self.evaluate(order).area
    }

    /// List-schedules `order` and returns the realized area, makespan,
    /// final runtime and overtake count.
    ///
    /// `order` must be a valid deployment of the instance (a permutation
    /// satisfying the precedence closure — checked in debug builds): with a
    /// prerequisite scheduled *after* its dependent, no dispatch rule could
    /// ever clear the dependent and the schedule would wedge.
    pub fn evaluate(&self, order: &Deployment) -> SlotScheduleValue {
        debug_assert!(order.validate(self.instance).is_ok());
        let mut completed = self.evaluator.prefix_state();
        let mut schedule =
            SlotSchedule::new(self.instance.num_indexes(), order.order().iter().copied());
        let mut draining = self.busy_until.clone();
        loop {
            // While `d` occupied slots still drain, only `slots − d` can take
            // work. Slots are interchangeable here, so which ones drain
            // does not matter.
            while let Some(slot) = schedule.free_slot(self.slots - draining.len()) {
                let Some(pos) = schedule.next_dispatchable(self.instance, self.policy) else {
                    break;
                };
                schedule.dispatch(&completed, pos, slot, |_, _| (0, 0.0));
            }
            // Once every pending index has completed, slots still draining
            // are irrelevant: they must not stretch the makespan or accrue
            // area past the last build.
            if schedule.is_idle() {
                break;
            }
            let next = schedule.next_completion();
            match (draining.last(), next) {
                // A slot that drains no later than the next completion
                // frees first; the workload keeps running at the current
                // rate until then, but nothing completes.
                (Some(&at), _) if next.is_none_or(|c| at <= schedule.in_flight[c].finish) => {
                    draining.pop();
                    schedule.wait_until(completed.runtime(), at);
                }
                (_, Some(at)) => {
                    schedule.complete(&mut completed, at);
                }
                _ => break,
            }
        }
        debug_assert!(
            schedule.pending.is_empty(),
            "valid order wedged: head blocked with nothing in flight"
        );
        SlotScheduleValue {
            area: schedule.realized.value(),
            makespan: schedule.clock,
            final_runtime: completed.runtime(),
            overtakes: schedule.overtakes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::ProblemInstance;

    /// The deploy runtime's hand-computed example: two queries, two
    /// build-interaction discounts.
    fn instance() -> ProblemInstance {
        let mut b = ProblemInstance::builder("slotsched");
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

    #[test]
    fn one_slot_reproduces_the_serial_area_bit_for_bit() {
        let inst = instance();
        for order in [
            Deployment::from_raw([0, 1, 2, 3]),
            Deployment::from_raw([1, 0, 3, 2]),
            Deployment::from_raw([3, 2, 1, 0]),
        ] {
            let serial = ObjectiveEvaluator::new(&inst).evaluate(&order);
            for eval in [
                SlotScheduleEvaluator::new(&inst, 1, DispatchPolicy::WorkConserving),
                SlotScheduleEvaluator::new(&inst, 1, DispatchPolicy::HeadOfLine),
            ] {
                let value = eval.evaluate(&order);
                assert_eq!(value.area.to_bits(), serial.area.to_bits());
                assert_eq!(value.makespan.to_bits(), serial.deployment_time.to_bits());
                assert_eq!(value.final_runtime, serial.final_runtime);
                assert_eq!(value.overtakes, 0);
            }
        }
    }

    #[test]
    fn two_slot_timeline_matches_the_hand_computed_schedule() {
        // Same schedule as the deploy runtime's hand-computed test:
        //   slot 0: i0 [0,4]  i2 [4,7]
        //   slot 1: i1 [0,6]  i3 [6,11]
        //   realized = 70·4 + 65·2 + 50·1 + 42·4 = 628
        let inst = instance();
        let order = Deployment::from_raw([0, 1, 2, 3]);
        let value =
            SlotScheduleEvaluator::new(&inst, 2, DispatchPolicy::WorkConserving).evaluate(&order);
        assert!((value.area - 628.0).abs() < 1e-9);
        assert_eq!(value.makespan, 11.0);
        assert_eq!(value.final_runtime, 25.0);
        assert_eq!(value.overtakes, 0);
    }

    #[test]
    fn work_conserving_overtakes_a_blocked_head_and_head_of_line_idles() {
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
        let order = Deployment::from_raw([0, 1, 2]);

        // Head-of-line: i1 blocks slot 1 until i0 completes at t=4 (i2's
        // speed-up of 5 is dominated by i0's 10, so its completion at t=7
        // changes nothing): i0 [0,4], i1 [4,10], i2 [4,7]; runtime 50
        // →(i0@4) 40; area = 50·4 + 40·6 = 440, makespan 10.
        let hol = SlotScheduleEvaluator::new(&inst, 2, DispatchPolicy::HeadOfLine).evaluate(&order);
        assert!((hol.area - 440.0).abs() < 1e-9);
        assert_eq!(hol.makespan, 10.0);
        assert_eq!(hol.overtakes, 0);

        // Work-conserving: i2 overtakes into slot 1 at t=0.
        //   i0 [0,4], i2 [0,3], i1 [4,10]; runtime 50 →(i2@3) 45 →(i0@4)
        //   40 →(i1@10) 20; area = 50·3 + 45·1 + 40·6 = 435, makespan 10.
        let wc =
            SlotScheduleEvaluator::new(&inst, 2, DispatchPolicy::WorkConserving).evaluate(&order);
        assert!((wc.area - 435.0).abs() < 1e-9);
        assert_eq!(wc.makespan, 10.0);
        assert_eq!(wc.overtakes, 1);
        assert!(wc.area < hol.area, "work conservation must not cost more");
    }

    #[test]
    fn busy_slots_delay_dispatch_and_accrue_the_occupied_span() {
        // busy = [3, 0]: slot 1 is free at once, slot 0 drains at t=3.
        //   slot 1: i0 [0,4]   i2 [4,7]   i3 [7,10.5] (i2 done → cost 3.5)
        //   slot 0: i1 [3,9]               (i0 in flight → full cost 6)
        // runtime 70 →(i0@4) 65 →(i2@7) 57 →(i1@9) 42 →(i3@10.5) 25
        // area = 70·3 + 70·1 + 65·3 + 57·2 + 42·1.5 = 652, makespan 10.5.
        let inst = instance();
        let order = Deployment::from_raw([0, 1, 2, 3]);
        let value = SlotScheduleEvaluator::new(&inst, 2, DispatchPolicy::WorkConserving)
            .with_busy_until(&[3.0, 0.0])
            .evaluate(&order);
        assert!((value.area - 652.0).abs() < 1e-9, "{}", value.area);
        assert_eq!(value.makespan, 10.5);
        assert_eq!(value.final_runtime, 25.0);
        assert_eq!(value.overtakes, 0);
    }

    #[test]
    fn empty_busy_and_clamped_busy_leave_the_schedule_bit_identical() {
        let inst = instance();
        let order = Deployment::from_raw([1, 0, 3, 2]);
        for slots in [1, 2, 4] {
            let plain = SlotScheduleEvaluator::new(&inst, slots, DispatchPolicy::WorkConserving)
                .evaluate(&order);
            let empty = SlotScheduleEvaluator::new(&inst, slots, DispatchPolicy::WorkConserving)
                .with_busy_until(&[])
                .evaluate(&order);
            // Non-finite and non-positive offsets mean "free at once".
            let clamped = SlotScheduleEvaluator::new(&inst, slots, DispatchPolicy::WorkConserving)
                .with_busy_until(&[0.0, -2.0, f64::NAN, f64::INFINITY])
                .evaluate(&order);
            assert_eq!(empty.area.to_bits(), plain.area.to_bits());
            assert_eq!(clamped.area.to_bits(), plain.area.to_bits());
            assert_eq!(clamped.makespan.to_bits(), plain.makespan.to_bits());
        }
    }

    #[test]
    fn a_trailing_sentinel_does_not_stretch_the_makespan() {
        // One pending index, two slots, the second occupied far past the
        // schedule: the build runs on the free slot and the evaluator stops
        // at its completion, not at the sentinel.
        let mut b = ProblemInstance::builder("tail");
        let i0 = b.add_index(4.0);
        let q0 = b.add_query(10.0);
        b.add_plan(q0, vec![i0], 6.0);
        let inst = b.build().unwrap();
        let order = Deployment::from_raw([0]);
        let value = SlotScheduleEvaluator::new(&inst, 2, DispatchPolicy::WorkConserving)
            .with_busy_until(&[0.0, 100.0])
            .evaluate(&order);
        assert!((value.area - 40.0).abs() < 1e-9);
        assert_eq!(value.makespan, 4.0);
        assert_eq!(value.final_runtime, 4.0);
    }

    #[test]
    fn zero_slots_are_clamped_to_one() {
        let inst = instance();
        let order = Deployment::from_raw([2, 3, 0, 1]);
        let zero = SlotScheduleEvaluator::new(&inst, 0, DispatchPolicy::WorkConserving)
            .evaluate_area(&order);
        let one = SlotScheduleEvaluator::new(&inst, 1, DispatchPolicy::WorkConserving)
            .evaluate_area(&order);
        assert_eq!(zero.to_bits(), one.to_bits());
    }

    #[test]
    fn many_slots_run_everything_eligible_at_once() {
        let inst = instance();
        let order = Deployment::from_raw([0, 1, 2, 3]);
        // 4+ slots: all four builds start at t=0, no discounts at all.
        // Completions at 3 (i2), 4 (i0), 5 (i3), 6 (i1); runtime
        // 70 →(i2) 62 →(i0) 57 →(i3) 40 →(i1) 25.
        // area = 70·3 + 62·1 + 57·1 + 40·1 = 369, makespan 6.
        for slots in [4, 8] {
            let value = SlotScheduleEvaluator::new(&inst, slots, DispatchPolicy::WorkConserving)
                .evaluate(&order);
            assert!((value.area - 369.0).abs() < 1e-9, "{}", value.area);
            assert_eq!(value.makespan, 6.0);
        }
    }
}
