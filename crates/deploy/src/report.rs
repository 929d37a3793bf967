//! What a deployment run actually did: the realized timeline, the replans,
//! and the realized cumulative cost.

use idd_core::{Deployment, IndexId};
use serde::{Deserialize, Serialize};

/// One build the runtime actually executed (including failed attempts).
///
/// With one build slot, builds occupy `[start, finish]` back to back and
/// `finish − start == wasted + cost` exactly. With `build_slots > 1`,
/// intervals overlap: `start` is when the build was dispatched into its
/// slot, `finish` when it became available, and builds may finish out of
/// dispatch order. The `builds` vector is always in *dispatch* order — the
/// order the plan committed work — so `position` doubles as the dispatch
/// sequence number.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutedBuild {
    /// Position in the realized (dispatch) order, 0-based.
    pub position: usize,
    /// The index built.
    pub index: IndexId,
    /// Build slot this build occupied (always 0 with one slot).
    pub slot: usize,
    /// Deployment clock when work on this index started (first attempt).
    pub start: f64,
    /// Deployment clock when the index became available
    /// (`start + wasted + cost`).
    pub finish: f64,
    /// Effective build cost of the successful attempt, priced against the
    /// indexes *completed* at `start` — an in-flight helper discounts
    /// nothing.
    pub cost: f64,
    /// Clock time lost to failed attempts before the successful one.
    pub wasted: f64,
    /// Number of failed attempts.
    pub retries: u32,
    /// How far into the pending suffix the dispatcher reached for this
    /// build: `0` means the planned head ran (always the case under
    /// head-of-line dispatch and with one slot), `d > 0` means `d`
    /// earlier-planned indexes were blocked behind incomplete precedence
    /// prerequisites and this build overtook them (work-conserving
    /// dispatch). The plan itself is never reordered — overtaken indexes
    /// keep their place and dispatch later.
    pub plan_offset: usize,
    /// Workload runtime when this build was dispatched.
    pub runtime_before: f64,
    /// Workload runtime once this index became available (with overlapping
    /// builds, this includes drops from builds that completed earlier).
    pub runtime_after: f64,
}

/// One replan the runtime performed at a completion boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplanRecord {
    /// Deployment clock at which the replan happened.
    pub clock: f64,
    /// What triggered it ("drift", "revision", "failure", or a `+`-joined
    /// combination when several triggers batched into one replan).
    pub trigger: String,
    /// The frozen commitment at that moment — every build already
    /// dispatched (completed *or* in flight), in dispatch order. The
    /// runtime's immutability invariant is checked against exactly this
    /// snapshot: the final realized order must extend it, so neither the
    /// built prefix nor the in-flight set can ever be reordered or rebuilt.
    pub frozen_prefix: Vec<IndexId>,
    /// The subset of `frozen_prefix` that was still in flight (dispatched
    /// but not yet completed), in dispatch order. Empty with one build slot:
    /// serial replans only fire at build boundaries.
    pub in_flight: Vec<IndexId>,
    /// Number of indexes in the replanned suffix.
    pub suffix_len: usize,
    /// Residual objective of the order that was in flight, if it was still
    /// usable as a warm start.
    pub warm_start_objective: Option<f64>,
    /// Residual objective of the chosen suffix order.
    pub objective: f64,
    /// Which solver produced the chosen order ("warm-start" when the
    /// in-flight order survived).
    pub solver: String,
    /// `true` when the replan strictly improved on the in-flight order.
    pub improved: bool,
}

/// The complete report of one deployment run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DeploymentReport {
    /// Every executed build, in dispatch order (equal to completion order
    /// with one build slot).
    pub builds: Vec<ExecutedBuild>,
    /// Every replan, in clock order.
    pub replans: Vec<ReplanRecord>,
    /// Realized cumulative cost: the workload runtime integrated over the
    /// deployment wall-clock, failed attempts included. With one build slot
    /// this is `Σ runtime_during · build_time` over every attempt, and with
    /// zero events and zero failures it equals the offline objective area
    /// bit-for-bit. With `k` slots the integral runs over the (shorter)
    /// overlapped timeline.
    pub realized_cost: f64,
    /// Workload runtime after the last build.
    pub final_runtime: f64,
    /// Deployment clock at the end of the run (the makespan, plus any tail
    /// events that landed after the last completion).
    pub total_clock: f64,
    /// Clock spent in successful builds (slot-seconds: overlapping builds
    /// both count, so this can exceed `total_clock` when `build_slots > 1`).
    pub total_build_time: f64,
    /// Clock lost to failed attempts (slot-seconds, like
    /// `total_build_time`).
    pub total_wasted: f64,
    /// Total failed attempts.
    pub retries: u32,
    /// Builds dispatched ahead of a blocked planned head (the number of
    /// builds with `plan_offset > 0`): the dispatch-order deviation a
    /// work-conserving run accepted to keep its slots busy. Always `0`
    /// under head-of-line dispatch.
    pub out_of_order_dispatches: usize,
    /// Timed events applied during the run.
    pub events_applied: usize,
    /// Drop requests that were ignored (index already built or in flight,
    /// or dropping it would orphan a scheduled index behind a precedence).
    pub ineffective_drops: usize,
}

impl DeploymentReport {
    /// The realized deployment order (what was actually built, in dispatch
    /// order).
    pub fn realized_order(&self) -> Deployment {
        Deployment::new(self.builds.iter().map(|b| b.index).collect())
    }

    /// Number of replans that strictly improved on the in-flight plan.
    pub fn improved_replans(&self) -> usize {
        self.replans.iter().filter(|r| r.improved).count()
    }

    /// `true` when the final realized order extends every replan's frozen
    /// commitment (built prefix plus in-flight set) — the observable form of
    /// the immutability invariant.
    pub fn prefixes_respected(&self) -> bool {
        let order = self.realized_order();
        self.replans
            .iter()
            .all(|r| order.starts_with(&r.frozen_prefix))
    }

    /// `true` when every replan's in-flight set is an order-preserving
    /// subsequence of its frozen commitment — an in-flight build the replan
    /// claims to have frozen really was committed, in dispatch order.
    ///
    /// This is a structural check only: it does not verify against the
    /// build timeline that each listed index was genuinely mid-build at the
    /// replan's clock. That timing cross-check (replan clock within the
    /// build's `[start, finish)` span) lives in the `serial_equivalence`
    /// differential suite, which has the builds to compare against.
    pub fn in_flight_respected(&self) -> bool {
        self.replans.iter().all(|r| {
            let mut tail = r.frozen_prefix.iter();
            r.in_flight
                .iter()
                .all(|f| tail.any(|committed| committed == f))
        })
    }

    /// Highest slot id any build occupied, plus one (0 for an empty run):
    /// the realized concurrency ceiling.
    pub fn slots_used(&self) -> usize {
        self.builds.iter().map(|b| b.slot + 1).max().unwrap_or(0)
    }

    /// Total slot-seconds spent *building* — successful work plus failed
    /// attempts. This is exactly the sum of the runtime telemetry's `busy`
    /// spans (each build occupies its slot for `cost + wasted`).
    pub fn slot_busy(&self) -> f64 {
        self.total_build_time + self.total_wasted
    }

    /// Total slot-seconds spent *idle* across `build_slots` slots over the
    /// whole run: `slots × total_clock − slot_busy()`. This is exactly the
    /// sum of the runtime telemetry's `idle` spans, so
    /// `slot_busy() + slot_idle(k) == k × total_clock` by construction —
    /// the invariant the `slot_accounting` suite checks span-by-span. The
    /// slot count is a parameter (the report does not record the config);
    /// it is clamped up to [`DeploymentReport::slots_used`] so a
    /// nonsensical argument cannot yield negative idle time.
    pub fn slot_idle(&self, build_slots: usize) -> f64 {
        build_slots.max(self.slots_used()) as f64 * self.total_clock - self.slot_busy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(position: usize, index: usize) -> ExecutedBuild {
        ExecutedBuild {
            position,
            index: IndexId::new(index),
            slot: 0,
            start: position as f64,
            finish: position as f64 + 1.0,
            cost: 1.0,
            wasted: 0.0,
            retries: 0,
            plan_offset: 0,
            runtime_before: 10.0,
            runtime_after: 9.0,
        }
    }

    #[test]
    fn realized_order_and_prefix_checks() {
        let report = DeploymentReport {
            builds: vec![build(0, 2), build(1, 0), build(2, 1)],
            replans: vec![ReplanRecord {
                clock: 1.0,
                trigger: "drift".into(),
                frozen_prefix: vec![IndexId::new(2), IndexId::new(0)],
                in_flight: vec![IndexId::new(0)],
                suffix_len: 1,
                warm_start_objective: Some(30.0),
                objective: 25.0,
                solver: "vns".into(),
                improved: true,
            }],
            realized_cost: 30.0,
            final_runtime: 9.0,
            total_clock: 3.0,
            total_build_time: 3.0,
            total_wasted: 0.0,
            retries: 0,
            out_of_order_dispatches: 0,
            events_applied: 1,
            ineffective_drops: 0,
        };
        assert_eq!(
            report.realized_order().order(),
            &[2, 0, 1].map(IndexId::new)
        );
        assert!(report.prefixes_respected());
        assert!(report.in_flight_respected());
        assert_eq!(report.improved_replans(), 1);
        assert_eq!(report.slots_used(), 1);

        let mut broken = report.clone();
        broken.replans[0].frozen_prefix = vec![IndexId::new(0)];
        assert!(!broken.prefixes_respected());

        // An in-flight index missing from the frozen commitment is a bug.
        let mut leaked = report.clone();
        leaked.replans[0].in_flight = vec![IndexId::new(1)];
        assert!(!leaked.in_flight_respected());

        // So is an in-flight pair recorded in the wrong relative order.
        let mut reordered = report;
        reordered.replans[0].in_flight = vec![IndexId::new(0), IndexId::new(2)];
        assert!(!reordered.in_flight_respected());
    }

    #[test]
    fn serde_round_trip() {
        let report = DeploymentReport {
            builds: vec![build(0, 0)],
            replans: vec![],
            realized_cost: 10.0,
            final_runtime: 9.0,
            total_clock: 1.0,
            total_build_time: 1.0,
            total_wasted: 0.0,
            retries: 0,
            out_of_order_dispatches: 0,
            events_applied: 0,
            ineffective_drops: 0,
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: DeploymentReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
