//! Slot time accounting (ISSUE 9, satellite 1): over the serial-equivalence
//! grid, the runtime telemetry's per-slot `busy`/`idle` spans must tile
//! each slot's timeline exactly — `busy + idle == build_slots × makespan` —
//! and the span-derived totals must agree with the report's
//! `slot_busy()` / `slot_idle(k)` accessors, so the report methods are
//! anchored to the timeline rather than being a restatement of themselves.
//!
//! Over the same grid, the telemetry must be the projection of the run's
//! journal: every slot track's dispatch / fail / complete marks are that
//! slot's records in order and clock, each `busy` span is one build's
//! [dispatch, completion], and the `deploy` track carries one event /
//! replan mark per record.

mod common;

use common::{initial_plan, instance, policy, scenario};
use idd_core::JournalRecord;
use idd_deploy::{DeployRuntime, DeploymentJournal};
use idd_telemetry::{EventKind, Telemetry, TraceStream, TrackId};

/// Tolerance for slot-seconds sums: the spans are re-derived from
/// `finish − start` differences, which can differ from the report's
/// `cost + wasted` accumulators in the last bits.
const EPS: f64 = 1e-9;

#[test]
fn busy_plus_idle_tiles_every_slot_timeline() {
    for inst_seed in [3u64, 17] {
        let inst = instance(inst_seed);
        let plan = initial_plan(&inst, inst_seed.wrapping_mul(31) + 1);
        for kind in 0u8..5 {
            let scenario = scenario(&inst, kind, 11 + inst_seed);
            for policy_choice in 0u8..3 {
                for slots in [1usize, 2, 3] {
                    let telemetry = Telemetry::recording();
                    let config = policy(policy_choice).with_build_slots(slots);
                    let runtime = DeployRuntime::new(config).with_telemetry(telemetry.clone());
                    let (report, journal) = runtime
                        .execute_journaled(&inst, &plan, &scenario)
                        .expect("grid scenarios must execute");
                    let stream = telemetry.drain();
                    let context = format!(
                        "seed {inst_seed} kind {kind} policy {policy_choice} slots {slots}"
                    );
                    assert_projection_of_journal(&stream, &journal, slots, &context);

                    // Track 0 is the event loop; tracks 1..=slots are the
                    // build slots.
                    assert_eq!(stream.tracks.len(), 1 + slots, "one track per slot");
                    let mut busy = 0.0;
                    let mut idle = 0.0;
                    for slot in 0..slots {
                        let track = 1 + slot;
                        assert_eq!(stream.track_name(track), format!("slot{slot}"));
                        let slot_busy = stream.span_total(track, "busy");
                        let slot_idle = stream.span_total(track, "idle");
                        // Each slot's own spans tile [0, makespan].
                        assert!(
                            (slot_busy + slot_idle - report.total_clock).abs() <= EPS,
                            "slot {slot}: busy {slot_busy} + idle {slot_idle} \
                             != makespan {} (seed {inst_seed} kind {kind} \
                             policy {policy_choice} slots {slots})",
                            report.total_clock,
                        );
                        busy += slot_busy;
                        idle += slot_idle;
                    }

                    // The invariant: busy + idle == build_slots × makespan.
                    let total = slots as f64 * report.total_clock;
                    assert!(
                        (busy + idle - total).abs() <= EPS,
                        "busy {busy} + idle {idle} != {slots} × {}",
                        report.total_clock,
                    );

                    // And the report's accessors agree with the spans.
                    assert!(
                        (report.slot_busy() - busy).abs() <= EPS,
                        "slot_busy() {} != span-derived busy {busy}",
                        report.slot_busy(),
                    );
                    assert!(
                        (report.slot_idle(slots) - idle).abs() <= EPS,
                        "slot_idle({slots}) {} != span-derived idle {idle}",
                        report.slot_idle(slots),
                    );
                }
            }
        }
    }
}

/// The slot a record happened in: dispatch, fail and complete records.
fn slot_of(record: &JournalRecord) -> Option<usize> {
    match record {
        JournalRecord::Dispatch(r) => Some(r.slot),
        JournalRecord::Fail(r) => Some(r.slot),
        JournalRecord::Complete(r) => Some(r.slot),
        JournalRecord::EventLanded(_) | JournalRecord::Replan(_) => None,
    }
}

/// `(name, clock bits)` of the marks on `track`, in emission order.
fn marks(stream: &TraceStream, track: TrackId) -> Vec<(String, u64)> {
    stream
        .events_for(track)
        .filter_map(|e| match &e.kind {
            EventKind::Mark { name, .. } => {
                Some((name.clone(), e.clock.expect("logical clock").to_bits()))
            }
            _ => None,
        })
        .collect()
}

/// `(tag, clock bits)` of `records`, in journal order. A record's tag is
/// the name of the mark it projects to.
fn tagged<'a>(records: impl Iterator<Item = &'a JournalRecord>) -> Vec<(String, u64)> {
    records
        .map(|r| (r.tag().to_string(), r.clock().to_bits()))
        .collect()
}

/// Asserts that the runtime telemetry in `stream` is the projection of
/// `journal`: marks match records one to one, in order and clock, and busy
/// spans are the dispatch/complete pairs.
fn assert_projection_of_journal(
    stream: &TraceStream,
    journal: &DeploymentJournal,
    slots: usize,
    context: &str,
) {
    let records = journal.records();
    let event_loop = tagged(records.iter().filter(|r| slot_of(r).is_none()));
    assert_eq!(marks(stream, 0), event_loop, "{context}: deploy track");
    for slot in 0..slots {
        let track = 1 + slot;
        let own = || records.iter().filter(move |r| slot_of(r) == Some(slot));
        assert_eq!(
            marks(stream, track),
            tagged(own()),
            "{context}: slot {slot}"
        );

        let busy: Vec<(u64, u64)> = stream
            .events_for(track)
            .filter_map(|e| match &e.kind {
                EventKind::Span { name, start, end } if name == "busy" => {
                    Some((start.to_bits(), end.to_bits()))
                }
                _ => None,
            })
            .collect();
        let dispatched = own().filter_map(|r| match r {
            JournalRecord::Dispatch(d) => Some(d.clock.to_bits()),
            _ => None,
        });
        let completed = own().filter_map(|r| match r {
            JournalRecord::Complete(c) => Some(c.clock.to_bits()),
            _ => None,
        });
        let builds: Vec<(u64, u64)> = dispatched.zip(completed).collect();
        assert_eq!(busy, builds, "{context}: slot {slot} busy spans");
        assert_eq!(
            builds.len(),
            own().filter(|r| r.tag() == "dispatch").count(),
            "{context}: slot {slot}: one busy span per build"
        );
    }
}

#[test]
fn slot_idle_clamps_to_slots_actually_used() {
    let inst = instance(5);
    let plan = initial_plan(&inst, 9);
    let scenario = scenario(&inst, 4, 0); // quiet
    let report = DeployRuntime::new(policy(0).with_build_slots(2))
        .execute(&inst, &plan, &scenario)
        .expect("quiet grid scenario must execute");
    let used = report.slots_used();
    assert!(used >= 1);
    // Understating the slot count cannot produce negative idle time: the
    // accessor clamps up to the realized concurrency ceiling.
    assert!(report.slot_idle(0) >= -1e-9);
    assert_eq!(
        report.slot_idle(0).to_bits(),
        report.slot_idle(used).to_bits()
    );
}
