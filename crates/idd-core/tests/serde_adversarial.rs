//! Adversarial-input and round-trip locks for the hand-rolled serde seams
//! (ISSUE 8, satellite 1).
//!
//! The evolution model ([`EventKind`] and friends) and the journal records
//! ([`JournalRecord`]) both use hand-rolled tagged single-key enum serde on
//! top of the vendored derive, and journals / scenarios are parsed from
//! files (`figure14 --dump` → `replay`). These tests pin the contract that
//! malformed input is an `Err`, never a panic and never a silent default:
//!
//! * arbitrary `Value` trees (wrong shapes, junk keys, deep nesting) fed to
//!   every deserializer return without panicking;
//! * duplicate fields in an object are rejected *through the derive path*
//!   (`serde::__find_unique`), even when the duplicates agree;
//! * unknown enum tags, multi-key and non-object tagged payloads error;
//! * randomly generated scenarios and journal records round-trip through
//!   the JSON text form losslessly (the re-serialized text is identical,
//!   so every `f64` survives bit-for-bit);
//! * random byte-level mutations of valid serialized text parse to `Err`
//!   or to some value — never a panic.

use idd_core::{
    BuildFailure, CompleteRecord, DesignRevision, DispatchRecord, EventKind, EventRecord,
    EvolutionEvent, EvolutionScenario, FailRecord, IndexAddition, IndexId, InstanceBuilder,
    JournalRecord, ProblemInstance, QueryId, ReplanDecision, WorkloadDrift,
};
use proptest::prelude::*;
use serde::{Deserialize, Value};

/// Exactly representable, shortest-printing floats: dyadic rationals with a
/// bounded integer part, so `to_string` → `from_str` is lossless and the
/// round-trip assertions below can demand textual identity. Negative zero
/// and non-finite values are excluded on purpose — the vendored text form
/// is documented lossy for them (`vendor/README.md`), and no model value
/// ever produces them.
fn dyadic(rng: &mut TestRng) -> f64 {
    (rng.below(1 << 24) as f64 - (1 << 23) as f64) / 256.0
}

/// Field names the model actually uses, junk, and hostile strings alike —
/// so random objects sometimes look *almost* right, which is where a
/// first-match-wins or default-on-missing bug would hide.
fn arbitrary_key(rng: &mut TestRng) -> String {
    const POOL: &[&str] = &[
        "clock",
        "slot",
        "index",
        "at",
        "kind",
        "drift",
        "revision",
        "weights",
        "name",
        "events",
        "failures",
        "waste_fraction",
        "dispatch",
        "complete",
        "pending",
        "objective",
        "",
        " ",
        "CLOCK",
        "clock ",
        "\u{1F4A3}",
        "a\"b\\c",
        "\n",
    ];
    POOL[rng.below(POOL.len() as u64) as usize].to_string()
}

fn arbitrary_value(rng: &mut TestRng, depth: u64) -> Value {
    match rng.below(if depth == 0 { 6 } else { 8 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 1),
        2 => Value::Int(rng.next_u64() as i64),
        3 => Value::UInt(rng.next_u64()),
        4 => Value::Float(dyadic(rng)),
        5 => Value::String(arbitrary_key(rng)),
        6 => Value::Array(
            (0..rng.below(4))
                .map(|_| arbitrary_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..rng.below(4))
                .map(|_| (arbitrary_key(rng), arbitrary_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

fn arbitrary_event_kind(rng: &mut TestRng) -> EventKind {
    if rng.below(2) == 0 {
        EventKind::Drift(WorkloadDrift {
            weights: (0..rng.below(4))
                .map(|_| (QueryId::new(rng.below(16) as usize), dyadic(rng).abs()))
                .collect(),
        })
    } else {
        EventKind::Revision(DesignRevision {
            add: (0..rng.below(3))
                .map(|_| IndexAddition {
                    name: arbitrary_key(rng),
                    creation_cost: dyadic(rng).abs(),
                    plans: (0..rng.below(3))
                        .map(|_| {
                            (
                                QueryId::new(rng.below(16) as usize),
                                (0..rng.below(3))
                                    .map(|_| IndexId::new(rng.below(16) as usize))
                                    .collect(),
                                dyadic(rng).abs(),
                            )
                        })
                        .collect(),
                    helped_by: (0..rng.below(3))
                        .map(|_| (IndexId::new(rng.below(16) as usize), dyadic(rng).abs()))
                        .collect(),
                    helps: (0..rng.below(3))
                        .map(|_| (IndexId::new(rng.below(16) as usize), dyadic(rng).abs()))
                        .collect(),
                    after: (0..rng.below(3))
                        .map(|_| IndexId::new(rng.below(16) as usize))
                        .collect(),
                })
                .collect(),
            drop: (0..rng.below(3))
                .map(|_| IndexId::new(rng.below(16) as usize))
                .collect(),
        })
    }
}

fn arbitrary_scenario(rng: &mut TestRng) -> EvolutionScenario {
    EvolutionScenario {
        name: arbitrary_key(rng),
        events: (0..rng.below(4))
            .map(|_| EvolutionEvent {
                at: dyadic(rng).abs(),
                kind: arbitrary_event_kind(rng),
            })
            .collect(),
        failures: (0..rng.below(3))
            .map(|_| BuildFailure {
                index: IndexId::new(rng.below(16) as usize),
                failures: rng.below(4) as u32,
                waste_fraction: dyadic(rng).abs() / (1 << 15) as f64,
            })
            .collect(),
    }
}

fn arbitrary_journal_record(rng: &mut TestRng) -> JournalRecord {
    match rng.below(5) {
        0 => JournalRecord::Dispatch(DispatchRecord {
            clock: dyadic(rng).abs(),
            slot: rng.below(4) as usize,
            position: rng.below(16) as usize,
            index: IndexId::new(rng.below(16) as usize),
            plan_offset: rng.below(4) as usize,
            cost: dyadic(rng).abs(),
            retries: rng.below(3) as u32,
            waste_per_failure: dyadic(rng).abs(),
        }),
        1 => JournalRecord::Fail(FailRecord {
            clock: dyadic(rng).abs(),
            slot: rng.below(4) as usize,
            index: IndexId::new(rng.below(16) as usize),
            attempt: 1 + rng.below(3) as u32,
            wasted: dyadic(rng).abs(),
        }),
        2 => JournalRecord::Complete(CompleteRecord {
            clock: dyadic(rng).abs(),
            slot: rng.below(4) as usize,
            index: IndexId::new(rng.below(16) as usize),
            realized: dyadic(rng).abs(),
        }),
        3 => JournalRecord::EventLanded(EventRecord {
            clock: dyadic(rng).abs(),
            event: EvolutionEvent {
                at: dyadic(rng).abs(),
                kind: arbitrary_event_kind(rng),
            },
        }),
        _ => JournalRecord::Replan(ReplanDecision {
            clock: dyadic(rng).abs(),
            trigger: arbitrary_key(rng),
            pending: (0..rng.below(5))
                .map(|_| IndexId::new(rng.below(16) as usize))
                .collect(),
            warm_start_objective: if rng.below(2) == 0 {
                None
            } else {
                Some(dyadic(rng).abs())
            },
            objective: dyadic(rng).abs(),
            solver: arbitrary_key(rng),
            improved: rng.below(2) == 1,
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Any Value tree — wrong shape, junk keys, deep nesting — fed to every
    /// model deserializer returns `Ok` or `Err` without panicking, and a
    /// tree that does deserialize came from a plausibly-shaped object, not
    /// from a silent default.
    #[test]
    fn adversarial_value_trees_never_panic(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::deterministic(&format!("adversarial-{seed}"));
        let v = arbitrary_value(&mut rng, 3);
        let _ = EventKind::from_value(&v);
        let _ = EvolutionEvent::from_value(&v);
        let _ = EvolutionScenario::from_value(&v);
        let _ = WorkloadDrift::from_value(&v);
        let _ = DesignRevision::from_value(&v);
        let _ = BuildFailure::from_value(&v);
        let _ = JournalRecord::from_value(&v);
        let _ = DispatchRecord::from_value(&v);
        let _ = ReplanDecision::from_value(&v);
        // A tagged enum can only ever parse out of a single-key object.
        if EventKind::from_value(&v).is_ok() || JournalRecord::from_value(&v).is_ok() {
            prop_assert!(matches!(&v, Value::Object(entries) if entries.len() == 1));
        }
    }

    /// Scenarios round-trip losslessly through the JSON text form: the
    /// re-serialized text is *identical*, so every `f64` (and every string
    /// escape) survived bit-for-bit.
    #[test]
    fn scenarios_round_trip_textually(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::deterministic(&format!("scenario-{seed}"));
        let scenario = arbitrary_scenario(&mut rng);
        let text = serde_json::to_string(&scenario).expect("scenarios serialize");
        let back: EvolutionScenario = serde_json::from_str(&text).expect("own output parses");
        prop_assert_eq!(&back, &scenario);
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), text);
    }

    /// Journal records round-trip losslessly through the JSON text form,
    /// exactly like the journals `figure14 --dump` writes and `replay`
    /// parses back.
    #[test]
    fn journal_records_round_trip_textually(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::deterministic(&format!("journal-{seed}"));
        let record = arbitrary_journal_record(&mut rng);
        let text = serde_json::to_string(&record).expect("records serialize");
        let back: JournalRecord = serde_json::from_str(&text).expect("own output parses");
        prop_assert_eq!(&back, &record);
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), text);
    }

    /// Byte-level mutations (truncation, bit flips, splices) of valid
    /// serialized records parse to `Err` or to some record — never a panic.
    #[test]
    fn mutated_record_text_never_panics(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::deterministic(&format!("mutate-{seed}"));
        let record = arbitrary_journal_record(&mut rng);
        let mut bytes = serde_json::to_string(&record).unwrap().into_bytes();
        match rng.below(3) {
            0 => {
                let keep = rng.below(bytes.len() as u64 + 1) as usize;
                bytes.truncate(keep);
            }
            1 => {
                let at = rng.below(bytes.len() as u64) as usize;
                bytes[at] ^= 1 << rng.below(8);
            }
            _ => {
                let at = rng.below(bytes.len() as u64) as usize;
                let splice = bytes[..at].to_vec();
                bytes.extend_from_slice(&splice);
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        let _ = serde_json::from_str::<JournalRecord>(&text);
        let _ = serde_json::from_str::<EvolutionScenario>(&text);
    }
}

/// Duplicate fields are ambiguous, not first-match-wins — rejected through
/// the derive path (`serde::__find_unique`) even when the duplicates agree,
/// and through the text parser on top of it.
#[test]
fn duplicate_fields_are_rejected_through_the_derive() {
    let conflicting = Value::Object(vec![
        ("index".into(), Value::Int(1)),
        ("failures".into(), Value::Int(2)),
        ("waste_fraction".into(), Value::Float(0.5)),
        ("index".into(), Value::Int(3)),
    ]);
    assert!(BuildFailure::from_value(&conflicting).is_err());

    let agreeing = Value::Object(vec![
        ("index".into(), Value::Int(1)),
        ("index".into(), Value::Int(1)),
        ("failures".into(), Value::Int(2)),
        ("waste_fraction".into(), Value::Float(0.5)),
    ]);
    assert!(BuildFailure::from_value(&agreeing).is_err());

    let text = r#"{"index":1,"failures":2,"waste_fraction":0.5,"index":1}"#;
    assert!(serde_json::from_str::<BuildFailure>(text).is_err());

    // The same object without the duplicate parses fine — the rejection is
    // about the duplicate, not the shape.
    let clean = r#"{"index":1,"failures":2,"waste_fraction":0.5}"#;
    let parsed: BuildFailure = serde_json::from_str(clean).expect("clean object parses");
    assert_eq!(parsed.index, IndexId::new(1));
    assert_eq!(parsed.failures, 2);
}

/// An instance whose plan needs no index fails to parse, as it fails to
/// build: the unindexed runtime is the query's own `original_runtime`.
#[test]
fn an_instance_with_an_empty_plan_fails_to_parse() {
    let mut b = InstanceBuilder::new("empty-plan");
    let i0 = b.add_index(2.0);
    let q = b.add_query(10.0);
    b.add_plan(q, vec![i0], 4.0);
    let text = serde_json::to_string(&b.build().unwrap()).unwrap();
    assert!(serde_json::from_str::<ProblemInstance>(&text).is_ok());
    let empty = text.replacen(r#""indexes":[0]"#, r#""indexes":[]"#, 1);
    assert_ne!(empty, text);
    let err = serde_json::from_str::<ProblemInstance>(&empty).unwrap_err();
    assert!(err.to_string().contains("needs no index"), "{err}");
}

/// Unknown tags, multi-key tagged objects, and non-object payloads error —
/// no variant is ever silently defaulted.
#[test]
fn unknown_and_ambiguous_enum_tags_error() {
    assert!(serde_json::from_str::<EventKind>(r#"{"mutation":{}}"#).is_err());
    assert!(serde_json::from_str::<EventKind>(r#"{}"#).is_err());
    assert!(serde_json::from_str::<EventKind>(r#""drift""#).is_err());
    assert!(serde_json::from_str::<EventKind>(
        r#"{"drift":{"weights":[]},"revision":{"add":[],"drop":[]}}"#
    )
    .is_err());

    assert!(serde_json::from_str::<JournalRecord>(r#"{"checkpoint":{"clock":0.0}}"#).is_err());
    assert!(serde_json::from_str::<JournalRecord>(r#"{}"#).is_err());
    assert!(serde_json::from_str::<JournalRecord>(r#"[{"dispatch":{}}]"#).is_err());
    assert!(serde_json::from_str::<JournalRecord>(
        r#"{"complete":{"clock":1.0,"slot":0,"index":0,"realized":2.0},"fail":{}}"#
    )
    .is_err());
    // Journals from runtimes that deferred replans carry records under
    // this tag; it is unknown now, so such a journal fails to decode.
    assert!(serde_json::from_str::<JournalRecord>(
        r#"{"debounce":{"clock":1.0,"deferred":"drift","next_event_at":2.0}}"#
    )
    .is_err());

    // A known tag whose payload is missing required fields is still an
    // error, not a default.
    assert!(serde_json::from_str::<JournalRecord>(r#"{"complete":{"clock":1.0}}"#).is_err());
    assert!(serde_json::from_str::<EventKind>(r#"{"drift":{}}"#).is_err());
}
