//! # idd-bench — experiment harness
//!
//! One binary per table / figure of the paper's evaluation (Section 8):
//!
//! | target | regenerates |
//! |---|---|
//! | `table4` | Table 4 — dataset statistics, plus the intro's build-interaction savings |
//! | `table5` | Table 5 — exact search (MIP / CP / MIP+ / CP+ / VNS) on reduced TPC-H |
//! | `table6` | Table 6 — pruning-power drill-down (+A, +AC, +ACM, +ACMD, +ACMDT) |
//! | `table7` | Table 7 — greedy vs DP vs random initial solutions |
//! | `table8` | Portfolio vs best single solver (not in the paper) |
//! | `table9` | Realized cumulative cost under evolution: static vs replanning policies (not in the paper) |
//! | `table10` | Realized cost under 1 / 2 / 4 concurrent build slots (not in the paper) |
//! | `table11` | Incremental objective-evaluation throughput (not in the paper) |
//! | `table12` | Shard-and-recombine solving vs the monolithic portfolio (not in the paper) |
//! | `figure11` | Figure 11 — local-search anytime curves on TPC-H |
//! | `figure12` | Figure 12 — local-search anytime curves on TPC-DS |
//! | `figure13` | Figure 13 — VNS deployment time & average query runtime over time |
//! | `figure14` | Realized cost over the deployment clock, from journal `Complete` records (not in the paper) |
//! | `replay` | Replays a `figure14 --dump` journal against its seed instance — bit-for-bit verdict |
//! | `trace` | Unified search/runtime telemetry: merged span/counter stream, slot-accounting gate, Chrome trace export (not in the paper) |
//!
//! Each binary prints a self-contained report (markdown-ish tables) and
//! accepts `--time-limit <seconds>`, `--runs <n>` and `--scale <fraction>`
//! where meaningful, so the whole suite finishes in minutes on a laptop
//! rather than the paper's hours. The golden tests pin the `--tiny` output
//! of the table binaries and, with node budgets, how far exact search gets
//! at each drill-down level (`tests/exact_golden.rs`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod args;
pub mod figures;
pub mod report;

pub use args::{parse_flag, parse_flag_value, HarnessArgs};
pub use report::{BenchJson, BenchRecord, BenchSeries, SeriesJson, SeriesPoint, Table};

use idd_core::ProblemInstance;

/// Builds the TPC-H-like instance used throughout the harness.
pub fn tpch() -> ProblemInstance {
    idd_workloads::tpch_instance().expect("TPC-H-like extraction failed")
}

/// Builds the TPC-DS-like instance used throughout the harness.
pub fn tpcds() -> ProblemInstance {
    idd_workloads::tpcds_instance().expect("TPC-DS-like extraction failed")
}

/// A tiny, fully hand-specified instance (6 indexes, 4 queries, no RNG
/// anywhere) used by the `--tiny` mode of the table binaries and the golden
/// regression tests: its solver outputs are bit-for-bit reproducible across
/// machines.
pub fn tiny() -> ProblemInstance {
    let mut b = ProblemInstance::builder("tiny");
    let i0 = b.add_named_index("i(ORDERS.DATE)", 4.0);
    let i1 = b.add_named_index("i(ORDERS.DATE,AMT)", 6.0);
    let i2 = b.add_named_index("i(CUST.REGION)", 3.0);
    let i3 = b.add_named_index("i(CUST.REGION,SEG)", 5.0);
    let i4 = b.add_named_index("i(PART.BRAND)", 2.0);
    let i5 = b.add_named_index("i(LINE.SHIPDATE)", 7.0);
    let q0 = b.add_named_query("revenue_by_date", 90.0);
    b.add_plan(q0, vec![i0], 20.0);
    b.add_plan(q0, vec![i1], 45.0);
    let q1 = b.add_named_query("region_segment", 70.0);
    b.add_plan(q1, vec![i2], 15.0);
    b.add_plan(q1, vec![i2, i3], 40.0);
    let q2 = b.add_named_query("brand_share", 50.0);
    b.add_plan(q2, vec![i4], 18.0);
    b.add_plan(q2, vec![i4, i5], 30.0);
    let q3 = b.add_named_query("late_shipments", 60.0);
    b.add_plan(q3, vec![i5], 25.0);
    b.add_plan(q3, vec![i0, i5], 38.0);
    b.add_build_interaction(i1, i0, 2.0);
    b.add_build_interaction(i3, i2, 1.5);
    b.add_precedence(i0, i1);
    b.build().expect("tiny instance is consistent")
}

/// Hand-specified evolution scenarios over the [`tiny`] instance, RNG-free
/// and machine-independent, used by `table9 --tiny` and its golden test:
///
/// * `quiet` — nothing happens; pins the realized-cost == offline-objective
///   invariant in the golden output;
/// * `drift` — at t=2 the `late_shipments` query becomes 8× as important
///   while `revenue_by_date` collapses to 0.2×: the offline order, chosen
///   for the old weights, now front-loads the wrong indexes;
/// * `revision` — at t=6 the advisor retracts `i(CUST.REGION,SEG)`, adds a
///   cheap `i(LINE.LATEFLAG)` for the now-hot query, and the
///   `i(ORDERS.DATE,AMT)` build fails once, wasting half its cost.
pub fn tiny_scenarios() -> Vec<idd_core::EvolutionScenario> {
    use idd_core::{
        BuildFailure, DesignRevision, EventKind, EvolutionEvent, EvolutionScenario, IndexAddition,
        IndexId, QueryId, WorkloadDrift,
    };
    let drift = EvolutionScenario {
        name: "drift".into(),
        events: vec![EvolutionEvent {
            at: 2.0,
            kind: EventKind::Drift(WorkloadDrift {
                weights: vec![(QueryId::new(3), 8.0), (QueryId::new(0), 0.2)],
            }),
        }],
        failures: vec![],
    };
    let revision = EvolutionScenario {
        name: "revision".into(),
        events: vec![EvolutionEvent {
            at: 6.0,
            kind: EventKind::Revision(DesignRevision {
                add: vec![IndexAddition {
                    name: "i(LINE.LATEFLAG)".into(),
                    creation_cost: 2.5,
                    plans: vec![(QueryId::new(3), vec![], 20.0)],
                    helped_by: vec![(IndexId::new(5), 1.0)],
                    helps: vec![],
                    after: vec![],
                }],
                drop: vec![IndexId::new(3)],
            }),
        }],
        failures: vec![BuildFailure {
            index: IndexId::new(1),
            failures: 1,
            waste_fraction: 0.5,
        }],
    };
    vec![EvolutionScenario::quiet("quiet"), drift, revision]
}

/// Formats a duration in minutes the way the paper's tables do: `"<1"` for
/// under a minute, the rounded number of minutes otherwise, `"DF"` for runs
/// that did not finish.
pub fn minutes_label(seconds: f64, finished: bool) -> String {
    if !finished {
        "DF".to_string()
    } else if seconds < 60.0 {
        "<1".to_string()
    } else {
        format!("{:.0}", seconds / 60.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minutes_label_matches_paper_convention() {
        assert_eq!(minutes_label(3.0, true), "<1");
        assert_eq!(minutes_label(359.0, true), "6");
        assert_eq!(minutes_label(10.0, false), "DF");
    }
}
