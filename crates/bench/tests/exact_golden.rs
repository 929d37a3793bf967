//! Node-count golden of exact search on reduced TPC-H (Tables 5 and 6).
//!
//! The paper's central exact-search claim is that the Section-5 constraints
//! push CP's frontier out. This test pins that shape with node budgets, so
//! every number is machine-independent. The grid crosses each TPC-H
//! reduction of `table6` up to |I| = 22 with each of its drill-down levels.
//! A cell runs `analyze(drill_down(level))`, then
//! `CpSolver::solve_with_constraints` on a budget of [`NODES`] nodes, and
//! prints
//!
//! * the nodes CP needed to prove the optimum, or `>NODES` when it did not,
//! * whether the result is optimal and its objective bits,
//! * the closure's ordered pairs, the alliance groups and the tail pins.
//!
//! It also asserts that every returned order is valid, that all levels
//! proving one instance agree on its objective bits, and that `ACMD`
//! proves a larger size than plain CP.
//!
//! To bless an intentional change:
//! `BLESS=1 cargo test -p idd-bench --test exact_golden`

use idd_core::{reduce, Density, ReduceOptions};
use idd_solver::exact::{CpConfig, CpSolver};
use idd_solver::prelude::*;
use idd_solver::properties::{analyze, AnalysisOptions};
use std::path::Path;

/// Node budget of every cell.
const NODES: u64 = 50_000;

/// The reductions of `table6` up to |I| = 22.
const SIZES: [(usize, Density); 7] = [
    (6, Density::Low),
    (11, Density::Low),
    (13, Density::Low),
    (18, Density::Low),
    (22, Density::Low),
    (16, Density::Mid),
    (21, Density::Mid),
];

/// The drill-down levels of `table6`.
const LEVELS: [&str; 6] = ["", "A", "AC", "ACM", "ACMD", "ACMDT"];

#[test]
fn exact_search_grid_matches_golden() {
    let tpch = idd_bench::tpch();
    let mut lines = Vec::new();
    // The largest size that plain CP and `ACMD` prove.
    let (mut plain, mut acmd) = (0, 0);
    for (k, density) in SIZES {
        let reduced = reduce(
            &tpch,
            ReduceOptions {
                density,
                max_indexes: Some(k),
            },
        )
        .expect("reduction failed");
        let density_label = format!("{density:?}").to_lowercase();
        let mut proved_bits: Option<(u64, &str)> = None;
        for level in LEVELS {
            let cell = format!("|I|={k} {density_label} level={level:?}");
            let analysis = analyze(&reduced, AnalysisOptions::drill_down(level));
            let solver = CpSolver::with_config(CpConfig {
                budget: SearchBudget::nodes(NODES),
                analysis: AnalysisOptions::drill_down(level),
                initial: None,
            });
            let result = solver.solve_with_constraints(&reduced, &analysis.constraints);
            let deployment = result
                .deployment
                .as_ref()
                .unwrap_or_else(|| panic!("{cell}: CP returned no order"));
            if let Err(e) = deployment.validate(&reduced) {
                panic!("{cell}: CP returned an invalid order: {e}");
            }
            let bits = result.objective.to_bits();
            let nodes = if result.is_optimal() {
                match level {
                    "" => plain = plain.max(k),
                    "ACMD" => acmd = acmd.max(k),
                    _ => {}
                }
                match proved_bits {
                    Some((expected, first)) => assert_eq!(
                        bits, expected,
                        "{cell}: proves {bits:016x}, but level {first:?} proved {expected:016x}"
                    ),
                    None => proved_bits = Some((bits, level)),
                }
                result.nodes.to_string()
            } else {
                format!(">{NODES}")
            };
            lines.push(format!(
                "{cell} nodes={nodes} optimal={} objective={bits:016x} pairs={} alliances={} T={}",
                result.is_optimal(),
                analysis.total_ordered_pairs,
                analysis.num_alliances,
                analysis.num_tail_fixed,
            ));
        }
    }
    assert!(
        plain < acmd,
        "plain CP proves up to |I| = {plain}, ACMD only up to |I| = {acmd}"
    );

    let actual = lines.join("\n") + "\n";
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/exact_nodes.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&golden, &actual).expect("failed to write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&golden)
        .unwrap_or_else(|e| panic!("missing golden file {golden:?}: {e} (run with BLESS=1)"));
    let drift: Vec<String> = expected
        .lines()
        .zip(actual.lines())
        .filter(|(e, a)| e != a)
        .map(|(e, a)| format!("  expected: {e}\n  actual:   {a}"))
        .collect();
    assert!(
        drift.is_empty() && expected.lines().count() == actual.lines().count(),
        "exact-search golden drifted (BLESS=1 to accept an intentional change):\n{}\n\
         [expected {} lines, actual {} lines]",
        drift.join("\n"),
        expected.lines().count(),
        actual.lines().count()
    );
}
