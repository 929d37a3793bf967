//! Bit-for-bit golden of the Section-5 property analysis.
//!
//! Every cell of a fixed grid prints one line: FNV-1a hashes of the final
//! constraint set's ordered pairs and alliance groups, the per-detector
//! counts, the number of tail-pinned indexes and the closure size. The grid
//! crosses
//!
//! * seeded synthetic instances, with and without hard precedences,
//! * block-structured instances (with and without a coupling layer) and
//!   every block projected onto its own shard,
//! * the `deadweight` instance, whose last index the tail step pins, and a
//!   fenced variant that it pins only when the tail budget admits every
//!   tail,
//! * the Figure-5-like `alliance` instance, whose two allied pairs the
//!   alliance detector finds,
//! * every drill-down level of Table 6, and under the levels that run the
//!   tail step also tail lengths 1–3 and tail budgets from 10 to 50 000.
//!
//! `analyze` runs the tail step at length 3 and budget 50 000. A cell with
//! a tail runs `analyze` at its level without the tail step and then the
//! tail step at the cell's length and budget; the cells at length 3 and
//! budget 50 000 also check that this equals `analyze` at their level,
//! field for field.
//!
//! The grid must find an alliance and reach the tail step's pin and its
//! budget overflow; the test asserts it does. Every pair a detector count
//! includes is a new pair of the closure, so in every cell `C + M + D` is at
//! most `total`. The analysis runs each detector once, and every cell checks
//! that a second pass would add nothing: each enabled instance-only
//! detector's alliances are registered and its pairs are implied or would
//! close a cycle, and one more tail call pins nothing and leaves the
//! constraint set as it was.
//!
//! To bless an intentional change:
//! `BLESS=1 cargo test -p idd --test analysis_golden`

use idd::core::{IndexId, ProblemInstance};
use idd::solver::decompose::project;
use idd::solver::properties::{
    alliance, analyze, colonized, disjoint, dominated, tail, AnalysisOptions, AnalysisReport,
};
use idd::workloads::{generate_block_structured, BlockStructuredConfig};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::path::Path;

/// FNV-1a over a stream of words.
fn hash_words(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// A seeded synthetic instance with single- and multi-index plans, build
/// interactions and, when `precedences` is set, a few hard precedences.
fn seeded(seed: u64, n: usize, precedences: bool) -> ProblemInstance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = ProblemInstance::builder(format!("analysis-golden-{seed}"));
    let idx: Vec<IndexId> = (0..n)
        .map(|_| b.add_index(rng.gen_range(1.0..12.0)))
        .collect();
    for q in 0..n {
        let runtime = rng.gen_range(30.0..200.0);
        let qid = b.add_query(runtime);
        let a = idx[(q * 3) % n];
        let c = idx[(q * 5 + 1) % n];
        let d = idx[(q * 7 + 2) % n];
        b.add_plan(qid, vec![a], runtime * rng.gen_range(0.05..0.2));
        if c != a {
            b.add_plan(qid, vec![a, c], runtime * rng.gen_range(0.2..0.4));
            if d != a && d != c {
                b.add_plan(qid, vec![a, c, d], runtime * rng.gen_range(0.4..0.6));
            }
        }
    }
    for k in 0..n / 3 {
        b.add_build_interaction(idx[3 * k + 1], idx[3 * k], rng.gen_range(0.3..1.5));
    }
    if precedences {
        b.add_precedence(idx[0], idx[n / 2]);
        b.add_precedence(idx[2], idx[1]);
        b.add_precedence(idx[n - 1], idx[3]);
    }
    b.build().expect("golden instance is consistent")
}

/// Three indexes, one of which is all cost and almost no benefit: the
/// obvious last build.
fn deadweight() -> ProblemInstance {
    let mut b = ProblemInstance::builder("deadweight");
    let useful1 = b.add_index(2.0);
    let useful2 = b.add_index(3.0);
    let deadweight = b.add_index(20.0);
    let q0 = b.add_query(100.0);
    b.add_plan(q0, vec![useful1], 40.0);
    let q1 = b.add_query(80.0);
    b.add_plan(q1, vec![useful2], 30.0);
    let q2 = b.add_query(10.0);
    b.add_plan(q2, vec![deadweight], 0.5);
    b.build().expect("deadweight instance is consistent")
}

/// Four useful indexes and a deadweight that three of them must precede.
/// Every length-3 tail then holds the deadweight, and every tail champion
/// ends with it, but there are 15 tails: the tail step pins the fourth
/// useful index before the deadweight only when its budget admits them all.
fn fenced_deadweight() -> ProblemInstance {
    let mut b = ProblemInstance::builder("fenced-deadweight");
    let useful: Vec<IndexId> = [2.0, 3.0, 2.5, 4.0]
        .into_iter()
        .map(|cost| b.add_index(cost))
        .collect();
    let deadweight = b.add_index(20.0);
    for (k, &i) in useful.iter().enumerate() {
        let q = b.add_query(100.0 - 10.0 * k as f64);
        b.add_plan(q, vec![i], 30.0 + 2.0 * k as f64);
    }
    let q = b.add_query(10.0);
    b.add_plan(q, vec![deadweight], 0.5);
    for &i in &useful[..3] {
        b.add_precedence(i, deadweight);
    }
    b.build().expect("fenced deadweight instance is consistent")
}

/// A Figure-5-like instance: `i0, i2` and `i3, i5` only ever appear in
/// plans together, so each pair is an alliance.
fn alliance() -> ProblemInstance {
    let mut b = ProblemInstance::builder("alliance");
    let i: Vec<IndexId> = (0..6).map(|_| b.add_index(5.0)).collect();
    let q0 = b.add_query(100.0);
    b.add_plan(q0, vec![i[0], i[2]], 30.0);
    b.add_plan(q0, vec![i[0], i[2], i[4]], 50.0);
    let q1 = b.add_query(80.0);
    b.add_plan(q1, vec![i[1], i[4]], 20.0);
    let q2 = b.add_query(60.0);
    b.add_plan(q2, vec![i[3], i[5]], 25.0);
    b.build().expect("alliance instance is consistent")
}

/// The grid's instances, each with a label.
fn instances() -> Vec<(String, ProblemInstance)> {
    let mut out = vec![
        ("deadweight".to_string(), deadweight()),
        ("fenced-deadweight".to_string(), fenced_deadweight()),
        ("alliance".to_string(), alliance()),
        ("seeded-4-n7".to_string(), seeded(4, 7, false)),
        ("seeded-11-n9-prec".to_string(), seeded(11, 9, true)),
        ("seeded-4-n13".to_string(), seeded(4, 13, false)),
        ("seeded-29-n16-prec".to_string(), seeded(29, 16, true)),
    ];
    for (blocks, size, coupling, seed) in [(2, 8, 0, 42), (3, 6, 2, 7)] {
        let config = BlockStructuredConfig::blocks(blocks, size, coupling, seed);
        let parent = generate_block_structured(config);
        for block in 0..blocks {
            let (start, end) = config.block_range(block);
            let members: Vec<IndexId> = (start..end).map(IndexId::new).collect();
            out.push((
                format!("blocks-{blocks}x{size}-c{coupling}-{seed}/shard{block}"),
                project(&parent, &members).instance,
            ));
        }
        out.push((format!("blocks-{blocks}x{size}-c{coupling}-{seed}"), parent));
    }
    out
}

/// One printed cell of the grid.
struct Cell {
    instance: String,
    level: &'static str,
    tail: Option<(usize, usize)>,
    line: String,
    num_alliances: usize,
    num_tail_fixed: usize,
}

fn fingerprint(report: &AnalysisReport) -> String {
    let c = &report.constraints;
    let n = c.len();
    let pairs = hash_words((0..n).flat_map(|a| {
        (0..n)
            .filter(move |&b| c.must_precede(IndexId::new(a), IndexId::new(b)))
            .flat_map(move |b| [a as u64, b as u64])
    }));
    let alliances = hash_words(c.alliances().iter().flat_map(|group| {
        std::iter::once(group.len() as u64).chain(group.iter().map(|i| i.raw() as u64))
    }));
    format!(
        "pairs={pairs:016x} alliances={alliances:016x} A={} C={} M={} D={} T={} total={}",
        report.num_alliances,
        report.num_colonized_pairs,
        report.num_dominated_pairs,
        report.num_disjoint_pairs,
        report.num_tail_fixed,
        report.total_ordered_pairs,
    )
}

/// The analysis of one cell at `level`: `analyze` itself when `tail` is
/// `None`, else `analyze` without the tail step followed by the tail step
/// at the cell's `(length, budget)`.
fn analyze_cell(
    instance: &ProblemInstance,
    level: &str,
    tail: Option<(usize, usize)>,
) -> AnalysisReport {
    let options = AnalysisOptions::drill_down(level);
    let Some((length, budget)) = tail else {
        return analyze(instance, options);
    };
    let mut report = analyze(
        instance,
        AnalysisOptions {
            tail: false,
            ..options
        },
    );
    report.num_tail_fixed = tail::analyze(instance, &mut report.constraints, length, budget);
    report.total_ordered_pairs = report.constraints.num_ordered_pairs();
    report
}

/// Asserts that a second pass of the analysis would add nothing: every
/// alliance the enabled alliance detector finds is registered, every pair an
/// enabled pair detector returns is implied or would close a cycle, and one
/// more tail call at the cell's `(length, budget)` pins nothing and leaves
/// the constraint set as it was.
fn assert_second_pass_adds_nothing(
    cell: &str,
    instance: &ProblemInstance,
    options: AnalysisOptions,
    tail: Option<(usize, usize)>,
    report: &AnalysisReport,
) {
    let c = &report.constraints;
    if options.alliances {
        for group in alliance::detect(instance) {
            assert!(
                c.alliances().contains(&group),
                "{cell}: alliance {group:?} is not registered"
            );
        }
    }
    let mut pairs = Vec::new();
    if options.colonized {
        pairs.extend(colonized::detect(instance));
    }
    if options.dominated {
        pairs.extend(dominated::detect(instance));
    }
    if options.disjoint {
        pairs.extend(disjoint::detect(instance));
    }
    for (before, after) in pairs {
        assert!(
            before == after || c.must_precede(before, after) || c.must_precede(after, before),
            "{cell}: a second pass would add {before:?} before {after:?}"
        );
    }
    if let Some((length, budget)) = tail {
        let mut again = c.clone();
        let pinned = tail::analyze(instance, &mut again, length, budget);
        assert_eq!(pinned, 0, "{cell}: a second tail call pinned an index");
        assert_eq!(&again, c, "{cell}: a second tail call changed the set");
    }
}

#[test]
fn property_analysis_grid_matches_golden() {
    const LEVELS: [&str; 7] = ["", "A", "AC", "ACM", "ACMD", "T", "ACMDT"];
    const TAIL_LENGTHS: [usize; 3] = [1, 2, 3];
    const TAIL_BUDGETS: [usize; 4] = [10, 200, 5_000, 50_000];

    let mut cells = Vec::new();
    for (label, instance) in instances() {
        for level in LEVELS {
            let options = AnalysisOptions::drill_down(level);
            let tails: Vec<Option<(usize, usize)>> = if options.tail {
                TAIL_LENGTHS
                    .iter()
                    .flat_map(|&len| TAIL_BUDGETS.iter().map(move |&budget| Some((len, budget))))
                    .collect()
            } else {
                vec![None]
            };
            for tail in tails {
                let report = analyze_cell(&instance, level, tail);
                let cell = match tail {
                    Some((len, budget)) => {
                        format!("{label} level={level} len={len} budget={budget}")
                    }
                    None => format!("{label} level={level:?}"),
                };
                if tail == Some((3, 50_000)) {
                    // The fingerprint prints every count field.
                    let expected = analyze(&instance, options);
                    assert_eq!(report.constraints, expected.constraints, "{cell}");
                    assert_eq!(fingerprint(&report), fingerprint(&expected), "{cell}");
                }
                let detector_pairs = report.num_colonized_pairs
                    + report.num_dominated_pairs
                    + report.num_disjoint_pairs;
                assert!(
                    detector_pairs <= report.total_ordered_pairs,
                    "{cell}: C + M + D = {detector_pairs} exceeds total = {}",
                    report.total_ordered_pairs
                );
                assert_second_pass_adds_nothing(&cell, &instance, options, tail, &report);
                cells.push(Cell {
                    instance: label.clone(),
                    level,
                    tail,
                    line: format!("{cell} {}", fingerprint(&report)),
                    num_alliances: report.num_alliances,
                    num_tail_fixed: report.num_tail_fixed,
                });
            }
        }
    }

    // The grid must find an alliance, reach a tail pin...
    assert!(
        cells.iter().any(|c| c.num_alliances > 0),
        "the alliance detector never found a group"
    );
    assert!(
        cells.iter().any(|c| c.num_tail_fixed > 0),
        "the tail step never pinned an index"
    );
    // ...and a budget overflow that a larger budget resolves: an instance
    // and tail length that pin at some budget but not at a smaller one.
    let pins_only_with_budget = cells.iter().any(|small| {
        cells.iter().any(|large| match (small.tail, large.tail) {
            (Some((len, budget)), Some((large_len, large_budget))) => {
                large.instance == small.instance
                    && large.level == small.level
                    && large_len == len
                    && large_budget > budget
                    && large.num_tail_fixed > 0
                    && small.num_tail_fixed == 0
            }
            _ => false,
        })
    });
    assert!(
        pins_only_with_budget,
        "no instance pins at a large tail budget but not at a small one"
    );

    let actual = cells
        .iter()
        .map(|c| c.line.as_str())
        .collect::<Vec<_>>()
        .join("\n")
        + "\n";
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/analysis.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(golden.parent().unwrap()).expect("golden dir");
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
        "property-analysis golden drifted (BLESS=1 to accept an intentional change):\n{}\n\
         [expected {} lines, actual {} lines]",
        drift.join("\n"),
        expected.lines().count(),
        actual.lines().count()
    );
}
