//! Golden regression tests for the table binaries.
//!
//! `table4 --tiny` and `table5 --tiny` run on a hand-specified, RNG-free
//! instance with node-based (machine-independent) budgets, so their full
//! stdout is reproducible bit-for-bit. These tests diff that output against
//! the checked-in expectations — a refactor that silently shifts a paper
//! number (an objective, a statistic, a label) fails here before it reaches
//! a figure.
//!
//! To bless intentional changes:
//! `BLESS=1 cargo test -p idd-bench --test golden`

use std::path::{Path, PathBuf};
use std::process::Command;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Runs a table binary with `--tiny` and compares stdout to the golden file.
fn check(binary_path: &str, golden_name: &str) {
    let output = Command::new(binary_path)
        .arg("--tiny")
        .output()
        .unwrap_or_else(|e| panic!("failed to launch {binary_path}: {e}"));
    assert!(
        output.status.success(),
        "{binary_path} --tiny exited with {:?}\nstderr:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let actual = String::from_utf8(output.stdout).expect("table output is UTF-8");
    let golden_path = golden_dir().join(golden_name);

    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&golden_path, &actual).expect("failed to write golden file");
        return;
    }

    let expected = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("missing golden file {golden_path:?}: {e} (run with BLESS=1)"));
    if actual != expected {
        let diff: Vec<String> = expected
            .lines()
            .zip(actual.lines())
            .enumerate()
            .filter(|(_, (e, a))| e != a)
            .map(|(k, (e, a))| format!("line {}:\n  expected: {e}\n  actual:   {a}", k + 1))
            .collect();
        panic!(
            "{golden_name} drifted from the checked-in expectation \
             (BLESS=1 to accept an intentional change).\n{}\n\
             [expected {} lines, actual {} lines]",
            diff.join("\n"),
            expected.lines().count(),
            actual.lines().count()
        );
    }
}

#[test]
fn table4_tiny_output_matches_golden() {
    check(env!("CARGO_BIN_EXE_table4"), "table4_tiny.txt");
}

#[test]
fn table5_tiny_output_matches_golden() {
    check(env!("CARGO_BIN_EXE_table5"), "table5_tiny.txt");
}

/// `table8 --tiny` pins the portfolio surface: node budgets,
/// `CooperationPolicy::Off` and no optimality-cancellation race make every
/// number machine-independent, and with cooperation off the members must
/// reproduce the pre-cooperation (PR 2) race — any drift in a member's
/// solo-vs-in-portfolio numbers, or a nonzero restart/adoption count under
/// the off policy, fails here.
#[test]
fn table8_tiny_output_matches_golden() {
    check(env!("CARGO_BIN_EXE_table8"), "table8_tiny.txt");
}

/// `table9 --tiny` pins the deployment runtime surface: the hand-specified
/// instance and scenarios, node budgets, cooperation off and no
/// cancellation race make every realized cost machine-independent. The
/// output also prints the zero-event invariant (quiet/static realized ==
/// offline optimum, bit-for-bit) and the replanning-beats-static drift
/// verdict, so either regressing fails here.
#[test]
fn table9_tiny_output_matches_golden() {
    check(env!("CARGO_BIN_EXE_table9"), "table9_tiny.txt");
}

/// `table10 --tiny` pins the concurrent-build surface: the hand-specified
/// instance and scenarios executed at 1 / 2 / 4 build slots under greedy
/// replanning with node budgets, so every realized cost, makespan and
/// frozen-in-flight count is machine-independent. The output also prints
/// the serial-equivalence invariant (quiet × 1-slot realized == offline
/// optimum, bit-for-bit), so a drift in either the concurrent scheduler or
/// the evaluator fails here.
#[test]
fn table10_tiny_output_matches_golden() {
    check(env!("CARGO_BIN_EXE_table10"), "table10_tiny.txt");
}

/// `table11 --tiny` pins the incremental-evaluation contract: the three
/// scoring back ends (from-scratch, prefix replay, delta) must score every
/// workload move — adjacent swaps, all pairs, bounded-radius relocations,
/// and a committed walk — bit-identically. No timings are printed, so the
/// output is machine-independent; a delta-path cache bug flips a "yes" to
/// "NO" and fails here.
#[test]
fn table11_tiny_output_matches_golden() {
    check(env!("CARGO_BIN_EXE_table11"), "table11_tiny.txt");
}

/// `table12 --tiny` pins the decomposition contract: on a hand-specified
/// zero-coupling instance the shard-and-recombine objective must equal the
/// monolithic portfolio's CP-proved optimum bit-for-bit, and the reported
/// number must be exactly the full-instance evaluator's verdict on the
/// spliced order. Node budgets, cooperation off, no cancellation race and
/// sequential shard solving keep every printed number machine-independent;
/// the binary itself exits non-zero if either equivalence breaks, so a
/// recombination bug fails here twice over.
#[test]
fn table12_tiny_output_matches_golden() {
    check(env!("CARGO_BIN_EXE_table12"), "table12_tiny.txt");
}

/// `figure14 --tiny` pins the journal/replay surface: the hand-specified
/// instance and scenarios executed at 1 / 2 / 4 build slots produce
/// machine-independent realized-cost polylines (read verbatim off the
/// journal's `Complete` records), journal record counts, and per-run replay
/// verdicts. The binary itself exits non-zero when any journal fails the
/// JSONL round trip or replays to a different report, so a replay
/// divergence fails here twice over — once as the exit code, once as the
/// `DIVERGED` cell in the diff.
#[test]
fn figure14_tiny_output_matches_golden() {
    check(env!("CARGO_BIN_EXE_figure14"), "figure14_tiny.txt");
}

/// `trace --tiny` pins the telemetry surface end to end: the merged
/// span/counter stream (per-member solver tracks, per-slot runtime tracks
/// on the logical clock), the deterministic text summary, and the
/// slot-accounting gate. Wall-clock never reaches stdout — it lives only in
/// the Chrome export — so the whole report is machine-independent, and any
/// instrumentation point that starts emitting nondeterministically (or
/// stops emitting at all) fails here.
#[test]
fn trace_tiny_output_matches_golden() {
    check(env!("CARGO_BIN_EXE_trace"), "trace_tiny.txt");
}

/// The acceptance bar stated directly: two consecutive `trace --tiny` runs
/// — fresh processes, fresh collectors, fresh thread interleavings — must
/// produce byte-identical stdout. The golden test above pins *what* the
/// output is; this pins that it does not depend on scheduler luck.
#[test]
fn trace_tiny_is_deterministic_across_runs() {
    let run = || {
        let output = Command::new(env!("CARGO_BIN_EXE_trace"))
            .arg("--tiny")
            .output()
            .expect("failed to launch trace");
        assert!(output.status.success(), "trace --tiny failed");
        output.stdout
    };
    let first = run();
    let second = run();
    assert_eq!(
        first, second,
        "trace --tiny stdout differs between two consecutive runs"
    );
}

/// The replay CLI's malformed-journal error path: a journal with a garbage
/// line must exit 1 and point at the offending line in editor-clickable
/// `path:line:` form, not just say "invalid JSON" (satellite of ISSUE 9).
#[test]
fn replay_reports_malformed_journal_line_numbers() {
    let dir = std::env::temp_dir().join(format!("idd-replay-err-{}", std::process::id()));
    let dump = Command::new(env!("CARGO_BIN_EXE_figure14"))
        .args(["--tiny", "--dump", dir.to_str().unwrap()])
        .output()
        .expect("failed to launch figure14");
    assert!(dump.status.success(), "figure14 --tiny --dump failed");

    // Corrupt the middle of the journal, not the end: the reported line
    // number must be the bad line's own, not just "last line".
    let journal_path = dir.join("journal.jsonl");
    let journal = std::fs::read_to_string(&journal_path).unwrap();
    let lines: Vec<&str> = journal.lines().collect();
    assert!(lines.len() >= 3, "dump journal too small to corrupt");
    let bad_line = lines.len() / 2 + 1; // 1-based
    let tampered: Vec<String> = lines
        .iter()
        .enumerate()
        .map(|(k, l)| {
            if k + 1 == bad_line {
                format!("{l} trailing garbage")
            } else {
                l.to_string()
            }
        })
        .collect();
    std::fs::write(&journal_path, tampered.join("\n") + "\n").unwrap();

    let output = Command::new(env!("CARGO_BIN_EXE_replay"))
        .args([
            "--instance",
            dir.join("instance.json").to_str().unwrap(),
            "--plan",
            dir.join("plan.json").to_str().unwrap(),
            "--journal",
            journal_path.to_str().unwrap(),
        ])
        .output()
        .expect("failed to launch replay");
    assert_eq!(
        output.status.code(),
        Some(1),
        "tampered journal must exit 1"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    let expected = format!(
        "{}:{bad_line}: malformed journal line",
        journal_path.display()
    );
    assert!(
        stderr.contains(&expected),
        "stderr must point at the bad line as `path:{bad_line}:`, got:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A malformed flag value exits with code 2 and names the flag, instead of
/// running the default.
#[test]
fn malformed_table_flags_exit_with_code_2() {
    for (binary, flag, value) in [
        (env!("CARGO_BIN_EXE_table11"), "--seed", "abc"),
        (env!("CARGO_BIN_EXE_table11"), "--moves", "abc"),
        (env!("CARGO_BIN_EXE_table12"), "--seed", "-1"),
        (env!("CARGO_BIN_EXE_table12"), "--limit", "NaN"),
        (env!("CARGO_BIN_EXE_table12"), "--coupling", "x"),
        (env!("CARGO_BIN_EXE_table12"), "--threshold", "-0.5"),
    ] {
        let output = Command::new(binary)
            .args([flag, value])
            .output()
            .unwrap_or_else(|e| panic!("failed to launch {binary}: {e}"));
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(stderr.contains(flag), "{flag} {value}: {stderr}");
    }
}
