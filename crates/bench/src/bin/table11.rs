//! "Table 11" — incremental objective-evaluation throughput (not in the
//! paper).
//!
//! The paper's local searches are dominated by objective evaluations: a
//! TS-BSwap iteration evaluates every feasible pair, which at TPC-DS scale
//! costs the paper ~50 minutes per iteration with from-scratch evaluation.
//! This harness measures what the incremental evaluators buy: for each
//! instance size it scans the move sets the solvers actually issue
//! (adjacent swaps, all pairs, bounded-radius relocations) under three
//! scoring back ends —
//!
//! * **full** — clone the order, apply the move, `evaluate_area` from
//!   scratch (`O(n)` per move);
//! * **replay** — a [`PrefixState`] holding the base order: pop back to
//!   the first position the move changes, push the moved suffix, read the
//!   area, then pop and push the base suffix back (`O(n)` worst case,
//!   cheaper near the tail);
//! * **delta** — [`DeltaEvaluator`], span-local patching over the SoA
//!   layout (`O(1)` adjacent swaps, `O(|span|)` otherwise)
//!
//! — reporting moves/second and each back end's speedup over full. Before
//! timing, every back end is cross-checked bit-for-bit on the full move
//! set: a back end that disagrees aborts the bench. The back ends' passes
//! over the move set are timed interleaved (full, replay, delta, then
//! again), and a speedup is the median over passes of full's pass time
//! over the back end's, so a drift in the host's speed moves all three
//! alike. The bench fails if the adjacent-swap speedup of delta is below
//! 10x at any n >= 64.
//!
//! Flags: `--sizes a,b,c` (instance sizes, default `64,128,256`),
//! `--moves <k>` (move budget per cell, default 20000), `--seed <n>`,
//! `--json <path>` (machine-readable `BENCH_table11.json`), `--tiny`
//! (timing-free bit-equivalence verdicts on a fixed instance — fully
//! machine-independent, diffed by the golden test). A value that does not
//! parse exits with code 2.

use idd_bench::{parse_flag, parse_flag_value, BenchJson, BenchRecord, Table};
use idd_core::{
    DeltaEvaluator, Deployment, IndexId, ObjectiveEvaluator, PrefixState, ProblemInstance,
};
use idd_workloads::synthetic::{generate, SyntheticConfig};

/// One move of the scan workloads.
#[derive(Debug, Clone, Copy)]
enum Move {
    Swap(usize, usize),
    Shift(usize, usize),
}

/// The radius of the relocation scan (mirrors the VNS shift descent).
const SHIFT_RADIUS: usize = 8;

fn adjacent_moves(n: usize) -> Vec<Move> {
    (0..n - 1).map(|a| Move::Swap(a, a + 1)).collect()
}

fn pair_moves(n: usize) -> Vec<Move> {
    let mut moves = Vec::with_capacity(n * (n - 1) / 2);
    for a in 0..n {
        for b in (a + 1)..n {
            moves.push(Move::Swap(a, b));
        }
    }
    moves
}

fn shift_moves(n: usize) -> Vec<Move> {
    let mut moves = Vec::new();
    for from in 0..n {
        let lo = from.saturating_sub(SHIFT_RADIUS);
        let hi = (from + SHIFT_RADIUS).min(n - 1);
        for to in lo..=hi {
            if to != from {
                moves.push(Move::Shift(from, to));
            }
        }
    }
    moves
}

/// Applies `mv` to a copy of `base` (the reference semantics every back
/// end must reproduce).
fn applied(base: &Deployment, mv: Move) -> Deployment {
    let mut next = base.clone();
    match mv {
        Move::Swap(a, b) => next.swap(a, b),
        Move::Shift(from, to) => next.relocate(from, to),
    }
    next
}

/// The index at position `p` once `mv` is applied to `base`.
fn moved_at(base: &[IndexId], mv: Move, p: usize) -> IndexId {
    match mv {
        Move::Swap(a, b) if p == a => base[b],
        Move::Swap(a, b) if p == b => base[a],
        Move::Shift(from, to) if p == to => base[from],
        Move::Shift(from, to) if (from..to).contains(&p) => base[p + 1],
        Move::Shift(from, to) if (to + 1..=from).contains(&p) => base[p - 1],
        _ => base[p],
    }
}

/// The replay back end: a prefix state holding the whole base order.
struct Replay<'e> {
    base: Vec<IndexId>,
    prefix: PrefixState<'e>,
}

impl<'e> Replay<'e> {
    fn new(evaluator: &'e ObjectiveEvaluator<'e>, base: &Deployment) -> Self {
        let mut prefix = evaluator.prefix_state();
        base.iter().for_each(|(_, i)| prefix.push(i));
        let base = base.order().to_vec();
        Self { base, prefix }
    }

    /// Pops the prefix back to `first` and pushes `at(base, p)` for every
    /// later position `p`.
    fn rewrite(&mut self, first: usize, at: impl Fn(&[IndexId], usize) -> IndexId) {
        let n = self.base.len();
        for _ in first..n {
            self.prefix.pop();
        }
        for p in first..n {
            self.prefix.push(at(&self.base, p));
        }
    }

    /// The area of the base order with `mv` applied; the base is restored
    /// before returning.
    fn evaluate(&mut self, mv: Move) -> f64 {
        let first = match mv {
            Move::Swap(a, b) | Move::Shift(a, b) => a.min(b),
        };
        self.rewrite(first, |base, p| moved_at(base, mv, p));
        let area = self.prefix.area();
        self.rewrite(first, |base, p| base[p]);
        area
    }
}

/// Scoring back ends under measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Backend {
    Full,
    Replay,
    Delta,
}

impl Backend {
    fn label(self) -> &'static str {
        match self {
            Backend::Full => "full",
            Backend::Replay => "replay",
            Backend::Delta => "delta",
        }
    }
}

/// Evaluates every move in `moves` against `base` with the chosen back
/// end, returning the XOR of all result bits (a cheap checksum that also
/// keeps the optimizer honest).
fn scan(
    backend: Backend,
    base: &Deployment,
    moves: &[Move],
    full: &ObjectiveEvaluator,
    replay: &mut Replay<'_>,
    delta: &mut DeltaEvaluator,
) -> u64 {
    let mut checksum = 0u64;
    for &mv in moves {
        let area = match backend {
            Backend::Full => full.evaluate_area(&applied(base, mv)),
            Backend::Replay => replay.evaluate(mv),
            Backend::Delta => match mv {
                Move::Swap(a, b) => delta.evaluate_swap(a, b),
                Move::Shift(from, to) => delta.evaluate_shift(from, to),
            },
        };
        checksum ^= area.to_bits();
    }
    checksum
}

/// Asserts all three back ends agree bit-for-bit on every move.
fn cross_check(label: &str, instance: &ProblemInstance, base: &Deployment, moves: &[Move]) -> bool {
    let full = ObjectiveEvaluator::new(instance);
    let mut replay = Replay::new(&full, base);
    let mut delta = DeltaEvaluator::new(instance, base.clone());
    for &mv in moves {
        let want = full.evaluate_area(&applied(base, mv));
        let got_replay = replay.evaluate(mv);
        let got_delta = match mv {
            Move::Swap(a, b) => delta.evaluate_swap(a, b),
            Move::Shift(from, to) => delta.evaluate_shift(from, to),
        };
        if want.to_bits() != got_replay.to_bits() || want.to_bits() != got_delta.to_bits() {
            eprintln!(
                "table11: {label} {mv:?}: full {want:?} / replay {got_replay:?} / delta {got_delta:?}"
            );
            return false;
        }
    }
    true
}

/// The instance used at size `n`: synthetic, query/plan counts scaled with
/// the index count so the per-evaluation work grows the way real
/// workloads' does.
fn sized_instance(n: usize, seed: u64) -> ProblemInstance {
    generate(SyntheticConfig {
        num_indexes: n,
        num_queries: (n * 3) / 4,
        plans_per_query: 8,
        max_plan_width: 5,
        num_tables: (n / 8).max(2),
        seed,
        ..SyntheticConfig::default()
    })
}

struct Cell {
    n: usize,
    workload: &'static str,
    backend: Backend,
    moves: u64,
    elapsed: f64,
    /// Median over passes of full's pass time over this back end's.
    speedup: f64,
}

impl Cell {
    fn moves_per_sec(&self) -> f64 {
        self.moves as f64 / self.elapsed.max(1e-12)
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len().is_multiple_of(2) {
        (values[mid - 1] + values[mid]) / 2.0
    } else {
        values[mid]
    }
}

/// Times whole passes over `moves`, the three back ends one after the
/// other in every round, until each has scored `move_budget` moves.
fn measure(
    instance: &ProblemInstance,
    base: &Deployment,
    workload: &'static str,
    moves: &[Move],
    n: usize,
    move_budget: u64,
) -> Vec<Cell> {
    let full = ObjectiveEvaluator::new(instance);
    let mut replay = Replay::new(&full, base);
    let mut delta = DeltaEvaluator::new(instance, base.clone());
    let backends = [Backend::Full, Backend::Replay, Backend::Delta];
    let mut passes: [Vec<f64>; 3] = Default::default();
    let mut done = 0u64;
    let mut checksum = 0u64;
    while done < move_budget {
        for (backend, times) in backends.iter().zip(&mut passes) {
            let started = std::time::Instant::now();
            checksum ^= scan(*backend, base, moves, &full, &mut replay, &mut delta);
            times.push(started.elapsed().as_secs_f64());
        }
        done += moves.len() as u64;
    }
    // The checksum depends only on the instance, so repeated scans XOR to 0
    // or the single-scan value; consume it so nothing is elided.
    std::hint::black_box(checksum);
    backends
        .iter()
        .zip(&passes)
        .map(|(&backend, times)| Cell {
            n,
            workload,
            backend,
            moves: done,
            elapsed: times.iter().sum(),
            speedup: median(
                passes[0]
                    .iter()
                    .zip(times)
                    .map(|(full, own)| full / own.max(1e-12))
                    .collect(),
            ),
        })
        .collect()
}

fn parse_sizes() -> Vec<usize> {
    match parse_flag_value("table11", "--sizes") {
        Some(v) => {
            let sizes: Result<Vec<usize>, _> = v.split(',').map(str::parse).collect();
            match sizes {
                Ok(sizes) if !sizes.is_empty() && sizes.iter().all(|&n| n >= 4) => sizes,
                _ => {
                    eprintln!("table11: --sizes expects a comma list of integers >= 4, got `{v}`");
                    std::process::exit(2);
                }
            }
        }
        None => vec![64, 128, 256],
    }
}

fn main() {
    let tiny = std::env::args().any(|a| a == "--tiny");
    let json_path = parse_flag_value("table11", "--json");
    if tiny {
        run_tiny(json_path.as_deref());
        return;
    }

    let seed = parse_flag("table11", "--seed", 42, "an unsigned integer", |_| true);
    let move_budget = parse_flag("table11", "--moves", 20_000, "an unsigned integer", |_| {
        true
    });
    let sizes = parse_sizes();

    println!("== Table 11: incremental evaluation throughput (seed {seed}) ==\n");

    let mut table = Table::new(vec![
        "n",
        "workload",
        "backend",
        "moves",
        "seconds",
        "moves/sec",
        "vs full",
    ]);
    let mut json = BenchJson::new(
        "table11",
        format!(
            "moves/sec per back end; sizes {sizes:?}, {move_budget} moves per cell, \
             shift radius {SHIFT_RADIUS}, seed {seed}"
        ),
    );
    let mut adjacent_speedups = Vec::new();

    for &n in &sizes {
        let instance = sized_instance(n, seed);
        let base = Deployment::identity(n);
        for (workload, moves) in [
            ("adjacent", adjacent_moves(n)),
            ("pairs", pair_moves(n)),
            ("shifts", shift_moves(n)),
        ] {
            if !cross_check(workload, &instance, &base, &moves) {
                eprintln!("table11: back ends disagree — aborting");
                std::process::exit(1);
            }
            let cells = measure(&instance, &base, workload, &moves, n, move_budget);
            for cell in &cells {
                if workload == "adjacent" && cell.backend == Backend::Delta {
                    adjacent_speedups.push((n, cell.speedup));
                }
                table.row(vec![
                    cell.n.to_string(),
                    cell.workload.to_string(),
                    cell.backend.label().to_string(),
                    cell.moves.to_string(),
                    format!("{:.3}", cell.elapsed),
                    format!("{:.0}", cell.moves_per_sec()),
                    if cell.backend == Backend::Full {
                        "baseline".to_string()
                    } else {
                        format!("{:.1}x", cell.speedup)
                    },
                ]);
                json.push(BenchRecord {
                    run: format!("{}/{}/n{}", cell.workload, cell.backend.label(), cell.n),
                    objective: cell.moves_per_sec(),
                    outcome: "ok".into(),
                    elapsed_seconds: cell.elapsed,
                    nodes: cell.moves,
                    coop: idd_solver::CoopStats::default(),
                    scenario: None,
                    replans: None,
                    improved_replans: None,
                    retries: None,
                });
            }
        }
    }
    println!("{}", table.render());

    for (n, speedup) in &adjacent_speedups {
        println!(
            "adjacent-swap scan at n={n}: delta is {speedup:.1}x the from-scratch rate, \
             median of interleaved passes (target: >= 10x for n >= 64)"
        );
    }
    if let Some((n, s)) = adjacent_speedups
        .iter()
        .find(|(n, s)| *n >= 64 && *s < 10.0)
    {
        eprintln!("table11: adjacent-swap speedup at n={n} is only {s:.1}x (< 10x)");
        std::process::exit(1);
    }

    json.write_if_requested("table11", json_path.as_deref());
}

/// Golden-tested deterministic mode: no timings — only move counts and
/// bit-equivalence verdicts, which are machine-independent. This pins the
/// contract the throughput numbers rest on: all three back ends score
/// every workload move identically, down to the last bit, including after
/// a committed walk perturbs the delta evaluator's caches.
fn run_tiny(json_path: Option<&str>) {
    println!("== Table 11 (tiny): incremental evaluation equivalence ==\n");
    let n = 16;
    let instance = sized_instance(n, 7);
    let base = Deployment::identity(n);
    println!(
        "instance: synthetic-7, {} indexes / {} queries / {} plans; shift radius {}\n",
        instance.num_indexes(),
        instance.num_queries(),
        instance.num_plans(),
        SHIFT_RADIUS,
    );

    let mut json = BenchJson::new(
        "table11",
        "tiny bit-equivalence verdicts (no timings)".to_string(),
    );
    let mut all_ok = true;
    for (workload, moves) in [
        ("adjacent", adjacent_moves(n)),
        ("pairs", pair_moves(n)),
        ("shifts", shift_moves(n)),
    ] {
        let ok = cross_check(workload, &instance, &base, &moves);
        all_ok &= ok;
        println!(
            "{workload}: {} moves — full/replay/delta bit-identical: {}",
            moves.len(),
            if ok { "yes" } else { "NO" }
        );
        json.push(BenchRecord {
            run: format!("{workload}/equivalence"),
            objective: if ok { 1.0 } else { 0.0 },
            outcome: if ok { "ok".into() } else { "mismatch".into() },
            elapsed_seconds: 0.0,
            nodes: moves.len() as u64,
            coop: idd_solver::CoopStats::default(),
            scenario: None,
            replans: None,
            improved_replans: None,
            retries: None,
        });
    }

    // A committed walk: drive the delta evaluator through a deterministic
    // sequence of commits and re-verify the full pair scan afterwards —
    // the stale-cache regression shape, pinned in golden output.
    let mut delta = DeltaEvaluator::new(&instance, base.clone());
    let mut current = base;
    for k in 0..64usize {
        match k % 3 {
            0 => {
                let a = (k * 5) % (n - 1);
                delta.commit_swap(a, a + 1);
                current.swap(a, a + 1);
            }
            1 => {
                let from = (k * 7) % n;
                let to = (k * 11) % n;
                delta.commit_shift(from, to);
                current.relocate(from, to);
            }
            _ => {
                let a = (k * 3) % n;
                let b = (k * 13) % n;
                delta.commit_swap(a, b);
                current.swap(a, b);
            }
        }
    }
    let full = ObjectiveEvaluator::new(&instance);
    let base_ok = delta.base_area().to_bits() == full.evaluate_area(&current).to_bits()
        && delta.base().order() == current.order();
    let mut walk_ok = base_ok;
    for &mv in &pair_moves(n) {
        let (a, b) = match mv {
            Move::Swap(a, b) => (a, b),
            Move::Shift(_, _) => unreachable!(),
        };
        let want = full.evaluate_area(&applied(&current, mv));
        walk_ok &= delta.evaluate_swap(a, b).to_bits() == want.to_bits();
    }
    all_ok &= walk_ok;
    println!(
        "committed walk (64 commits) then full pair scan — still bit-identical: {}",
        if walk_ok { "yes" } else { "NO" }
    );
    json.push(BenchRecord {
        run: "committed-walk/equivalence".into(),
        objective: if walk_ok { 1.0 } else { 0.0 },
        outcome: if walk_ok {
            "ok".into()
        } else {
            "mismatch".into()
        },
        elapsed_seconds: 0.0,
        nodes: 64,
        coop: idd_solver::CoopStats::default(),
        scenario: None,
        replans: None,
        improved_replans: None,
        retries: None,
    });

    json.write_if_requested("table11", json_path);
    if !all_ok {
        std::process::exit(1);
    }
}
