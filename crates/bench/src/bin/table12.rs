//! "Table 12" — shard-and-recombine solving vs the monolithic portfolio
//! (not in the paper).
//!
//! The Section-5 property analysis doubles as a decomposer: its structural
//! facts define a coupling graph whose components are independent
//! sub-problems. This harness compares the monolithic portfolio against
//! [`ShardedSolver`] on block-structured instances — `n/32` independent
//! 32-index blocks — where the decomposition is provably lossless
//! (`coupling 0`) or deliberately lossy (`--coupling k` cross-block
//! queries, cut by `--threshold`).
//!
//! Flags: `--sizes a,b,c` (total index counts, default `128,512,1024`),
//! `--seed <n>`, `--limit <secs>` (wall-clock budget of each solve: the
//! monolithic race's, and the whole sharded solve's, which shares it out
//! over its shards' member runs), `--coupling <k>` (cross-block queries,
//! default 0), `--threshold <w>` (cut threshold for the coupled variant),
//! `--json <path>` (machine-readable `BENCH_table12.json`), `--tiny`
//! (timing-free equivalence verdicts on a hand-specified zero-coupling
//! instance — fully machine-independent, diffed by the golden test; exits
//! non-zero if the sharded objective exceeds the monolithic one or the
//! spliced order fails re-verification). A value that does not parse, or
//! a NaN or negative `--limit` or `--threshold`, exits with code 2.

use idd_bench::{parse_flag, parse_flag_value, BenchJson, BenchRecord, Table};
use idd_core::{ObjectiveEvaluator, ProblemInstance};
use idd_solver::decompose::{ShardedConfig, ShardedOutcome, ShardedSolver};
use idd_solver::solver::{CooperationPolicy, SolveContext};
use idd_solver::{PortfolioSolver, SearchBudget, SolveResult};
use idd_workloads::synthetic::{generate_block_structured, BlockStructuredConfig};

/// Per-block size of the full-mode instances (the paper-scale sweet spot:
/// large enough that local search matters, small enough that shards stay
/// cheap).
const BLOCK_SIZE: usize = 32;

fn record(run: String, result: &SolveResult) -> BenchRecord {
    BenchRecord {
        run,
        objective: result.objective,
        outcome: result.outcome.label().to_string(),
        elapsed_seconds: result.elapsed_seconds,
        nodes: result.nodes,
        coop: result.coop,
        scenario: None,
        replans: None,
        improved_replans: None,
        retries: None,
    }
}

fn main() {
    let tiny = std::env::args().any(|a| a == "--tiny");
    let json_path = parse_flag_value("table12", "--json");
    if tiny {
        run_tiny(json_path.as_deref());
        return;
    }

    let non_negative = "a non-negative number";
    let seed = parse_flag("table12", "--seed", 42, "an unsigned integer", |_| true);
    let limit = parse_flag("table12", "--limit", 2.0, non_negative, |v| *v >= 0.0);
    let coupling = parse_flag("table12", "--coupling", 0, "an unsigned integer", |_| true);
    let threshold = parse_flag("table12", "--threshold", 0.0, non_negative, |v| *v >= 0.0);
    let sizes = match parse_flag_value("table12", "--sizes") {
        Some(v) => {
            let sizes: Result<Vec<usize>, _> = v.split(',').map(str::parse).collect();
            match sizes {
                Ok(sizes) if !sizes.is_empty() && sizes.iter().all(|&n| n >= BLOCK_SIZE) => sizes,
                _ => {
                    eprintln!(
                        "table12: --sizes expects a comma list of integers >= {BLOCK_SIZE}, got `{v}`"
                    );
                    std::process::exit(2);
                }
            }
        }
        None => vec![128, 512, 1024],
    };

    println!(
        "== Table 12: monolithic portfolio vs shard-and-recombine \
         (seed {seed}, {limit}s budget per solve, coupling {coupling}) ==\n"
    );

    let mut table = Table::new(vec![
        "n",
        "blocks",
        "variant",
        "objective",
        "outcome",
        "seconds",
        "speedup",
    ]);
    let mut json = BenchJson::new(
        "table12",
        format!(
            "monolithic vs sharded; sizes {sizes:?}, block size {BLOCK_SIZE}, \
             coupling {coupling}, threshold {threshold}, {limit}s budget, seed {seed}"
        ),
    );

    for &n in &sizes {
        let num_blocks = n / BLOCK_SIZE;
        let cfg = BlockStructuredConfig::blocks(num_blocks, BLOCK_SIZE, coupling, seed);
        let instance = generate_block_structured(cfg);

        let mono = PortfolioSolver::recommended(SearchBudget::seconds(limit))
            .solve_detailed_in(&instance, &SolveContext::new())
            .combined;

        let mut sharded_cfg = ShardedConfig::with_budget(SearchBudget::seconds(limit));
        sharded_cfg.cut_threshold = threshold;
        let sharded = ShardedSolver::new(sharded_cfg).solve(&instance);

        let speedup = mono.elapsed_seconds / sharded.result.elapsed_seconds.max(1e-9);
        for (variant, result, extra) in [
            ("monolithic", &mono, String::from("baseline")),
            (
                "sharded",
                &sharded.result,
                format!("{speedup:.1}x ({} shards)", sharded.num_shards()),
            ),
        ] {
            table.row(vec![
                n.to_string(),
                num_blocks.to_string(),
                variant.to_string(),
                format!("{:.1}", result.objective),
                result.outcome.label().to_string(),
                format!("{:.2}", result.elapsed_seconds),
                extra,
            ]);
            json.push(record(format!("{variant}/n{n}"), result));
        }
        println!(
            "n={n}: sharded is {speedup:.1}x the monolithic wall-clock, objective \
             {:+.2}% vs monolithic{}",
            (sharded.result.objective - mono.objective) / mono.objective * 100.0,
            if sharded.exact {
                " (exact partition)"
            } else {
                ""
            }
        );
    }
    println!("\n{}", table.render());
    json.write_if_requested("table12", json_path.as_deref());
}

/// A hand-specified zero-coupling instance: three independent blocks with
/// small-integer costs and speed-ups, so every objective is an exact f64
/// and `sharded == monolithic` is a bit-for-bit comparison.
fn tiny_instance() -> ProblemInstance {
    let mut b = ProblemInstance::builder("tiny-blocks");
    // Block A: a two-index alliance-free pair with an interaction and a
    // precedence (hard edge — never cut).
    let i0 = b.add_index(2.0);
    let i1 = b.add_index(3.0);
    // Block B: two competing indexes plus their combined plan.
    let i2 = b.add_index(1.0);
    let i3 = b.add_index(4.0);
    // Block C: two singleton indexes serving separate queries — these stay
    // coupled to nothing and shard alone.
    let i4 = b.add_index(2.0);
    let i5 = b.add_index(5.0);

    let q0 = b.add_query(40.0);
    b.add_plan(q0, vec![i0], 8.0);
    b.add_plan(q0, vec![i0, i1], 20.0);
    b.add_build_interaction(i1, i0, 1.0);
    b.add_precedence(i0, i1);

    let q1 = b.add_query(30.0);
    b.add_plan(q1, vec![i2], 6.0);
    b.add_plan(q1, vec![i3], 9.0);
    b.add_plan(q1, vec![i2, i3], 16.0);

    let q2 = b.add_query(25.0);
    b.add_plan(q2, vec![i4], 10.0);
    let q3 = b.add_query(20.0);
    b.add_plan(q3, vec![i5], 8.0);

    b.build().unwrap()
}

/// Golden-tested deterministic mode: node budgets, cooperation off, no
/// cancellation race — no wall-clock reaches stdout, and a shard's result
/// does not depend on which thread runs its members when, so the output is
/// machine-independent. Pins the decomposition
/// contract: on a zero-coupling instance the sharded objective equals the
/// monolithic optimum bit-for-bit, and the reported number is exactly the
/// full-instance evaluator's verdict on the spliced order.
fn run_tiny(json_path: Option<&str>) {
    println!("== Table 12 (tiny): shard-and-recombine equivalence ==\n");
    let instance = tiny_instance();
    println!(
        "instance: {}, {} indexes / {} queries / {} plans\n",
        instance.name(),
        instance.num_indexes(),
        instance.num_queries(),
        instance.num_plans(),
    );

    let budget = SearchBudget::nodes(200_000);
    let mono = PortfolioSolver::recommended(budget)
        .with_config(idd_solver::PortfolioConfig {
            budget,
            cancel_on_optimal: false,
            cooperation: CooperationPolicy::Off,
        })
        .solve_detailed_in(&instance, &SolveContext::new())
        .combined;

    let mut cfg = ShardedConfig::with_budget(budget);
    cfg.cancel_on_optimal = false;
    cfg.cooperation = CooperationPolicy::Off;
    let sharded: ShardedOutcome = ShardedSolver::new(cfg).solve(&instance);

    println!(
        "shards: {}, cut edges: {}, exact partition: {}",
        sharded.num_shards(),
        sharded.cut_edges,
        if sharded.exact { "yes" } else { "no" },
    );
    for shard in &sharded.shards {
        println!(
            "  shard {:?}: objective {}, outcome {}",
            shard.members.iter().map(|i| i.raw()).collect::<Vec<_>>(),
            shard.result.objective,
            shard.result.outcome.label(),
        );
    }
    println!(
        "\nmonolithic: objective {} ({})",
        mono.objective,
        mono.outcome.label()
    );
    println!(
        "sharded:    objective {} ({})",
        sharded.result.objective,
        sharded.result.outcome.label()
    );

    let deployment = sharded
        .result
        .deployment
        .as_ref()
        .expect("sharded solve returns a deployment");
    let reverified = ObjectiveEvaluator::new(&instance).evaluate(deployment).area;
    let equal = sharded.result.objective.to_bits() == mono.objective.to_bits();
    let verified = sharded.result.objective.to_bits() == reverified.to_bits();
    println!(
        "\nsharded == monolithic (bit-for-bit): {}",
        if equal { "yes" } else { "NO" }
    );
    println!(
        "spliced order re-evaluates to the reported objective: {}",
        if verified { "yes" } else { "NO" }
    );

    let mut json = BenchJson::new(
        "table12",
        "tiny shard-and-recombine equivalence (no timings)".to_string(),
    );
    json.push(record("monolithic/tiny".into(), &mono));
    json.push(record("sharded/tiny".into(), &sharded.result));
    json.write_if_requested("table12", json_path);

    if !equal || !verified || sharded.result.objective > mono.objective {
        std::process::exit(1);
    }
}
