//! `trace` — one command for a run's full telemetry timeline.
//!
//! Runs the two instrumented layers against one shared `idd-telemetry`
//! collector — a portfolio race (per-member tracks: `run` spans, incumbent
//! publishes, iteration counters) followed by a deployment-runtime matrix
//! (per-run event-loop and slot tracks: event / replan / dispatch marks,
//! `busy`/`idle` spans on the logical clock, queue-depth gauge) — then
//! drains the merged stream and prints the deterministic text summary.
//!
//! The accounting gate cross-checks the stream against each run's report:
//! the `busy`/`idle` spans must tile every slot's timeline exactly
//! (`busy + idle == build_slots × makespan`) and agree with the report's
//! `slot_busy()` / `slot_idle(k)` accessors, or the process exits 1.
//!
//! Flags: `--tiny` (hand-specified instance, node budgets, cooperation off —
//! bit-for-bit reproducible, diffed by the golden test), `--seed <n>` /
//! `--time-limit <s>` (synthetic mode), `--json <path>` (machine-readable
//! rows, `BENCH_trace.json`), `--chrome <path>` (Chrome trace-event JSON —
//! open in Perfetto or `chrome://tracing`; wall-clock timestamps included,
//! so this artifact is *not* golden-stable by design).

use idd_bench::{parse_flag_value, BenchJson, BenchRecord, HarnessArgs, Table};
use idd_core::{Deployment, EvolutionScenario, ProblemInstance};
use idd_deploy::{DeployConfig, DeployRuntime, DeploymentReport};
use idd_solver::portfolio::PortfolioConfig;
use idd_solver::prelude::*;
use idd_telemetry::{chrome, summary, Telemetry, TraceStream};
use idd_workloads::evolution::{drift_scenario, failure_scenario, EvolutionConfig};
use idd_workloads::synthetic::{generate, SyntheticConfig};

struct Run {
    scenario: String,
    slots: usize,
    /// Telemetry track-name prefix this run's tracks were registered under.
    scope: String,
    report: DeploymentReport,
}

/// Executes the runtime matrix, each run under its own track-name scope so
/// all runs share one collector without colliding.
fn run_matrix(
    telemetry: &Telemetry,
    instance: &ProblemInstance,
    plan: &Deployment,
    scenarios: &[EvolutionScenario],
    slot_counts: &[usize],
) -> Vec<Run> {
    let mut runs = Vec::new();
    for scenario in scenarios {
        for &slots in slot_counts {
            let scope = format!("{} x{}/", scenario.name, slots);
            let config = DeployConfig::greedy_replan().with_build_slots(slots);
            let report = DeployRuntime::new(config)
                .with_telemetry(telemetry.clone())
                .with_trace_scope(&scope)
                .execute(instance, plan, scenario)
                .unwrap_or_else(|e| {
                    eprintln!("trace: {slots} slots on {}: {e}", scenario.name);
                    std::process::exit(1);
                });
            runs.push(Run {
                scenario: scenario.name.clone(),
                slots,
                scope,
                report,
            });
        }
    }
    runs
}

/// Sums this run's `busy` and `idle` span durations from its scoped slot
/// tracks.
fn span_totals(stream: &TraceStream, run: &Run) -> (f64, f64) {
    let mut busy = 0.0;
    let mut idle = 0.0;
    for slot in 0..run.slots {
        let name = format!("{}slot{slot}", run.scope);
        let Some(track) = stream.tracks.iter().position(|t| *t == name) else {
            continue; // caught by the gate: busy + idle will not add up
        };
        busy += stream.span_total(track, "busy");
        idle += stream.span_total(track, "idle");
    }
    (busy, idle)
}

/// The accounting gate: for every run, the telemetry spans must tile the
/// slot timelines (`busy + idle == slots × makespan`) and match the
/// report's accessors. Renders the verdict table and returns whether any
/// run failed.
fn render_accounting(stream: &TraceStream, runs: &[Run]) -> bool {
    const EPS: f64 = 1e-9;
    let mut table = Table::new(vec![
        "scenario",
        "slots",
        "builds",
        "replans",
        "busy",
        "idle",
        "accounting",
    ]);
    let mut gate_failed = false;
    for run in runs {
        let (busy, idle) = span_totals(stream, run);
        let tiles = (busy + idle - run.slots as f64 * run.report.total_clock).abs() <= EPS;
        let matches_report = (busy - run.report.slot_busy()).abs() <= EPS
            && (idle - run.report.slot_idle(run.slots)).abs() <= EPS;
        let verdict = if tiles && matches_report {
            "exact".to_string()
        } else {
            eprintln!(
                "trace: GATE FAILED on {} x{}: spans busy {busy} idle {idle} vs \
                 report busy {} idle {} over {} slots x makespan {}",
                run.scenario,
                run.slots,
                run.report.slot_busy(),
                run.report.slot_idle(run.slots),
                run.slots,
                run.report.total_clock,
            );
            gate_failed = true;
            "BROKEN".to_string()
        };
        table.row(vec![
            run.scenario.clone(),
            run.slots.to_string(),
            run.report.builds.len().to_string(),
            run.report.replans.len().to_string(),
            format!("{busy:.2}"),
            format!("{idle:.2}"),
            verdict,
        ]);
    }
    println!("{}", table.render());
    println!(
        "gate: busy/idle spans tile every slot timeline and match the report accessors: {}",
        if gate_failed { "FAILED" } else { "ok" }
    );
    gate_failed
}

/// Writes the Chrome trace-event export and re-parses it to prove the
/// artifact is valid trace-event JSON (an array of `ph`-tagged objects).
fn write_chrome(stream: &TraceStream, path: &str) {
    let json = chrome::render(stream);
    let parsed = serde_json::parse_value(&json).unwrap_or_else(|e| {
        eprintln!("trace: chrome export is not valid JSON: {e}");
        std::process::exit(1);
    });
    let events = parsed.as_array().unwrap_or_else(|| {
        eprintln!("trace: chrome export is not a trace-event array");
        std::process::exit(1);
    });
    if events
        .iter()
        .any(|event| event.get("ph").is_none() || event.get("pid").is_none())
    {
        eprintln!("trace: chrome export contains an event without ph/pid");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(path, json + "\n") {
        eprintln!("trace: failed to write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("trace: wrote {path} ({} trace events)", events.len());
}

fn json_rows(outcome: &idd_solver::PortfolioOutcome, runs: &[Run], config: &str) -> BenchJson {
    let mut json = BenchJson::new("trace", config);
    for member in &outcome.members {
        json.push(BenchRecord::from_solve(member.solver.clone(), member));
    }
    json.push(BenchRecord::from_solve("portfolio", &outcome.combined));
    for run in runs {
        json.push(BenchRecord {
            run: format!("{}-slots-{}", run.scenario, run.slots),
            objective: run.report.realized_cost,
            outcome: "deployed".to_string(),
            elapsed_seconds: run.report.total_clock,
            nodes: run.report.builds.len() as u64,
            coop: Default::default(),
            scenario: Some(run.scenario.clone()),
            replans: Some(run.report.replans.len() as u64),
            improved_replans: Some(run.report.improved_replans() as u64),
            retries: Some(run.report.retries as u64),
        });
    }
    json
}

fn main() {
    let tiny = std::env::args().any(|a| a == "--tiny");
    let json_path = parse_flag_value("trace", "--json");
    let chrome_path = parse_flag_value("trace", "--chrome");
    if tiny {
        run_tiny(json_path.as_deref(), chrome_path.as_deref());
    } else {
        run_synthetic(json_path.as_deref(), chrome_path.as_deref());
    }
}

/// Golden-tested deterministic mode: the hand-specified tiny instance, node
/// budgets, cooperation off and no cancellation race (the `table8` recipe),
/// so the merged stream — and with it the whole summary — is
/// machine-independent. Wall-clock lives only in the Chrome export.
fn run_tiny(json_path: Option<&str>, chrome_path: Option<&str>) {
    println!("== Trace (tiny): unified search/runtime telemetry ==\n");
    let telemetry = Telemetry::recording();
    let instance = idd_bench::tiny();
    let budget = SearchBudget::nodes(120);
    println!(
        "instance: tiny, {} indexes / {} queries / {} plans; node budget {}; coop off\n",
        instance.num_indexes(),
        instance.num_queries(),
        instance.num_plans(),
        120,
    );

    let portfolio = PortfolioSolver::recommended(budget)
        .with_config(PortfolioConfig {
            budget,
            cancel_on_optimal: false,
            cooperation: CooperationPolicy::Off,
        })
        .with_telemetry(telemetry.clone());
    let outcome = portfolio.solve_detailed(&instance);
    let plan = outcome
        .combined
        .deployment
        .clone()
        .expect("tiny race always finds a feasible order");
    println!(
        "portfolio: objective {:.4} via {} members; plan {}\n",
        outcome.combined.objective,
        outcome.members.len(),
        plan.arrow_notation(),
    );

    let runs = run_matrix(
        &telemetry,
        &instance,
        &plan,
        &idd_bench::tiny_scenarios(),
        &[1, 2],
    );

    let stream = telemetry.drain();
    println!("-- merged stream ({} events) --\n", stream.len());
    println!("{}", summary::render(&stream));

    let gate_failed = render_accounting(&stream, &runs);
    if let Some(path) = chrome_path {
        write_chrome(&stream, path);
    }
    json_rows(
        &outcome,
        &runs,
        "tiny: node budgets, coop off, greedy replan",
    )
    .write_if_requested("trace", json_path);
    if gate_failed {
        std::process::exit(1);
    }
}

/// Synthetic mode: same pipeline on a seeded instance under a wall-clock
/// budget. The stream is *not* machine-independent here (wall-clock budgets
/// make iteration counts vary), so only the accounting gate and the
/// artifact exports are rendered — not the per-event summary.
fn run_synthetic(json_path: Option<&str>, chrome_path: Option<&str>) {
    let args = HarnessArgs::parse(HarnessArgs::default());
    println!(
        "== Trace: unified search/runtime telemetry (seed {}) ==\n",
        args.seed
    );
    let telemetry = Telemetry::recording();
    let instance = generate(SyntheticConfig::medium(args.seed));
    let budget = SearchBudget::seconds(args.time_limit.min(2.0));

    let portfolio = PortfolioSolver::recommended(budget)
        .with_cooperation(CooperationPolicy::WarmStartSteal)
        .with_telemetry(telemetry.clone());
    let outcome = portfolio.solve_detailed(&instance);
    let plan = outcome
        .combined
        .deployment
        .clone()
        .expect("portfolio always finds a feasible order");
    println!(
        "portfolio: objective {:.4} on synthetic-{} ({} indexes / {} queries)\n",
        outcome.combined.objective,
        args.seed,
        instance.num_indexes(),
        instance.num_queries(),
    );

    let cfg = EvolutionConfig {
        seed: args.seed,
        ..EvolutionConfig::default()
    };
    let scenarios = vec![
        EvolutionScenario::quiet("quiet"),
        drift_scenario(&instance, &cfg),
        failure_scenario(&instance, &cfg),
    ];
    let runs = run_matrix(&telemetry, &instance, &plan, &scenarios, &[1, 2, 4]);

    let stream = telemetry.drain();
    println!(
        "merged stream: {} events on {} tracks (summary omitted: wall-clock budgets make it \
         machine-dependent; use --chrome for the timeline)\n",
        stream.len(),
        stream.tracks.len(),
    );
    println!(
        "counter totals: iterations {}\n",
        stream.counter_total("iterations")
    );

    let gate_failed = render_accounting(&stream, &runs);
    if let Some(path) = chrome_path {
        write_chrome(&stream, path);
    }
    json_rows(
        &outcome,
        &runs,
        &format!(
            "synthetic-{}: {:.1}s budget, coop steal, greedy replan",
            args.seed,
            args.time_limit.min(2.0)
        ),
    )
    .write_if_requested("trace", json_path);
    if gate_failed {
        std::process::exit(1);
    }
}
