//! The traced run: per-layer metrics of one workload.
//!
//! Each layer is timed from the benchmark's own code, around calls to the
//! library crates' public entry points, on the inputs the workload feeds
//! that layer; no span is added inside the program. The portfolio members'
//! wall-clock `run` spans, `iterations` counters and publish marks, and the
//! deployment runtime's `replan` marks, come from the existing
//! `with_telemetry` hooks with a recording [`Telemetry`]. Greedy, the
//! evaluators and the full-instance property analysis are timed on every
//! workload's instance; a layer that needs inputs the workload lacks (what-if
//! source, scenarios, races, shards) reads 0.
//!
//! The untraced and traced calls cover one round of the workload (all twelve
//! scenarios for blocks-deploy, so its per-layer times and counts are per
//! round). `telemetry.overhead_s` is the traced minus the untraced round,
//! both measured here, and `unaccounted_s` is the untraced round minus the
//! measured parts of its critical path: the slowest member's `run` span for
//! the portfolio race, the decomposer's phases for the sharded solve, and
//! execution plus journal encode, decode and replay for the deployments.

use crate::{
    deploy, deploy_config, initial_plan, median_seconds, optimal_shards, race_config, setup,
    sharded_config, static_config, tabu_member, timed, tpcds_portfolio, vns_member, whatif_source,
    Bench, Deployed, Inputs, Outcome, Params, Raw, Size, Workload,
};
use idd_core::{benefit_steps, DeltaEvaluator, Deployment, ObjectiveEvaluator, ProblemInstance};
use idd_deploy::{replay, DeployRuntime, DeploymentJournal};
use idd_solver::decompose::{project, recombine, ShardSchedule};
use idd_solver::local::VnsConfig;
use idd_solver::prelude::{analyze, AnalysisOptions};
use idd_solver::{
    CouplingGraph, GreedySolver, PortfolioSolver, SearchBudget, SolveContext, SolveResult,
};
use idd_telemetry::{EventKind, Telemetry, TraceStream};
use idd_whatif::extract_instance;
use idd_workloads::generate_block_structured;
use std::collections::BTreeMap;

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("whatif.extract_s", "s"),
    ("workloads.generate_s", "s"),
    ("workloads.scenario_s", "s"),
    ("greedy.construct_s", "s"),
    ("objective.evaluate_s", "s"),
    ("delta.new_s", "s"),
    ("delta.swap_probe_us", "us"),
    ("tabu.iteration_s", "s"),
    ("tabu.iterations", "count"),
    ("tabu.improving_ratio", "ratio"),
    ("vns.iteration_s", "s"),
    ("vns.iterations", "count"),
    ("vns.improving_ratio", "ratio"),
    ("portfolio.member_busy_s.vns", "s"),
    ("portfolio.member_busy_s.ts-bswap", "s"),
    ("portfolio.idle_core_s", "s"),
    ("portfolio.nodes", "count"),
    ("properties.analyze_s", "s"),
    ("properties.tail_s", "s"),
    ("properties.ordered_pairs", "count"),
    ("properties.shards.analyze_s", "s"),
    ("properties.shards.tail_s", "s"),
    ("properties.shards.ordered_pairs", "count"),
    ("decompose.analyze_s", "s"),
    ("decompose.graph_s", "s"),
    ("decompose.partition_s", "s"),
    ("decompose.project_s", "s"),
    ("decompose.shard_race_s", "s"),
    ("decompose.merge_s", "s"),
    ("decompose.reverify_s", "s"),
    ("decompose.shards", "count"),
    ("decompose.optimal_shard_ratio", "ratio"),
    ("replan.count", "count"),
    ("replan.improved_ratio", "ratio"),
    ("replan.stall_max_s", "s"),
    ("replan.stall_total_s", "s"),
    ("deploy.execute_s", "s"),
    ("deploy.static_execute_s", "s"),
    ("deploy.retries", "count"),
    ("deploy.slot_idle_ratio", "ratio"),
    ("journal.records", "count"),
    ("journal.bytes", "bytes"),
    ("journal.encode_s", "s"),
    ("journal.decode_s", "s"),
    ("journal.replay_s", "s"),
    ("telemetry.overhead_s", "s"),
    ("unaccounted_s", "s"),
];

/// Short sections are repeated for at least this long and their median
/// reported.
const SHORT_SECTION_S: f64 = 0.25;

/// The traced run's result.
#[derive(Debug, Clone)]
pub struct LayerReport {
    /// Every [`PER_LAYER`] metric's value.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Verified operations.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// The untraced round's verified outcomes (for the determinism tests).
    pub untraced: Round,
    /// The traced round's verified outcomes.
    pub traced: Round,
}

/// One round's verified outcomes; `None` when a check failed.
pub type Round = Option<Vec<Outcome>>;

struct Recorder {
    metrics: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
}

impl Recorder {
    fn new() -> Self {
        Self {
            metrics: PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect(),
            attempted: 0,
            failed: 0,
        }
    }

    fn slot(&mut self, name: &str) -> &mut f64 {
        self.metrics
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
    }

    fn set(&mut self, name: &str, value: f64) {
        *self.slot(name) = value;
    }

    fn add(&mut self, name: &str, value: f64) {
        *self.slot(name) += value;
    }

    fn get(&mut self, name: &str) -> f64 {
        *self.slot(name)
    }

    /// Counts one verified operation; a failed check is reported and
    /// counted, never dropped.
    fn check<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {what}: {e}");
                None
            }
        }
    }
}

/// One portfolio member's telemetry, read off its `solver/<k>-<name>`
/// track.
#[derive(Debug, Clone, Default)]
struct Member {
    name: String,
    busy_s: f64,
    iterations: u64,
    improvements: u64,
}

fn members(stream: &TraceStream) -> Vec<Member> {
    let mut out = Vec::new();
    for (track, full_name) in stream.tracks.iter().enumerate() {
        let Some(rest) = full_name.strip_prefix("solver/") else {
            continue;
        };
        let name = rest.split_once('-').map_or(rest, |(_, n)| n).to_string();
        let mut member = Member {
            name,
            ..Member::default()
        };
        let mut opened = None;
        for event in stream.events_for(track) {
            match &event.kind {
                EventKind::SpanBegin { name } if name == "run" => opened = Some(event.wall_us),
                EventKind::SpanEnd { name } if name == "run" => {
                    if let Some(start) = opened.take() {
                        member.busy_s += event.wall_us.saturating_sub(start) as f64 * 1e-6;
                    }
                }
                EventKind::Counter { name, value } if name == "iterations" => {
                    member.iterations += value
                }
                EventKind::Mark { name, .. } if name == "publish-deployment" => {
                    member.improvements += 1
                }
                _ => {}
            }
        }
        out.push(member);
    }
    out
}

/// Adds one race's member telemetry to the portfolio metrics and to the
/// local searches' iteration and improvement counts; returns the slowest
/// member's `run` span.
fn record_race(rec: &mut Recorder, stream: &TraceStream, race_s: f64) -> f64 {
    let members = members(stream);
    let busy: f64 = members.iter().map(|m| m.busy_s).sum();
    rec.add(
        "portfolio.idle_core_s",
        members.len() as f64 * race_s - busy,
    );
    for member in &members {
        let (busy, iterations, improving) = match member.name.as_str() {
            "vns" => (
                "portfolio.member_busy_s.vns",
                "vns.iterations",
                "vns.improving_ratio",
            ),
            "ts-bswap" => (
                "portfolio.member_busy_s.ts-bswap",
                "tabu.iterations",
                "tabu.improving_ratio",
            ),
            _ => continue,
        };
        rec.add(busy, member.busy_s);
        rec.add(iterations, member.iterations as f64);
        // A count for now: `local_search` divides it by the iterations.
        rec.add(improving, member.improvements as f64);
    }
    members.iter().map(|m| m.busy_s).fold(0.0, f64::max)
}

/// Times the races' two local searches standalone from each instance's
/// greedy order, so that greedy seeding stays out of the per-iteration
/// time, and turns the races' improvement counts into ratios.
fn local_search(
    rec: &mut Recorder,
    instances: &[&ProblemInstance],
    budget: SearchBudget,
    vns_seed: u64,
) {
    let tabu = tabu_member(budget);
    let vns = vns_member(budget, vns_seed);
    let (mut tabu_s, mut tabu_nodes, mut vns_s, mut vns_nodes) = (0.0, 0, 0.0, 0);
    for instance in instances {
        let greedy = GreedySolver::new().construct(instance);
        let (result, seconds) = timed(|| tabu.solve(instance, greedy.clone()));
        tabu_s += seconds;
        tabu_nodes += result.nodes;
        let (result, seconds) = timed(|| vns.solve(instance, greedy));
        vns_s += seconds;
        vns_nodes += result.nodes;
    }
    for (seconds, nodes, iteration_s, iterations, improving) in [
        (
            tabu_s,
            tabu_nodes,
            "tabu.iteration_s",
            "tabu.iterations",
            "tabu.improving_ratio",
        ),
        (
            vns_s,
            vns_nodes,
            "vns.iteration_s",
            "vns.iterations",
            "vns.improving_ratio",
        ),
    ] {
        if nodes > 0 {
            rec.set(iteration_s, seconds / nodes as f64);
        }
        let count = rec.get(iterations);
        if count > 0.0 {
            *rec.slot(improving) /= count;
        }
    }
}

/// Greedy construction, delta-evaluator set-up and one full pair scan of
/// the greedy order on each instance the workload solves, summed (the scan
/// reports its mean probe).
fn instance_layers(rec: &mut Recorder, instances: &[&ProblemInstance]) {
    let mut pairs = 0u64;
    let mut probe_s = 0.0;
    let min_s = SHORT_SECTION_S / instances.len() as f64;
    for instance in instances {
        rec.add(
            "greedy.construct_s",
            median_seconds(1, min_s, || GreedySolver::new().construct(instance)),
        );
        let order = GreedySolver::new().construct(instance);
        rec.add(
            "delta.new_s",
            median_seconds(3, min_s, || DeltaEvaluator::new(instance, order.clone())),
        );
        let mut delta = DeltaEvaluator::new(instance, order);
        let n = instance.num_indexes();
        let (_, scan_s) = timed(|| {
            let mut sink = 0.0;
            for a in 0..n {
                for b in a + 1..n {
                    sink += delta.evaluate_swap(a, b);
                }
            }
            sink
        });
        pairs += (n * n.saturating_sub(1) / 2) as u64;
        probe_s += scan_s;
    }
    if pairs > 0 {
        rec.set("delta.swap_probe_us", probe_s / pairs as f64 * 1e6);
    }
}

/// Full evaluation of `order` on the workload's instance.
fn evaluate_layer(rec: &mut Recorder, instance: &ProblemInstance, order: &Deployment) {
    let evaluator = ObjectiveEvaluator::new(instance);
    rec.set(
        "objective.evaluate_s",
        median_seconds(3, SHORT_SECTION_S, || evaluator.evaluate(order)),
    );
}

/// The full instance's property-analysis metrics.
const FULL: [&str; 3] = [
    "properties.analyze_s",
    "properties.tail_s",
    "properties.ordered_pairs",
];
/// The property-analysis metrics summed over shards.
const SHARDS: [&str; 3] = [
    "properties.shards.analyze_s",
    "properties.shards.tail_s",
    "properties.shards.ordered_pairs",
];

/// Adds property analysis with every detector, its tail share (every
/// detector minus "ACMD") and its ordered pairs to the `metrics`.
fn properties(rec: &mut Recorder, instance: &ProblemInstance, metrics: [&str; 3]) {
    let (report, all_s) = timed(|| analyze(instance, AnalysisOptions::all()));
    let (_, acmd_s) = timed(|| analyze(instance, AnalysisOptions::drill_down("ACMD")));
    rec.add(metrics[0], all_s);
    rec.add(metrics[1], all_s - acmd_s);
    rec.add(metrics[2], report.total_ordered_pairs as f64);
}

/// Runs the traced measurement of `workload`.
pub fn traced(workload: Workload, size: Size, seed: u64) -> Result<LayerReport, String> {
    let mut rec = Recorder::new();
    let params = Params::of(workload, size);
    let (untraced, traced) = match workload {
        Workload::TpcdsPortfolio => tpcds_layers(&mut rec, &params, size, seed)?,
        Workload::BlocksSharded => sharded_layers(&mut rec, &params, size, seed)?,
        Workload::BlocksDeploy => deploy_layers(&mut rec, &params, size, seed)?,
    };
    let same = match (&untraced, &traced) {
        (Some(a), Some(b)) if a == b => Ok(()),
        _ => Err("the traced run's result differs from the untraced one"),
    };
    rec.check("traced equals untraced", same.map_err(String::from));
    for (name, value) in &rec.metrics {
        if !value.is_finite() {
            return Err(format!("{name} is {value}"));
        }
    }
    Ok(LayerReport {
        metrics: rec.metrics,
        attempted: rec.attempted,
        failed: rec.failed,
        untraced,
        traced,
    })
}

/// One round of the untraced end-to-end call, timed as a whole and
/// verified.
fn untraced_round(rec: &mut Recorder, bench: &Bench) -> Result<(Round, Vec<Raw>, f64), String> {
    let (raws, seconds) = timed(|| {
        (0..bench.round())
            .map(|position| bench.run(position))
            .collect::<Result<Vec<_>, _>>()
    });
    let raws = raws?;
    let outcomes = verify_round(rec, "untraced call", bench, &raws);
    Ok((outcomes, raws, seconds))
}

/// Verifies each call of a round, counting every check (a failed call
/// does not skip the checks after it).
fn verify_round(rec: &mut Recorder, what: &str, bench: &Bench, raws: &[Raw]) -> Round {
    let checked: Vec<Option<Outcome>> = raws
        .iter()
        .map(|raw| rec.check(what, bench.verify(raw)))
        .collect();
    checked.into_iter().collect()
}

fn tpcds_layers(
    rec: &mut Recorder,
    params: &Params,
    size: Size,
    seed: u64,
) -> Result<(Round, Round), String> {
    rec.set(
        "workloads.generate_s",
        median_seconds(3, SHORT_SECTION_S, || whatif_source(size)),
    );
    let (source, config) = whatif_source(size);
    let (instance, extract_s) = timed(|| extract_instance(&source, config));
    rec.set("whatif.extract_s", extract_s);
    let inputs = Inputs {
        instance: instance.map_err(|e| e.to_string())?,
        plan: None,
        scenarios: Vec::new(),
    };
    let bench = Bench::new(Workload::TpcdsPortfolio, size, seed, inputs)?;
    let instance = &bench.inputs.instance;

    let (untraced, _, untraced_s) = untraced_round(rec, &bench)?;
    let telemetry = Telemetry::recording();
    let portfolio = tpcds_portfolio(params, seed).with_telemetry(telemetry.clone());
    let (outcome, traced_s) = timed(|| portfolio.solve_detailed(instance));
    let nodes = outcome.combined.nodes;
    let traced = verify_round(rec, "traced call", &bench, &[Raw::Portfolio(outcome)]);

    instance_layers(rec, &[instance]);
    let critical_s = record_race(rec, &telemetry.drain(), traced_s);
    local_search(rec, &[instance], params.budget(), seed);
    rec.set("portfolio.nodes", nodes as f64);
    evaluate_layer(rec, instance, &GreedySolver::new().construct(instance));
    properties(rec, instance, FULL);
    rec.set("telemetry.overhead_s", traced_s - untraced_s);
    rec.set("unaccounted_s", untraced_s - critical_s);
    Ok((untraced, traced))
}

fn sharded_layers(
    rec: &mut Recorder,
    params: &Params,
    size: Size,
    seed: u64,
) -> Result<(Round, Round), String> {
    rec.set(
        "workloads.generate_s",
        median_seconds(3, SHORT_SECTION_S, || {
            generate_block_structured(params.blocks_config(seed))
        }),
    );
    let inputs = setup(Workload::BlocksSharded, size, seed)?;
    let bench = Bench::new(Workload::BlocksSharded, size, seed, inputs)?;
    let instance = &bench.inputs.instance;
    let (untraced, raws, untraced_s) = untraced_round(rec, &bench)?;
    let Some(Raw::Sharded(sharded)) = raws.into_iter().next() else {
        return Err("blocks-sharded returned no sharded outcome".into());
    };

    // Re-drive the decomposer's public phases with each shard's race
    // traced; the recombined order must be the solver's, bit for bit.
    let config = sharded_config(params);
    let started = std::time::Instant::now();
    let (analysis, analyze_s) = timed(|| analyze(instance, config.analysis));
    let (graph, graph_s) = timed(|| CouplingGraph::build(instance, &analysis));
    let (partition, partition_s) = timed(|| graph.partition(config.cut_threshold));
    let (shards, project_s) = timed(|| {
        partition
            .shards
            .iter()
            .map(|members| project(instance, members))
            .collect::<Vec<_>>()
    });
    let mut races = Vec::with_capacity(shards.len());
    let (results, race_s) = timed(|| {
        shards
            .iter()
            .map(|shard| {
                let telemetry = Telemetry::recording();
                let portfolio = PortfolioSolver::recommended(config.shard_budget)
                    .with_config(race_config(config.shard_budget))
                    .with_telemetry(telemetry.clone());
                let (outcome, seconds) =
                    timed(|| portfolio.solve_detailed_in(&shard.instance, &SolveContext::new()));
                races.push((telemetry.drain(), seconds));
                outcome.combined
            })
            .collect::<Vec<SolveResult>>()
    });
    let (order, merge_s) = timed(|| {
        let mut schedules = Vec::with_capacity(shards.len());
        for (shard, result) in shards.iter().zip(&results) {
            let deployment = result.deployment.as_ref()?;
            let value = ObjectiveEvaluator::new(&shard.instance).evaluate(deployment);
            let steps = benefit_steps(&value)
                .into_iter()
                .map(|mut step| {
                    step.index = shard.members[step.index.raw()];
                    step
                })
                .collect();
            schedules.push(ShardSchedule { steps });
        }
        Some(Deployment::new(recombine::merge(&schedules)))
    });
    let order = order.ok_or("a shard race returned no deployment")?;
    let (objective, reverify_s) = timed(|| ObjectiveEvaluator::new(instance).evaluate(&order).area);
    let traced_s = started.elapsed().as_secs_f64();

    let redriven = Raw::Sharded(idd_solver::ShardedOutcome {
        result: SolveResult {
            deployment: Some(order.clone()),
            objective,
            nodes: results.iter().map(|r| r.nodes).sum(),
            ..sharded.result.clone()
        },
        shards: partition
            .shards
            .iter()
            .cloned()
            .zip(results.iter().cloned())
            .map(|(members, result)| idd_solver::decompose::ShardReport { members, result })
            .collect(),
        ..sharded.clone()
    });
    let traced = verify_round(rec, "re-driven decomposition", &bench, &[redriven]);

    let mut parts = 0.0;
    for (name, value) in [
        ("decompose.analyze_s", analyze_s),
        ("decompose.graph_s", graph_s),
        ("decompose.partition_s", partition_s),
        ("decompose.project_s", project_s),
        ("decompose.shard_race_s", race_s),
        ("decompose.merge_s", merge_s),
        ("decompose.reverify_s", reverify_s),
    ] {
        rec.set(name, value);
        parts += value;
    }
    rec.set("decompose.shards", shards.len() as f64);
    rec.set(
        "decompose.optimal_shard_ratio",
        optimal_shards(&sharded) as f64 / sharded.shards.len().max(1) as f64,
    );

    let shard_instances: Vec<&ProblemInstance> = shards.iter().map(|s| &s.instance).collect();
    instance_layers(rec, &shard_instances);
    for (stream, seconds) in &races {
        record_race(rec, stream, *seconds);
    }
    local_search(
        rec,
        &shard_instances,
        config.shard_budget,
        VnsConfig::default().seed,
    );
    rec.set("portfolio.nodes", sharded.result.nodes as f64);
    evaluate_layer(rec, instance, &order);

    properties(rec, instance, FULL);
    for shard in &shard_instances {
        properties(rec, shard, SHARDS);
    }
    rec.set("telemetry.overhead_s", traced_s - untraced_s);
    rec.set("unaccounted_s", untraced_s - parts);
    Ok((untraced, traced))
}

fn deploy_layers(
    rec: &mut Recorder,
    params: &Params,
    size: Size,
    seed: u64,
) -> Result<(Round, Round), String> {
    rec.set(
        "workloads.generate_s",
        median_seconds(3, SHORT_SECTION_S, || {
            generate_block_structured(params.blocks_config(seed))
        }),
    );
    let inputs = setup(Workload::BlocksDeploy, size, seed)?;
    let instance = &inputs.instance;
    rec.set(
        "workloads.scenario_s",
        median_seconds(3, SHORT_SECTION_S, || params.scenarios(instance, seed)),
    );
    let bench = Bench::new(Workload::BlocksDeploy, size, seed, inputs.clone())?;
    let plan = initial_plan(&inputs)?;
    let scenarios = &inputs.scenarios;
    let (untraced, raws, untraced_s) = untraced_round(rec, &bench)?;
    let deployed: Vec<Box<Deployed>> = raws
        .into_iter()
        .filter_map(|raw| match raw {
            Raw::Deploy(run) => Some(run),
            _ => None,
        })
        .collect();

    let runtime = DeployRuntime::new(deploy_config(params));
    let static_runtime = DeployRuntime::new(static_config(params));
    let execute_s = median_seconds(1, SHORT_SECTION_S, || {
        scenarios
            .iter()
            .map(|scenario| runtime.execute_journaled(instance, plan, scenario))
            .collect::<Vec<_>>()
    });
    let static_s = median_seconds(3, SHORT_SECTION_S, || {
        scenarios
            .iter()
            .map(|scenario| static_runtime.execute(instance, plan, scenario))
            .collect::<Vec<_>>()
    });
    let encode_s = median_seconds(3, SHORT_SECTION_S, || {
        deployed
            .iter()
            .map(|run| run.journal.to_jsonl())
            .collect::<Vec<_>>()
    });
    let decode_s = median_seconds(3, SHORT_SECTION_S, || {
        deployed
            .iter()
            .map(|run| DeploymentJournal::from_jsonl(&run.jsonl))
            .collect::<Vec<_>>()
    });
    let replay_s = median_seconds(3, SHORT_SECTION_S, || {
        deployed
            .iter()
            .map(|run| replay(instance, plan, &run.journal))
            .collect::<Vec<_>>()
    });
    for (name, value) in [
        ("deploy.execute_s", execute_s),
        ("deploy.static_execute_s", static_s),
        ("journal.encode_s", encode_s),
        ("journal.decode_s", decode_s),
        ("journal.replay_s", replay_s),
    ] {
        rec.set(name, value);
    }
    let (mut idle, mut slot_time, mut improved) = (0.0, 0.0, 0);
    for run in &deployed {
        let report = &run.report;
        rec.add("deploy.retries", report.retries as f64);
        rec.add("journal.records", run.journal.len() as f64);
        rec.add("journal.bytes", run.jsonl.len() as f64);
        idle += report.slot_idle(params.slots);
        slot_time += report.total_clock * params.slots as f64;
        improved += report.improved_replans();
    }
    if slot_time > 0.0 {
        rec.set("deploy.slot_idle_ratio", idle / slot_time);
    }

    // The traced call: the same deployments, each runtime recording.
    let mut streams = Vec::with_capacity(scenarios.len());
    let (traced_runs, traced_s) = timed(|| {
        scenarios
            .iter()
            .map(|scenario| {
                let telemetry = Telemetry::recording();
                let runtime =
                    DeployRuntime::new(deploy_config(params)).with_telemetry(telemetry.clone());
                let run = deploy(&runtime, instance, plan, scenario);
                streams.push(telemetry.drain());
                run.map(|run| Raw::Deploy(Box::new(run)))
            })
            .collect::<Result<Vec<_>, _>>()
    });
    let traced = verify_round(rec, "traced call", &bench, &traced_runs?);

    let (mut count, mut stall_max, mut stall_total) = (0, 0.0f64, 0.0);
    for stream in &streams {
        let (n, max, total) = replan_stalls(stream);
        count += n;
        stall_max = stall_max.max(max);
        stall_total += total;
    }
    rec.set("replan.count", count as f64);
    if count > 0 {
        rec.set("replan.improved_ratio", improved as f64 / count as f64);
    }
    rec.set("replan.stall_max_s", stall_max);
    rec.set("replan.stall_total_s", stall_total);
    let replans: usize = deployed.iter().map(|run| run.report.replans.len()).sum();
    let counted = if count == replans {
        Ok(())
    } else {
        Err(format!("{count} replan marks for {replans} replans"))
    };
    rec.check("replan marks", counted);

    instance_layers(rec, &[instance]);
    evaluate_layer(rec, instance, plan);
    properties(rec, instance, FULL);
    rec.set("telemetry.overhead_s", traced_s - untraced_s);
    rec.set(
        "unaccounted_s",
        untraced_s - (execute_s + encode_s + decode_s + replay_s),
    );
    Ok((untraced, traced))
}

/// Replans on the runtime's `deploy` track, and the wall-clock gap before
/// each `replan` mark (the deployment stalls while the replanner runs):
/// (count, longest, total).
fn replan_stalls(stream: &TraceStream) -> (usize, f64, f64) {
    let Some(track) = stream.tracks.iter().position(|t| t == "deploy") else {
        return (0, 0.0, 0.0);
    };
    let (mut count, mut max, mut total) = (0, 0.0f64, 0.0);
    let mut previous_us = 0u64;
    for event in stream.events_for(track) {
        if let EventKind::Mark { name, .. } = &event.kind {
            if name == "replan" {
                let gap = event.wall_us.saturating_sub(previous_us) as f64 * 1e-6;
                count += 1;
                max = max.max(gap);
                total += gap;
            }
        }
        previous_us = event.wall_us;
    }
    (count, max, total)
}
