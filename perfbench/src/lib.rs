//! Fixed-work benchmark of the idd workspace.
//!
//! Three seeded workloads, each one end-to-end call through the public
//! APIs of the library crates:
//!
//! * [`Workload::TpcdsPortfolio`] — VNS and best-swap tabu race on the
//!   TPC-DS-like instance that the what-if substrate extracts;
//! * [`Workload::BlocksSharded`] — the shard-and-recombine solver on a
//!   1024-index instance of 32 independent blocks;
//! * [`Workload::BlocksDeploy`] — a 2-slot deployment of a 256-index
//!   instance that drifts, is revised and fails builds while it runs, with
//!   greedy replans, then its journal's JSONL round trip and replay.
//!   Successive calls cycle through a round of seed-derived scenarios: the
//!   cost of one deployment hinges on when its few earliest events land
//!   (greedy replans cost roughly the cube of the pending suffix), so a
//!   single scenario would make the time a lottery over seeds.
//!
//! Every search runs on a node budget with cooperation off and
//! `cancel_on_optimal = false`, so orders, journals, counts and
//! `cost_ratio` repeat bit-for-bit at one seed; only wall time varies.
//! [`Bench::run`] makes the timed call and [`Bench::verify`] checks its
//! result outside the timed section. The traced, per-layer run lives in
//! [`layers`].

#![warn(missing_docs)]

pub mod gauge;
pub mod layers;

use idd_core::{Deployment, EvolutionScenario, IndexId, ObjectiveEvaluator, ProblemInstance};
use idd_deploy::{
    replay, DeployConfig, DeployRuntime, DeploymentJournal, DeploymentReport, DispatchPolicy,
    ReplanTrigger,
};
use idd_solver::local::{SwapStrategy, TabuConfig, TabuSolver, VnsConfig, VnsSolver};
use idd_solver::{
    CooperationPolicy, GreedySolver, PortfolioConfig, PortfolioOutcome, PortfolioSolver,
    SearchBudget, ShardedConfig, ShardedOutcome, ShardedSolver, SolveOutcome,
};
use idd_whatif::{extract_instance, ExtractionConfig, Workload as WhatIfWorkload};
use idd_workloads::{generate_block_structured, mixed_scenario, BlockStructuredConfig};
use idd_workloads::{tpcds, tpch, EvolutionConfig};
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two-member portfolio race on the TPC-DS-like instance.
    TpcdsPortfolio,
    /// Sharded solve of 32 independent 32-index blocks.
    BlocksSharded,
    /// Evolving 2-slot deployment with greedy replans, journal and replay.
    BlocksDeploy,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::TpcdsPortfolio,
        Workload::BlocksSharded,
        Workload::BlocksDeploy,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TpcdsPortfolio => "tpcds-portfolio",
            Workload::BlocksSharded => "blocks-sharded",
            Workload::BlocksDeploy => "blocks-deploy",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the benchmark's own, or a small one for the tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` records.
    Full,
    /// The same code paths on small inputs (TPC-H instead of TPC-DS, fewer
    /// and smaller blocks, a shorter scenario).
    Reduced,
}

/// The fixed parameters of one workload at one size.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Params {
    /// Number of independent blocks (block workloads).
    pub blocks: usize,
    /// Indexes per block.
    pub block_size: usize,
    /// Cross-block coupling queries.
    pub coupling_queries: usize,
    /// Node budget of every search.
    pub nodes: u64,
    /// Drift events and design revisions, each (blocks-deploy).
    pub events: usize,
    /// Failing builds (blocks-deploy).
    pub failures: usize,
    /// Concurrent build slots (blocks-deploy).
    pub slots: usize,
    /// Evolution scenarios in one round of calls (blocks-deploy).
    pub scenarios: usize,
}

impl Params {
    /// The parameters of `workload` at `size`.
    pub fn of(workload: Workload, size: Size) -> Self {
        let none = Params {
            blocks: 0,
            block_size: 0,
            coupling_queries: 0,
            nodes: 0,
            events: 0,
            failures: 0,
            slots: 0,
            scenarios: 0,
        };
        match (workload, size) {
            (Workload::TpcdsPortfolio, Size::Full) => Params { nodes: 8, ..none },
            (Workload::TpcdsPortfolio, Size::Reduced) => Params { nodes: 3, ..none },
            (Workload::BlocksSharded, Size::Full) => Params {
                blocks: 32,
                block_size: 32,
                nodes: 20,
                ..none
            },
            (Workload::BlocksSharded, Size::Reduced) => Params {
                blocks: 4,
                block_size: 8,
                nodes: 5,
                ..none
            },
            (Workload::BlocksDeploy, Size::Full) => Params {
                blocks: 8,
                block_size: 32,
                coupling_queries: 8,
                events: 16,
                failures: 16,
                slots: 2,
                scenarios: 12,
                ..none
            },
            (Workload::BlocksDeploy, Size::Reduced) => Params {
                blocks: 2,
                block_size: 12,
                coupling_queries: 2,
                events: 4,
                failures: 4,
                slots: 2,
                scenarios: 2,
                ..none
            },
        }
    }

    /// The search budget every member and shard race runs on.
    pub fn budget(&self) -> SearchBudget {
        SearchBudget::nodes(self.nodes)
    }

    /// The block generator's configuration for `seed`.
    pub fn blocks_config(&self, seed: u64) -> BlockStructuredConfig {
        BlockStructuredConfig::blocks(self.blocks, self.block_size, self.coupling_queries, seed)
    }

    /// The round of evolution scenarios the blocks-deploy calls cycle
    /// through on `instance`; scenario `k` is seeded `seed + k * 2^32`, so
    /// scenario 0 uses the workload seed itself.
    pub fn scenarios(&self, instance: &ProblemInstance, seed: u64) -> Vec<EvolutionScenario> {
        (0..self.scenarios as u64)
            .map(|k| {
                let config = EvolutionConfig {
                    seed: seed.wrapping_add(k << 32),
                    num_events: self.events,
                    num_failures: self.failures,
                    ..EvolutionConfig::default()
                };
                mixed_scenario(instance, &config)
            })
            .collect()
    }
}

/// The what-if workload and extraction settings of the plan workload
/// (TPC-DS at full size, TPC-H reduced).
pub(crate) fn whatif_source(size: Size) -> (WhatIfWorkload, ExtractionConfig) {
    match size {
        Size::Full => (tpcds::workload(), tpcds::extraction_config()),
        Size::Reduced => (tpch::workload(), tpch::extraction_config()),
    }
}

/// The inputs one workload's timed call consumes, built from its seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The problem instance.
    pub instance: ProblemInstance,
    /// The initial plan (blocks-deploy).
    pub plan: Option<Deployment>,
    /// The evolution scenarios (blocks-deploy).
    pub scenarios: Vec<EvolutionScenario>,
}

/// Builds `workload`'s inputs from `seed`: what-if extraction, instance
/// generation, the initial greedy plan and the evolution scenarios — the
/// work `setup_s` times.
pub fn setup(workload: Workload, size: Size, seed: u64) -> Result<Inputs, String> {
    let params = Params::of(workload, size);
    match workload {
        Workload::TpcdsPortfolio => {
            let (source, config) = whatif_source(size);
            let instance = extract_instance(&source, config).map_err(|e| e.to_string())?;
            Ok(Inputs {
                instance,
                plan: None,
                scenarios: Vec::new(),
            })
        }
        Workload::BlocksSharded => Ok(Inputs {
            instance: generate_block_structured(params.blocks_config(seed)),
            plan: None,
            scenarios: Vec::new(),
        }),
        Workload::BlocksDeploy => {
            let instance = generate_block_structured(params.blocks_config(seed));
            let plan = GreedySolver::new().construct(&instance);
            let scenarios = params.scenarios(&instance, seed);
            Ok(Inputs {
                instance,
                plan: Some(plan),
                scenarios,
            })
        }
    }
}

/// A stable text key of an instance: equal keys for equal instances.
pub fn instance_key(instance: &ProblemInstance) -> String {
    format!(
        "{} n={} q={} p={} area={:?}",
        instance.name(),
        instance.num_indexes(),
        instance.num_queries(),
        instance.num_plans(),
        ObjectiveEvaluator::new(instance)
            .evaluate_area(&Deployment::identity(instance.num_indexes()))
            .to_bits()
    )
}

/// The two-member race of `tpcds-portfolio`: VNS (its RNG seeded from the
/// workload seed) and best-swap tabu, on node budgets, cooperation off.
pub(crate) fn tpcds_portfolio(params: &Params, seed: u64) -> PortfolioSolver {
    let budget = params.budget();
    PortfolioSolver::with_members(
        budget,
        vec![
            Box::new(vns_member(budget, seed)),
            Box::new(tabu_member(budget)),
        ],
    )
    .with_config(race_config(budget))
}

/// The VNS member of the races: default but for budget and RNG seed.
pub(crate) fn vns_member(budget: SearchBudget, seed: u64) -> VnsSolver {
    VnsSolver::with_config(VnsConfig {
        budget,
        seed,
        ..VnsConfig::default()
    })
}

/// The best-swap tabu member of the races, as the recommended portfolio
/// configures it.
pub(crate) fn tabu_member(budget: SearchBudget) -> TabuSolver {
    TabuSolver::with_config(TabuConfig {
        strategy: SwapStrategy::Best,
        budget,
        ..TabuConfig::default()
    })
}

/// The portfolio configuration every race of the benchmark uses.
pub(crate) fn race_config(budget: SearchBudget) -> PortfolioConfig {
    PortfolioConfig {
        budget,
        cancel_on_optimal: false,
        cooperation: CooperationPolicy::Off,
    }
}

/// The sharded solver's configuration: default but for the node budget and
/// `cancel_on_optimal = false`.
pub(crate) fn sharded_config(params: &Params) -> ShardedConfig {
    let mut config = ShardedConfig::with_budget(params.budget());
    config.cancel_on_optimal = false;
    config
}

/// The deployment configuration of `blocks-deploy`: `slots` slots,
/// work-conserving dispatch, greedy replans scored slot-aware, replanning
/// on failures too.
pub(crate) fn deploy_config(params: &Params) -> DeployConfig {
    DeployConfig::greedy_replan()
        .with_build_slots(params.slots)
        .with_dispatch(DispatchPolicy::WorkConserving)
        .with_slot_aware_replan(true)
        .with_trigger(ReplanTrigger::OnFailure)
}

/// The static baseline of `blocks-deploy`: the same scenarios, slots and
/// dispatch, but the plan order is kept at every replan point.
pub(crate) fn static_config(params: &Params) -> DeployConfig {
    DeployConfig::static_plan()
        .with_build_slots(params.slots)
        .with_dispatch(DispatchPolicy::WorkConserving)
        .with_trigger(ReplanTrigger::OnFailure)
}

/// What one timed call returned.
#[derive(Debug)]
pub enum Raw {
    /// The portfolio race's outcome.
    Portfolio(PortfolioOutcome),
    /// The sharded solve's outcome.
    Sharded(ShardedOutcome),
    /// The deployment.
    Deploy(Box<Deployed>),
}

/// One deployment: executed report, journal, its JSONL text and the report
/// replayed from the parsed JSONL.
#[derive(Debug)]
pub struct Deployed {
    /// The executed report.
    pub report: DeploymentReport,
    /// The executed journal.
    pub journal: DeploymentJournal,
    /// `journal` encoded as JSONL.
    pub jsonl: String,
    /// The journal decoded back from `jsonl`.
    pub decoded: DeploymentJournal,
    /// The report `replay` rebuilt from `decoded`.
    pub replayed: DeploymentReport,
}

/// Executes `plan` under `scenario`, then round-trips the journal through
/// JSONL and replays it.
pub(crate) fn deploy(
    runtime: &DeployRuntime,
    instance: &ProblemInstance,
    plan: &Deployment,
    scenario: &EvolutionScenario,
) -> Result<Deployed, String> {
    let (report, journal) = runtime
        .execute_journaled(instance, plan, scenario)
        .map_err(|e| format!("deployment failed: {e}"))?;
    let jsonl = journal.to_jsonl();
    let decoded =
        DeploymentJournal::from_jsonl(&jsonl).map_err(|e| format!("journal decode failed: {e}"))?;
    let replayed =
        replay(instance, plan, &decoded).map_err(|e| format!("journal replay failed: {e}"))?;
    Ok(Deployed {
        report,
        journal,
        jsonl,
        decoded,
        replayed,
    })
}

/// A verified result: its cost and a key that must repeat exactly at one
/// seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The objective area of the returned order, or the realized cost of
    /// the deployment.
    pub cost: f64,
    /// Everything that must repeat bit-for-bit: order, objective bits,
    /// counts and (for blocks-deploy) the journal.
    pub key: String,
}

/// One workload, set up and ready to run.
#[derive(Debug)]
pub struct Bench {
    /// Which workload.
    workload: Workload,
    /// Its parameters.
    params: Params,
    /// Workload seed.
    seed: u64,
    /// The inputs built by [`setup`].
    pub(crate) inputs: Inputs,
    /// Per call of a round, the denominator of `cost_ratio`: the
    /// candidate-id order's area, or the static run's realized cost.
    references: Vec<f64>,
}

impl Bench {
    /// Wraps set-up inputs and computes the `cost_ratio` references (not
    /// part of any timed section).
    pub fn new(workload: Workload, size: Size, seed: u64, inputs: Inputs) -> Result<Self, String> {
        let params = Params::of(workload, size);
        let references = match workload {
            Workload::TpcdsPortfolio | Workload::BlocksSharded => {
                let n = inputs.instance.num_indexes();
                vec![ObjectiveEvaluator::new(&inputs.instance)
                    .evaluate_area(&Deployment::identity(n))]
            }
            Workload::BlocksDeploy => {
                let runtime = DeployRuntime::new(static_config(&params));
                let plan = initial_plan(&inputs)?;
                inputs
                    .scenarios
                    .iter()
                    .map(|scenario| {
                        runtime
                            .execute(&inputs.instance, plan, scenario)
                            .map(|report| report.realized_cost)
                            .map_err(|e| format!("static deployment failed: {e}"))
                    })
                    .collect::<Result<_, _>>()?
            }
        };
        if references.is_empty() || !references.iter().all(|r| r.is_finite() && *r > 0.0) {
            return Err(format!("reference costs {references:?} are not positive"));
        }
        Ok(Self {
            workload,
            params,
            seed,
            inputs,
            references,
        })
    }

    /// Calls in one round: successive calls cycle through its positions.
    pub fn round(&self) -> usize {
        self.references.len()
    }

    /// The workload's end-to-end call at `position` of the round — the
    /// section `time_to_result_s` times.
    pub fn run(&self, position: usize) -> Result<Raw, String> {
        let instance = &self.inputs.instance;
        match self.workload {
            Workload::TpcdsPortfolio => Ok(Raw::Portfolio(
                tpcds_portfolio(&self.params, self.seed).solve_detailed(instance),
            )),
            Workload::BlocksSharded => Ok(Raw::Sharded(
                ShardedSolver::new(sharded_config(&self.params)).solve(instance),
            )),
            Workload::BlocksDeploy => {
                let runtime = DeployRuntime::new(deploy_config(&self.params));
                let scenario = &self.inputs.scenarios[position];
                let deployed = deploy(&runtime, instance, initial_plan(&self.inputs)?, scenario)?;
                Ok(Raw::Deploy(Box::new(deployed)))
            }
        }
    }

    /// `cost_ratio` of one round's outcomes: their summed cost over the
    /// summed references.
    pub fn cost_ratio(&self, round: &[Outcome]) -> f64 {
        if round.len() != self.round() {
            return f64::NAN;
        }
        round.iter().map(|o| o.cost).sum::<f64>() / self.references.iter().sum::<f64>()
    }

    /// Checks a timed call's result and reduces it to an [`Outcome`].
    pub fn verify(&self, raw: &Raw) -> Result<Outcome, String> {
        let instance = &self.inputs.instance;
        match raw {
            Raw::Portfolio(outcome) => {
                let (order, objective) = verify_plan(instance, &outcome.combined)?;
                let members: Vec<String> = outcome
                    .members
                    .iter()
                    .map(|m| format!("{}:{}:{:x}", m.solver, m.nodes, m.objective.to_bits()))
                    .collect();
                Ok(Outcome {
                    cost: objective,
                    key: format!(
                        "{} nodes={} members={members:?} order={order:?}",
                        objective.to_bits(),
                        outcome.combined.nodes
                    ),
                })
            }
            Raw::Sharded(outcome) => {
                let (order, objective) = verify_plan(instance, &outcome.result)?;
                if !outcome.exact || outcome.monolithic_fallback {
                    return Err(format!(
                        "zero-coupling instance not solved exactly (exact={}, fallback={})",
                        outcome.exact, outcome.monolithic_fallback
                    ));
                }
                if outcome.shards.len() < self.params.blocks {
                    return Err(format!(
                        "{} shards for {} independent blocks",
                        outcome.shards.len(),
                        self.params.blocks
                    ));
                }
                Ok(Outcome {
                    cost: objective,
                    key: format!(
                        "{} nodes={} shards={} optimal={} order={order:?}",
                        objective.to_bits(),
                        outcome.result.nodes,
                        outcome.shards.len(),
                        optimal_shards(outcome)
                    ),
                })
            }
            Raw::Deploy(run) => {
                verify_deployment(run)?;
                let report = &run.report;
                Ok(Outcome {
                    cost: report.realized_cost,
                    key: format!(
                        "{} replans={} improved={} retries={} records={}\n{}",
                        report.realized_cost.to_bits(),
                        report.replans.len(),
                        report.improved_replans(),
                        report.retries,
                        run.journal.len(),
                        run.jsonl
                    ),
                })
            }
        }
    }
}

/// Shards whose race proved its optimum.
pub(crate) fn optimal_shards(outcome: &ShardedOutcome) -> usize {
    outcome
        .shards
        .iter()
        .filter(|s| s.result.outcome == SolveOutcome::Optimal)
        .count()
}

/// The initial plan of the blocks-deploy inputs.
pub(crate) fn initial_plan(inputs: &Inputs) -> Result<&Deployment, String> {
    inputs
        .plan
        .as_ref()
        .ok_or_else(|| "blocks-deploy inputs lack an initial plan".to_string())
}

/// A plan result must be a permutation honouring every precedence, and its
/// objective must be the evaluator's area bit-for-bit.
fn verify_plan(
    instance: &ProblemInstance,
    result: &idd_solver::SolveResult,
) -> Result<(Vec<IndexId>, f64), String> {
    let deployment = result
        .deployment
        .as_ref()
        .ok_or_else(|| format!("{} returned no deployment", result.solver))?;
    deployment
        .validate(instance)
        .map_err(|e| format!("{}: {e}", result.solver))?;
    let area = ObjectiveEvaluator::new(instance).evaluate_area(deployment);
    if area.to_bits() != result.objective.to_bits() {
        return Err(format!(
            "{} reports objective {:?}, the evaluator gives {area:?}",
            result.solver, result.objective
        ));
    }
    Ok((deployment.order().to_vec(), area))
}

/// A deployment's journal must survive the JSONL round trip, its replay
/// must rebuild the executed report bit-for-bit, and it must dispatch each
/// index at most once, keep its committed prefix and in-flight set, and
/// realize a finite positive cost.
fn verify_deployment(run: &Deployed) -> Result<(), String> {
    if run.decoded != run.journal {
        return Err("JSONL round trip changed the journal".into());
    }
    if format!("{:?}", run.report) != format!("{:?}", run.replayed) {
        return Err("replayed report differs from the executed one".into());
    }
    let report = &run.report;
    let mut seen = std::collections::BTreeSet::new();
    for build in &report.builds {
        if !seen.insert(build.index) {
            return Err(format!("index {} was built twice", build.index));
        }
    }
    if !report.prefixes_respected() || !report.in_flight_respected() {
        return Err("a replan reordered committed work".into());
    }
    if !(report.realized_cost.is_finite() && report.realized_cost > 0.0) {
        return Err(format!(
            "realized cost {} is not positive",
            report.realized_cost
        ));
    }
    Ok(())
}

/// Seconds `f` takes, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = std::hint::black_box(f());
    (value, started.elapsed().as_secs_f64())
}

/// The median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Median seconds of `f` over at least `min_reps` calls and at least
/// `min_seconds` of total time (for sections too short to time once).
pub(crate) fn median_seconds<T>(
    min_reps: usize,
    min_seconds: f64,
    mut f: impl FnMut() -> T,
) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps || started.elapsed().as_secs_f64() < min_seconds {
        samples.push(timed(&mut f).1);
    }
    median(&samples)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
