//! Bit-for-bit golden of the three local searches (tabu, LNS, VNS).
//!
//! Every run of a fixed grid prints one line: the solver, its objective
//! bits, node count and cooperation counters, plus FNV-1a hashes of the
//! final order, of the trajectory's objective bits and of the run's
//! telemetry `deterministic_view()`. The grid crosses
//!
//! * LNS, VNS and both tabu strategies, each in its default configuration
//!   and in non-default ones (tight failure limits with and without the
//!   delta repair, shift descent off, a small adaptation group, an explicit
//!   stall threshold),
//! * two seeded synthetic instances, the second with hard precedences,
//! * two node budgets,
//! * every [`CooperationPolicy`] on a fresh context, and under the
//!   warm-start policies also a context pre-seeded with a stronger
//!   deployment than the searches start from.
//!
//! Node budgets and single-threaded runs make every number
//! machine-independent, so a refactor that shifts a steal, an adoption, a
//! repair or a polish step fails here. The grid must also actually reach
//! those paths; the test asserts it does.
//!
//! To bless an intentional change:
//! `BLESS=1 cargo test -p idd-solver --test local_golden`

use idd_core::{Deployment, IndexId, ProblemInstance};
use idd_solver::local::{
    LnsConfig, LnsSolver, SwapStrategy, TabuConfig, TabuSolver, VnsConfig, VnsSolver,
};
use idd_solver::{CooperationPolicy, GreedySolver, SearchBudget, SolveContext, SolveResult};
use idd_telemetry::Telemetry;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::path::Path;

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn hash_words(words: impl IntoIterator<Item = u64>) -> u64 {
    fnv1a(words.into_iter().flat_map(u64::to_le_bytes))
}

/// A seeded synthetic instance with single- and multi-index plans, build
/// interactions and, when `precedences` is set, a few hard precedences.
fn instance(seed: u64, n: usize, precedences: bool) -> ProblemInstance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = ProblemInstance::builder(format!("local-golden-{seed}"));
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

/// One solver configuration of the grid.
struct Member {
    label: &'static str,
    run: fn(SearchBudget, &ProblemInstance, Deployment, &SolveContext) -> SolveResult,
}

fn lns(config: LnsConfig, budget: SearchBudget) -> LnsSolver {
    LnsSolver::with_config(LnsConfig { budget, ..config })
}

fn vns(config: VnsConfig, budget: SearchBudget) -> VnsSolver {
    VnsSolver::with_config(VnsConfig { budget, ..config })
}

fn tabu(config: TabuConfig, budget: SearchBudget) -> TabuSolver {
    TabuSolver::with_config(TabuConfig { budget, ..config })
}

/// LNS with a failure limit tight enough that reinsertions give up and the
/// delta repair runs.
fn tight_lns() -> LnsConfig {
    LnsConfig {
        failure_limit: 6,
        stall_iterations: Some(3),
        ..LnsConfig::default()
    }
}

/// VNS with a small adaptation group and a tight initial failure limit, so
/// both adaptation rules fire within the budget.
fn adaptive_vns() -> VnsConfig {
    VnsConfig {
        initial_failure_limit: 6,
        group_size: 3,
        stall_iterations: Some(3),
        ..VnsConfig::default()
    }
}

fn members() -> Vec<Member> {
    vec![
        Member {
            label: "lns",
            run: |b, inst, init, ctx| lns(LnsConfig::default(), b).solve_in(inst, init, ctx),
        },
        Member {
            label: "lns-tight",
            run: |b, inst, init, ctx| lns(tight_lns(), b).solve_in(inst, init, ctx),
        },
        Member {
            label: "lns-tight-norepair",
            run: |b, inst, init, ctx| {
                let config = LnsConfig {
                    delta_repair: false,
                    ..tight_lns()
                };
                lns(config, b).solve_in(inst, init, ctx)
            },
        },
        Member {
            label: "vns",
            run: |b, inst, init, ctx| vns(VnsConfig::default(), b).solve_in(inst, init, ctx),
        },
        Member {
            label: "vns-adaptive",
            run: |b, inst, init, ctx| vns(adaptive_vns(), b).solve_in(inst, init, ctx),
        },
        Member {
            label: "vns-adaptive-nopolish",
            run: |b, inst, init, ctx| {
                let config = VnsConfig {
                    shift_descent: false,
                    ..adaptive_vns()
                };
                vns(config, b).solve_in(inst, init, ctx)
            },
        },
        Member {
            label: "ts-bswap",
            run: |b, inst, init, ctx| {
                let config = TabuConfig::default();
                tabu(config, b).solve_in(inst, init, ctx)
            },
        },
        Member {
            label: "ts-bswap-stall3",
            run: |b, inst, init, ctx| {
                let config = TabuConfig {
                    stall_iterations: Some(3),
                    tabu_length: 3,
                    ..TabuConfig::default()
                };
                tabu(config, b).solve_in(inst, init, ctx)
            },
        },
        Member {
            label: "ts-fswap",
            run: |b, inst, init, ctx| {
                let config = TabuConfig {
                    strategy: SwapStrategy::First,
                    ..TabuConfig::default()
                };
                tabu(config, b).solve_in(inst, init, ctx)
            },
        },
        Member {
            label: "ts-fswap-stall3",
            run: |b, inst, init, ctx| {
                let config = TabuConfig {
                    strategy: SwapStrategy::First,
                    stall_iterations: Some(3),
                    seed: 0x5EED,
                    ..TabuConfig::default()
                };
                tabu(config, b).solve_in(inst, init, ctx)
            },
        },
    ]
}

/// What one run leaves behind, in the form the golden prints.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    objective_bits: u64,
    nodes: u64,
    coop: [u64; 4],
    order: u64,
    trajectory: u64,
    telemetry: u64,
}

/// Runs one member on its own telemetry track and fingerprints the run.
fn fingerprint(
    member: &Member,
    budget: SearchBudget,
    instance: &ProblemInstance,
    ctx: &SolveContext,
) -> Fingerprint {
    let telemetry = Telemetry::recording();
    let track = telemetry.register(member.label);
    let result = {
        let _installed = track.install();
        (member.run)(
            budget,
            instance,
            Deployment::identity(instance.num_indexes()),
            ctx,
        )
    };
    let view = format!("{:?}", telemetry.drain().deterministic_view());
    let order = result
        .deployment
        .as_ref()
        .expect("local search keeps an order");
    Fingerprint {
        objective_bits: result.objective.to_bits(),
        nodes: result.nodes,
        coop: [
            result.coop.restarts,
            result.coop.adoptions,
            result.coop.hints_stolen,
            result.coop.hints_published,
        ],
        order: hash_words(order.order().iter().map(|i| i.raw() as u64)),
        trajectory: hash_words(
            result
                .trajectory
                .points()
                .iter()
                .map(|p| p.objective.to_bits()),
        ),
        telemetry: fnv1a(view.into_bytes()),
    }
}

/// A context for `policy`, optionally carrying `seed` as the shared best.
fn context(policy: CooperationPolicy, seed: Option<&(f64, Vec<IndexId>)>) -> SolveContext {
    let ctx = SolveContext::with_cooperation(policy);
    if let Some((objective, order)) = seed {
        ctx.publish_deployment(*objective, order);
    }
    ctx
}

#[test]
fn local_search_grid_matches_golden() {
    let instances = [instance(4, 13, false), instance(29, 16, true)];
    let budgets = [14u64, 32];
    let members = members();
    let mut lines = Vec::new();
    let mut cells: Vec<(String, &'static str, Fingerprint)> = Vec::new();

    for (k, inst) in instances.iter().enumerate() {
        // A deployment stronger than the identity start every run begins
        // from: a longer VNS run from the greedy order.
        let strong = VnsSolver::new(SearchBudget::nodes(60))
            .solve(inst, GreedySolver::new().construct(inst));
        let strong = (
            strong.objective,
            strong
                .deployment
                .expect("VNS keeps an order")
                .order()
                .to_vec(),
        );
        for &nodes in &budgets {
            let budget = SearchBudget::nodes(nodes);
            for policy in [
                CooperationPolicy::Off,
                CooperationPolicy::WarmStart,
                CooperationPolicy::WarmStartSteal,
            ] {
                let seeds: &[Option<&(f64, Vec<IndexId>)>] = if policy.warm_starts() {
                    &[None, Some(&strong)]
                } else {
                    &[None]
                };
                for seed in seeds {
                    let cell = format!(
                        "inst={k} nodes={nodes} policy={policy:?} ctx={}",
                        if seed.is_some() { "seeded" } else { "fresh" }
                    );
                    for member in &members {
                        let print = fingerprint(member, budget, inst, &context(policy, *seed));
                        lines.push(format!(
                            "{cell} {:<21} objective={:016x} nodes={} coop={:?} \
                             order={:016x} trajectory={:016x} telemetry={:016x}",
                            member.label,
                            print.objective_bits,
                            print.nodes,
                            print.coop,
                            print.order,
                            print.trajectory,
                            print.telemetry
                        ));
                        cells.push((cell.clone(), member.label, print));
                    }
                }
            }
        }
    }

    // The grid must reach every cooperative path...
    let total = |slot: usize| cells.iter().map(|(_, _, p)| p.coop[slot]).sum::<u64>();
    assert!(total(0) > 0, "no run restarted");
    assert!(total(1) > 0, "no run adopted the shared best");
    assert!(total(2) > 0, "no run stole a hint");
    assert!(total(3) > 0, "no run published a hint");
    // ...and both delta-evaluator side paths: a cell where switching the
    // repair (or the polish) off changes the run proves it ran.
    let differs = |with: &str, without: &str| {
        cells.iter().any(|(cell, label, print)| {
            *label == with
                && cells
                    .iter()
                    .any(|(c, l, p)| c == cell && *l == without && p != print)
        })
    };
    assert!(
        differs("lns-tight", "lns-tight-norepair"),
        "the LNS delta repair never changed a run"
    );
    assert!(
        differs("vns-adaptive", "vns-adaptive-nopolish"),
        "the VNS shift-descent polish never changed a run"
    );

    let actual = lines.join("\n") + "\n";
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/local_search.txt");
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
        "local-search golden drifted (BLESS=1 to accept an intentional change):\n{}\n\
         [expected {} lines, actual {} lines]",
        drift.join("\n"),
        expected.lines().count(),
        actual.lines().count()
    );
}
