//! Bit-for-bit golden of best-swap tabu walks at paper size.
//!
//! `TabuSolver::run` (TS-BSwap from the greedy order, cooperation off) on
//! the instances the benchmark races hand it:
//!
//! * the TPC-DS extraction at `nodes(8)`, the `tpcds-portfolio` member;
//! * `blocks(8, 32, 8, 42)` at `nodes(4)`, n = 256 with coupling queries;
//! * `blocks(1, 32, 0, s)` for s = 42 and 7 at `nodes(20)`, the size of one
//!   shard race's member.
//!
//! Each run prints one line: the objective bits, the node count, the FNV-1a
//! hash of the returned order and the FNV-1a hash of the trajectory's
//! objective bits. Node budgets make every number machine-independent, so a
//! scan that picks another swap, breaks a tie another way or leaves the loop
//! at another iteration fails here.
//!
//! To bless an intentional change:
//! `BLESS=1 cargo test -p idd --release --test tabu_golden`

use idd::core::ProblemInstance;
use idd::solver::local::{SwapStrategy, TabuConfig, TabuSolver};
use idd::solver::{CooperationPolicy, SearchBudget, SolveContext, Solver};
use idd::workloads::{generate_block_structured, tpcds_instance, BlockStructuredConfig};
use std::path::Path;

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn line(label: &str, instance: &ProblemInstance, nodes: u64) -> String {
    let budget = SearchBudget::nodes(nodes);
    let solver = TabuSolver::with_config(TabuConfig {
        strategy: SwapStrategy::Best,
        budget,
        ..TabuConfig::default()
    });
    let ctx = SolveContext::with_cooperation(CooperationPolicy::Off);
    let result = solver.run(instance, budget, &ctx);
    let order = result.deployment.expect("tabu returns an order");
    assert!(order.is_valid_for(instance), "{label}: invalid order");
    format!(
        "{label} n={} objective={:016x} nodes={} order={:016x} trajectory={:016x} points={}",
        instance.num_indexes(),
        result.objective.to_bits(),
        result.nodes,
        fnv1a(order.order().iter().map(|i| i.raw() as u64)),
        fnv1a(
            result
                .trajectory
                .points()
                .iter()
                .map(|p| p.objective.to_bits())
        ),
        result.trajectory.points().len(),
    )
}

#[test]
fn best_swap_walks_match_golden() {
    let tpcds = tpcds_instance().expect("TPC-DS extraction succeeds");
    let mut lines = vec![line("tpcds nodes=8", &tpcds, 8)];
    let coupled = generate_block_structured(BlockStructuredConfig::blocks(8, 32, 8, 42));
    lines.push(line("blocks(8,32,8,42) nodes=4", &coupled, 4));
    for seed in [42, 7] {
        let block = generate_block_structured(BlockStructuredConfig::blocks(1, 32, 0, seed));
        lines.push(line(&format!("blocks(1,32,0,{seed}) nodes=20"), &block, 20));
    }
    let actual = lines.join("\n") + "\n";

    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/tabu_walks.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(golden.parent().unwrap()).expect("golden dir");
        std::fs::write(&golden, &actual).expect("failed to write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&golden)
        .unwrap_or_else(|e| panic!("missing golden file {golden:?}: {e} (run with BLESS=1)"));
    assert_eq!(
        expected, actual,
        "tabu golden drifted (BLESS=1 to accept an intentional change)"
    );
}
