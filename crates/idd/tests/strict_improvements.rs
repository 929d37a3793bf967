//! VNS and LNS publish a deployment only when it improves on the member's
//! best: every `publish-deployment` mark a run emits is a new point of its
//! trajectory (the first point is the start order, which is published as a
//! bare objective).
//!
//! A reinsertion that rebuilds an order of exactly the incumbent's area is
//! not an improvement, but a search that compares a naive running sum with
//! the canonical incumbent can take it for one when the sum rounds a few
//! ulps lower. On this instance that made 19 of VNS's 20 publications
//! equal-area ones.

use idd::solver::local::{LnsSolver, VnsSolver};
use idd::solver::{GreedySolver, SearchBudget, SolveResult};
use idd::workloads::{generate_block_structured, BlockStructuredConfig};
use idd_telemetry::{EventKind, Telemetry};

/// Runs `solve` on a telemetry track of its own and counts the
/// `publish-deployment` marks it leaves there.
fn publications(solve: impl FnOnce() -> SolveResult) -> (usize, SolveResult) {
    let telemetry = Telemetry::recording();
    let track = telemetry.register("member");
    let result = {
        let _installed = track.install();
        solve()
    };
    let marks = telemetry
        .drain()
        .events_for(track.id())
        .filter(|e| matches!(&e.kind, EventKind::Mark { name, .. } if name == "publish-deployment"))
        .count();
    (marks, result)
}

#[test]
fn every_published_deployment_is_a_new_trajectory_point() {
    let instance = generate_block_structured(BlockStructuredConfig::blocks(1, 32, 0, 1));
    let greedy = GreedySolver::new().construct(&instance);
    let budget = SearchBudget::nodes(20);
    let vns = publications(|| VnsSolver::new(budget).solve(&instance, greedy.clone()));
    let lns = publications(|| LnsSolver::new(budget).solve(&instance, greedy.clone()));
    for (name, (marks, result)) in [("vns", vns), ("lns", lns)] {
        let points = result.trajectory.points().len();
        assert_eq!(
            marks,
            points - 1,
            "{name}: {marks} publications, {points} trajectory points"
        );
    }
}
