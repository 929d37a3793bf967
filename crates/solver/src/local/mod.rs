//! Local search methods (Section 7): Tabu search, LNS and VNS.
//!
//! All three start from an initial solution (normally the greedy order of
//! Algorithm 1) and improve it within a budget, recording the incumbent
//! trajectory used by Figures 11–13. VNS is the LNS loop with a self-tuning
//! schedule: both run one large-neighbourhood loop
//! ([`VnsSolver`] with its schedule and shift-descent polish; [`LnsSolver`]
//! with a schedule that never fires, plus hint stealing and delta repair),
//! built on the CP-powered *reinsertion search* in this module: a subset of
//! indexes is removed from the current order and optimally re-inserted by a
//! small branch-and-prune search with a failure (backtrack) limit. While
//! relaxed indexes are left, the search pushes and pops indexes on an
//! exact [`PrefixState`]. Once the last one is placed, the rest of the
//! order is forced: the search reads it from tables computed once per
//! search and adds its exact terms to a copy of the prefix's exact area.
//! Either way the area it compares with the incumbent is the canonical
//! one: an order it returns is strictly better in the bits every member
//! publishes.
//!
//! All three share one `Walk`: the budget clock, the trajectory, incumbent
//! publication and the cooperative warm-start machinery. The clock starts
//! on entry, so a member's `elapsed_seconds` includes its seeding (the
//! greedy order built by [`Solver::run`](crate::solver::Solver::run)) and
//! its per-instance set-up.

pub mod lns;
pub mod tabu;
pub mod vns;

pub use lns::{LnsConfig, LnsSolver};
pub use tabu::{SwapStrategy, TabuConfig, TabuSolver};
pub use vns::{VnsConfig, VnsSolver};

use crate::anytime::Trajectory;
use crate::budget::{BudgetClock, SearchBudget};
use crate::constraints::OrderConstraints;
use crate::exact::bounds::LowerBound;
use crate::result::{CoopStats, SolveOutcome, SolveResult};
use crate::solver::SolveContext;
use idd_core::{DeltaEvaluator, Deployment, ExactSum, IndexId, PrefixState};
use std::ops::RangeInclusive;

/// Derives a stall threshold (iterations without improvement before a
/// member re-seeds from the shared best) as a *slice of the budget*, so the
/// knob scales with how long the member actually runs instead of being a
/// fixed per-config count:
///
/// * node-limited budgets stall after 1/8 of the iteration allowance — a
///   member gets several restart opportunities within its run, but each
///   basin is explored long enough to pay off;
/// * time-limited budgets assume the ~25 iterations/second a mid-size
///   instance sustains and take the same 1/8 slice of that;
/// * unlimited budgets fall back to a generous fixed threshold.
///
/// Every local-search config keeps an explicit override
/// (`stall_iterations: Some(n)`); this function only supplies the default.
pub fn derived_stall_iterations(budget: &SearchBudget) -> u64 {
    if let Some(nodes) = budget.node_limit {
        (nodes / 8).clamp(4, 2_000)
    } else if let Some(limit) = budget.time_limit {
        ((limit.as_secs_f64() * 25.0 / 8.0).ceil() as u64).clamp(4, 2_000)
    } else {
        200
    }
}

/// The bookkeeping every local search shares: the budget clock (started on
/// solver entry, so seeding and set-up count against the budget), the
/// incumbent trajectory, publication to the [`SolveContext`], and the
/// stall-detection / warm-start machinery of a cooperative portfolio.
///
/// Once the member goes the stall threshold without improving its own best
/// it is *stalled* and (under a warm-start policy) re-seeds from the
/// portfolio's shared best deployment instead of grinding on its own local
/// optimum. Every cooperative decision is gated on the context's
/// [`CooperationPolicy`](crate::solver::CooperationPolicy), so with
/// cooperation off the search loops are bit-identical to their
/// non-cooperative selves.
#[derive(Debug)]
pub(crate) struct Walk<'c> {
    ctx: &'c SolveContext,
    /// Counts one node per iteration.
    pub clock: BudgetClock,
    trajectory: Trajectory,
    best: f64,
    stall_iterations: u64,
    since_improvement: u64,
    last_seen_epoch: u64,
    stats: CoopStats,
}

impl<'c> Walk<'c> {
    /// Starts the clock. `stall_iterations` overrides the threshold derived
    /// from `budget` ([`derived_stall_iterations`]).
    pub fn start(
        ctx: &'c SolveContext,
        budget: &SearchBudget,
        stall_iterations: Option<u64>,
    ) -> Self {
        let stall = stall_iterations.unwrap_or_else(|| derived_stall_iterations(budget));
        Self {
            ctx,
            clock: budget.start_cancellable(ctx.cancel_token()),
            trajectory: Trajectory::new(),
            best: f64::INFINITY,
            // A threshold of 0 would re-seed on every iteration; clamp to 1.
            stall_iterations: stall.max(1),
            since_improvement: 0,
            last_seen_epoch: 0,
            stats: CoopStats::default(),
        }
    }

    /// Records and publishes the objective of the order the walk starts at.
    pub fn begin(&mut self, area: f64) {
        self.set_best(area);
        self.ctx.publish(area);
    }

    /// Objective of the member's own best order.
    pub fn best(&self) -> f64 {
        self.best
    }

    fn set_best(&mut self, area: f64) {
        self.best = area;
        self.trajectory.record(self.clock.elapsed_seconds(), area);
    }

    /// Counts the next iteration, or returns `false` once the budget is
    /// spent (or the order has nothing to rearrange).
    pub fn next_iteration(&mut self, n: usize) -> bool {
        if self.clock.exhausted() || n < 2 {
            return false;
        }
        self.clock.count_node();
        true
    }

    /// Cooperative warm start, called at the top of each iteration. When
    /// the member (a) may warm-start, (b) has stalled, and (c) a *strictly
    /// better* foreign deployment that satisfies its own constraint closure
    /// was published since it last looked, re-anchors `delta` at that
    /// deployment and returns `true`.
    ///
    /// Every stall event counts as a restart; only successful adoptions
    /// count as adoptions (so `adoptions <= restarts` always holds).
    pub fn adopt(&mut self, delta: &mut DeltaEvaluator, constraints: &OrderConstraints) -> bool {
        if !self.ctx.cooperation().warm_starts() || self.since_improvement < self.stall_iterations {
            return false;
        }
        self.since_improvement = 0;
        self.stats.restarts += 1;
        idd_telemetry::mark("restart", format!("stall={}", self.stall_iterations));
        // Lock-free pre-check: nothing new published since the last look
        // (the member's own publications bump the epoch too, but they can
        // never be strictly better than its own best).
        let epoch = self.ctx.incumbent().epoch();
        if epoch == self.last_seen_epoch {
            return false;
        }
        self.last_seen_epoch = epoch;
        let Some(snapshot) = self.ctx.incumbent().best_deployment() else {
            return false;
        };
        // Only adopt orders the member's own neighbourhood machinery can
        // work with: a foreign order is checked against the closure, not
        // trusted.
        let adoptable =
            snapshot.objective < self.best - 1e-12 && constraints.is_satisfied_by(&snapshot.order);
        if !adoptable {
            return false;
        }
        self.stats.adoptions += 1;
        idd_telemetry::mark_epoch(
            "adoption",
            format!("objective={:.4}", snapshot.objective),
            epoch,
        );
        delta.set_base(Deployment::new(snapshot.order));
        // Re-derive canonically: the publisher may have computed the
        // objective with different (naive) arithmetic.
        self.set_best(delta.base_area());
        true
    }

    /// Under a stealing policy, takes a destroy-neighbourhood hint from the
    /// shared deque — a relaxation that recently paid off in another member.
    /// Hints always come from the same instance inside one portfolio run,
    /// but the deque is a public surface: a hint is filtered down to
    /// distinct, in-range ids and discarded if fewer than two remain.
    pub fn steal(&mut self, n: usize) -> Option<Vec<IndexId>> {
        if !self.ctx.cooperation().steals() {
            return None;
        }
        let stolen = self.ctx.hints().steal()?;
        let mut seen = vec![false; n];
        let hint: Vec<IndexId> = stolen
            .into_iter()
            .filter(|i| i.raw() < n && !std::mem::replace(&mut seen[i.raw()], true))
            .collect();
        if hint.len() < 2 {
            return None;
        }
        self.stats.hints_stolen += 1;
        idd_telemetry::mark("hint-steal", format!("size={}", hint.len()));
        Some(hint)
    }

    /// The walk reached a new best `order` of objective `area`: records and
    /// publishes it and, under a stealing policy, shares `hint` — the index
    /// set whose move paid off — valued at the improvement it bought.
    pub fn improved(&mut self, area: f64, order: &[IndexId], hint: Vec<IndexId>) {
        debug_assert!(area < self.best, "{area} does not improve on {}", self.best);
        let gain = self.best - area;
        self.set_best(area);
        self.ctx.publish_deployment(area, order);
        if self.ctx.cooperation().steals() {
            idd_telemetry::mark(
                "hint-publish",
                format!("size={} gain={gain:.4}", hint.len()),
            );
            self.ctx.hints().push_scored(hint, gain);
            self.stats.hints_published += 1;
        }
        self.since_improvement = 0;
    }

    /// The iteration ended without a new best.
    pub fn no_improvement(&mut self) {
        self.since_improvement += 1;
    }

    /// Ends the walk at `deployment` (the member's best order): emits the
    /// iteration count and every [`CoopStats`] counter onto the calling
    /// thread's telemetry track (a no-op without an installed recorder) and
    /// builds the result.
    pub fn finish(self, solver: &str, deployment: Deployment) -> SolveResult {
        let iterations = self.clock.nodes();
        idd_telemetry::counter("iterations", iterations);
        idd_telemetry::counter("restarts", self.stats.restarts);
        idd_telemetry::counter("adoptions", self.stats.adoptions);
        idd_telemetry::counter("hints_stolen", self.stats.hints_stolen);
        idd_telemetry::counter("hints_published", self.stats.hints_published);
        SolveResult {
            solver: solver.into(),
            deployment: Some(deployment),
            objective: self.best,
            outcome: SolveOutcome::Feasible,
            elapsed_seconds: self.clock.elapsed_seconds(),
            nodes: iterations,
            trajectory: self.trajectory,
            coop: self.stats,
        }
    }
}

/// Relocates the index at `from` to the best feasible position in `window`
/// (scored on the delta path, `O(|from - to|)` per probe) when that strictly
/// improves the evaluator's base order. Returns whether it moved. The VNS
/// polish and the LNS repair are both sweeps of this move.
pub(crate) fn relocate_best(
    delta: &mut DeltaEvaluator,
    constraints: &OrderConstraints,
    from: usize,
    window: RangeInclusive<usize>,
) -> bool {
    let threshold = delta.base_area() - 1e-12;
    let mut best: Option<(usize, f64)> = None;
    for to in window {
        if to == from || !shift_is_feasible(constraints, delta.base().order(), from, to) {
            continue;
        }
        let area = delta.evaluate_shift(from, to);
        if area < threshold && best.is_none_or(|(_, v)| area < v) {
            best = Some((to, area));
        }
    }
    if let Some((to, _)) = best {
        delta.commit_shift(from, to);
    }
    best.is_some()
}

/// Result of one reinsertion search.
#[derive(Debug, Clone)]
pub(crate) struct ReinsertionResult {
    /// The best complete order found, if it improves on the incumbent.
    pub order: Option<Vec<IndexId>>,
    /// `true` when the neighbourhood was searched exhaustively (no better
    /// solution exists in it); `false` when the failure limit was hit first.
    pub proved: bool,
}

/// What the reinsertion search reads at the node that places `fixed[j]`
/// once no relaxed index is left. The built set there is
/// `relaxed ∪ fixed[..j]` wherever the relaxed indexes went, so each value
/// depends on `j` alone.
#[derive(Debug, Clone, Copy)]
struct TailStep {
    /// Runtime level while `fixed[j]` is built.
    runtime: f64,
    /// `fixed[j]`'s effective build cost.
    cost: f64,
    /// [`LowerBound::remaining`] at the node.
    remaining: f64,
    /// Whether the precedence closure lets `fixed[j]` go next.
    placeable: bool,
}

/// Optimally re-inserts `relaxed` into the sequence `fixed` (whose relative
/// order is preserved), looking for an order strictly better than
/// `incumbent_area`. The search backtracks at most `failure_limit` times.
/// `fixed` and `relaxed` must partition the instance's indexes.
///
/// It runs on `state`, which must hold the empty prefix and holds it again
/// on return; its areas are the canonical evaluator's, so a returned
/// order's area is exactly what [`DeltaEvaluator`] reads for it. The
/// depth-first search pushes and pops while relaxed indexes are left.
/// Once the last one is placed the only candidate at each node is the
/// next fixed index, so the search walks the rest from per-search tables
/// ([`TailStep`]): it adds each step's exact product to a copy of the
/// prefix's [`PrefixState::exact_area`] and makes the same bound test,
/// placeability test and failure count as a push-every-node search. Both
/// read the same bits, so the orders, proofs and aborts are the same.
pub(crate) fn reinsert(
    state: &mut PrefixState<'_>,
    constraints: &OrderConstraints,
    bound: &LowerBound,
    fixed: &[IndexId],
    relaxed: &[IndexId],
    incumbent_area: f64,
    failure_limit: u64,
) -> ReinsertionResult {
    struct Ctx<'a> {
        constraints: &'a OrderConstraints,
        bound: &'a LowerBound,
        fixed: &'a [IndexId],
        relaxed: &'a [IndexId],
        tail: Vec<TailStep>,
        /// Area of the tail walk in progress, reused across walks.
        area: ExactSum,
        best_area: f64,
        best_order: Option<Vec<IndexId>>,
        failures: u64,
        failure_limit: u64,
        aborted: bool,
    }

    impl Ctx<'_> {
        fn fail(&mut self) {
            self.failures += 1;
            if self.failures > self.failure_limit {
                self.aborted = true;
            }
        }

        /// Places `fixed[next_fixed..]` after `order`, every relaxed index
        /// being in it: each step is the node a push-every-node search
        /// would reach, with its bound test and its only candidate.
        fn complete(&mut self, state: &PrefixState<'_>, order: &[IndexId], next_fixed: usize) {
            self.area.assign_from(state.exact_area());
            for step in &self.tail[next_fixed..] {
                if self.area.value() + step.remaining >= self.best_area - 1e-12 || !step.placeable {
                    self.fail();
                    return;
                }
                self.area.add_prod(step.runtime, step.cost);
            }
            let area = self.area.value();
            if area < self.best_area - 1e-12 {
                self.best_area = area;
                self.best_order = Some([order, &self.fixed[next_fixed..]].concat());
            }
        }
    }

    fn dfs(
        ctx: &mut Ctx<'_>,
        state: &mut PrefixState<'_>,
        order: &mut Vec<IndexId>,
        next_fixed: usize,
        relaxed_used: &mut [bool],
    ) {
        if ctx.aborted {
            return;
        }
        if order.len() - next_fixed == ctx.relaxed.len() {
            ctx.complete(state, order, next_fixed);
            return;
        }
        let lb = state.area() + ctx.bound.remaining(state.built(), state.runtime());
        if lb >= ctx.best_area - 1e-12 {
            ctx.fail();
            return;
        }

        // Candidate moves: the next fixed index, then each unused relaxed
        // index (relaxed first would also work; fixed-first keeps the search
        // close to the incumbent which finds improvements faster).
        let mut any_feasible = false;
        if let Some(&index) = ctx.fixed.get(next_fixed) {
            if ctx.constraints.can_place(index, state.built()) {
                any_feasible = true;
                state.push(index);
                order.push(index);
                dfs(ctx, state, order, next_fixed + 1, relaxed_used);
                order.pop();
                state.pop();
            }
        }
        for pos in 0..ctx.relaxed.len() {
            if ctx.aborted {
                return;
            }
            let index = ctx.relaxed[pos];
            if relaxed_used[pos] || !ctx.constraints.can_place(index, state.built()) {
                continue;
            }
            any_feasible = true;
            state.push(index);
            order.push(index);
            relaxed_used[pos] = true;
            dfs(ctx, state, order, next_fixed, relaxed_used);
            relaxed_used[pos] = false;
            order.pop();
            state.pop();
        }
        if !any_feasible {
            ctx.fail();
        }
    }

    debug_assert!(
        state.built().iter().all(|&b| !b),
        "reinsert needs an empty prefix"
    );
    debug_assert_eq!(fixed.len() + relaxed.len(), state.built().len());
    // The tail tables: the relaxed indexes, then each fixed one, pushed in
    // turn, reading the node that places `fixed[j]` before its push.
    for &index in relaxed {
        state.push(index);
    }
    let tail = fixed
        .iter()
        .map(|&index| {
            let runtime = state.runtime();
            let step = TailStep {
                runtime,
                cost: state.build_cost(index),
                remaining: bound.remaining(state.built(), runtime),
                placeable: constraints.can_place(index, state.built()),
            };
            state.push(index);
            step
        })
        .collect();
    while state.pop().is_some() {}

    let mut ctx = Ctx {
        constraints,
        bound,
        fixed,
        relaxed,
        tail,
        area: ExactSum::new(),
        best_area: incumbent_area,
        best_order: None,
        failures: 0,
        failure_limit,
        aborted: false,
    };
    let mut order = Vec::with_capacity(fixed.len() + relaxed.len());
    let mut relaxed_used = vec![false; relaxed.len()];
    dfs(&mut ctx, state, &mut order, 0, &mut relaxed_used);

    ReinsertionResult {
        order: ctx.best_order,
        proved: !ctx.aborted,
    }
}

/// Checks whether swapping the indexes at `a` and `b` (a < b is not required)
/// keeps the order feasible under the precedence closure.
pub(crate) fn swap_is_feasible(
    constraints: &OrderConstraints,
    order: &[IndexId],
    a: usize,
    b: usize,
) -> bool {
    if a == b {
        return true;
    }
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    let early = order[lo]; // moves later
    let late = order[hi]; // moves earlier
                          // `late` moves to position lo: nothing between lo..hi may be required
                          // before it, and it must not be required after `early`... the pairwise
                          // check against every index in the window (inclusive) covers both.
    for &other in &order[lo..=hi] {
        if other != late && constraints.must_precede(other, late) {
            return false;
        }
        if other != early && constraints.must_precede(early, other) {
            return false;
        }
    }
    true
}

/// Checks whether relocating the index at `from` to position `to` (the
/// [`Deployment::relocate`](idd_core::Deployment) move scored by
/// [`DeltaEvaluator::evaluate_shift`](idd_core::DeltaEvaluator)) keeps the
/// order feasible under the precedence closure.
pub(crate) fn shift_is_feasible(
    constraints: &OrderConstraints,
    order: &[IndexId],
    from: usize,
    to: usize,
) -> bool {
    if from == to {
        return true;
    }
    let moved = order[from];
    if from < to {
        // `moved` jumps after order[from+1 ..= to]: it must not be required
        // before any of them.
        order[from + 1..=to]
            .iter()
            .all(|&other| !constraints.must_precede(moved, other))
    } else {
        // `moved` jumps before order[to .. from]: none of them may be
        // required before it.
        order[to..from]
            .iter()
            .all(|&other| !constraints.must_precede(other, moved))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idd_core::{Deployment, ObjectiveEvaluator, ProblemInstance};

    fn instance() -> ProblemInstance {
        let mut b = ProblemInstance::builder("local");
        let i: Vec<IndexId> = (0..5).map(|k| b.add_index(2.0 + k as f64)).collect();
        let q0 = b.add_query(60.0);
        b.add_plan(q0, vec![i[0]], 10.0);
        b.add_plan(q0, vec![i[0], i[1]], 30.0);
        let q1 = b.add_query(40.0);
        b.add_plan(q1, vec![i[2]], 15.0);
        let q2 = b.add_query(50.0);
        b.add_plan(q2, vec![i[3], i[4]], 25.0);
        b.add_build_interaction(i[1], i[0], 1.0);
        b.build().unwrap()
    }

    #[test]
    fn reinsertion_with_everything_relaxed_finds_the_optimum() {
        let inst = instance();
        let constraints = OrderConstraints::from_instance(&inst);
        let bound = LowerBound::new(&inst);
        let all: Vec<IndexId> = inst.index_ids().collect();
        let eval = ObjectiveEvaluator::new(&inst);
        let mut state = eval.prefix_state();
        let result = reinsert(
            &mut state,
            &constraints,
            &bound,
            &[],
            &all,
            f64::INFINITY,
            u64::MAX,
        );
        assert!(result.proved);
        assert_eq!(state.pop(), None, "the search leaves the prefix empty");
        let best = Deployment::new(result.order.expect("some order must beat infinity"));
        // Compare against the CP optimum.
        let cp = crate::exact::cp::CpSolver::with_config(crate::exact::cp::CpConfig::plain(
            crate::budget::SearchBudget::unlimited(),
        ))
        .solve(&inst);
        assert!((eval.evaluate_area(&best) - cp.objective).abs() < 1e-6);
        assert!(best.is_valid_for(&inst));
    }

    #[test]
    fn reinsertion_respects_the_incumbent_bound() {
        let inst = instance();
        let constraints = OrderConstraints::from_instance(&inst);
        let bound = LowerBound::new(&inst);
        let eval = ObjectiveEvaluator::new(&inst);
        let identity = Deployment::identity(5);
        let incumbent = eval.evaluate_area(&identity);
        // Relax nothing: the only completion is the incumbent itself, which
        // is not strictly better, so no order is returned.
        let result = reinsert(
            &mut eval.prefix_state(),
            &constraints,
            &bound,
            identity.order(),
            &[],
            incumbent,
            1000,
        );
        assert!(result.order.is_none());
    }

    #[test]
    fn failure_limit_stops_the_search() {
        let inst = instance();
        let constraints = OrderConstraints::from_instance(&inst);
        let bound = LowerBound::new(&inst);
        let all: Vec<IndexId> = inst.index_ids().collect();
        let eval = ObjectiveEvaluator::new(&inst);
        let result = reinsert(
            &mut eval.prefix_state(),
            &constraints,
            &bound,
            &[],
            &all,
            1e-9,
            0,
        );
        // Nothing beats an incumbent of ~0, and the failure limit of zero is
        // exceeded by the very first pruned node.
        assert!(!result.proved);
        assert!(result.order.is_none());
    }

    /// The push-every-node reinsertion search that the tail tables
    /// replaced, kept as the oracle of `reinsert`: it pushes and pops at
    /// every node, the forced tail included, and also returns its failure
    /// count.
    fn reinsert_by_pushing(
        state: &mut PrefixState<'_>,
        constraints: &OrderConstraints,
        bound: &LowerBound,
        fixed: &[IndexId],
        relaxed: &[IndexId],
        incumbent_area: f64,
        failure_limit: u64,
    ) -> (Option<Vec<IndexId>>, bool, u64) {
        struct Oracle<'a> {
            constraints: &'a OrderConstraints,
            bound: &'a LowerBound,
            fixed: &'a [IndexId],
            relaxed: &'a [IndexId],
            best_area: f64,
            best_order: Option<Vec<IndexId>>,
            failures: u64,
            failure_limit: u64,
            aborted: bool,
        }

        fn dfs(
            o: &mut Oracle<'_>,
            state: &mut PrefixState<'_>,
            order: &mut Vec<IndexId>,
            next_fixed: usize,
            relaxed_used: &mut Vec<bool>,
        ) {
            if o.aborted {
                return;
            }
            if state.is_complete() {
                let area = state.area();
                if area < o.best_area - 1e-12 {
                    o.best_area = area;
                    o.best_order = Some(order.clone());
                }
                return;
            }
            let lb = state.area() + o.bound.remaining(state.built(), state.runtime());
            if lb >= o.best_area - 1e-12 {
                o.failures += 1;
                if o.failures > o.failure_limit {
                    o.aborted = true;
                }
                return;
            }
            let mut candidates: Vec<(bool, usize, IndexId)> = Vec::new();
            if next_fixed < o.fixed.len() {
                candidates.push((true, next_fixed, o.fixed[next_fixed]));
            }
            for (pos, &r) in o.relaxed.iter().enumerate() {
                if !relaxed_used[pos] {
                    candidates.push((false, pos, r));
                }
            }
            let mut any_feasible = false;
            for (is_fixed, pos, index) in candidates {
                if o.aborted {
                    return;
                }
                if !o.constraints.can_place(index, state.built()) {
                    continue;
                }
                any_feasible = true;
                state.push(index);
                order.push(index);
                if is_fixed {
                    dfs(o, state, order, next_fixed + 1, relaxed_used);
                } else {
                    relaxed_used[pos] = true;
                    dfs(o, state, order, next_fixed, relaxed_used);
                    relaxed_used[pos] = false;
                }
                order.pop();
                state.pop();
            }
            if !any_feasible {
                o.failures += 1;
                if o.failures > o.failure_limit {
                    o.aborted = true;
                }
            }
        }

        let mut o = Oracle {
            constraints,
            bound,
            fixed,
            relaxed,
            best_area: incumbent_area,
            best_order: None,
            failures: 0,
            failure_limit,
            aborted: false,
        };
        let mut order = Vec::new();
        let mut relaxed_used = vec![false; relaxed.len()];
        dfs(&mut o, state, &mut order, 0, &mut relaxed_used);
        (o.best_order, !o.aborted, o.failures)
    }

    /// An instance whose build interaction saves 5e-10 more than its
    /// target costs, inside the builder's 1e-9 tolerance: once its helper
    /// is built, index 1 has a negative cost.
    fn negative_cost_instance() -> ProblemInstance {
        let mut b = ProblemInstance::builder("negative-cost");
        let i: Vec<IndexId> = (0..7).map(|k| b.add_index(1.0 + k as f64)).collect();
        for k in 0..7 {
            let q = b.add_query(40.0 + 7.0 * k as f64);
            b.add_plan(q, vec![i[k]], 3.0 + k as f64);
            b.add_plan(q, vec![i[k], i[(k + 3) % 7]], 9.0 + k as f64);
        }
        b.add_build_interaction(i[1], i[0], 2.0 + 5e-10);
        b.add_build_interaction(i[4], i[2], 1.5);
        b.build().unwrap()
    }

    /// `true` when some `fixed[j]` cannot follow `relaxed ∪ fixed[..j]`:
    /// the tail walk must then fail where the pushing search finds no
    /// candidate.
    fn tail_blocks(constraints: &OrderConstraints, fixed: &[IndexId], relaxed: &[IndexId]) -> bool {
        let mut built = vec![false; fixed.len() + relaxed.len()];
        for &r in relaxed {
            built[r.raw()] = true;
        }
        fixed.iter().any(|&f| {
            let blocked = !constraints.can_place(f, &built);
            built[f.raw()] = true;
            blocked
        })
    }

    #[test]
    fn tail_tables_reproduce_the_push_every_node_search() {
        use idd_workloads::{generate_block_structured, BlockStructuredConfig};
        use idd_workloads::{SyntheticConfig, SyntheticGenerator};
        use rand::prelude::*;
        use rand_chacha::ChaCha8Rng;

        let precedences = SyntheticGenerator::new(SyntheticConfig {
            num_indexes: 12,
            num_queries: 9,
            precedence_probability: 0.5,
            seed: 5,
            ..SyntheticConfig::default()
        })
        .generate();
        let instances = [
            generate_block_structured(BlockStructuredConfig::blocks(1, 8, 0, 42)),
            generate_block_structured(BlockStructuredConfig::blocks(1, 16, 0, 7)),
            generate_block_structured(BlockStructuredConfig::blocks(1, 32, 0, 42)),
            precedences,
            negative_cost_instance(),
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(30);
        let (mut compared, mut blocked_tails, mut improved, mut aborted) = (0, 0, 0, 0);
        for inst in &instances {
            let n = inst.num_indexes();
            let constraints = OrderConstraints::from_instance(inst);
            let bound = LowerBound::new(inst);
            let eval = ObjectiveEvaluator::new(inst);
            let mut state = eval.prefix_state();
            // A feasible base (the greedy order) and a shuffled one, which
            // breaks precedences on the precedence instance.
            let mut shuffled: Vec<IndexId> = inst.index_ids().collect();
            shuffled.shuffle(&mut rng);
            let bases = [
                crate::greedy::GreedySolver::new().construct(inst),
                Deployment::new(shuffled),
            ];
            for base in &bases {
                let own = eval.evaluate_area(base);
                let below = |ulps: u64| f64::from_bits(own.to_bits() - ulps);
                for size in [0, 1, 2, 3, 5, n] {
                    let mut ids: Vec<IndexId> = inst.index_ids().collect();
                    ids.shuffle(&mut rng);
                    let relaxed = &ids[..size];
                    let fixed: Vec<IndexId> = base
                        .order()
                        .iter()
                        .copied()
                        .filter(|i| !relaxed.contains(i))
                        .collect();
                    blocked_tails += usize::from(tail_blocks(&constraints, &fixed, relaxed));
                    for incumbent in [f64::INFINITY, own, below(1), below(3)] {
                        // The oracle's failure count under a cap; then every
                        // limit up to one past it (a spread when it is
                        // large, or when the cap stopped the oracle).
                        let cap = if size == n && n > 8 { 300 } else { 2_000 };
                        let (_, proved, count) = reinsert_by_pushing(
                            &mut state,
                            &constraints,
                            &bound,
                            &fixed,
                            relaxed,
                            incumbent,
                            cap,
                        );
                        let top = if proved { count + 1 } else { cap };
                        let limits: Vec<u64> = if top <= 40 {
                            (0..=top).collect()
                        } else {
                            vec![0, 1, 2, top / 4, top / 2, top - 2, top - 1, top]
                        };
                        for limit in limits {
                            let expected = reinsert_by_pushing(
                                &mut state,
                                &constraints,
                                &bound,
                                &fixed,
                                relaxed,
                                incumbent,
                                limit,
                            );
                            let result = reinsert(
                                &mut state,
                                &constraints,
                                &bound,
                                &fixed,
                                relaxed,
                                incumbent,
                                limit,
                            );
                            let case = format!(
                                "{} size={size} incumbent={incumbent} limit={limit}",
                                inst.name()
                            );
                            assert_eq!(result.order, expected.0, "{case}");
                            assert_eq!(result.proved, expected.1, "{case}");
                            assert!(state.built().iter().all(|&b| !b), "{case}");
                            assert_eq!(state.exact_area().value().to_bits(), 0, "{case}");
                            assert_eq!(state.pop(), None, "{case}");
                            if let Some(order) = &result.order {
                                let area = eval.evaluate_area(&Deployment::new(order.clone()));
                                assert!(area < incumbent - 1e-12, "{case}");
                                assert!(constraints.is_satisfied_by(order), "{case}");
                            }
                            compared += 1;
                            improved += usize::from(result.order.is_some());
                            aborted += usize::from(!result.proved);
                        }
                    }
                }
            }
            // The accessor reads the area's exact sum: after pushes and
            // pops its rounding is the area, bit for bit.
            for step in 0..4 * n {
                if step % 3 == 2 {
                    state.pop();
                } else if let Some(i) = inst.index_ids().find(|&i| !state.is_built(i)) {
                    state.push(i);
                }
                assert_eq!(state.exact_area().value().to_bits(), state.area().to_bits());
            }
        }
        // The grid reaches blocked tails, improvements and aborts.
        assert!(blocked_tails > 0, "no tail was blocked by a precedence");
        assert!(
            improved > 0 && aborted > 0,
            "{improved} improved, {aborted} aborted"
        );
        assert!(compared > 1000, "only {compared} searches compared");
    }

    #[test]
    fn stall_threshold_is_a_slice_of_the_budget() {
        use crate::budget::SearchBudget;
        // Node-limited: 1/8 of the allowance, clamped below by 4.
        assert_eq!(derived_stall_iterations(&SearchBudget::nodes(800)), 100);
        assert_eq!(derived_stall_iterations(&SearchBudget::nodes(10)), 4);
        assert_eq!(
            derived_stall_iterations(&SearchBudget::nodes(1_000_000)),
            2_000
        );
        // Time-limited: ~25 iterations/second, same 1/8 slice.
        assert_eq!(derived_stall_iterations(&SearchBudget::seconds(8.0)), 25);
        assert_eq!(derived_stall_iterations(&SearchBudget::seconds(0.1)), 4);
        // Unlimited: fixed generous fallback.
        assert_eq!(derived_stall_iterations(&SearchBudget::unlimited()), 200);
        // A bounded budget prefers the node limit (machine-independent).
        assert_eq!(
            derived_stall_iterations(&SearchBudget::bounded(100.0, 80)),
            10
        );
    }

    #[test]
    fn swap_feasibility_respects_precedences() {
        let mut b = ProblemInstance::builder("swap");
        let i0 = b.add_index(1.0);
        let i1 = b.add_index(1.0);
        let i2 = b.add_index(1.0);
        let q = b.add_query(10.0);
        b.add_plan(q, vec![i0], 1.0);
        b.add_precedence(i0, i2);
        let inst = b.build().unwrap();
        let constraints = OrderConstraints::from_instance(&inst);
        let order = vec![i0, i1, i2];
        assert!(swap_is_feasible(&constraints, &order, 1, 2)); // i1 <-> i2 fine
        assert!(!swap_is_feasible(&constraints, &order, 0, 2)); // i2 before i0: no
        assert!(swap_is_feasible(&constraints, &order, 0, 1)); // i1 before i0: fine
        assert!(swap_is_feasible(&constraints, &order, 1, 1));
    }

    #[test]
    fn shift_feasibility_respects_precedences() {
        let mut b = ProblemInstance::builder("shift");
        let i0 = b.add_index(1.0);
        let i1 = b.add_index(1.0);
        let i2 = b.add_index(1.0);
        let i3 = b.add_index(1.0);
        let q = b.add_query(10.0);
        b.add_plan(q, vec![i0], 1.0);
        b.add_precedence(i0, i2);
        let inst = b.build().unwrap();
        let constraints = OrderConstraints::from_instance(&inst);
        let order = vec![i0, i1, i2, i3];
        // Forward: i0 may slide to 1 (past i1) but not past its dependent i2.
        assert!(shift_is_feasible(&constraints, &order, 0, 1));
        assert!(!shift_is_feasible(&constraints, &order, 0, 2));
        assert!(!shift_is_feasible(&constraints, &order, 0, 3));
        // Backward: i2 may not move before its prerequisite i0; i3 may move
        // anywhere (it is unconstrained).
        assert!(shift_is_feasible(&constraints, &order, 2, 1));
        assert!(!shift_is_feasible(&constraints, &order, 2, 0));
        assert!(shift_is_feasible(&constraints, &order, 3, 0));
        assert!(shift_is_feasible(&constraints, &order, 1, 1));
        // Every feasible shift matches the brute-force relocate check.
        let eval_order = Deployment::new(order.clone());
        for from in 0..4 {
            for to in 0..4 {
                let relocated = {
                    let mut d = eval_order.clone();
                    d.relocate(from, to);
                    d
                };
                let expected = constraints.is_satisfied_by(relocated.order());
                assert_eq!(
                    shift_is_feasible(&constraints, &order, from, to),
                    expected,
                    "shift {from}->{to}"
                );
            }
        }
    }
}
