//! Tabu search over the swap neighbourhood (Section 7.1).
//!
//! Two variants are implemented, matching the paper:
//!
//! * **TS-BSwap** takes the best feasible pair swap each iteration — high
//!   quality per iteration, but scored from scratch an iteration costs
//!   `O(n²)` objective evaluations (the paper measures ~50 minutes per
//!   iteration on TPC-DS).
//! * **TS-FSwap** scans pairs in a random order and takes the first improving
//!   swap — much cheaper iterations, lower quality per iteration.
//!
//! Recently swapped indexes are *tabu* for a number of iterations (the tabu
//! length) unless the move improves on the best solution found so far
//! (aspiration).
//!
//! Both score swaps on [`DeltaEvaluator`], which walks only a swap's span
//! `[a, b]`. A best-swap scan first bounds each swap's area from below
//! ([`DeltaEvaluator::swap_bound`]: the swap's costs exactly, and after `a`
//! the runtime the base would reach with the swapped-in index added), one
//! row `b` at a time. It walks a span only when the bound, less its
//! rounding margin, does not exceed the area of the best admissible swap
//! so far, and for a tabu swap also lies below the aspiration level; so
//! every swap it skips would lose, and it picks the swap of least
//! `(area, a, b)`, which is what scoring every pair in lexicographic order
//! and keeping the first strictly smallest picks. On the TPC-DS extraction
//! it walks about 2% of the span positions a full scan walks.
//!
//! Inside a cooperative portfolio
//! ([`CooperationPolicy`](crate::solver::CooperationPolicy)) a stalled tabu
//! member re-seeds from the shared best deployment (clearing its tabu list,
//! which refers to the abandoned walk) and publishes the index pairs of
//! improving swaps as destroy-neighbourhood hints for LNS workers.

use crate::budget::{BudgetClock, SearchBudget};
use crate::constraints::OrderConstraints;
use crate::greedy::GreedySolver;
use crate::local::{swap_is_feasible, Walk};
use crate::result::SolveResult;
use crate::solver::{SolveContext, Solver};
use idd_core::{DeltaEvaluator, Deployment, IndexId, ProblemInstance};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Which swap to take each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapStrategy {
    /// Evaluate all pairs, take the best (TS-BSwap).
    Best,
    /// Take the first improving pair in a random scan (TS-FSwap).
    First,
}

/// Configuration of the tabu search.
#[derive(Debug, Clone)]
pub struct TabuConfig {
    /// Swap strategy.
    pub strategy: SwapStrategy,
    /// How many iterations a swapped index stays tabu.
    pub tabu_length: usize,
    /// Time / iteration budget.
    pub budget: SearchBudget,
    /// RNG seed (used by the first-swap scan order).
    pub seed: u64,
    /// Iterations without improvement on the member's own best before it
    /// counts as *stalled* and (under a warm-start policy) re-seeds from the
    /// shared best deployment. `None` (the default) derives a slice of the
    /// budget via [`crate::local::derived_stall_iterations`]; `Some(n)`
    /// overrides it. Ignored outside cooperative portfolio runs.
    pub stall_iterations: Option<u64>,
}

impl Default for TabuConfig {
    fn default() -> Self {
        Self {
            strategy: SwapStrategy::Best,
            tabu_length: 7,
            budget: SearchBudget::default(),
            seed: 0x7AB,
            stall_iterations: None,
        }
    }
}

/// The tabu-search solver.
#[derive(Debug, Clone)]
pub struct TabuSolver {
    config: TabuConfig,
}

impl TabuSolver {
    /// Creates a solver with the given strategy and budget.
    pub fn new(strategy: SwapStrategy, budget: SearchBudget) -> Self {
        Self {
            config: TabuConfig {
                strategy,
                budget,
                ..TabuConfig::default()
            },
        }
    }

    /// Creates a solver with an explicit configuration.
    pub fn with_config(config: TabuConfig) -> Self {
        Self { config }
    }

    /// Improves `initial` until the budget runs out.
    pub fn solve(&self, instance: &ProblemInstance, initial: Deployment) -> SolveResult {
        self.solve_in(instance, initial, &SolveContext::new())
    }

    /// [`TabuSolver::solve`] inside a shared [`SolveContext`] (cancellable,
    /// publishing incumbent improvements).
    pub fn solve_in(
        &self,
        instance: &ProblemInstance,
        initial: Deployment,
        ctx: &SolveContext,
    ) -> SolveResult {
        let walk = Walk::start(ctx, &self.config.budget, self.config.stall_iterations);
        self.search(instance, initial, walk)
    }

    fn search(
        &self,
        instance: &ProblemInstance,
        initial: Deployment,
        mut walk: Walk<'_>,
    ) -> SolveResult {
        let n = instance.num_indexes();
        let constraints = OrderConstraints::from_instance(instance);
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);

        // Scans run on the delta evaluator, whose base is the walk's current
        // position; `best_order` is its best. A best-swap scan walks a pair's
        // span, O(b - a), only when the pair's lower bound cannot rule it
        // out (`best_swap`); a first-swap scan walks pairs in random order
        // until one improves.
        let mut evaluator = DeltaEvaluator::new(instance, initial);
        let mut best_order = evaluator.base().clone();
        walk.begin(evaluator.base_area());

        // tabu_until[i] = first iteration at which index i may move again.
        let mut tabu_until = vec![0usize; n];

        while walk.next_iteration(n) {
            let iteration = walk.clock.nodes() as usize;

            // Cooperative warm-start: when stalled, restart the walk from
            // the portfolio's best deployment. The tabu list describes the
            // abandoned walk, so it is cleared alongside.
            if walk.adopt(&mut evaluator, &constraints) {
                best_order = evaluator.base().clone();
                tabu_until.fill(0);
            }

            let tabu = Tabu {
                until: &tabu_until,
                iteration,
            };
            let chosen = match self.config.strategy {
                SwapStrategy::Best => {
                    best_swap(&mut evaluator, &constraints, tabu, walk.best(), &walk.clock).0
                }
                SwapStrategy::First => first_swap(
                    &mut evaluator,
                    &constraints,
                    tabu,
                    walk.best(),
                    &walk.clock,
                    &mut rng,
                ),
            };

            let Some((a, b, area)) = chosen else {
                break; // every move tabu and none aspirates: stuck
            };
            let ia = evaluator.base().order()[a];
            let ib = evaluator.base().order()[b];
            evaluator.commit_swap(a, b);
            tabu_until[ia.raw()] = iteration + self.config.tabu_length;
            tabu_until[ib.raw()] = iteration + self.config.tabu_length;

            if area < walk.best() - 1e-12 {
                best_order = evaluator.base().clone();
                // The improving pair is a natural 2-index destroy set.
                walk.improved(area, best_order.order(), vec![ia, ib]);
            } else {
                walk.no_improvement();
            }
        }

        walk.finish(self.name(), best_order)
    }
}

/// The tabu list as one scan reads it.
#[derive(Debug, Clone, Copy)]
struct Tabu<'t> {
    /// First iteration at which each index may move again.
    until: &'t [usize],
    iteration: usize,
}

impl Tabu<'_> {
    /// `true` when the swap of `x` and `y` is tabu.
    fn forbids(&self, x: IndexId, y: IndexId) -> bool {
        self.until[x.raw()] > self.iteration || self.until[y.raw()] > self.iteration
    }
}

/// The span walks one scan made.
#[derive(Debug, Default)]
struct Walked {
    /// Swaps scored with [`DeltaEvaluator::evaluate_swap`].
    spans: u64,
    /// Positions those walks covered, `Σ (b - a + 1)`.
    positions: u64,
}

impl Walked {
    fn add(&mut self, a: usize, b: usize) {
        self.spans += 1;
        self.positions += (b - a + 1) as u64;
    }
}

/// One TS-BSwap scan: the admissible swap `(a, b)`, `a < b`, of least
/// `(area, a, b)` — the first strictly smallest area in lexicographic pair
/// order — or `None` when no swap is admissible or the clock ran out first.
/// A swap is admissible when it keeps every precedence and is not tabu, or
/// is tabu but beats `best` (aspiration).
///
/// Rows `b = 1..n` are visited with `a` from `b - 1` down to `0`. A pair
/// whose lower bound ([`DeltaEvaluator::swap_bound`] minus its margin)
/// lies strictly above the running choice's area cannot win, and neither
/// can a tabu pair whose bound is at least the aspiration level, so
/// neither is checked for feasibility or walked. The rest are walked as a
/// full scan walks them, the clock checked before each walk, so the scan
/// picks exactly the full scan's swap.
fn best_swap(
    evaluator: &mut DeltaEvaluator,
    constraints: &OrderConstraints,
    tabu: Tabu<'_>,
    best: f64,
    clock: &BudgetClock,
) -> (Option<(usize, usize, f64)>, Walked) {
    let n = evaluator.base().len();
    let margin = evaluator.swap_bound_margin();
    let aspiration = best - 1e-12;
    let mut chosen: Option<(usize, usize, f64)> = None;
    let mut walked = Walked::default();
    'rows: for b in 1..n {
        evaluator.swap_bound_row(b);
        for a in (0..b).rev() {
            let bound = evaluator.swap_bound(a, b) - margin;
            if chosen.is_some_and(|(_, _, v)| bound > v) {
                continue;
            }
            let order = evaluator.base().order();
            let is_tabu = tabu.forbids(order[a], order[b]);
            if is_tabu && bound >= aspiration {
                continue;
            }
            if clock.exhausted() {
                break 'rows;
            }
            if !swap_is_feasible(constraints, order, a, b) {
                continue;
            }
            let area = evaluator.evaluate_swap(a, b);
            walked.add(a, b);
            if is_tabu && area >= aspiration {
                continue;
            }
            if chosen.is_none_or(|(ca, cb, v)| area < v || (area == v && (a, b) < (ca, cb))) {
                chosen = Some((a, b, area));
            }
        }
    }
    (chosen, walked)
}

/// One TS-FSwap scan: every pair in a random order, taking the first swap
/// that improves on the current order, or else the best admissible one
/// seen before the clock ran out.
fn first_swap(
    evaluator: &mut DeltaEvaluator,
    constraints: &OrderConstraints,
    tabu: Tabu<'_>,
    best: f64,
    clock: &BudgetClock,
    rng: &mut ChaCha8Rng,
) -> Option<(usize, usize, f64)> {
    let n = evaluator.base().len();
    let current_area = evaluator.base_area();
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            pairs.push((a, b));
        }
    }
    pairs.shuffle(rng);

    let mut chosen: Option<(usize, usize, f64)> = None;
    for &(a, b) in &pairs {
        if clock.exhausted() {
            break;
        }
        let order = evaluator.base().order();
        if !swap_is_feasible(constraints, order, a, b) {
            continue;
        }
        let is_tabu = tabu.forbids(order[a], order[b]);
        let area = evaluator.evaluate_swap(a, b);
        // Aspiration: a tabu move is allowed if it beats the best.
        if is_tabu && area >= best - 1e-12 {
            continue;
        }
        if chosen.is_none_or(|(_, _, v)| area < v) {
            chosen = Some((a, b, area));
        }
        // Every earlier choice was not improving, so an improving swap is
        // the choice now.
        if area < current_area - 1e-12 {
            break;
        }
    }
    chosen
}

impl Solver for TabuSolver {
    fn name(&self) -> &'static str {
        match self.config.strategy {
            SwapStrategy::Best => "ts-bswap",
            SwapStrategy::First => "ts-fswap",
        }
    }

    /// Starts from the interaction-guided greedy order (the paper's setup
    /// for every local search) and improves it under `budget`; the clock
    /// starts before the greedy runs.
    fn run(
        &self,
        instance: &ProblemInstance,
        budget: SearchBudget,
        ctx: &SolveContext,
    ) -> SolveResult {
        let walk = Walk::start(ctx, &budget, self.config.stall_iterations);
        self.search(instance, GreedySolver::new().construct(instance), walk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idd_core::ObjectiveEvaluator;
    use idd_workloads::{generate_block_structured, BlockStructuredConfig};
    use std::cmp::Reverse;

    /// One swap a reference scan walked: `(a, b, area, tabu)`.
    type Probe = (usize, usize, f64, bool);

    /// The full TS-BSwap scan, the reference for [`best_swap`]: every pair
    /// in lexicographic order, every feasible one walked, a choice replaced
    /// only by a strictly smaller area. `probes` receives every walk.
    fn full_scan(
        evaluator: &mut DeltaEvaluator,
        constraints: &OrderConstraints,
        tabu: Tabu<'_>,
        best: f64,
        clock: &BudgetClock,
        probes: &mut Vec<Probe>,
    ) -> (Option<(usize, usize, f64)>, Walked) {
        let n = evaluator.base().len();
        let mut chosen: Option<(usize, usize, f64)> = None;
        let mut walked = Walked::default();
        for a in 0..n {
            for b in (a + 1)..n {
                if clock.exhausted() {
                    return (chosen, walked);
                }
                let order = evaluator.base().order();
                if !swap_is_feasible(constraints, order, a, b) {
                    continue;
                }
                let is_tabu = tabu.forbids(order[a], order[b]);
                let area = evaluator.evaluate_swap(a, b);
                walked.add(a, b);
                probes.push((a, b, area, is_tabu));
                if is_tabu && area >= best - 1e-12 {
                    continue;
                }
                if chosen.is_none_or(|(_, _, v)| area < v) {
                    chosen = Some((a, b, area));
                }
            }
        }
        (chosen, walked)
    }

    /// What a differential walk's scans reached.
    #[derive(Debug, Default)]
    struct Reached {
        scans: usize,
        /// Scans with an infeasible pair.
        infeasible: usize,
        /// Scans where two admissible swaps share the least area and the
        /// lexicographically first comes later in row order.
        ties_behind: usize,
        /// Scans where a tabu swap that cannot aspirate beats the choice.
        tabu_would_win: usize,
        /// Scans where aspiration admits a tabu swap.
        aspirated: usize,
    }

    /// Walks `iterations` best-swap iterations from `start` the way
    /// `TabuSolver::search` does, running both scans on every base with the
    /// same tabu list, best and iteration and committing the reference's
    /// choice. Asserts that the bounded scan picks the reference's swap and
    /// area bits (or none when it finds none) and returns the span work of
    /// the bounded and the full scans.
    fn differential_walk(
        instance: &ProblemInstance,
        start: Deployment,
        iterations: usize,
        tabu_length: usize,
        reached: &mut Reached,
    ) -> (Walked, Walked) {
        let n = instance.num_indexes();
        let constraints = OrderConstraints::from_instance(instance);
        let clock = SearchBudget::unlimited().start();
        let mut evaluator = DeltaEvaluator::new(instance, start);
        let mut tabu_until = vec![0usize; n];
        let mut best = evaluator.base_area();
        let (mut bounded, mut full) = (Walked::default(), Walked::default());
        for iteration in 1..=iterations {
            let tabu = Tabu {
                until: &tabu_until,
                iteration,
            };
            let mut probes = Vec::new();
            let (want, full_work) = full_scan(
                &mut evaluator,
                &constraints,
                tabu,
                best,
                &clock,
                &mut probes,
            );
            let (got, work) = best_swap(&mut evaluator, &constraints, tabu, best, &clock);
            let bits = |c: Option<(usize, usize, f64)>| c.map(|(a, b, v)| (a, b, v.to_bits()));
            assert_eq!(
                bits(got),
                bits(want),
                "{} iteration {iteration}: bounded scan disagrees on {:?}",
                instance.name(),
                evaluator.base().order()
            );
            assert!(work.positions <= full_work.positions);
            bounded.spans += work.spans;
            bounded.positions += work.positions;
            full.spans += full_work.spans;
            full.positions += full_work.positions;

            reached.scans += 1;
            if (full_work.spans as usize) < n * (n - 1) / 2 {
                reached.infeasible += 1;
            }
            let admitted = |&&(_, _, area, is_tabu): &&Probe| !is_tabu || area < best - 1e-12;
            if probes.iter().any(|p| p.3 && p.2 < best - 1e-12) {
                reached.aspirated += 1;
            }
            let Some((a, b, area)) = want else {
                break;
            };
            if probes
                .iter()
                .any(|p| p.3 && p.2 >= best - 1e-12 && p.2 < area)
            {
                reached.tabu_would_win += 1;
            }
            let row_key = |a: usize, b: usize| (b, Reverse(a));
            if probes
                .iter()
                .filter(admitted)
                .any(|p| p.2 == area && row_key(p.0, p.1) < row_key(a, b))
            {
                reached.ties_behind += 1;
            }

            let (ia, ib) = (evaluator.base().at(a), evaluator.base().at(b));
            evaluator.commit_swap(a, b);
            tabu_until[ia.raw()] = iteration + tabu_length;
            tabu_until[ib.raw()] = iteration + tabu_length;
            best = best.min(area);
        }
        (bounded, full)
    }

    /// A seeded instance with single- and multi-index plans, several
    /// helpers per target and, when `precedences` is set, hard precedences
    /// that make some swaps infeasible. `integer` draws every value from a
    /// few small integers, so many swaps share an area.
    fn scan_instance(seed: u64, n: usize, precedences: bool, integer: bool) -> ProblemInstance {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut draw = |lo: f64, hi: f64| {
            let v = rng.gen_range(lo..hi);
            if integer {
                v.floor()
            } else {
                v
            }
        };
        let mut b = ProblemInstance::builder(format!("scan-{seed}-{n}-{precedences}-{integer}"));
        let costs: Vec<f64> = (0..n).map(|_| draw(1.0, 4.0)).collect();
        let idx: Vec<IndexId> = costs.iter().map(|&c| b.add_index(c)).collect();
        for q in 0..n {
            let runtime = draw(6.0, 10.0);
            let qid = b.add_query(runtime);
            let (x, y, z) = (idx[(q * 3) % n], idx[(q * 5 + 1) % n], idx[(q * 7 + 2) % n]);
            b.add_plan(qid, vec![x], draw(0.0, 2.0));
            if y != x {
                b.add_plan(qid, vec![x, y], draw(1.0, 4.0));
                if z != x && z != y {
                    b.add_plan(qid, vec![x, y, z], draw(2.0, 5.0));
                }
            }
        }
        for k in 0..n {
            for helper in [(k + 1) % n, (k + n / 2) % n] {
                let saving = draw(0.0, costs[k] + 1.0).min(costs[k]);
                b.add_build_interaction(idx[k], idx[helper], saving);
            }
        }
        if precedences {
            b.add_precedence(idx[0], idx[n / 2]);
            b.add_precedence(idx[2], idx[1]);
            b.add_precedence(idx[n - 1], idx[3]);
        }
        b.build().expect("scan instance is consistent")
    }

    #[test]
    fn bounded_scan_picks_the_full_scans_swap() {
        let mut reached = Reached::default();
        for seed in 0..4 {
            for (n, precedences, integer) in [
                (9, false, false),
                (12, true, false),
                (8, false, true),
                (11, true, true),
            ] {
                let inst = scan_instance(seed, n, precedences, integer);
                for tabu_length in [2, 5] {
                    let greedy = GreedySolver::new().construct(&inst);
                    differential_walk(&inst, greedy, 12, tabu_length, &mut reached);
                    // A worse start makes the walk descend, where tabu
                    // swaps aspirate.
                    let start = Deployment::identity(n);
                    if start.is_valid_for(&inst) {
                        differential_walk(&inst, start, 12, tabu_length, &mut reached);
                    }
                }
            }
        }
        eprintln!("{reached:?}");
        assert!(reached.infeasible > 0, "{reached:?}");
        assert!(reached.ties_behind > 0, "{reached:?}");
        assert!(reached.tabu_would_win > 0, "{reached:?}");
        assert!(reached.aspirated > 0, "{reached:?}");
    }

    #[test]
    fn bounded_scans_walk_a_small_share_of_the_spans() {
        // One shard race's member: a 32-index block, greedy start, the
        // default tabu length, 19 scans.
        let inst = generate_block_structured(BlockStructuredConfig::blocks(1, 32, 0, 42));
        let greedy = GreedySolver::new().construct(&inst);
        let (bounded, full) = differential_walk(&inst, greedy, 19, 7, &mut Reached::default());
        let share = bounded.positions as f64 / full.positions as f64;
        eprintln!("{bounded:?} of {full:?}: {share}");
        assert!(
            share <= 0.25,
            "bounded scans walked {share} of the positions"
        );
    }

    fn instance() -> ProblemInstance {
        let mut b = ProblemInstance::builder("tabu");
        let i: Vec<IndexId> = (0..8)
            .map(|k| b.add_index(2.0 + (k % 4) as f64 * 3.0))
            .collect();
        for q in 0..6 {
            let qid = b.add_query(50.0 + q as f64 * 15.0);
            b.add_plan(qid, vec![i[q % 8]], 8.0);
            b.add_plan(qid, vec![i[q % 8], i[(q + 3) % 8]], 22.0);
        }
        b.add_build_interaction(i[1], i[2], 1.5);
        b.add_build_interaction(i[5], i[4], 2.0);
        b.build().unwrap()
    }

    #[test]
    fn both_strategies_never_worsen_the_initial_solution() {
        let inst = instance();
        let eval = ObjectiveEvaluator::new(&inst);
        let initial = Deployment::identity(inst.num_indexes());
        let initial_area = eval.evaluate_area(&initial);
        for strategy in [SwapStrategy::Best, SwapStrategy::First] {
            let result =
                TabuSolver::new(strategy, SearchBudget::nodes(50)).solve(&inst, initial.clone());
            assert!(result.objective <= initial_area + 1e-9);
            let d = result.deployment.unwrap();
            assert!(d.is_valid_for(&inst));
            assert_eq!(eval.evaluate_area(&d), result.objective);
        }
    }

    #[test]
    fn improves_a_greedy_start_or_keeps_it() {
        let inst = instance();
        let greedy = GreedySolver::new().construct(&inst);
        let eval = ObjectiveEvaluator::new(&inst);
        let greedy_area = eval.evaluate_area(&greedy);
        let result =
            TabuSolver::new(SwapStrategy::Best, SearchBudget::nodes(100)).solve(&inst, greedy);
        assert!(result.objective <= greedy_area + 1e-9);
        assert!(!result.trajectory.is_empty());
    }

    #[test]
    fn respects_precedence_constraints() {
        let mut b = ProblemInstance::builder("tabu-prec");
        let i0 = b.add_index(8.0);
        let i1 = b.add_index(1.0);
        let i2 = b.add_index(2.0);
        let q = b.add_query(40.0);
        b.add_plan(q, vec![i1], 30.0);
        b.add_plan(q, vec![i2], 10.0);
        b.add_precedence(i0, i1);
        let inst = b.build().unwrap();
        let initial = Deployment::from_raw([0, 1, 2]);
        let result =
            TabuSolver::new(SwapStrategy::Best, SearchBudget::nodes(30)).solve(&inst, initial);
        assert!(result.deployment.unwrap().is_valid_for(&inst));
    }

    #[test]
    fn first_swap_is_deterministic_for_a_seed() {
        let inst = instance();
        let initial = Deployment::identity(inst.num_indexes());
        let run = |seed| {
            TabuSolver::with_config(TabuConfig {
                strategy: SwapStrategy::First,
                seed,
                budget: SearchBudget::nodes(40),
                ..TabuConfig::default()
            })
            .solve(&inst, initial.clone())
            .objective
        };
        assert_eq!(run(1), run(1));
    }
}
