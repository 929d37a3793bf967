//! Objective evaluation: the area under the improvement curve.
//!
//! The objective of the paper (Section 4.1) is
//!
//! ```text
//! minimize  Σ_i  R_{i-1} · C_i
//! ```
//!
//! where `R_{i-1}` is the total (weighted) workload runtime after the first
//! `i-1` indexes of the deployment order have been built and `C_i` is the
//! effective cost of building the i-th index, i.e. its base creation cost
//! minus the best build interaction among already-built indexes.
//!
//! Three evaluators are provided, all on one step (the private `EvalState`
//! and its push):
//!
//! * [`ObjectiveEvaluator`] — evaluates a [`Deployment`] from scratch in
//!   `O(Σ_p |p| + |Q| + |I|·avg_helpers)` time and optionally produces the
//!   full per-step trace used by reports and Figure 13.
//! * [`PrefixState`] — a prefix that grows by one index and shrinks by
//!   undoing the latest push, each in `O(plans using the index + helpers)`:
//!   the state under every search (the greedy, CP and the reinsertion of
//!   LNS/VNS, A*, MIP, the DP merge, the lower bound and the tail step) and
//!   the completed set of a k-slot schedule (`SlotSchedule`, hence the
//!   deploy runtime and its replay). Its runtime and area read the same bits
//!   as [`ObjectiveEvaluator::evaluate`].
//! * [`DeltaEvaluator`] — the local-search hot path: scores a swap or a
//!   shift of a *base* order, which rewrites the span `[a, b)`, in
//!   `O(b - a)` — `O(1)` for an adjacent swap — over the struct-of-arrays
//!   `SoaView` layout, *bit-identical* to re-running
//!   [`ObjectiveEvaluator::evaluate`]. Any other order is adopted whole with
//!   [`DeltaEvaluator::set_base`]. It also bounds every swap's area from
//!   below without walking its span ([`DeltaEvaluator::swap_bound`], one
//!   row of pairs at a time), so a best-swap scan walks only the swaps the
//!   bound cannot rule out.
//!
//! The tests compare every incremental value with
//! [`ObjectiveEvaluator::evaluate`] of the same order, bit for bit.
//!
//! # Order-canonical arithmetic
//!
//! The objective is a sum of products; under naive left-to-right `f64`
//! accumulation its low bits depend on the order the terms are added in,
//! which makes a bit-for-bit `O(1)` move delta impossible (a swap perturbs
//! every later partial sum's rounding). All evaluators therefore accumulate
//! the area — and the workload-runtime level `R = R_∅ − Σ_q best_q` — in an
//! [`ExactSum`] and round **once** when a value is read. That makes both
//! quantities pure functions of the *set* of built indexes, so terms outside
//! a rewritten span are bitwise unchanged and a span-local delta reproduces
//! the from-scratch value exactly. The per-step trace ([`StepMetrics`]) and
//! the deployment clock keep their plain-`f64` semantics.

use crate::accsum::ExactSum;
use crate::instance::ProblemInstance;
use crate::matrix::SoaView;
use crate::solution::Deployment;
use crate::types::{IndexId, PlanId, QueryId};
use serde::{Deserialize, Serialize};

/// Per-step metrics of a deployment, used for reports and Figure 13.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepMetrics {
    /// The index built at this step.
    pub index: IndexId,
    /// Effective build cost of this step (after build interactions).
    pub build_cost: f64,
    /// Workload runtime while this index was being built (`R_{i-1}`).
    pub runtime_before: f64,
    /// Workload runtime once this index is available (`R_i`).
    pub runtime_after: f64,
    /// Deployment clock when this step started.
    pub elapsed_start: f64,
    /// Deployment clock when this step finished.
    pub elapsed_end: f64,
}

/// The value of the objective for one deployment order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectiveValue {
    /// `Σ R_{i-1}·C_i`: the area under the improvement curve.
    pub area: f64,
    /// Total deployment time `Σ C_i` (with build interactions applied).
    pub deployment_time: f64,
    /// Workload runtime before any index exists (`R_∅`).
    pub baseline_runtime: f64,
    /// Workload runtime once every index exists.
    pub final_runtime: f64,
    /// Sum of base creation costs (no interactions) — the denominator of
    /// [`ObjectiveValue::normalized`] together with `baseline_runtime`.
    pub base_build_cost: f64,
    /// Per-step details, in deployment order. Empty when produced by the
    /// area-only fast path.
    pub steps: Vec<StepMetrics>,
}

impl ObjectiveValue {
    /// The objective scaled to a 0–100 range:
    /// `100 · area / (R_∅ · Σ ctime(i))`.
    ///
    /// The denominator is the "worst-case rectangle" — deploying with no
    /// build interaction exploited and no query speed-up until the very end.
    /// The paper's Table 7 and Figures 11/12 report objective values on a
    /// comparable normalized scale (TPC-H ≈ 44–66, TPC-DS ≈ 60–75).
    pub fn normalized(&self) -> f64 {
        let denom = self.baseline_runtime * self.base_build_cost;
        if denom <= 0.0 {
            0.0
        } else {
            100.0 * self.area / denom
        }
    }

    /// Average workload runtime over the deployment window, weighted by how
    /// long each runtime level lasted (`area / deployment_time`). This is the
    /// "Average Query Runtime" series of Figure 13 up to a `1/|Q|` factor.
    pub fn average_runtime_during_deployment(&self) -> f64 {
        if self.deployment_time <= 0.0 {
            self.baseline_runtime
        } else {
            self.area / self.deployment_time
        }
    }
}

/// Mutable evaluation state rolled forward one deployment step at a time.
#[derive(Debug)]
struct EvalState {
    /// Bitmap of already-built indexes, keyed by raw index id.
    built: Vec<bool>,
    /// For each plan, how many of its indexes are still missing.
    missing: Vec<u32>,
    /// For each query, the best speed-up among currently available plans.
    best_speedup: Vec<f64>,
    /// Current total workload runtime (`R` after the built prefix): the
    /// canonical rounding of `runtime_acc`, refreshed whenever a best
    /// speed-up improves.
    runtime: f64,
    /// Exact `R_∅ − Σ_q best_q`.
    runtime_acc: ExactSum,
    /// Exact accumulated objective area (`Σ R·C` terms, unrounded).
    area_acc: ExactSum,
}

impl EvalState {
    fn initial(eval: &ObjectiveEvaluator<'_>) -> Self {
        let mut runtime_acc = ExactSum::new();
        runtime_acc.add(eval.baseline_runtime);
        EvalState {
            built: vec![false; eval.instance.num_indexes()],
            missing: eval.plan_width.clone(),
            best_speedup: vec![0.0; eval.instance.num_queries()],
            runtime: eval.baseline_runtime,
            runtime_acc,
            area_acc: ExactSum::new(),
        }
    }

    /// The canonical (exactly rounded) objective area so far.
    fn area(&self) -> f64 {
        self.area_acc.value()
    }
}

/// Evaluates deployment orders against one [`ProblemInstance`].
///
/// The evaluator borrows the instance and precomputes flat arrays (plan
/// widths, weighted speed-ups, plan→query mapping) so the per-step work is a
/// handful of cache-friendly vector scans.
#[derive(Debug, Clone)]
pub struct ObjectiveEvaluator<'a> {
    instance: &'a ProblemInstance,
    /// Plan width (number of indexes) per plan.
    plan_width: Vec<u32>,
    /// Weighted speed-up per plan.
    plan_speedup: Vec<f64>,
    /// Owning query (raw id) per plan.
    plan_query: Vec<usize>,
    /// `R_∅`.
    baseline_runtime: f64,
    /// `Σ ctime(i)`.
    base_build_cost: f64,
}

impl<'a> ObjectiveEvaluator<'a> {
    /// Creates an evaluator for the given instance.
    pub fn new(instance: &'a ProblemInstance) -> Self {
        let plan_width = instance.plans().iter().map(|p| p.width() as u32).collect();
        let plan_speedup = instance
            .plan_ids()
            .map(|p| instance.plan_speedup(p))
            .collect();
        let plan_query = instance.plans().iter().map(|p| p.query.raw()).collect();
        Self {
            instance,
            plan_width,
            plan_speedup,
            plan_query,
            baseline_runtime: instance.baseline_runtime(),
            base_build_cost: instance.total_base_build_cost(),
        }
    }

    /// `R_∅`: total workload runtime with no candidate index built.
    pub fn baseline_runtime(&self) -> f64 {
        self.baseline_runtime
    }

    /// Builds `index` on top of `state` and returns its effective build
    /// cost: the one step behind [`ObjectiveEvaluator::evaluate`] and
    /// [`PrefixState::push`]. The index is priced against the built set,
    /// marked built, and the runtime drops by its newly available plans;
    /// `raised` receives `(query, previous best speed-up)` for every best
    /// speed-up the step raises, the undo record a pop needs.
    fn push(
        &self,
        state: &mut EvalState,
        index: IndexId,
        mut raised: Option<&mut Vec<(usize, f64)>>,
    ) -> f64 {
        let build_cost = self.instance.effective_build_cost(index, &state.built);
        state.area_acc.add_prod(state.runtime, build_cost);
        state.built[index.raw()] = true;
        // Newly available plans can only improve each query's best speed-up.
        let mut changed = false;
        for &pid in self.instance.plans_using_index(index) {
            let p = pid.raw();
            state.missing[p] -= 1;
            if state.missing[p] == 0 {
                let q = self.plan_query[p];
                let s = self.plan_speedup[p];
                if s > state.best_speedup[q] {
                    if let Some(raised) = raised.as_deref_mut() {
                        raised.push((q, state.best_speedup[q]));
                    }
                    state.runtime_acc.add(state.best_speedup[q]);
                    state.runtime_acc.sub(s);
                    state.best_speedup[q] = s;
                    changed = true;
                }
            }
        }
        if changed {
            // One canonical rounding per completed step: the runtime level
            // is a pure function of the built *set*, which is what lets the
            // delta evaluator splice spans bit-for-bit.
            state.runtime = state.runtime_acc.value();
        }
        build_cost
    }

    /// Evaluates a deployment and returns the full per-step trace.
    ///
    /// The deployment is assumed to be a permutation (checked in debug
    /// builds); call [`Deployment::validate`] first if it comes from an
    /// untrusted source.
    pub fn evaluate(&self, deployment: &Deployment) -> ObjectiveValue {
        debug_assert!(deployment.validate(self.instance).is_ok());
        let mut state = EvalState::initial(self);
        let mut elapsed = 0.0;
        let mut steps = Vec::with_capacity(deployment.len());
        for (_, index) in deployment.iter() {
            let runtime_before = state.runtime;
            let elapsed_start = elapsed;
            let build_cost = self.push(&mut state, index, None);
            elapsed += build_cost;
            steps.push(StepMetrics {
                index,
                build_cost,
                runtime_before,
                runtime_after: state.runtime,
                elapsed_start,
                elapsed_end: elapsed,
            });
        }
        ObjectiveValue {
            area: state.area(),
            deployment_time: elapsed,
            baseline_runtime: self.baseline_runtime,
            final_runtime: state.runtime,
            base_build_cost: self.base_build_cost,
            steps,
        }
    }

    /// Evaluates only the objective area of a deployment (no step trace).
    pub fn evaluate_area(&self, deployment: &Deployment) -> f64 {
        let mut state = EvalState::initial(self);
        for (_, index) in deployment.iter() {
            self.push(&mut state, index, None);
        }
        state.area()
    }

    /// Starts an empty [`PrefixState`] over this evaluator.
    pub fn prefix_state(&self) -> PrefixState<'_> {
        PrefixState {
            state: EvalState::initial(self),
            evaluator: self,
            frames: Vec::new(),
            raised: Vec::new(),
        }
    }
}

/// A deployment prefix under search: [`PrefixState::push`] appends an
/// index and [`PrefixState::pop`] undoes the latest push, each in
/// `O(plans using the index + its helpers)`.
///
/// The runtime level and the area come from the same exact accumulators
/// and the same step as [`ObjectiveEvaluator::evaluate`], so after any
/// sequence of pushes and pops they read bit-for-bit what `evaluate` reads
/// for the prefix. A pop subtracts the terms its push added and restores
/// the best speed-ups it raised from a stack that is reused, so no push or
/// pop allocates once the stack has grown to the search depth.
///
/// It also holds the completed set of a k-slot
/// [`SlotSchedule`](crate::SlotSchedule): a build is priced with
/// [`PrefixState::build_cost`] at dispatch and pushed at completion, so the
/// runtime only ever reflects completed indexes.
#[derive(Debug)]
pub struct PrefixState<'a> {
    evaluator: &'a ObjectiveEvaluator<'a>,
    state: EvalState,
    /// One undo record per pushed index, latest last.
    frames: Vec<Frame>,
    /// `(query, previous best speed-up)` for every best speed-up a push
    /// raised; each frame owns the entries from its `raised_from` on.
    raised: Vec<(usize, f64)>,
}

/// What [`PrefixState::pop`] needs to undo one push.
#[derive(Debug, Clone, Copy)]
struct Frame {
    index: IndexId,
    build_cost: f64,
    runtime_before: f64,
    raised_from: usize,
}

impl PrefixState<'_> {
    /// Appends `index`, which must not be in the prefix yet.
    pub fn push(&mut self, index: IndexId) {
        debug_assert!(!self.state.built[index.raw()], "{index} pushed twice");
        let runtime_before = self.state.runtime;
        let raised_from = self.raised.len();
        let build_cost = self
            .evaluator
            .push(&mut self.state, index, Some(&mut self.raised));
        self.frames.push(Frame {
            index,
            build_cost,
            runtime_before,
            raised_from,
        });
    }

    /// Removes the latest pushed index and returns it (`None` when the
    /// prefix is empty).
    pub fn pop(&mut self) -> Option<IndexId> {
        let frame = self.frames.pop()?;
        let state = &mut self.state;
        for (q, previous) in self.raised.drain(frame.raised_from..).rev() {
            state.runtime_acc.sub(previous);
            state.runtime_acc.add(state.best_speedup[q]);
            state.best_speedup[q] = previous;
        }
        for &pid in self.evaluator.instance.plans_using_index(frame.index) {
            state.missing[pid.raw()] += 1;
        }
        state.built[frame.index.raw()] = false;
        state
            .area_acc
            .sub_prod(frame.runtime_before, frame.build_cost);
        state.runtime = frame.runtime_before;
        Some(frame.index)
    }

    /// Workload runtime once the prefix is built (`R_∅` when empty).
    pub fn runtime(&self) -> f64 {
        self.state.runtime
    }

    /// Objective area of the prefix (canonically rounded).
    pub fn area(&self) -> f64 {
        self.state.area()
    }

    /// The prefix's exact area, unrounded: [`PrefixState::area`] is its
    /// [`ExactSum::value`]. A caller that knows the terms of a completion
    /// can add them to a copy and read the completed area without pushing.
    pub fn exact_area(&self) -> &ExactSum {
        &self.state.area_acc
    }

    /// Effective build cost `index` would have next.
    pub fn build_cost(&self, index: IndexId) -> f64 {
        self.evaluator
            .instance
            .effective_build_cost(index, &self.state.built)
    }

    /// Bitmap of the indexes in the prefix, keyed by raw index id.
    pub fn built(&self) -> &[bool] {
        &self.state.built
    }

    /// `true` when `index` is in the prefix.
    pub fn is_built(&self, index: IndexId) -> bool {
        self.state.built[index.raw()]
    }

    /// The best speed-up `query` gets from a plan the prefix completes
    /// (`0.0` when none).
    pub fn best_speedup(&self, query: QueryId) -> f64 {
        self.state.best_speedup[query.raw()]
    }

    /// How many of `plan`'s indexes are not in the prefix yet.
    pub fn missing(&self, plan: PlanId) -> usize {
        self.state.missing[plan.raw()] as usize
    }

    /// `true` when every index of the instance is in the prefix.
    pub fn is_complete(&self) -> bool {
        self.frames.len() == self.state.built.len()
    }
}

/// The move being scored by [`DeltaEvaluator::span_walk`]: how to read the
/// *new* element at an absolute position inside the rewritten span.
enum SpanMove {
    /// Positions `lo` and `hi` exchange elements; everything between keeps
    /// its element (but not necessarily its cost / runtime level).
    Swap { lo: usize, hi: usize },
    /// The element at `from` relocates to `to`
    /// ([`Deployment::relocate`] semantics: remove, then insert).
    Shift { from: usize, to: usize },
}

impl SpanMove {
    /// The new element at absolute position `p` (which must lie inside the
    /// rewritten span).
    #[inline]
    fn elem(&self, base: &Deployment, p: usize) -> usize {
        match *self {
            SpanMove::Swap { lo, hi } => {
                if p == lo {
                    base.at(hi).raw()
                } else if p == hi {
                    base.at(lo).raw()
                } else {
                    base.at(p).raw()
                }
            }
            SpanMove::Shift { from, to } => {
                if p == to {
                    base.at(from).raw()
                } else if from < to {
                    base.at(p + 1).raw() // left rotation of (from, to]
                } else {
                    base.at(p - 1).raw() // right rotation of [to, from)
                }
            }
        }
    }
}

/// Delta evaluator: scores the swaps and shifts of the local searches
/// against a base order in `O(span)` — `O(1)` for adjacent swaps —
/// bit-identical to [`ObjectiveEvaluator::evaluate`] on the moved order.
///
/// # How
///
/// For the base order it stores, per position `p`: the effective build cost
/// `C_p`, the canonical runtime level `R_p` after `p` builds, and the exact
/// runtime accumulator behind `R_p`. Because both are pure functions of the
/// built *set* (see the module docs), a move that rewrites positions
/// `[a, b)` leaves every `R_{p}·C_p` term outside the span bitwise
/// unchanged. The evaluator therefore:
///
/// 1. copies the exact area accumulator and subtracts the span's old terms,
/// 2. walks the span's *new* ordering — re-pricing each build against the
///    prefix set via the `SoaView` adjacency arrays and re-deriving
///    runtime drops with lazily-initialized, generation-stamped scratch
///    state (no `O(n)` clearing between moves),
/// 3. rounds the patched accumulator once.
///
/// Step 2 walks exactly the positions in `[a, b)`: an adjacent swap touches
/// two, a shift only the rotated window. Committing a move additionally
/// writes the walked positions' costs/runtimes back and updates plan
/// completion positions — positions `≥ b` are never touched. Any other
/// order, such as a cooperative warm start that a search adopts, replaces
/// the base through [`DeltaEvaluator::set_base`] in one `O(n · degree)`
/// pass.
///
/// # Swap lower bounds
///
/// [`DeltaEvaluator::swap_bound`] bounds the area of the swap `(a, b)`,
/// `a < b`, from below without walking its span. Write `x` and `y` for the
/// indexes at `a` and `b`, `S_p` for the base's first `p` indexes, and
/// `R_p`, `C_p` for the stored runtime level and cost at `p`. The swap
/// keeps every term outside `[a, b]`; inside it:
///
/// * the runtime level at `a` is `R_a`, and at `p ∈ (a, b]` it is
///   `R(S_p \ {x} ∪ {y}) ≥ R(S_p ∪ {y}) = D_y(p)`, because a runtime level
///   never rises when an index is added to the built set;
/// * every cost is exact: `y` priced against `S_a` at `a`, `x` against
///   `S_{b+1} \ {x}` at `b`, and between them the base costs, except where
///   `y` helps (cheaper) or `x` helped (dearer), re-priced against
///   `S_p \ {x} ∪ {y}`.
///
/// So the area is at least
/// `area − Σ_{p=a..b} R_p·C_p + R_a·C'_a + Σ_{a<p≤b} m_p·C'_p`, with
/// `m_p = D_y(p)`. A cost can be slightly negative — the builder admits a
/// saving up to `1e-9` above its target's creation cost — and then
/// `R'·C' ≥ D·C'` fails, so such a term takes the upper level `m_p = R_∅`
/// instead.
///
/// `D_y(p) = R_p − Σ_{q ∈ Q(y)} max(0, best⁺_q(p) − best_q(p))`, where
/// `Q(y)` are the queries with a plan holding `y`, `best_q(p)` is `q`'s
/// best speed-up with `S_p` built and `best⁺_q(p)` the best of `q`'s plans
/// holding `y` whose other indexes lie in `S_p`. Both are step functions of
/// `p`: [`DeltaEvaluator::swap_bound_row`] merges, per query of `y`, the
/// steps of `best_q` (derived once per base from the plans' completion
/// positions) with the positions of `y`'s plan partners, so a row costs
/// `O(b + Σ_{q ∈ Q(y)} |plans(q)|)`. The old terms come from prefix sums of
/// `R_p·C_p`, each summed exactly and rounded once per base; a pair then
/// costs `O(helpers of x and y + helpers of x's targets in the span)`.
///
/// # The margin
///
/// The bound is computed in plain `f64`. Let `u = 2⁻⁵³`, `R̄` bound every
/// runtime level and every gain sum (`max(R_∅, Σ_q max plan speed-up)`),
/// `C̄ = Σ_i max(ctime(i), best saving(i) − ctime(i))` bound `Σ_p |C_p|` for
/// every order, and `U = R̄·C̄` (normally `R_∅·Σ ctime`), which bounds every
/// order's area and every partial sum below. One bound rounds:
///
/// * the base area, two prefix sums, their difference, `R_a·C'_a` and the
///   four operations that combine the parts (each result at most `3·U`):
///   at most `16·u·U`;
/// * each `D_y(p)`: `R_p` itself (`u·R̄`), at most three operations per
///   step event (`≤ |plans|` events per row) and one per position in the
///   running gain sum, and the final subtraction, each off by at most
///   `2·u·R̄`; weighted by `Σ|C'_p| ≤ C̄`, plus the rounding between
///   `R(S'_p)` and the level the walk reads, at most
///   `(6·|plans| + 2·n + 8)·u·U`;
/// * the products and the at most `3·n` additions of the span's new terms
///   (each partial sum at most `2·U`): at most `(6·n + 3)·u·U`;
/// * and the walk's own area is one rounding of the exact area (`u·U`).
///
/// These sum to less than `(6·|plans| + 8·n + 32)·u·U`; the margin,
/// [`DeltaEvaluator::swap_bound_margin`], doubles it for second-order terms,
/// and is never zero. Subtracted from the bound it never exceeds
/// [`DeltaEvaluator::evaluate_swap`]. On integer-valued instances below
/// `2⁵³` every operation is exact and so is the bound.
#[derive(Debug, Clone)]
pub struct DeltaEvaluator {
    /// `R_∅`.
    baseline_runtime: f64,
    soa: SoaView,
    base: Deployment,
    /// Base position of each index (inverse permutation).
    positions: Vec<u32>,
    /// Effective build cost of the step at each position.
    cost_at: Vec<f64>,
    /// Canonical runtime level after `p` builds (`runtime_at[0] = R_∅`).
    runtime_at: Vec<f64>,
    /// Exact accumulator behind each `runtime_at` entry.
    runtime_accs: Vec<ExactSum>,
    /// Per plan: number of builds after which it completes (1-based).
    complete_at: Vec<u32>,
    /// Exact area of the base order.
    area_acc: ExactSum,
    /// Canonical rounding of `area_acc`.
    area: f64,
    // Generation-stamped scratch (lazily re-initialized per walk).
    stamp: u64,
    new_pos: Vec<u32>,
    new_pos_stamp: Vec<u64>,
    scratch_missing: Vec<u32>,
    missing_stamp: Vec<u64>,
    scratch_best: Vec<f64>,
    best_stamp: Vec<u64>,
    scratch_area: ExactSum,
    scratch_runtime: ExactSum,
    bounds: SwapBounds,
}

/// The swap lower bounds' state: tables derived once per base, and the
/// current row.
#[derive(Debug, Clone)]
struct SwapBounds {
    /// The per-base tables below match the base (cleared by every commit
    /// and `set_base`).
    fresh: bool,
    /// The row the per-row arrays hold (`usize::MAX` when none does).
    row: usize,
    /// See [`DeltaEvaluator::swap_bound_margin`].
    margin: f64,
    /// `prefix_area[k] = Σ_{p<k} R_p·C_p`, summed exactly, rounded once.
    prefix_area: Vec<f64>,
    /// Per query, in its `SoaView::query_slots`: the numbers of builds at
    /// which its best speed-up over the base order rises, and the new best;
    /// the first `steps_len[q]` slots are used.
    step_at: Vec<u32>,
    step_best: Vec<f64>,
    steps_len: Vec<u32>,
    /// Scratch for sorting one query's plans by completion.
    completions: Vec<(u32, f64)>,
    /// The row's `(query, t, speed-up)` for each plan of `y` whose other
    /// indexes are the first `t` builds or fewer, `t ≤ row`.
    partners: Vec<(u32, u32, f64)>,
    /// Changes, by position, of the gain `y` adds to the runtime level.
    gain_diff: Vec<f64>,
    /// `D_y(p)`, for `p ≤ row`.
    runtime_lb: Vec<f64>,
    /// The base cost at `p < row`, re-priced with `y` built.
    cost_with_y: Vec<f64>,
    /// `tail[a]`: the lower bound of the new terms at `p ∈ (a, row)`, before
    /// re-pricing the targets of the index at `a`.
    tail: Vec<f64>,
}

impl SwapBounds {
    /// Marks the tables and the row stale after the base changed.
    fn base_changed(&mut self) {
        self.fresh = false;
        self.row = usize::MAX;
    }
}

/// A lower bound on the term `R'·cost` for a runtime level `R'` with
/// `runtime_lb ≤ R' ≤ R_∅`: the lower level for a non-negative cost, the
/// upper one for a (slightly) negative one.
#[inline]
fn lower_term(runtime_lb: f64, baseline: f64, cost: f64) -> f64 {
    if cost >= 0.0 {
        runtime_lb * cost
    } else {
        baseline * cost
    }
}

impl DeltaEvaluator {
    /// Creates a delta evaluator over `base`.
    pub fn new(instance: &ProblemInstance, base: Deployment) -> Self {
        let soa = SoaView::new(instance);
        let n = instance.num_indexes();
        let np = soa.num_plans();
        let nq = soa.num_queries();
        let baseline_runtime = instance.baseline_runtime();
        // The margin of the swap bounds (see the type's docs): `U = R̄·C̄`.
        let gains: f64 = (0..nq)
            .map(|q| {
                soa.plans_of_query(q)
                    .iter()
                    .map(|&p| soa.speedup(p as usize))
                    .fold(0.0, f64::max)
            })
            .sum();
        let costs: f64 = (0..n)
            .map(|i| {
                let ctime = soa.creation_cost(i);
                let saving = soa.helpers(i).1.iter().copied().fold(0.0, f64::max);
                ctime.max(saving - ctime)
            })
            .sum();
        let ops = (6 * np + 8 * n + 32) as f64;
        let margin =
            (ops * f64::EPSILON * baseline_runtime.max(gains) * costs).max(f64::MIN_POSITIVE);
        let mut de = Self {
            baseline_runtime,
            soa,
            base: Deployment::new(Vec::new()),
            positions: vec![0; n],
            cost_at: vec![0.0; n],
            runtime_at: vec![0.0; n + 1],
            runtime_accs: vec![ExactSum::new(); n + 1],
            complete_at: vec![u32::MAX; np],
            area_acc: ExactSum::new(),
            area: 0.0,
            stamp: 0,
            new_pos: vec![0; n],
            new_pos_stamp: vec![0; n],
            scratch_missing: vec![0; np],
            missing_stamp: vec![0; np],
            scratch_best: vec![0.0; nq],
            best_stamp: vec![0; nq],
            scratch_area: ExactSum::new(),
            scratch_runtime: ExactSum::new(),
            bounds: SwapBounds {
                fresh: false,
                row: usize::MAX,
                margin,
                prefix_area: vec![0.0; n + 1],
                step_at: vec![0; np],
                step_best: vec![0.0; np],
                steps_len: vec![0; nq],
                completions: Vec::new(),
                partners: Vec::new(),
                gain_diff: vec![0.0; n],
                runtime_lb: vec![0.0; n],
                cost_with_y: vec![0.0; n],
                tail: vec![0.0; n],
            },
        };
        de.set_base(base);
        de
    }

    /// The current base order.
    pub fn base(&self) -> &Deployment {
        &self.base
    }

    /// The objective area of the current base order.
    pub fn base_area(&self) -> f64 {
        self.area
    }

    /// Replaces the base order, rebuilding all per-position state in one
    /// `O(n · degree)` pass.
    pub fn set_base(&mut self, base: Deployment) {
        let n = base.len();
        debug_assert_eq!(n, self.positions.len());
        for (p, index) in base.iter() {
            self.positions[index.raw()] = p as u32;
        }
        self.runtime_accs[0].clear();
        self.runtime_accs[0].add(self.baseline_runtime);
        self.runtime_at[0] = self.baseline_runtime;
        self.area_acc.clear();
        self.base = base;
        let area = self.span_walk(0, n, &SpanMove::Swap { lo: 0, hi: 0 }, true, true);
        self.area = area;
        self.bounds.base_changed();
    }

    /// Area of the base order with positions `a` and `b` swapped. `O(1)`
    /// when `a` and `b` are adjacent, `O(|a - b|)` otherwise.
    pub fn evaluate_swap(&mut self, a: usize, b: usize) -> f64 {
        if a == b {
            return self.area;
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        self.span_walk(lo, hi + 1, &SpanMove::Swap { lo, hi }, false, false)
    }

    /// Area of the base order with the element at `from` relocated to `to`
    /// ([`Deployment::relocate`] semantics). `O(|from - to|)`.
    pub fn evaluate_shift(&mut self, from: usize, to: usize) -> f64 {
        if from == to {
            return self.area;
        }
        let (lo, hi) = if from < to { (from, to) } else { (to, from) };
        self.span_walk(lo, hi + 1, &SpanMove::Shift { from, to }, false, false)
    }

    /// Commits the swap of positions `a` and `b` into the base order.
    pub fn commit_swap(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let area = self.span_walk(lo, hi + 1, &SpanMove::Swap { lo, hi }, true, false);
        self.area = area;
        self.base.swap(a, b);
        self.refresh_positions(lo, hi + 1);
    }

    /// Commits the relocation of the element at `from` to position `to`.
    pub fn commit_shift(&mut self, from: usize, to: usize) {
        if from == to {
            return;
        }
        let (lo, hi) = if from < to { (from, to) } else { (to, from) };
        let area = self.span_walk(lo, hi + 1, &SpanMove::Shift { from, to }, true, false);
        self.area = area;
        self.base.relocate(from, to);
        self.refresh_positions(lo, hi + 1);
    }

    fn refresh_positions(&mut self, a: usize, b: usize) {
        for p in a..b {
            self.positions[self.base.at(p).raw()] = p as u32;
        }
        self.bounds.base_changed();
    }

    /// What [`DeltaEvaluator::swap_bound`] may exceed the exact area by:
    /// a lower bound minus this never exceeds
    /// [`DeltaEvaluator::evaluate_swap`]. Derived in the type's docs; it
    /// depends on the instance only, and is never zero.
    pub fn swap_bound_margin(&self) -> f64 {
        self.bounds.margin
    }

    /// Prepares row `b` of the swap lower bounds, after which
    /// [`DeltaEvaluator::swap_bound`] answers `(a, b)` for every `a < b`
    /// until the base changes or another row is prepared.
    /// `O(b + Σ_{q ∈ Q(y)} |plans(q)|)` for `y` the index at `b`, plus
    /// `O(n + |plans| · log)` for the first row after the base changed.
    pub fn swap_bound_row(&mut self, b: usize) {
        debug_assert!(b < self.base.len(), "row {b} outside the order");
        if !self.bounds.fresh {
            self.refresh_bound_tables();
        }
        let y = self.base.at(b).raw();
        let soa = &self.soa;
        let positions = &self.positions;
        let bounds = &mut self.bounds;

        // y's plans whose other indexes are all built by position b: with
        // `t` builds they are, and S_p ∪ {y} completes the plan for p ≥ t.
        bounds.partners.clear();
        for &plan in soa.plans_using(y) {
            let plan = plan as usize;
            let t = soa
                .members(plan)
                .iter()
                .filter(|&&m| m as usize != y)
                .map(|&m| positions[m as usize] + 1)
                .max()
                .unwrap_or(0);
            if t as usize <= b {
                bounds
                    .partners
                    .push((soa.query_of(plan) as u32, t, soa.speedup(plan)));
            }
        }
        bounds.partners.sort_unstable_by_key(|&(q, t, _)| (q, t));

        // Per query of y: merge the steps of its best speed-up with those
        // of its best plan holding y, and record where the gain changes.
        bounds.gain_diff[..=b].fill(0.0);
        let mut k = 0;
        while k < bounds.partners.len() {
            let q = bounds.partners[k].0;
            let end = k + bounds.partners[k..].iter().take_while(|e| e.0 == q).count();
            let group = &bounds.partners[k..end];
            let first = soa.query_slots(q as usize).start;
            let steps = first..first + bounds.steps_len[q as usize] as usize;
            let (step_at, step_best) = (&bounds.step_at[steps.clone()], &bounds.step_best[steps]);
            let (mut i, mut j) = (0, 0);
            let (mut best, mut with_y, mut gain) = (0.0_f64, 0.0_f64, 0.0_f64);
            // Once y's plans are all in, the gain can only fall; it stops
            // mattering at zero.
            while j < group.len() || (gain > 0.0 && i < step_at.len()) {
                let at = group
                    .get(j)
                    .map_or(u32::MAX, |e| e.1)
                    .min(step_at.get(i).copied().unwrap_or(u32::MAX));
                if at as usize > b {
                    break;
                }
                while i < step_at.len() && step_at[i] == at {
                    best = step_best[i];
                    i += 1;
                }
                while j < group.len() && group[j].1 == at {
                    with_y = with_y.max(group[j].2);
                    j += 1;
                }
                let next = (with_y - best).max(0.0);
                if next != gain {
                    bounds.gain_diff[at as usize] += next - gain;
                    gain = next;
                }
            }
            k = end;
        }

        // D_y(p) = R_p − the gain y adds with S_p built.
        let mut gain = 0.0;
        for p in 0..=b {
            gain += bounds.gain_diff[p];
            bounds.runtime_lb[p] = self.runtime_at[p] - gain;
        }

        // The base costs before b, cheaper where y helps.
        bounds.cost_with_y[..b].copy_from_slice(&self.cost_at[..b]);
        let (targets, savings) = soa.targets(y);
        for (&z, &saving) in targets.iter().zip(savings) {
            let p = positions[z as usize] as usize;
            if p < b {
                let cost = soa.creation_cost(z as usize) - saving;
                bounds.cost_with_y[p] = bounds.cost_with_y[p].min(cost);
            }
        }

        // tail[a] = Σ_{a<p<b} of the new terms' lower bounds.
        if b > 0 {
            bounds.tail[b - 1] = 0.0;
            for a in (0..b - 1).rev() {
                let p = a + 1;
                let term = lower_term(
                    bounds.runtime_lb[p],
                    self.baseline_runtime,
                    bounds.cost_with_y[p],
                );
                bounds.tail[a] = bounds.tail[p] + term;
            }
        }
        bounds.row = b;
    }

    /// A lower bound on [`DeltaEvaluator::evaluate_swap`]`(a, b)`, up to
    /// [`DeltaEvaluator::swap_bound_margin`], for `a < b` and `b` the row
    /// prepared by [`DeltaEvaluator::swap_bound_row`]. `O(helpers of the two
    /// indexes + helpers of the targets of the index at a that lie between
    /// them)`; see the type's docs for the derivation.
    pub fn swap_bound(&self, a: usize, b: usize) -> f64 {
        debug_assert!(
            a < b && b == self.bounds.row,
            "swap_bound({a}, {b}) outside the prepared row"
        );
        let bounds = &self.bounds;
        let pos = |i: usize| self.positions[i] as usize;
        let x = self.base.at(a).raw();
        let y = self.base.at(b).raw();
        // y at a, against S_a; x at b, against S_{b+1} \ {x}: both exact.
        let cost_a = self.cost_against(y, |h| pos(h) < a);
        let cost_b = self.cost_against(x, |h| pos(h) <= b);
        // Between them, the targets of x lose x as a helper.
        let mut between = bounds.tail[a];
        for &z in self.soa.targets(x).0 {
            let (z, p) = (z as usize, pos(z as usize));
            if a < p && p < b {
                let cost = self.cost_against(z, |h| h == y || (h != x && pos(h) < p));
                let lb = bounds.runtime_lb[p];
                between += lower_term(lb, self.baseline_runtime, cost)
                    - lower_term(lb, self.baseline_runtime, bounds.cost_with_y[p]);
            }
        }
        let old = bounds.prefix_area[b + 1] - bounds.prefix_area[a];
        (self.area - old)
            + self.runtime_at[a] * cost_a
            + between
            + lower_term(bounds.runtime_lb[b], self.baseline_runtime, cost_b)
    }

    /// Effective build cost of index `i` when exactly the helpers for which
    /// `built` holds are built: the span walk's `max` fold.
    fn cost_against(&self, i: usize, built: impl Fn(usize) -> bool) -> f64 {
        let (ids, savings) = self.soa.helpers(i);
        let mut best = 0.0_f64;
        for (&h, &saving) in ids.iter().zip(savings) {
            if built(h as usize) {
                best = best.max(saving);
            }
        }
        self.soa.creation_cost(i) - best
    }

    /// Derives the per-base tables of the swap bounds: the exact prefix
    /// sums of the base's terms and the steps of every query's best
    /// speed-up over the base order.
    fn refresh_bound_tables(&mut self) {
        let n = self.base.len();
        let bounds = &mut self.bounds;
        let acc = &mut self.scratch_area;
        acc.clear();
        for p in 0..n {
            acc.add_prod(self.runtime_at[p], self.cost_at[p]);
            bounds.prefix_area[p + 1] = acc.value();
        }
        debug_assert_eq!(bounds.prefix_area[n].to_bits(), self.area.to_bits());
        for q in 0..self.soa.num_queries() {
            let first = self.soa.query_slots(q).start;
            bounds.completions.clear();
            bounds.completions.extend(
                self.soa
                    .plans_of_query(q)
                    .iter()
                    .map(|&p| (self.complete_at[p as usize], self.soa.speedup(p as usize))),
            );
            bounds.completions.sort_unstable_by_key(|&(at, _)| at);
            let mut len = 0;
            let mut best = 0.0_f64;
            for &(at, speedup) in &bounds.completions {
                if speedup > best {
                    best = speedup;
                    if len == 0 || bounds.step_at[first + len - 1] != at {
                        len += 1;
                    }
                    bounds.step_at[first + len - 1] = at;
                    bounds.step_best[first + len - 1] = best;
                }
            }
            bounds.steps_len[q] = len as u32;
        }
        bounds.fresh = true;
    }

    /// Scores (and on `commit`, applies) the rewrite of positions `[a, b)`
    /// described by `mv`, returning the canonical area of the moved order.
    ///
    /// `fresh` marks the from-scratch rebuild of [`DeltaEvaluator::set_base`]
    /// (there are no old span terms to subtract, and stored per-position
    /// state is stale rather than authoritative).
    fn span_walk(&mut self, a: usize, b: usize, mv: &SpanMove, commit: bool, fresh: bool) -> f64 {
        self.stamp += 1;
        let stamp = self.stamp;

        // New positions of the span's elements, for prefix-membership tests.
        for p in a..b {
            let x = mv.elem(&self.base, p);
            self.new_pos[x] = p as u32;
            self.new_pos_stamp[x] = stamp;
        }

        // Patch the exact area: remove the span's old terms...
        self.scratch_area.assign_from(&self.area_acc);
        if !fresh {
            for p in a..b {
                self.scratch_area
                    .sub_prod(self.runtime_at[p], self.cost_at[p]);
            }
        }

        // ...and walk the new span ordering, adding its terms.
        self.scratch_runtime.assign_from(&self.runtime_accs[a]);
        let mut runtime = self.runtime_at[a];
        for p in a..b {
            let x = mv.elem(&self.base, p);

            // Effective build cost against the set built before `p` — the
            // same `max` fold as `ProblemInstance::effective_build_cost`.
            let (helper_ids, helper_savings) = self.soa.helpers(x);
            let mut best_saving = 0.0_f64;
            for (k, &h) in helper_ids.iter().enumerate() {
                let hpos = if self.new_pos_stamp[h as usize] == stamp {
                    self.new_pos[h as usize]
                } else {
                    self.positions[h as usize]
                };
                if (hpos as usize) < p {
                    best_saving = best_saving.max(helper_savings[k]);
                }
            }
            let cost = self.soa.creation_cost(x) - best_saving;
            self.scratch_area.add_prod(runtime, cost);
            if commit {
                self.cost_at[p] = cost;
            }

            // Newly available plans drop the runtime level.
            let mut changed = false;
            for &plan in self.soa.plans_using(x) {
                let pl = plan as usize;
                if self.missing_stamp[pl] != stamp {
                    self.missing_stamp[pl] = stamp;
                    // Members built before the span are not missing; members
                    // at `>= b` keep the plan incomplete for the whole walk.
                    let mut missing = 0u32;
                    for &m in self.soa.members(pl) {
                        if self.positions[m as usize] as usize >= a {
                            missing += 1;
                        }
                    }
                    self.scratch_missing[pl] = missing;
                }
                self.scratch_missing[pl] -= 1;
                if self.scratch_missing[pl] == 0 {
                    if commit {
                        self.complete_at[pl] = (p + 1) as u32;
                    }
                    let q = self.soa.query_of(pl);
                    if self.best_stamp[q] != stamp {
                        self.best_stamp[q] = stamp;
                        // Best speed-up among plans completed strictly
                        // before the span (positions `< a` are unchanged by
                        // the move, so the base's completion positions are
                        // authoritative there).
                        let mut best = 0.0_f64;
                        for &qp in self.soa.plans_of_query(q) {
                            if (self.complete_at[qp as usize] as usize) <= a {
                                best = best.max(self.soa.speedup(qp as usize));
                            }
                        }
                        self.scratch_best[q] = best;
                    }
                    let s = self.soa.speedup(pl);
                    if s > self.scratch_best[q] {
                        self.scratch_runtime.add(self.scratch_best[q]);
                        self.scratch_runtime.sub(s);
                        self.scratch_best[q] = s;
                        changed = true;
                    }
                }
            }
            if changed {
                runtime = self.scratch_runtime.value();
            }
            if commit {
                self.runtime_at[p + 1] = runtime;
                self.runtime_accs[p + 1].assign_from(&self.scratch_runtime);
            }
        }

        // The built set after `b` builds is move-invariant, so the walk must
        // land exactly on the stored level — the splice is seamless.
        debug_assert!(
            fresh || runtime.to_bits() == self.runtime_at[b].to_bits(),
            "span walk diverged from the base runtime level at {b}"
        );

        let area = self.scratch_area.value();
        if commit {
            self.area_acc.assign_from(&self.scratch_area);
        }
        area
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Section 4.2 competing-interaction example.
    fn competing_example() -> ProblemInstance {
        let mut b = ProblemInstance::builder("competing");
        let i_city = b.add_named_index("i(City)", 4.0);
        let i_cov = b.add_named_index("i(City,Salary)", 6.0);
        let q = b.add_named_query("avg_salary_by_city", 30.0);
        b.add_plan(q, vec![i_city], 5.0);
        b.add_plan(q, vec![i_cov], 20.0);
        b.add_build_interaction(i_city, i_cov, 3.0);
        b.add_build_interaction(i_cov, i_city, 2.0);
        b.build().unwrap()
    }

    #[test]
    fn hand_computed_objective_order_01() {
        // Order i0 → i1:
        //   step 1: R_0 = 30, C = 4  → area 120; runtime drops to 25 (5s plan)
        //   step 2: R_1 = 25, C = 6-2 = 4 → area 100; runtime drops to 10
        // total area = 220, deployment time 8, final runtime 10.
        let inst = competing_example();
        let eval = ObjectiveEvaluator::new(&inst);
        let v = eval.evaluate(&Deployment::from_raw([0, 1]));
        assert!((v.area - 220.0).abs() < 1e-9);
        assert!((v.deployment_time - 8.0).abs() < 1e-9);
        assert!((v.final_runtime - 10.0).abs() < 1e-9);
        assert_eq!(v.steps.len(), 2);
        assert!((v.steps[0].build_cost - 4.0).abs() < 1e-9);
        assert!((v.steps[1].build_cost - 4.0).abs() < 1e-9);
        assert!((v.steps[1].runtime_before - 25.0).abs() < 1e-9);
    }

    #[test]
    fn hand_computed_objective_order_10() {
        // Order i1 → i0:
        //   step 1: R_0 = 30, C = 6 → area 180; runtime drops to 10 (20s plan)
        //   step 2: R_1 = 10, C = 4-3 = 1 → area 10; runtime stays 10
        // total area = 190, deployment time 7.
        let inst = competing_example();
        let eval = ObjectiveEvaluator::new(&inst);
        let v = eval.evaluate(&Deployment::from_raw([1, 0]));
        assert!((v.area - 190.0).abs() < 1e-9);
        assert!((v.deployment_time - 7.0).abs() < 1e-9);
        assert!((v.final_runtime - 10.0).abs() < 1e-9);
        // The covering-index-first order is better, as the paper argues.
        assert!(v.area < eval.evaluate_area(&Deployment::from_raw([0, 1])));
    }

    #[test]
    fn competing_interaction_only_counts_marginal_speedup() {
        // After i1 (20s speed-up), adding i0 must not double count the 5s.
        let inst = competing_example();
        let eval = ObjectiveEvaluator::new(&inst);
        let v = eval.evaluate(&Deployment::from_raw([1, 0]));
        assert!((v.steps[1].runtime_before - 10.0).abs() < 1e-9);
        assert!((v.steps[1].runtime_after - 10.0).abs() < 1e-9);
    }

    #[test]
    fn area_only_matches_full_evaluation() {
        let inst = competing_example();
        let eval = ObjectiveEvaluator::new(&inst);
        for order in [[0, 1], [1, 0]] {
            let d = Deployment::from_raw(order);
            assert_eq!(eval.evaluate(&d).area, eval.evaluate_area(&d));
        }
    }

    #[test]
    fn normalized_is_between_zero_and_hundred_for_sane_instances() {
        let inst = competing_example();
        let eval = ObjectiveEvaluator::new(&inst);
        let v = eval.evaluate(&Deployment::from_raw([1, 0]));
        let norm = v.normalized();
        assert!(norm > 0.0 && norm < 100.0, "normalized = {norm}");
    }

    #[test]
    fn prefix_runtime_follows_the_best_available_plan() {
        let inst = competing_example();
        let eval = ObjectiveEvaluator::new(&inst);
        let q = QueryId::new(0);
        let (p_city, p_cov) = (PlanId::new(0), PlanId::new(1));
        let mut state = eval.prefix_state();
        assert_eq!(state.runtime(), 30.0);
        assert_eq!((state.missing(p_city), state.missing(p_cov)), (1, 1));
        state.push(IndexId::new(0));
        assert_eq!(state.runtime(), 25.0);
        assert_eq!(state.best_speedup(q), 5.0);
        state.push(IndexId::new(1));
        assert_eq!(state.runtime(), 10.0);
        assert_eq!(state.best_speedup(q), 20.0);
        assert_eq!((state.missing(p_city), state.missing(p_cov)), (0, 0));
        state.pop();
        assert_eq!(state.best_speedup(q), 5.0);
        assert_eq!((state.missing(p_city), state.missing(p_cov)), (0, 1));
        state.pop();
        assert_eq!(state.best_speedup(q), 0.0);
        state.push(IndexId::new(1));
        assert_eq!(state.runtime(), 10.0);
        assert_eq!(state.best_speedup(q), 20.0);
    }

    /// Three indexes, two queries, a two-index plan and a build interaction.
    /// Building i2 after i1 completes both plans of `q2` at once, raising
    /// its best speed-up twice in one step.
    fn prefix_instance() -> ProblemInstance {
        let mut b = ProblemInstance::builder("state");
        let i0 = b.add_index(4.0);
        let i1 = b.add_index(6.0);
        let i2 = b.add_index(3.0);
        let q = b.add_query(30.0);
        b.add_plan(q, vec![i0], 5.0);
        b.add_plan(q, vec![i1], 20.0);
        let q2 = b.add_query(40.0);
        b.add_plan(q2, vec![i2], 10.0);
        b.add_plan(q2, vec![i1, i2], 25.0);
        b.add_build_interaction(i0, i1, 3.0);
        b.build().unwrap()
    }

    #[test]
    fn push_matches_full_evaluator() {
        let inst = prefix_instance();
        let eval = ObjectiveEvaluator::new(&inst);
        for order in [[0usize, 1, 2], [2, 1, 0], [1, 0, 2], [1, 2, 0]] {
            let mut state = eval.prefix_state();
            for &raw in &order {
                state.push(IndexId::new(raw));
            }
            let expected = eval.evaluate(&Deployment::from_raw(order));
            assert_eq!(state.area().to_bits(), expected.area.to_bits());
            assert_eq!(state.runtime().to_bits(), expected.final_runtime.to_bits());
            assert!(state.is_complete());
        }
    }

    #[test]
    fn pop_restores_previous_state_exactly() {
        let inst = prefix_instance();
        let eval = ObjectiveEvaluator::new(&inst);
        let mut state = eval.prefix_state();
        state.push(IndexId::new(1));
        let runtime_after_first = state.runtime();
        let area_after_first = state.area();
        state.push(IndexId::new(2));
        assert_ne!(state.runtime(), runtime_after_first);
        assert_eq!(state.pop(), Some(IndexId::new(2)));
        assert_eq!(state.runtime().to_bits(), runtime_after_first.to_bits());
        assert_eq!(state.area().to_bits(), area_after_first.to_bits());
        assert_eq!(state.built(), &[false, true, false]);
        assert_eq!(state.pop(), Some(IndexId::new(1)));
        assert_eq!(state.pop(), None);
        assert_eq!(state.runtime(), inst.baseline_runtime());
        assert_eq!(state.area().to_bits(), 0.0f64.to_bits());
        assert!(!state.is_built(IndexId::new(1)));
        // Nothing the pops restored lingers: i2 alone unlocks its plan.
        state.push(IndexId::new(2));
        assert_eq!(state.runtime(), inst.baseline_runtime() - 10.0);
    }

    #[test]
    fn interleaved_push_pop_explores_consistently() {
        // Explore every branch of a depth-first search and compare each
        // prefix, after its pops, with a fresh push-only state.
        let inst = delta_instance(2);
        let n = inst.num_indexes();
        let eval = ObjectiveEvaluator::new(&inst);
        let mut state = eval.prefix_state();
        let mut prefix = Vec::new();
        let mut seed = 9u64;
        for _ in 0..400 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            if prefix.len() == n || (!prefix.is_empty() && seed >> 62 == 0) {
                assert_eq!(state.pop(), prefix.pop());
            } else {
                let free: Vec<usize> = (0..n)
                    .filter(|&r| !prefix.contains(&IndexId::new(r)))
                    .collect();
                let index = IndexId::new(free[(seed >> 33) as usize % free.len()]);
                state.push(index);
                prefix.push(index);
            }
            let mut expected = eval.prefix_state();
            for &index in &prefix {
                expected.push(index);
            }
            assert_eq!(state.area().to_bits(), expected.area().to_bits());
            assert_eq!(state.runtime().to_bits(), expected.runtime().to_bits());
            assert_eq!(state.built(), expected.built());
        }
    }

    #[test]
    fn build_cost_reflects_interactions() {
        let inst = prefix_instance();
        let eval = ObjectiveEvaluator::new(&inst);
        let mut state = eval.prefix_state();
        assert_eq!(state.build_cost(IndexId::new(0)), 4.0);
        state.push(IndexId::new(1));
        assert_eq!(state.build_cost(IndexId::new(0)), 1.0);
    }

    #[test]
    fn query_interaction_requires_all_indexes() {
        // Join query needs both i0 and i1 (paper's query-interaction example).
        let mut b = ProblemInstance::builder("join");
        let i0 = b.add_index(2.0);
        let i1 = b.add_index(2.0);
        let q = b.add_query(50.0);
        b.add_plan(q, vec![i0, i1], 40.0);
        let inst = b.build().unwrap();
        let eval = ObjectiveEvaluator::new(&inst);
        let v = eval.evaluate(&Deployment::from_raw([0, 1]));
        // No speed-up until both are built: area = 50*2 + 50*2 = 200.
        assert!((v.area - 200.0).abs() < 1e-9);
        assert!((v.final_runtime - 10.0).abs() < 1e-9);
    }

    #[test]
    fn stepper_replays_evaluate_bit_for_bit() {
        // Pushing a deployment onto a prefix state one index at a time,
        // reading the runtime and build cost before each push, reproduces
        // every step `evaluate` reports.
        let inst = competing_example();
        let eval = ObjectiveEvaluator::new(&inst);
        for order in [[0usize, 1], [1, 0]] {
            let d = Deployment::from_raw(order);
            let value = eval.evaluate(&d);
            let mut state = eval.prefix_state();
            assert_eq!(state.built(), &[false, false]);
            let mut realized = 0.0_f64;
            let mut area = ExactSum::new();
            let mut elapsed = 0.0_f64;
            for (pos, index) in d.iter() {
                let runtime_before = state.runtime();
                let build_cost = state.build_cost(index);
                let elapsed_start = elapsed;
                elapsed += build_cost;
                state.push(index);
                let step = StepMetrics {
                    index,
                    build_cost,
                    runtime_before,
                    runtime_after: state.runtime(),
                    elapsed_start,
                    elapsed_end: elapsed,
                };
                assert_eq!(step, value.steps[pos]);
                realized += step.runtime_before * step.build_cost;
                area.add_prod(step.runtime_before, step.build_cost);
            }
            // Bit-for-bit, not approximately: same ops in the same order.
            assert_eq!(realized.to_bits(), value.area.to_bits());
            assert_eq!(area.value().to_bits(), value.area.to_bits());
            assert_eq!(state.area().to_bits(), value.area.to_bits());
            assert_eq!(state.runtime(), value.final_runtime);
            assert_eq!(elapsed.to_bits(), value.deployment_time.to_bits());
            assert_eq!(state.built(), &[true, true]);
        }
    }

    #[test]
    fn slot_decomposition_replays_step_bit_for_bit() {
        // A k-slot schedule prices a build at dispatch (`build_cost`, with
        // the index not yet built) and makes it available at completion
        // (`push`), the caller accruing runtime · cost in between; with one
        // slot that reproduces `evaluate` step by step — the identity the
        // one-slot concurrent scheduler relies on.
        let inst = competing_example();
        let eval = ObjectiveEvaluator::new(&inst);
        for order in [[0usize, 1], [1, 0]] {
            let d = Deployment::from_raw(order);
            let value = eval.evaluate(&d);
            let mut state = eval.prefix_state();
            let mut area = ExactSum::new();
            let mut elapsed = 0.0_f64;
            for (pos, index) in d.iter() {
                let cost = state.build_cost(index);
                assert_eq!(cost.to_bits(), value.steps[pos].build_cost.to_bits());
                assert!(!state.is_built(index));
                let runtime = state.runtime();
                area.add_prod(runtime, cost);
                elapsed += cost;
                assert_eq!(
                    (runtime * cost).to_bits(),
                    (value.steps[pos].runtime_before * value.steps[pos].build_cost).to_bits()
                );
                let before = state.runtime();
                state.push(index);
                let after = state.runtime();
                assert_eq!(before.to_bits(), value.steps[pos].runtime_before.to_bits());
                assert_eq!(after.to_bits(), value.steps[pos].runtime_after.to_bits());
                assert!(state.is_built(index));
            }
            assert_eq!(area.value().to_bits(), value.area.to_bits());
            assert_eq!(state.area().to_bits(), value.area.to_bits());
            assert_eq!(state.runtime().to_bits(), value.final_runtime.to_bits());
            assert_eq!(elapsed.to_bits(), value.deployment_time.to_bits());
        }
    }

    #[test]
    fn overlapping_builds_price_against_completed_indexes_only() {
        // Start i1 while i0 is still in flight: i0's build interaction on i1
        // (saving 2.0) must NOT apply, and the runtime only drops when each
        // build *completes*, in completion order.
        let inst = competing_example();
        let eval = ObjectiveEvaluator::new(&inst);
        let mut state = eval.prefix_state();
        let c0 = state.build_cost(IndexId::new(0));
        let c1 = state.build_cost(IndexId::new(1));
        assert_eq!(c0, 4.0);
        assert_eq!(c1, 6.0, "in-flight i0 must not discount i1");
        assert_eq!(state.runtime(), 30.0);

        // Both run concurrently; i0 completes at t=4, i1 at t=6.
        let mut area = ExactSum::new();
        assert_eq!(state.runtime() * 4.0, 30.0 * 4.0); // [0,4] at the baseline runtime
        area.add_prod(state.runtime(), 4.0);
        state.push(IndexId::new(0));
        assert_eq!(state.runtime(), 25.0); // 5s plan available
        assert_eq!(state.runtime() * 2.0, 25.0 * 2.0); // [4,6] at the post-i0 runtime
        area.add_prod(state.runtime(), 2.0);
        state.push(IndexId::new(1));
        assert_eq!(state.runtime(), 10.0); // 20s plan available
        assert_eq!(area.value(), 120.0 + 50.0);
        assert_eq!(state.built(), &[true, true]);
    }

    #[test]
    fn out_of_order_completion_unlocks_plans_at_the_second_build() {
        // Query interaction: the plan needs both i0 and i1; completing them
        // in either order only unlocks the speed-up at the second
        // completion.
        let mut b = ProblemInstance::builder("join");
        let i0 = b.add_index(2.0);
        let i1 = b.add_index(6.0);
        let q = b.add_query(50.0);
        b.add_plan(q, vec![i0, i1], 40.0);
        let inst = b.build().unwrap();
        let eval = ObjectiveEvaluator::new(&inst);
        let mut state = eval.prefix_state();
        // Submission order i1 then i0; i0 (cheaper) completes first.
        assert_eq!(state.build_cost(IndexId::new(1)), 6.0);
        assert_eq!(state.build_cost(IndexId::new(0)), 2.0);
        let mut area = ExactSum::new();
        area.add_prod(state.runtime(), 2.0);
        state.push(IndexId::new(0));
        assert_eq!(state.runtime(), 50.0, "half-available plan unlocks nothing");
        area.add_prod(state.runtime(), 4.0);
        state.push(IndexId::new(1));
        assert_eq!(state.runtime(), 10.0);
        assert_eq!(area.value(), 50.0 * 2.0 + 50.0 * 4.0);
    }

    #[test]
    fn delta_evaluator_matches_full_evaluation_on_swaps() {
        let inst = competing_example();
        let eval = ObjectiveEvaluator::new(&inst);
        let base = Deployment::from_raw([0, 1]);
        let mut pe = DeltaEvaluator::new(&inst, base.clone());
        assert_eq!(pe.base_area(), eval.evaluate_area(&base));
        let swapped = base.with_swap(0, 1);
        assert_eq!(pe.evaluate_swap(0, 1), eval.evaluate_area(&swapped));
    }

    #[test]
    fn delta_evaluator_commit_updates_base() {
        let inst = competing_example();
        let mut pe = DeltaEvaluator::new(&inst, Deployment::from_raw([0, 1]));
        let swapped_area = pe.evaluate_swap(0, 1);
        pe.commit_swap(0, 1);
        assert_eq!(pe.base_area(), swapped_area);
        assert_eq!(pe.base().order()[0], IndexId::new(1));
    }

    #[test]
    fn larger_random_instance_prefix_matches_full() {
        use std::collections::HashSet;
        // Deterministic pseudo-random instance without external crates.
        let mut b = ProblemInstance::builder("rand");
        let mut seed = 42u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            (seed >> 33) as f64 / (u32::MAX as f64 / 2.0)
        };
        let n = 10;
        for _ in 0..n {
            b.add_index(1.0 + next() * 5.0);
        }
        for q in 0..6 {
            let qid = b.add_query(20.0 + next() * 30.0);
            let mut used = HashSet::new();
            for _ in 0..3 {
                let w = 1 + (next() * 3.0) as usize;
                let idxs: Vec<IndexId> = (0..w)
                    .map(|k| IndexId::new((q * 3 + k * 2 + (next() * 10.0) as usize) % n))
                    .collect();
                let key: Vec<usize> = {
                    let mut v: Vec<usize> = idxs.iter().map(|i| i.raw()).collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                };
                if used.insert(key) {
                    b.add_plan(qid, idxs, 1.0 + next() * 10.0);
                }
            }
        }
        b.add_build_interaction(IndexId::new(0), IndexId::new(1), 0.5);
        b.add_build_interaction(IndexId::new(3), IndexId::new(2), 0.25);
        let inst = b.build().unwrap();
        let eval = ObjectiveEvaluator::new(&inst);
        let base = Deployment::identity(n);
        let mut pe = DeltaEvaluator::new(&inst, base.clone());
        for a in 0..n {
            for bpos in (a + 1)..n {
                let full = eval.evaluate_area(&base.with_swap(a, bpos));
                let fast = pe.evaluate_swap(a, bpos);
                assert_eq!(
                    full.to_bits(),
                    fast.to_bits(),
                    "swap ({a},{bpos}): {full} vs {fast}"
                );
            }
        }
    }

    /// A deterministic 12-index instance with interactions, multi-index
    /// plans and helper chains — rich enough to exercise every delta path.
    fn delta_instance(seed: u64) -> ProblemInstance {
        let mut b = ProblemInstance::builder("delta");
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let n = 12;
        for _ in 0..n {
            b.add_index(1.0 + next() * 9.0);
        }
        for q in 0..8 {
            let runtime = 30.0 + next() * 70.0;
            let qid = b.add_query(runtime);
            let mut seen: Vec<Vec<usize>> = Vec::new();
            for _ in 0..4 {
                let w = 1 + (next() * 3.0) as usize;
                let mut ms: Vec<usize> = (0..w)
                    .map(|k| ((q * 5 + k * 3) + (next() * n as f64) as usize) % n)
                    .collect();
                ms.sort_unstable();
                ms.dedup();
                if seen.contains(&ms) {
                    continue;
                }
                seen.push(ms.clone());
                let speedup = (next() * runtime * 0.4).min(runtime * 0.9);
                b.add_plan(qid, ms.into_iter().map(IndexId::new).collect(), speedup);
            }
        }
        for t in 0..n {
            for h in 0..n {
                if t != h && next() < 0.2 {
                    b.add_build_interaction(IndexId::new(t), IndexId::new(h), next() * 0.8 + 0.05);
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn delta_swap_is_bit_identical_to_full_evaluation() {
        for seed in 0..4 {
            let inst = delta_instance(seed);
            let n = inst.num_indexes();
            let eval = ObjectiveEvaluator::new(&inst);
            let base = Deployment::identity(n);
            let mut de = DeltaEvaluator::new(&inst, base.clone());
            assert_eq!(
                de.base_area().to_bits(),
                eval.evaluate_area(&base).to_bits()
            );
            for a in 0..n {
                for b in (a + 1)..n {
                    let full = eval.evaluate_area(&base.with_swap(a, b));
                    let fast = de.evaluate_swap(a, b);
                    assert_eq!(full.to_bits(), fast.to_bits(), "swap ({a},{b}) seed {seed}");
                }
            }
        }
    }

    #[test]
    fn delta_shift_is_bit_identical_to_full_evaluation() {
        let inst = delta_instance(7);
        let n = inst.num_indexes();
        let eval = ObjectiveEvaluator::new(&inst);
        let base = Deployment::identity(n);
        let mut de = DeltaEvaluator::new(&inst, base.clone());
        for from in 0..n {
            for to in 0..n {
                let mut moved = base.clone();
                moved.relocate(from, to);
                let full = eval.evaluate_area(&moved);
                let fast = de.evaluate_shift(from, to);
                assert_eq!(full.to_bits(), fast.to_bits(), "shift ({from},{to})");
            }
        }
    }

    #[test]
    fn delta_commit_chain_tracks_full_evaluation() {
        let inst = delta_instance(3);
        let n = inst.num_indexes();
        let eval = ObjectiveEvaluator::new(&inst);
        let mut order = Deployment::identity(n);
        let mut de = DeltaEvaluator::new(&inst, order.clone());
        // Interleave swap / shift commits and re-verify the base area (and a
        // probe move) after every commit.
        let moves: [(usize, usize, bool); 5] = [
            (0, 1, false),
            (3, 9, false),
            (10, 2, true),
            (5, 8, true),
            (0, 11, false),
        ];
        for &(x, y, shift) in &moves {
            if shift {
                de.commit_shift(x, y);
                order.relocate(x, y);
            } else {
                de.commit_swap(x, y);
                order.swap(x, y);
            }
            assert_eq!(de.base().order(), order.order(), "order after commit");
            let full = eval.evaluate_area(&order);
            assert_eq!(
                de.base_area().to_bits(),
                full.to_bits(),
                "area after commit"
            );
            // No stale caches: a probe evaluation still agrees.
            let probe = eval.evaluate_area(&order.with_swap(1, n - 2));
            assert_eq!(de.evaluate_swap(1, n - 2).to_bits(), probe.to_bits());
        }
    }

    #[test]
    fn delta_adjacent_swaps_agree_with_full_evaluation() {
        let inst = delta_instance(11);
        let n = inst.num_indexes();
        let eval = ObjectiveEvaluator::new(&inst);
        let base = Deployment::identity(n);
        let mut de = DeltaEvaluator::new(&inst, base.clone());
        assert_eq!(
            eval.evaluate_area(&base).to_bits(),
            de.base_area().to_bits()
        );
        for a in 0..n - 1 {
            assert_eq!(
                eval.evaluate_area(&base.with_swap(a, a + 1)).to_bits(),
                de.evaluate_swap(a, a + 1).to_bits(),
                "adjacent swap at {a}"
            );
        }
    }
}
