//! Property-based tests for the Section-5 detectors and the
//! shard-and-recombine decomposition.
//!
//! Two families:
//!
//! * **Permutation equivariance** — relabeling the indexes of an instance
//!   must relabel every detector's output the same way. Exact numeric ties
//!   are broken by canonical id order (deterministically), so for the
//!   numeric detectors (disjoint, dominated) the direction check excludes
//!   exactly-tied pairs; the structural detectors (alliance, colonized)
//!   must be equivariant verbatim.
//! * **Sharding oracle** — on zero-coupling instances (independent blocks
//!   sharing no query, plan, interaction or precedence) the decomposition
//!   is exact and the spliced sharded objective must reproduce the
//!   CP-proved monolithic optimum bit-for-bit.
//!
//! A differential test also restates what a shard race returns — the first
//! strict minimum, in member order, over standalone runs of the recommended
//! members — and how the shard schedules are recombined, without calling
//! the portfolio, and compares both with the sharded solve.

use idd_core::{benefit_steps, IndexId, InstanceBuilder, ObjectiveEvaluator, ProblemInstance};
use idd_solver::decompose::{project, recombine, ShardSchedule, ShardedConfig, ShardedSolver};
use idd_solver::exact::{CpConfig, CpSolver};
use idd_solver::local::{SwapStrategy, TabuConfig, TabuSolver, VnsSolver};
use idd_solver::properties::{alliance, colonized, disjoint, dominated};
use idd_solver::solver::{CooperationPolicy, SolveContext, Solver};
use idd_solver::{
    GreedySolver, PortfolioConfig, PortfolioSolver, SearchBudget, SolveOutcome, SolveResult,
};
use idd_workloads::synthetic::{generate_block_structured, BlockStructuredConfig};
use proptest::prelude::*;

/// Raw generated shape: per-index integer costs, per-query (runtime, plans),
/// each plan = (index subset, integer speedup).
type RawQuery = (u32, Vec<(Vec<usize>, u32)>);

/// Builds an instance from raw integer-valued parts, clamping plans to the
/// builder's invariants (non-empty subset, speedup below runtime).
fn build(name: &str, costs: &[u32], queries: &[RawQuery]) -> ProblemInstance {
    let mut b = InstanceBuilder::new(name.to_string());
    let ids: Vec<IndexId> = costs.iter().map(|&c| b.add_index(c as f64)).collect();
    for (q, (runtime_raw, plans)) in queries.iter().enumerate() {
        let runtime = (*runtime_raw + 20) as f64;
        let qid = b.add_named_query(format!("q{q}"), runtime);
        let mut seen: Vec<Vec<usize>> = Vec::new();
        for (subset, speedup) in plans {
            let mut subset: Vec<usize> = subset.iter().map(|s| s % costs.len()).collect();
            subset.sort_unstable();
            subset.dedup();
            if subset.is_empty() || seen.contains(&subset) {
                continue;
            }
            seen.push(subset.clone());
            let speedup = (1 + speedup % 16) as f64;
            b.add_plan(qid, subset.into_iter().map(|i| ids[i]).collect(), speedup);
        }
    }
    b.build().expect("generated instance is valid")
}

/// Relabels `instance` by `perm` (index `i` becomes `perm[i]`).
fn permuted(instance: &ProblemInstance, perm: &[usize]) -> ProblemInstance {
    let mut metas: Vec<Option<idd_core::IndexMeta>> = vec![None; instance.num_indexes()];
    for i in instance.index_ids() {
        let mut meta = instance.index_meta(i).clone();
        meta.id = IndexId::new(perm[i.raw()]);
        metas[perm[i.raw()]] = Some(meta);
    }
    let mut b = InstanceBuilder::new(format!("{}-perm", instance.name()));
    for meta in metas.into_iter().map(Option::unwrap) {
        b.push_index(meta);
    }
    let map = |i: IndexId| IndexId::new(perm[i.raw()]);
    for q in instance.query_ids() {
        let qid = b.push_query(instance.query(q).clone());
        for &p in instance.plans_of_query(q) {
            let plan = instance.plan(p);
            b.add_plan(
                qid,
                plan.indexes.iter().copied().map(map).collect(),
                plan.speedup,
            );
        }
    }
    for bi in instance.build_interactions() {
        b.add_build_interaction(map(bi.target), map(bi.helper), bi.speedup);
    }
    for pr in instance.precedences() {
        b.add_precedence(map(pr.before), map(pr.after));
    }
    b.build().expect("permutation preserves validity")
}

/// A permutation of `0..n` derived from a shuffle key.
fn permutation(n: usize, key: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    let mut state = key | 1;
    for i in (1..n).rev() {
        // Deterministic xorshift — no RNG dependency needed for a shuffle.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        perm.swap(i, (state as usize) % (i + 1));
    }
    perm
}

/// The disjoint detector's stand-alone benefit, replicated for tie
/// detection: the best speed-up per query among plans using `i`, summed.
fn standalone_benefit(instance: &ProblemInstance, index: IndexId) -> f64 {
    instance
        .query_ids()
        .map(|q| {
            instance
                .plans_of_query(q)
                .iter()
                .filter(|&&p| instance.plan(p).uses(index))
                .map(|&p| instance.plan_speedup(p))
                .fold(0.0_f64, f64::max)
        })
        .sum()
}

fn instance_strategy() -> impl Strategy<Value = (Vec<u32>, Vec<RawQuery>)> {
    (
        proptest::collection::vec(1u32..=20, 2..7),
        proptest::collection::vec(
            (
                0u32..=200,
                proptest::collection::vec(
                    (proptest::collection::vec(0usize..32, 1..3), 0u32..=40),
                    1..4,
                ),
            ),
            1..5,
        ),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Structural detectors (alliance, colonized): verbatim equivariance.
    #[test]
    fn structural_detectors_are_permutation_equivariant(
        ((costs, queries), key) in (instance_strategy(), 1u64..=u64::MAX)
    ) {
        let base = build("equiv", &costs, &queries);
        let perm = permutation(base.num_indexes(), key);
        let shuffled = permuted(&base, &perm);

        let mut groups: Vec<Vec<usize>> = alliance::detect(&base)
            .into_iter()
            .map(|g| {
                let mut g: Vec<usize> = g.into_iter().map(|i| perm[i.raw()]).collect();
                g.sort_unstable();
                g
            })
            .collect();
        groups.sort();
        let mut groups_shuffled: Vec<Vec<usize>> = alliance::detect(&shuffled)
            .into_iter()
            .map(|g| {
                let mut g: Vec<usize> = g.into_iter().map(|i| i.raw()).collect();
                g.sort_unstable();
                g
            })
            .collect();
        groups_shuffled.sort();
        prop_assert_eq!(groups, groups_shuffled);

        let mut pairs: Vec<(usize, usize)> = colonized::detect(&base)
            .into_iter()
            .map(|(a, b)| (perm[a.raw()], perm[b.raw()]))
            .collect();
        pairs.sort_unstable();
        let mut pairs_shuffled: Vec<(usize, usize)> = colonized::detect(&shuffled)
            .into_iter()
            .map(|(a, b)| (a.raw(), b.raw()))
            .collect();
        pairs_shuffled.sort_unstable();
        prop_assert_eq!(pairs, pairs_shuffled);
    }

    /// Numeric detectors (disjoint, dominated): the emitted *pair sets* are
    /// equivariant, and pair directions agree except on exact ties (which
    /// the detectors break by canonical id order).
    #[test]
    fn numeric_detectors_are_permutation_equivariant_modulo_ties(
        ((costs, queries), key) in (instance_strategy(), 1u64..=u64::MAX)
    ) {
        let base = build("equiv", &costs, &queries);
        let perm = permutation(base.num_indexes(), key);
        let shuffled = permuted(&base, &perm);

        // Same unordered pair set (a detector keying on raw id values
        // would already fail here).
        let unordered = |pairs: &[(usize, usize)]| {
            let mut u: Vec<(usize, usize)> =
                pairs.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
            u.sort_unstable();
            u
        };
        let through_perm = |pairs: Vec<(IndexId, IndexId)>| -> Vec<(usize, usize)> {
            pairs
                .into_iter()
                .map(|(a, b)| (perm[a.raw()], perm[b.raw()]))
                .collect()
        };
        let raw = |pairs: Vec<(IndexId, IndexId)>| -> Vec<(usize, usize)> {
            pairs.into_iter().map(|(a, b)| (a.raw(), b.raw())).collect()
        };

        // Dominated: the pair set is equivariant; the direction of a pair
        // whose domination is *symmetric* (an exact benefit/cost tie) is
        // id-canonical, so only the unordered set is compared.
        let mapped = through_perm(dominated::detect(&base));
        let direct = raw(dominated::detect(&shuffled));
        prop_assert_eq!(unordered(&mapped), unordered(&direct));

        // Disjoint: directions agree too, unless the pair is an exact
        // density tie (cross-products equal) in which case the detector
        // pins canonical id order.
        let mapped = through_perm(disjoint::detect(&base));
        let direct = raw(disjoint::detect(&shuffled));
        prop_assert_eq!(unordered(&mapped), unordered(&direct));
        let direct_set: std::collections::BTreeSet<(usize, usize)> =
            direct.iter().copied().collect();
        for &(a, b) in &mapped {
            if direct_set.contains(&(a, b)) {
                continue;
            }
            prop_assert!(direct_set.contains(&(b, a)));
            let (ia, ib) = (IndexId::new(a), IndexId::new(b));
            let tie_ok = standalone_benefit(&shuffled, ia) * shuffled.creation_cost(ib)
                == standalone_benefit(&shuffled, ib) * shuffled.creation_cost(ia);
            prop_assert!(
                tie_ok,
                "pair ({a},{b}) flipped direction without an exact tie"
            );
        }
    }
}

/// Raw generated shape of one zero-coupling block: per-index costs plus one
/// query with a singleton plan per index (and a combined plan when the
/// block has more than one index).
type RawBlock = Vec<(u32, u32)>;

fn zero_coupling_instance(blocks: &[RawBlock]) -> ProblemInstance {
    let mut b = InstanceBuilder::new("oracle-blocks".to_string());
    for (k, block) in blocks.iter().enumerate() {
        let ids: Vec<IndexId> = block
            .iter()
            .map(|&(cost, _)| b.add_index((1 + cost % 9) as f64))
            .collect();
        let qid = b.add_named_query(format!("b{k}"), 100.0);
        let mut total = 0.0;
        for (&(_, speedup), &id) in block.iter().zip(&ids) {
            let speedup = (1 + speedup % 8) as f64;
            total += speedup;
            b.add_plan(qid, vec![id], speedup);
        }
        if ids.len() > 1 {
            b.add_plan(qid, ids.clone(), total + 2.0);
        }
    }
    b.build().expect("zero-coupling instance is valid")
}

proptest! {
    // Each case races two portfolios (monolithic + per shard); keep the
    // case count modest so the suite stays fast.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Sharding oracle: zero coupling ⇒ exact partition ⇒ the sharded
    /// objective equals the CP-proved monolithic optimum bit-for-bit.
    #[test]
    fn zero_coupling_sharded_equals_monolithic_optimum(
        blocks in proptest::collection::vec(
            proptest::collection::vec((0u32..=8, 0u32..=7), 1..4),
            2..4,
        )
    ) {
        let instance = zero_coupling_instance(&blocks);
        // cancel_on_optimal lets each race stop as soon as CP proves the
        // optimum — the objective is still the exact optimal area.
        let budget = SearchBudget::nodes(200_000);

        let mono = PortfolioSolver::recommended(budget)
            .with_config(PortfolioConfig {
                budget,
                cancel_on_optimal: true,
                cooperation: CooperationPolicy::Off,
            })
            .solve_detailed_in(&instance, &SolveContext::new())
            .combined;
        prop_assert_eq!(mono.outcome, SolveOutcome::Optimal);

        let mut cfg = ShardedConfig::with_budget(budget);
        cfg.cancel_on_optimal = true;
        cfg.cooperation = CooperationPolicy::Off;
        let sharded = ShardedSolver::new(cfg).solve(&instance);

        prop_assert!(sharded.exact, "zero coupling must partition exactly");
        if !sharded.monolithic_fallback {
            prop_assert!(sharded.shards.len() >= 2);
            prop_assert_eq!(sharded.result.outcome, SolveOutcome::Optimal);
        }
        prop_assert_eq!(
            sharded.result.objective.to_bits(),
            mono.objective.to_bits(),
            "sharded {} != monolithic {}",
            sharded.result.objective,
            mono.objective
        );
    }
}

/// The recommended portfolio's members, restated: greedy, VNS, CP+ and
/// best-swap tabu, in that order.
fn recommended_members(budget: SearchBudget) -> Vec<Box<dyn Solver>> {
    vec![
        Box::new(GreedySolver::new()),
        Box::new(VnsSolver::new(budget)),
        Box::new(CpSolver::with_config(CpConfig::with_properties(budget))),
        Box::new(TabuSolver::with_config(TabuConfig {
            strategy: SwapStrategy::Best,
            budget,
            ..TabuConfig::default()
        })),
    ]
}

/// Differential: on seeded zero-coupling block instances (4–6 blocks of
/// 8–32 indexes), each shard's result is the first strict minimum, in
/// member order, over standalone runs of the four members on the projected
/// shard, and the solve's order is the recombination of those schedules.
#[test]
fn sharded_solve_equals_standalone_member_runs() {
    let budget = SearchBudget::nodes(20);
    for (num_blocks, block_size, seed) in [(4, 8, 11), (5, 16, 12), (6, 24, 13), (4, 32, 14)] {
        let instance = generate_block_structured(BlockStructuredConfig::blocks(
            num_blocks, block_size, 0, seed,
        ));
        let mut config = ShardedConfig::with_budget(budget);
        config.cancel_on_optimal = false;
        config.cooperation = CooperationPolicy::Off;
        let outcome = ShardedSolver::new(config).solve(&instance);
        let cell = format!("{num_blocks} blocks of {block_size}, seed {seed}");
        assert!(outcome.exact && !outcome.monolithic_fallback, "{cell}");
        assert!(outcome.shards.len() >= num_blocks, "{cell}");

        let mut schedules = Vec::with_capacity(outcome.shards.len());
        for (k, report) in outcome.shards.iter().enumerate() {
            let shard = project(&instance, &report.members);
            let runs: Vec<SolveResult> = recommended_members(budget)
                .iter()
                .map(|member| member.run_standalone(&shard.instance, budget))
                .collect();
            let mut best: Option<&SolveResult> = None;
            for run in runs.iter().filter(|r| r.is_feasible()) {
                if best.is_none_or(|b| run.objective < b.objective) {
                    best = Some(run);
                }
            }
            let best = best.expect("greedy is always feasible");
            let outcome_want = if runs.iter().any(SolveResult::is_optimal) {
                SolveOutcome::Optimal
            } else {
                SolveOutcome::Feasible
            };
            let got = &report.result;
            let cell = format!("{cell}, shard {k}");
            assert_eq!(got.deployment, best.deployment, "{cell}");
            assert_eq!(got.objective.to_bits(), best.objective.to_bits(), "{cell}");
            assert_eq!(
                got.nodes,
                runs.iter().map(|r| r.nodes).sum::<u64>(),
                "{cell}"
            );
            assert_eq!(got.outcome, outcome_want, "{cell}");

            let deployment = best
                .deployment
                .as_ref()
                .expect("a feasible run has an order");
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
        let order = outcome.result.deployment.as_ref().expect("a sharded order");
        assert_eq!(
            order.order(),
            recombine::merge(&schedules).as_slice(),
            "{cell}"
        );
    }
}
