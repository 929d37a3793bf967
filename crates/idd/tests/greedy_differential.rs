//! The greedy against a literal reading of Algorithm 1.
//!
//! [`reference`] is the greedy as it was before it kept one density per
//! index on a `PrefixState`: at every step it re-derives every query's best
//! speed-up for every candidate from the plans, on a cloned `built` vector,
//! and checks placeability against the precedence closure.
//! `GreedySolver::construct` must return the same order on every instance
//! of the grid, and `GreedySolver::solve` the bits of `evaluate_area` on it.
//!
//! The grid covers seeded synthetic instances with and without hard
//! precedences, block-structured and TPC-DS instances, residual instances
//! of a replan (built prefix, exclusions and builds in flight), and small
//! integer-valued instances where candidates tie on density.

use idd::prelude::*;
use idd::workloads::{generate_block_structured, BlockStructuredConfig};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// The best speed-up `query` gets from a plan whose indexes are all in
/// `built` (`0.0` when none).
fn query_speedup_with(instance: &ProblemInstance, query: QueryId, built: &[bool]) -> f64 {
    let mut best = 0.0_f64;
    for &pid in instance.plans_of_query(query) {
        let plan = instance.plan(pid);
        if plan.available_in(built) {
            let s = instance.plan_speedup(pid);
            if s > best {
                best = s;
            }
        }
    }
    best
}

/// Algorithm 1 scoring every query for every candidate. Returns the order
/// and the number of steps at which two or more placeable candidates shared
/// the highest density.
fn reference(instance: &ProblemInstance) -> (Deployment, usize) {
    let n = instance.num_indexes();
    let constraints = OrderConstraints::from_instance(instance);

    let mut order: Vec<IndexId> = Vec::with_capacity(n);
    let mut built = vec![false; n];
    let mut tied_steps = 0;

    for _ in 0..n {
        let mut best_index: Option<IndexId> = None;
        let mut best_density = f64::NEG_INFINITY;
        let mut tied = false;

        let current_runtime_by_query: Vec<f64> = instance
            .query_ids()
            .map(|q| instance.query_runtime(q) - query_speedup_with(instance, q, &built))
            .collect();

        for raw in 0..n {
            if built[raw] {
                continue;
            }
            let candidate = IndexId::new(raw);
            if !constraints.can_place(candidate, &built) {
                continue;
            }

            // Immediate benefit of adding the candidate.
            let mut with_candidate = built.clone();
            with_candidate[raw] = true;
            let mut benefit = 0.0;
            for q in instance.query_ids() {
                let previous = current_runtime_by_query[q.raw()];
                let next =
                    instance.query_runtime(q) - query_speedup_with(instance, q, &with_candidate);
                benefit += previous - next;

                // Credit for plans the candidate participates in that
                // are still missing other indexes (`interaction / |p \ N|`
                // of Algorithm 1).
                for &pid in instance.plans_of_query(q) {
                    let plan = instance.plan(pid);
                    if !plan.uses(candidate) {
                        continue;
                    }
                    let runtime_if_plan = instance.query_runtime(q) - instance.plan_speedup(pid);
                    let interaction = next - runtime_if_plan;
                    let missing = plan
                        .indexes
                        .iter()
                        .filter(|i| !with_candidate[i.raw()])
                        .count();
                    if interaction > 0.0 && missing > 0 {
                        benefit += interaction / missing as f64;
                    }
                }
            }

            let cost = instance.effective_build_cost(candidate, &built).max(1e-12);
            let density = benefit / cost;
            if density > best_density {
                best_density = density;
                best_index = Some(candidate);
                tied = false;
            } else if density == best_density {
                tied = true;
            }
        }
        tied_steps += usize::from(tied);

        // All remaining candidates blocked or zero-benefit: fall back to
        // any placeable index (ties broken by id for determinism).
        let chosen = best_index.unwrap_or_else(|| {
            (0..n)
                .map(IndexId::new)
                .find(|&i| !built[i.raw()] && constraints.can_place(i, &built))
                .expect("no placeable index left; precedence constraints are cyclic")
        });
        built[chosen.raw()] = true;
        order.push(chosen);
    }

    (Deployment::new(order), tied_steps)
}

/// Asserts that the greedy reproduces the reference on `instance` and that
/// `solve` reports the canonical area bits; returns the reference's tied
/// steps.
fn check(label: &str, instance: &ProblemInstance) -> usize {
    let (expected, tied_steps) = reference(instance);
    let greedy = GreedySolver::new();
    let order = greedy.construct(instance);
    assert_eq!(
        order.order(),
        expected.order(),
        "{label}: the greedy's order differs from the reference"
    );
    let solved = greedy.solve(instance);
    assert_eq!(solved.deployment.as_ref(), Some(&expected), "{label}");
    let area = ObjectiveEvaluator::new(instance).evaluate_area(&expected);
    assert_eq!(
        solved.objective.to_bits(),
        area.to_bits(),
        "{label}: solve reports {} against evaluate_area's {area}",
        solved.objective
    );
    tied_steps
}

#[test]
fn synthetic_instances_with_and_without_precedences() {
    let mut tied_steps = 0;
    for probability in [0.0, 0.05, 0.3] {
        for seed in 0..60 {
            for (size, mut config) in [
                ("small", SyntheticConfig::small(seed)),
                ("medium", SyntheticConfig::medium(seed)),
            ] {
                config.precedence_probability = probability;
                let instance = generate_synthetic(config);
                tied_steps += check(&format!("{size} seed {seed} p {probability}"), &instance);
            }
        }
    }
    for (seed, probability) in [(1, 0.05), (2, 0.3)] {
        let mut config = SyntheticConfig::large(seed);
        config.precedence_probability = probability;
        let instance = generate_synthetic(config);
        assert!(!instance.precedences().is_empty());
        check(&format!("large seed {seed} p {probability}"), &instance);
    }
    println!("synthetic grid: {tied_steps} tied steps");
}

#[test]
fn block_structured_and_tpcds_instances() {
    for seed in [42, 7] {
        let instance = generate_block_structured(BlockStructuredConfig::blocks(8, 32, 8, seed));
        check(&format!("blocks seed {seed}"), &instance);
    }
    let tpcds = tpcds_instance().expect("the TPC-DS extraction succeeds");
    check("tpcds", &tpcds);
}

/// A random order that honours the hard precedences.
fn random_topological_order(instance: &ProblemInstance, rng: &mut ChaCha8Rng) -> Vec<IndexId> {
    let n = instance.num_indexes();
    let mut waiting = vec![0usize; n];
    for pr in instance.precedences() {
        waiting[pr.after.raw()] += 1;
    }
    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    while order.len() < n {
        let ready: Vec<usize> = (0..n).filter(|&i| !placed[i] && waiting[i] == 0).collect();
        let next = ready[rng.gen_range(0..ready.len())];
        placed[next] = true;
        order.push(IndexId::new(next));
        for pr in instance.precedences() {
            if pr.before.raw() == next {
                waiting[pr.after.raw()] -= 1;
            }
        }
    }
    order
}

#[test]
fn residual_instances_of_a_replan() {
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let mut checked = 0;
    let mut with_exclusions = 0;
    let mut with_in_flight = 0;
    for seed in 0..40 {
        let mut config = SyntheticConfig::medium(seed);
        config.precedence_probability = [0.0, 0.05, 0.3][seed as usize % 3];
        let instance = generate_synthetic(config);
        let n = instance.num_indexes();
        let order = random_topological_order(&instance, &mut rng);
        let built_len = rng.gen_range(0..n - 2);
        let in_flight_len = rng.gen_range(0..=2usize);
        let mut built = vec![false; n];
        for &i in &order[..built_len] {
            built[i.raw()] = true;
        }
        let in_flight = &order[built_len..built_len + in_flight_len];
        let mut excluded = vec![false; n];
        for &i in &order[built_len + in_flight_len..] {
            excluded[i.raw()] = rng.gen_bool(0.15);
        }
        let Ok(residual) = instance.residual_for_replan(&built, in_flight, &excluded) else {
            continue; // an exclusion stranded a successor, or nothing is left
        };
        with_exclusions += usize::from(excluded.contains(&true));
        with_in_flight += usize::from(!in_flight.is_empty());
        check(
            &format!("residual of medium seed {seed}"),
            residual.instance(),
        );
        checked += 1;
    }
    let blocks = generate_block_structured(BlockStructuredConfig::blocks(4, 32, 4, 5));
    let order = random_topological_order(&blocks, &mut rng);
    let mut built = vec![false; blocks.num_indexes()];
    for &i in &order[..60] {
        built[i.raw()] = true;
    }
    let mut excluded = vec![false; blocks.num_indexes()];
    excluded[order[100].raw()] = true;
    let residual = blocks
        .residual_for_replan(&built, &order[60..62], &excluded)
        .expect("the blocks carry no precedences");
    check("residual of blocks", residual.instance());
    assert!(
        checked >= 25 && with_exclusions >= 10 && with_in_flight >= 10,
        "{checked} residuals, {with_exclusions} with exclusions, {with_in_flight} with builds in flight"
    );
}

/// A small instance with integer costs, runtimes, speed-ups and build
/// savings, so that candidates often tie on density, plus one precedence.
fn integer_instance(seed: u64) -> ProblemInstance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = rng.gen_range(4..=10usize);
    let mut b = InstanceBuilder::new(format!("ties-{seed}"));
    let costs: Vec<u32> = (0..n).map(|_| rng.gen_range(1..=4)).collect();
    let idx: Vec<IndexId> = costs.iter().map(|&c| b.add_index(f64::from(c))).collect();
    for _ in 0..rng.gen_range(2..=6usize) {
        let runtime = rng.gen_range(10..=40u32);
        let q = b.add_query(f64::from(runtime));
        for _ in 0..rng.gen_range(1..=3usize) {
            let width = rng.gen_range(1..=3usize);
            let members: Vec<IndexId> = (0..width).map(|_| idx[rng.gen_range(0..n)]).collect();
            b.add_plan(q, members, f64::from(rng.gen_range(1..=runtime)));
        }
    }
    for _ in 0..rng.gen_range(1..=4usize) {
        let (target, helper) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if target != helper {
            let saving = rng.gen_range(1..=costs[target]);
            b.add_build_interaction(idx[target], idx[helper], f64::from(saving));
        }
    }
    let before = rng.gen_range(0..n - 1);
    b.add_precedence(idx[before], idx[rng.gen_range(before + 1..n)]);
    b.build().expect("integer instance is consistent")
}

#[test]
fn integer_instances_with_density_ties() {
    let mut tied_steps = 0;
    for seed in 0..150 {
        tied_steps += check(&format!("ties seed {seed}"), &integer_instance(seed));
    }
    assert!(
        tied_steps > 0,
        "no step had two placeable candidates sharing the highest density"
    );
}

/// A plan that needs no index would be available before anything is
/// built, yet no push ever completes it, so the greedy, the evaluators and
/// the residual derivation would disagree on it. The builder rejects it;
/// the instance without it is accepted.
#[test]
fn a_plan_that_needs_no_index_is_rejected() {
    let build = |with_empty_plan: bool| {
        let mut b = InstanceBuilder::new("empty-plan");
        let i0 = b.add_index(1.0);
        let i1 = b.add_index(1.0);
        let q0 = b.add_query(40.0);
        if with_empty_plan {
            b.add_plan(q0, Vec::new(), 12.0);
        }
        b.add_plan(q0, vec![i0], 10.0);
        let q1 = b.add_query(20.0);
        b.add_plan(q1, vec![i1], 6.0);
        b.build()
    };
    assert!(matches!(
        build(true),
        Err(CoreError::EmptyPlan(p)) if p == PlanId::new(0)
    ));
    check("without the empty plan", &build(false).unwrap());
}
