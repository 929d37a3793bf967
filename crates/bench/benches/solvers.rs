//! Micro-benchmarks of the constructive solvers (the interaction-guided
//! greedy, the DP baseline) and of single local-search iterations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use idd_solver::greedy::GreedySolver;
use idd_solver::local::{LnsConfig, LnsSolver, SwapStrategy, TabuConfig, TabuSolver};
use idd_solver::prelude::*;
use idd_workloads::{SyntheticConfig, SyntheticGenerator};

fn bench_constructive(c: &mut Criterion) {
    let mut group = c.benchmark_group("constructive");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(3));
    for (label, config) in [
        ("tpch-scale", SyntheticConfig::medium(2)),
        ("tpcds-scale", SyntheticConfig::large(2)),
    ] {
        let instance = SyntheticGenerator::new(config).generate();
        group.bench_with_input(BenchmarkId::new("greedy", label), &instance, |b, inst| {
            b.iter(|| GreedySolver::new().construct(std::hint::black_box(inst)))
        });
        group.bench_with_input(BenchmarkId::new("dp", label), &instance, |b, inst| {
            b.iter(|| DpSolver::new().construct(std::hint::black_box(inst)))
        });
    }
    group.finish();
}

fn bench_local_iterations(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_search_iterations");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(3));
    let instance = SyntheticGenerator::new(SyntheticConfig::medium(3)).generate();
    let initial = GreedySolver::new().construct(&instance);

    group.bench_function("tabu_bswap_10_iterations", |b| {
        b.iter(|| {
            TabuSolver::with_config(TabuConfig {
                strategy: SwapStrategy::Best,
                budget: SearchBudget::nodes(10),
                ..TabuConfig::default()
            })
            .solve(std::hint::black_box(&instance), initial.clone())
        })
    });
    group.bench_function("tabu_fswap_10_iterations", |b| {
        b.iter(|| {
            TabuSolver::with_config(TabuConfig {
                strategy: SwapStrategy::First,
                budget: SearchBudget::nodes(10),
                ..TabuConfig::default()
            })
            .solve(std::hint::black_box(&instance), initial.clone())
        })
    });
    group.bench_function("lns_10_relaxations", |b| {
        b.iter(|| {
            LnsSolver::with_config(LnsConfig {
                budget: SearchBudget::nodes(10),
                ..LnsConfig::default()
            })
            .solve(std::hint::black_box(&instance), initial.clone())
        })
    });
    group.bench_function("vns_10_relaxations", |b| {
        b.iter(|| {
            VnsSolver::with_config(VnsConfig {
                budget: SearchBudget::nodes(10),
                ..VnsConfig::default()
            })
            .solve(std::hint::black_box(&instance), initial.clone())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_constructive, bench_local_iterations);
criterion_main!(benches);
