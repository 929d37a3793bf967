//! Micro-benchmarks of the Section-5 property analysis (the pre-analysis the
//! paper keeps under one minute) and of each individual detector.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use idd_solver::properties::{self, alliance, colonized, disjoint, dominated, AnalysisOptions};
use idd_workloads::{SyntheticConfig, SyntheticGenerator};

fn bench_properties(c: &mut Criterion) {
    let mut group = c.benchmark_group("property_analysis");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(3));
    for (label, config) in [
        ("tpch-scale", SyntheticConfig::medium(4)),
        ("tpcds-scale", SyntheticConfig::large(4)),
    ] {
        let instance = SyntheticGenerator::new(config).generate();
        group.bench_with_input(
            BenchmarkId::new("alliances", label),
            &instance,
            |b, inst| b.iter(|| alliance::detect(std::hint::black_box(inst))),
        );
        group.bench_with_input(
            BenchmarkId::new("colonized", label),
            &instance,
            |b, inst| b.iter(|| colonized::detect(std::hint::black_box(inst))),
        );
        group.bench_with_input(
            BenchmarkId::new("dominated", label),
            &instance,
            |b, inst| b.iter(|| dominated::detect(std::hint::black_box(inst))),
        );
        group.bench_with_input(BenchmarkId::new("disjoint", label), &instance, |b, inst| {
            b.iter(|| disjoint::detect(std::hint::black_box(inst)))
        });
    }
    // The full analysis (every detector, then the tail step) only on the
    // medium instance to keep bench time reasonable.
    let medium = SyntheticGenerator::new(SyntheticConfig::medium(4)).generate();
    let mut options = AnalysisOptions::all();
    options.tail_budget = 5_000;
    group.bench_function("full_analysis_tpch_scale", |b| {
        b.iter(|| properties::analyze(std::hint::black_box(&medium), options))
    });
    group.finish();
}

criterion_group!(benches, bench_properties);
criterion_main!(benches);
