//! Criterion micro-benchmark: the exact `O(3^n)` set-partition DP
//! (supports experiment `fig8_vs_optimal`; shows why OPT stops at small n).

use ccs_core::prelude::*;
use ccs_wrsn::scenario::ScenarioGenerator;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_optimal(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimal_dp");
    group.sample_size(10);
    for &n in &[6usize, 8, 10, 12] {
        let problem = CcsProblem::new(
            ScenarioGenerator::new(n as u64)
                .devices(n)
                .chargers(4)
                .generate(),
        );
        group.bench_with_input(BenchmarkId::from_parameter(n), &problem, |b, p| {
            b.iter(|| optimal(p, &EqualShare).unwrap())
        });
    }
    group.finish();
}

fn bench_noncoop(c: &mut Criterion) {
    let mut group = c.benchmark_group("noncoop");
    for &n in &[10usize, 50, 100] {
        let problem = CcsProblem::new(
            ScenarioGenerator::new(n as u64)
                .devices(n)
                .chargers(10)
                .generate(),
        );
        group.bench_with_input(BenchmarkId::from_parameter(n), &problem, |b, p| {
            b.iter(|| noncooperation(p, &EqualShare))
        });
    }
    group.finish();
}

fn bench_clustering(c: &mut Criterion) {
    let mut group = c.benchmark_group("clustering_baseline");
    for &n in &[50usize, 200] {
        let problem = CcsProblem::new(
            ScenarioGenerator::new(n as u64)
                .devices(n)
                .chargers(10)
                .generate(),
        );
        group.bench_with_input(BenchmarkId::from_parameter(n), &problem, |b, p| {
            b.iter(|| clustering(p, &EqualShare))
        });
    }
    group.finish();
}

fn bench_hungarian(c: &mut Criterion) {
    let mut group = c.benchmark_group("hungarian_assignment");
    for &n in &[10usize, 50, 100] {
        let cost: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..n).map(|j| ((i * 31 + j * 17) % 97) as f64).collect())
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &cost, |b, cost| {
            b.iter(|| hungarian(cost))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_optimal,
    bench_noncoop,
    bench_clustering,
    bench_hungarian
);
criterion_main!(benches);
