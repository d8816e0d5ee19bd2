//! Criterion micro-benchmark: the submodular machinery under CCSA
//! (supports experiment `abl_sfm`): Fujishige–Wolfe min-norm-point SFM,
//! the exact separable fast path, and Dinkelbach density search.

use ccs_submodular::density::{min_density_mnp, min_density_separable};
use ccs_submodular::minimize::{separable_min, SeparableFn};
use ccs_submodular::mnp::minimize;
use ccs_submodular::set_fn::CardinalityPenalized;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bill(n: usize) -> SeparableFn {
    // Deterministic pseudo-random weights that mix signs after the penalty.
    let weights: Vec<f64> = (0..n)
        .map(|i| ((i * 2654435761) % 97) as f64 / 10.0)
        .collect();
    SeparableFn::new(weights, 25.0, 3.0)
}

fn bench_mnp(c: &mut Criterion) {
    let mut group = c.benchmark_group("sfm_min_norm_point");
    for &n in &[10usize, 20, 40, 80] {
        let f = CardinalityPenalized::new(bill(n), 4.0);
        group.bench_with_input(BenchmarkId::from_parameter(n), &f, |b, f| {
            b.iter(|| minimize(f))
        });
    }
    group.finish();
}

fn bench_separable_exact(c: &mut Criterion) {
    let mut group = c.benchmark_group("sfm_separable_exact");
    for &n in &[10usize, 100, 1000] {
        let f = bill(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &f, |b, f| {
            b.iter(|| separable_min(f, 4.0))
        });
    }
    group.finish();
}

fn bench_density(c: &mut Criterion) {
    let mut group = c.benchmark_group("density_search");
    let f = bill(40);
    group.bench_function("dinkelbach_separable_40", |b| {
        b.iter(|| min_density_separable(&f).unwrap())
    });
    group.bench_function("dinkelbach_mnp_40", |b| {
        b.iter(|| min_density_mnp(&f).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_mnp, bench_separable_exact, bench_density);
criterion_main!(benches);
