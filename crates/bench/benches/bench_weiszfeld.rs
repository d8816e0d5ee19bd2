//! Criterion micro-benchmark: Weiszfeld gathering-point optimization
//! (supports experiment `abl_gathering`).

use ccs_wrsn::geometry::{weighted_geometric_median, Point};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn anchors(k: usize) -> (Vec<Point>, Vec<f64>) {
    let pts = (0..k)
        .map(|i| {
            let a = i as f64 * 2.399963; // golden-angle spiral
            let r = (i as f64).sqrt() * 10.0;
            Point::new(150.0 + r * a.cos(), 150.0 + r * a.sin())
        })
        .collect();
    let weights = (0..k).map(|i| 0.05 + (i % 7) as f64 * 0.01).collect();
    (pts, weights)
}

fn bench_weiszfeld(c: &mut Criterion) {
    let mut group = c.benchmark_group("weiszfeld");
    for &k in &[5usize, 20, 100, 500] {
        let (pts, weights) = anchors(k);
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| weighted_geometric_median(&pts, &weights).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_weiszfeld);
criterion_main!(benches);
