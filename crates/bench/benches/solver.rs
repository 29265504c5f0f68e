//! Wall-clock performance of the allocators at and beyond paper scale.
//!
//! The paper's complexity claim is `O(|U|²·|B| + |B|²·|U|·|S|)`; in
//! practice the matcher converges in a handful of iterations, so observed
//! scaling is near-linear in `|U|`. This bench pins that down.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dmra_baselines::{Dcsp, GreedyProfit, NonCo};
use dmra_bench::{bench_instance, bench_instance_with_threads};
use dmra_core::{Allocator, Dmra, Threads};
use std::hint::black_box;

fn bench_allocators(c: &mut Criterion) {
    let mut group = c.benchmark_group("allocate");
    for &n_ues in &[200usize, 400, 900, 1800] {
        let instance = bench_instance(n_ues, 7);
        let dmra = Dmra::default();
        let dcsp = Dcsp::default();
        let nonco = NonCo::default();
        let greedy = GreedyProfit::default();
        let algos: [(&str, &dyn Allocator); 4] = [
            ("DMRA", &dmra),
            ("DCSP", &dcsp),
            ("NonCo", &nonco),
            ("GreedyProfit", &greedy),
        ];
        for (name, algo) in algos {
            group.bench_with_input(BenchmarkId::new(name, n_ues), &instance, |b, inst| {
                b.iter(|| black_box(algo.allocate(black_box(inst))))
            });
        }
    }
    group.finish();
}

fn bench_instance_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("instance-build");
    for &n_ues in &[400usize, 900, 2000] {
        for (label, threads) in [("serial", Threads::Fixed(1)), ("auto", Threads::Auto)] {
            group.bench_with_input(BenchmarkId::new(label, n_ues), &n_ues, |b, &n| {
                b.iter(|| black_box(bench_instance_with_threads(n, 7, threads)))
            });
        }
    }
    group.finish();
}

/// The dense solver against the line-by-line reference it replaced — the
/// hot-path speedup this crate's `BENCH_sweep.json` records.
fn bench_dense_vs_reference(c: &mut Criterion) {
    let mut group = c.benchmark_group("dmra-solve");
    for &n_ues in &[900usize, 2000] {
        let instance = bench_instance(n_ues, 7);
        let dmra = Dmra::default();
        group.bench_with_input(BenchmarkId::new("dense", n_ues), &instance, |b, inst| {
            b.iter(|| black_box(dmra.solve(black_box(inst)).unwrap()))
        });
        group.bench_with_input(
            BenchmarkId::new("reference", n_ues),
            &instance,
            |b, inst| b.iter(|| black_box(dmra.solve_reference(black_box(inst)).unwrap())),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_allocators,
    bench_instance_build,
    bench_dense_vs_reference
);
criterion_main!(benches);
