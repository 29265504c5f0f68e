//! Wall-clock performance of the online arrival/departure engines.
//!
//! Pits the epoch-persistent incremental engine (`run`) against the
//! full-residual-rebuild loop (`run_scratch`) on paper-shaped
//! deployments. The epoch count is kept modest so the bench stays quick;
//! `figures -- bench` and `figures -- bench_event` record the
//! paper-scale numbers in `BENCH_dynamic.json` and
//! `BENCH_dynamic_event.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dmra_sim::dynamic::{DynamicConfig, DynamicSimulator, HoldingDistribution};
use dmra_sim::ScenarioConfig;
use std::hint::black_box;

fn config(arrival_rate: f64, epochs: usize) -> DynamicConfig {
    DynamicConfig {
        scenario: ScenarioConfig::paper_defaults(),
        arrival_rate,
        mean_holding: 5.0,
        holding: HoldingDistribution::Geometric,
        epochs,
        seed: 11,
    }
}

fn bench_dynamic_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamic");
    group.sample_size(10);
    for &rate in &[60.0f64, 120.0] {
        let sim = DynamicSimulator::new(config(rate, 40));
        let incremental = sim.run().expect("incremental engine runs");
        let scratch = sim.run_scratch().expect("scratch engine runs");
        assert_eq!(incremental, scratch, "engines diverged at rate {rate}");
        group.bench_with_input(
            BenchmarkId::new("incremental", rate as u64),
            &sim,
            |b, sim| b.iter(|| black_box(sim.run().unwrap())),
        );
        group.bench_with_input(BenchmarkId::new("scratch", rate as u64), &sim, |b, sim| {
            b.iter(|| black_box(sim.run_scratch().unwrap()))
        });
    }
    // A low-load horizon where most epochs are idle and the engines pay
    // only for the Poisson draw and the departure scan.
    let sim = DynamicSimulator::new(config(1.0, 2000));
    group.bench_with_input(
        BenchmarkId::new("incremental_low_load", 2000u64),
        &sim,
        |b, sim| b.iter(|| black_box(sim.run().unwrap())),
    );
    group.finish();
}

criterion_group!(benches, bench_dynamic_engines);
criterion_main!(benches);
