//! Criterion benches for the 3D thermal solver (the Fig. 6/7 inner
//! loop): the production exact solve, with its factor built once as a
//! `Platform3D` does, against the seed's sequential Gauss-Seidel
//! reference, so the solver speedup is a measured number, not an
//! assertion.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;
use thermal::{solve, solve_reference, PowerMap, ThermalConfig, ThermalSolver};

fn gradient_power() -> PowerMap {
    let mut power = PowerMap::new(5, 5, 4).unwrap();
    for x in 0..5 {
        for y in 0..5 {
            for z in 0..4 {
                power
                    .set(x, y, z, 0.2 + 0.1 * ((x + y + z) as f64))
                    .unwrap();
            }
        }
    }
    power
}

fn solver(c: &mut Criterion) {
    let power = gradient_power();
    c.bench_function("thermal-solve-5x5x4", |b| {
        b.iter(|| solve(black_box(&power), &ThermalConfig::m3d()))
    });
    c.bench_function("thermal-solve-10x10x4", |b| {
        let mut big = PowerMap::new(10, 10, 4).unwrap();
        for x in 0..10 {
            for y in 0..10 {
                big.set(x, y, 3, 0.5).unwrap();
            }
        }
        b.iter(|| solve(black_box(&big), &ThermalConfig::m3d()))
    });
}

/// The exact solve (factor once, then solve; and the factor alone) vs
/// the seed Gauss-Seidel on identical inputs, for both stack
/// configurations — the `pim-bench perf` solver comparison as a
/// criterion measurement.
fn solver_comparison(c: &mut Criterion) {
    let power = gradient_power();
    for (stack, cfg) in [("m3d", ThermalConfig::m3d()), ("tsv", ThermalConfig::tsv())] {
        let mut g = c.benchmark_group(format!("thermal-5x5x4-{stack}"));
        g.bench_function("factor", |b| {
            b.iter(|| ThermalSolver::new(5, 5, 4, black_box(&cfg)).unwrap())
        });
        let solver = ThermalSolver::new(5, 5, 4, &cfg).unwrap();
        g.bench_function("exact-solve", |b| {
            b.iter(|| solver.solve(black_box(&power)))
        });
        g.bench_function("seed-gauss-seidel", |b| {
            b.iter(|| solve_reference(black_box(&power), &cfg))
        });
        g.finish();
    }
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_secs(1))
        .sample_size(20);
    targets = solver, solver_comparison
);
criterion_main!(benches);
