//! Criterion benchmark for the experiment engine: the seed's
//! rebuild-every-cell sequential Fig. 3/5 loop vs the `SweepRunner`
//! (platforms + route tables constructed once, cells fanned across
//! scoped worker threads). All three variants produce bit-identical
//! reports; only the wall clock differs.

use criterion::{criterion_group, criterion_main, Criterion};
use pim_core::{NoiArch, Platform25D, SweepRunner, SystemConfig};
use std::hint::black_box;
use std::time::Duration;

/// Cold vs warm [`pim_core::EvalCache`]: the cold case pays mapping +
/// DES + costing for every cell on each iteration (cache bypassed, the
/// pre-PR `run all` behaviour between experiments); the warm case
/// replays memoized reports — the fig5-after-fig3 path. Same outputs,
/// very different wall clocks.
fn evalcache(c: &mut Criterion) {
    let cfg = SystemConfig::datacenter_25d();
    let wl = dnn::table2_workload("WL1").unwrap();
    let cold = SweepRunner::new(&cfg).unwrap().with_cache_enabled(false);
    let warm = SweepRunner::new(&cfg).unwrap().with_cache_enabled(true);
    warm.run_workloads(std::slice::from_ref(&wl)); // prime every cell

    let mut g = c.benchmark_group("evalcache-wl1-row");
    g.bench_function("cold-bypass", |b| {
        b.iter(|| cold.run_workloads(black_box(std::slice::from_ref(&wl))))
    });
    g.bench_function("warm-replay", |b| {
        b.iter(|| warm.run_workloads(black_box(std::slice::from_ref(&wl))))
    });
    g.finish();
}

fn sweep(c: &mut Criterion) {
    let cfg = SystemConfig::datacenter_25d();
    let wl = dnn::table2_workload("WL1").unwrap();
    let cached_serial = SweepRunner::new(&cfg).unwrap().with_threads(1);
    let cached_parallel = SweepRunner::new(&cfg).unwrap();

    let mut g = c.benchmark_group("fig345-wl1-row");
    g.bench_function("seed-sequential-rebuild", |b| {
        // The seed's sweep body, before `SweepRunner::run_workloads`: a
        // fresh Platform25D (topology + route table) for every grid cell,
        // strictly sequential.
        b.iter(|| {
            NoiArch::all()
                .into_iter()
                .map(|arch| {
                    Platform25D::new(arch, black_box(&cfg))
                        .expect("paper architectures build")
                        .run_workload(&wl)
                })
                .collect::<Vec<_>>()
        })
    });
    g.bench_function("engine-cached-1-thread", |b| {
        // Construction hoisting alone (same single-threaded execution).
        b.iter(|| cached_serial.run_workloads(black_box(std::slice::from_ref(&wl))))
    });
    g.bench_function("engine-parallel", |b| {
        // Hoisting plus the scoped-thread fan-out.
        b.iter(|| cached_parallel.run_workloads(black_box(std::slice::from_ref(&wl))))
    });
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .measurement_time(Duration::from_secs(10))
        .warm_up_time(Duration::from_secs(1))
        .sample_size(10);
    targets = sweep, evalcache
);
criterion_main!(benches);
