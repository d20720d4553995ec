//! Benchmarks for single-message broadcast (Experiment T6 / Figure 1):
//! the cost of computing `f_λ(n)`, building the Fibonacci broadcast tree,
//! and running the full event-driven BCAST simulation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use postal_algos::{run_bcast, BroadcastTree};
use postal_model::{GenFib, Latency};
use std::hint::black_box;

fn bench_gen_fib_index(c: &mut Criterion) {
    let mut group = c.benchmark_group("gen_fib_index");
    for lam in [
        Latency::TELEPHONE,
        Latency::from_ratio(5, 2),
        Latency::from_int(10),
    ] {
        for n in [1u128 << 10, 1 << 20, 1 << 40] {
            group.bench_with_input(BenchmarkId::new(format!("lambda_{lam}"), n), &n, |b, &n| {
                b.iter(|| {
                    // Fresh evaluator per iteration: measures the
                    // table build, the dominant cost in practice.
                    let fib = GenFib::covering(lam, n);
                    black_box(fib.index(black_box(n)))
                });
            });
        }
    }
    group.finish();
}

fn bench_tree_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("fib_tree_build");
    let lam = Latency::from_ratio(5, 2);
    for n in [14u64, 256, 4096] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| black_box(BroadcastTree::build(black_box(n), lam)));
        });
    }
    group.finish();
}

fn bench_bcast_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("bcast_simulation");
    for lam in [Latency::TELEPHONE, Latency::from_ratio(5, 2)] {
        for n in [14usize, 128, 1024] {
            group.bench_with_input(BenchmarkId::new(format!("lambda_{lam}"), n), &n, |b, &n| {
                b.iter(|| black_box(run_bcast(black_box(n), lam).completion));
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_gen_fib_index,
    bench_tree_build,
    bench_bcast_simulation
);
criterion_main!(benches);
