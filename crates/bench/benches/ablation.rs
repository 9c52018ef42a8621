//! Ablation benches, beyond the paper's figures; each compares two
//! variants of one design choice:
//!
//! * changed-interval + base-set caching gain: CREST vs CREST-A on the
//!   same arrangements (isolates §V-C against §V-B alone),
//! * influence-measure cost sensitivity: count vs capacity measure under
//!   CREST (the `λ` factor in `O(n log n + rλ)`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rnnhm_bench::runner::{capacity_measure, count, square_arrangement};
use rnnhm_bench::workload::{build_workload, DatasetKind};
use rnnhm_core::crest::{crest_a_sweep, crest_sweep};
use rnnhm_core::sink::MaterializeSink;
use rnnhm_geom::Metric;
use std::hint::black_box;

fn changed_interval_gain(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_changed_intervals");
    group.sample_size(10);
    for n in [1024usize, 4096] {
        let w = build_workload(DatasetKind::Uniform, n, 64, 7);
        let arr = square_arrangement(&w, Metric::L1);
        group.bench_with_input(BenchmarkId::new("CREST", n), &arr, |b, arr| {
            b.iter(|| crest_sweep(black_box(arr), &count(), &mut MaterializeSink::default()))
        });
        group.bench_with_input(BenchmarkId::new("CREST-A", n), &arr, |b, arr| {
            b.iter(|| crest_a_sweep(black_box(arr), &count(), &mut MaterializeSink::default()))
        });
    }
    group.finish();
}

fn measure_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_measure_cost");
    group.sample_size(10);
    let w = build_workload(DatasetKind::Zipfian, 2048, 32, 9);
    let arr = square_arrangement(&w, Metric::L1);
    let cap = capacity_measure(&w, 9);
    group.bench_function("count", |b| {
        b.iter(|| crest_sweep(black_box(&arr), &count(), &mut MaterializeSink::default()))
    });
    group.bench_function("capacity", |b| {
        b.iter(|| crest_sweep(black_box(&arr), &cap, &mut MaterializeSink::default()))
    });
    group.finish();
}

criterion_group!(benches, changed_interval_gain, measure_cost);
criterion_main!(benches);
