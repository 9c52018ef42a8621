//! Ablation benches, beyond the paper's figures; each compares two
//! variants of one design choice:
//!
//! * changed-interval + base-set caching gain: CREST vs CREST-A on the
//!   same arrangements (isolates §V-C against §V-B alone),
//! * influence-measure cost sensitivity: count vs capacity measure under
//!   CREST (the `λ` factor in `O(n log n + rλ)`),
//! * regions, sweep vs sink: one CREST sweep into `NullSink` (the sweep
//!   alone) and into the bounded `TopKSink` a region answer runs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rnnhm_bench::runner::{capacity_measure, count, square_arrangement};
use rnnhm_bench::workload::{build_workload, DatasetKind};
use rnnhm_core::crest::{crest_a_sweep, crest_sweep};
use rnnhm_core::measure::{InfluenceMeasure, WeightedMeasure};
use rnnhm_core::sink::{MaterializeSink, NullSink, TopKSink};
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

/// Sweeps `arr` into `TopKSink::with_bound(k, raw_upper_bound)`, as
/// `Session::top_k` does on a fresh snapshot.
fn bounded_top_k<M: InfluenceMeasure>(
    arr: &rnnhm_core::SquareArrangement,
    measure: &M,
    k: usize,
) -> usize {
    let mut sink = TopKSink::with_bound(k, |raw: &[u32]| measure.raw_upper_bound(raw));
    crest_sweep(arr, measure, &mut sink);
    sink.into_top().len()
}

fn sweep_vs_sink(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_vs_sink");
    group.sample_size(10);
    // `what_if`'s region query: uniform 10k, ratio 16, L∞, count, top 5.
    let w = build_workload(DatasetKind::Uniform, 10_000, 16, 1);
    let arr = square_arrangement(&w, Metric::Linf);
    group.bench_function("uniform10k_count/NullSink", |b| {
        b.iter(|| crest_sweep(black_box(&arr), &count(), &mut NullSink))
    });
    group.bench_function("uniform10k_count/TopKSink5", |b| {
        b.iter(|| bounded_top_k(black_box(&arr), &count(), 5))
    });
    // `http_mixed`'s measure: LA 10k, ratio 16, L∞, non-dyadic weights,
    // top 3. Weighted keeps the default raw bound (∞), so its sink sorts
    // and scores every label.
    let w = build_workload(DatasetKind::La, 10_000, 16, 1);
    let arr = square_arrangement(&w, Metric::Linf);
    let weighted = WeightedMeasure::new(
        (0..w.clients.len()).map(|i| 0.5 + (i * 37 % 97) as f64 / 97.0).collect(),
    );
    group.bench_function("la10k_weighted/NullSink", |b| {
        b.iter(|| crest_sweep(black_box(&arr), &weighted, &mut NullSink))
    });
    group.bench_function("la10k_weighted/TopKSink3", |b| {
        b.iter(|| bounded_top_k(black_box(&arr), &weighted, 3))
    });
    group.finish();
}

criterion_group!(benches, changed_interval_gain, measure_cost, sweep_vs_sink);
criterion_main!(benches);
