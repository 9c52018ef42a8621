//! Criterion bench for Fig 16: CPU time vs |O|/|F| with the L1 metric,
//! comparing BA, CREST-A and CREST on all four data sets.
//!
//! |O| is fixed at 2^10 as in the paper. Criterion samples moderate
//! ratios; the full paper grid (through 2^10) runs via the `figures`
//! binary (see README's "Benches and figures").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rnnhm_bench::runner::{count, square_arrangement};
use rnnhm_bench::workload::{build_workload, DatasetKind};
use rnnhm_core::baseline::baseline_sweep;
use rnnhm_core::crest::{crest_a_sweep, crest_sweep};
use rnnhm_core::sink::MaterializeSink;
use rnnhm_geom::Metric;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig16_ratio_l1");
    group.sample_size(10);
    let n = 1024;
    for kind in [DatasetKind::Uniform, DatasetKind::Zipfian, DatasetKind::Nyc, DatasetKind::La] {
        for ratio in [2usize, 16, 128] {
            let w = build_workload(kind, n, ratio, 16);
            let arr = square_arrangement(&w, Metric::L1);
            let tag = format!("{}/ratio{}", kind.name(), ratio);
            group.bench_with_input(BenchmarkId::new("BA", &tag), &arr, |b, arr| {
                b.iter(|| baseline_sweep(black_box(arr), &count(), &mut MaterializeSink::default()))
            });
            group.bench_with_input(BenchmarkId::new("CREST-A", &tag), &arr, |b, arr| {
                b.iter(|| crest_a_sweep(black_box(arr), &count(), &mut MaterializeSink::default()))
            });
            group.bench_with_input(BenchmarkId::new("CREST", &tag), &arr, |b, arr| {
                b.iter(|| crest_sweep(black_box(arr), &count(), &mut MaterializeSink::default()))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
