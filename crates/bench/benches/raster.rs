//! Criterion bench for the raster paths: scanline engine vs per-pixel
//! oracle, across grid sizes and client counts.
//!
//! Criterion samples moderate sizes. End to end, the scanline path is
//! measured by `perfbench`'s `pan_zoom` workload (every tile miss renders
//! through it); `tests/scanline_matches_oracle.rs` checks its output
//! against the oracle bit for bit.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rnnhm_bench::runner::{capacity_measure, count, square_arrangement};
use rnnhm_bench::workload::{build_workload, DatasetKind};
use rnnhm_geom::{Metric, Rect};
use rnnhm_heatmap::compute::rasterize_squares_oracle;
use rnnhm_heatmap::scanline::rasterize_squares_scanline;
use rnnhm_heatmap::GridSpec;
use std::hint::black_box;

fn bench_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("raster_paths");
    group.sample_size(10);
    let extent = Rect::new(0.0, 1.0, 0.0, 1.0);
    for n in [4_096usize, 32_768] {
        let w = build_workload(DatasetKind::Uniform, n, 16, 11);
        let arr = square_arrangement(&w, Metric::Linf);
        for px in [256usize, 512] {
            let spec = GridSpec::new(px, px, extent);
            let tag = format!("n{n}/px{px}");
            group.bench_with_input(BenchmarkId::new("scanline", &tag), &arr, |b, arr| {
                b.iter(|| rasterize_squares_scanline(black_box(arr), &count(), spec))
            });
            group.bench_with_input(BenchmarkId::new("oracle", &tag), &arr, |b, arr| {
                b.iter(|| rasterize_squares_oracle(black_box(arr), &count(), spec))
            });
        }
    }
    group.finish();
}

fn bench_measures(c: &mut Criterion) {
    // The scanline engine's measure cost is per-event, not per-pixel,
    // so a heavier measure (capacity) should track count closely.
    let mut group = c.benchmark_group("raster_measures");
    group.sample_size(10);
    let n = 8_192;
    let w = build_workload(DatasetKind::Uniform, n, 16, 3);
    let arr = square_arrangement(&w, Metric::Linf);
    let spec = GridSpec::new(256, 256, Rect::new(0.0, 1.0, 0.0, 1.0));
    let capacity = capacity_measure(&w, 5);
    group.bench_function("scanline/count", |b| {
        b.iter(|| rasterize_squares_scanline(black_box(&arr), &count(), spec))
    });
    group.bench_function("scanline/capacity", |b| {
        b.iter(|| rasterize_squares_scanline(black_box(&arr), &capacity, spec))
    });
    group.finish();
}

criterion_group!(benches, bench_paths, bench_measures);
criterion_main!(benches);
