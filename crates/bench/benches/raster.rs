//! Criterion bench for the raster paths: scanline engine vs per-pixel
//! oracle, across grid sizes and client counts, and the two ways to a
//! cached tile payload (dense raster then encode, or built straight
//! from the scanline).
//!
//! Criterion samples moderate sizes. End to end, the scanline path is
//! measured by `perfbench`'s `pan_zoom` workload (every tile miss renders
//! through it); `tests/scanline_matches_oracle.rs` checks its output
//! against the oracle bit for bit, and `tests/payloads_match_encode.rs`
//! checks that both payload paths make the same bytes.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion};
use rnnhm_bench::runner::{capacity_measure, count, square_arrangement};
use rnnhm_bench::workload::{build_workload, DatasetKind};
use rnnhm_core::arrangement::SquareArrangement;
use rnnhm_core::measure::{IncrementalMeasure, WeightedMeasure};
use rnnhm_geom::{Metric, Rect};
use rnnhm_heatmap::compute::rasterize_squares_oracle;
use rnnhm_heatmap::scanline::{
    rasterize_squares_payload, rasterize_squares_scanline, rasterize_squares_scanline_bands,
};
use rnnhm_heatmap::{GridSpec, TileId, TilePayload, TileScheme};
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

/// One zoom level's tiles, each with the arrangement restricted to it
/// beforehand, as the engine's render base does.
type Tiles = Vec<(SquareArrangement, GridSpec)>;

/// Times both payload paths over `tiles`: a dense single-band raster
/// then [`TilePayload::encode`], against the scanline writing the
/// payload itself. Both make the same bytes.
fn payload_paths<M: IncrementalMeasure + Sync>(
    group: &mut BenchmarkGroup<'_>,
    tag: &str,
    tiles: &Tiles,
    measure: &M,
) {
    let hint = measure.integral_influence();
    group.bench_function(format!("dense_encode/{tag}"), |b| {
        b.iter(|| {
            for (sub, spec) in tiles {
                let raster = rasterize_squares_scanline_bands(sub, measure, *spec, 1);
                black_box(TilePayload::encode(raster, hint));
            }
        })
    });
    group.bench_function(format!("scanline_built/{tag}"), |b| {
        b.iter(|| {
            for (sub, spec) in tiles {
                black_box(rasterize_squares_payload(sub, measure, *spec));
            }
        })
    });
}

fn bench_tile_payload(c: &mut Criterion) {
    // The `pan_zoom` instance (NYC, 100k clients, ratio 16, L∞, 256 px
    // tiles); per zoom level, the 3×3 block of tiles around the data's
    // center. Each benchmark renders one block: divide by its tile
    // count for a per-tile time. The weighted measure (non-dyadic
    // weights) takes the event path, count the additive one.
    let mut group = c.benchmark_group("tile_payload");
    group.sample_size(10);
    let w = build_workload(DatasetKind::Nyc, 100_000, 16, 1);
    let arr = square_arrangement(&w, Metric::Linf);
    let bbox = arr.bbox().expect("non-empty arrangement");
    let scheme = TileScheme::for_extent(bbox, 256);
    let weighted = WeightedMeasure::new(
        (0..w.clients.len()).map(|i| 0.5 + (i * 37 % 97) as f64 / 97.0).collect(),
    );
    let world = scheme.world();
    for zoom in [2u8, 4, 6, 8] {
        let n = scheme.n_tiles(zoom);
        let at = |v: f64, lo: f64, side: f64| ((v - lo) / side * n as f64) as u32;
        let (cx, cy) = (
            at(bbox.center().x, world.x_lo, world.width()),
            at(bbox.center().y, world.y_lo, world.height()),
        );
        let mut tiles: Tiles = Vec::new();
        for ty in cy.saturating_sub(1)..(cy + 2).min(n) {
            for tx in cx.saturating_sub(1)..(cx + 2).min(n) {
                let spec = scheme.tile_spec(TileId { zoom, tx, ty });
                tiles.push((arr.restrict_to(spec.extent), spec));
            }
        }
        let tag = format!("z{zoom}x{}", tiles.len());
        payload_paths(&mut group, &format!("count/{tag}"), &tiles, &count());
        payload_paths(&mut group, &format!("weighted/{tag}"), &tiles, &weighted);
    }
    group.finish();
}

criterion_group!(benches, bench_paths, bench_measures, bench_tile_payload);
criterion_main!(benches);
