//! Millions-of-points scale benchmarking: sharded arrangement build,
//! cold country-level viewport (mipmap pyramid build included), warm
//! coarse pans, street-level exact drill-down, and an edit followed by
//! the lazy pyramid re-patch — with a JSON emitter for
//! `BENCH_scale.json`.
//!
//! The scenario (ISSUE 8): an analyst loads a country-sized data set
//! (n up to 2M clients), opens a whole-extent viewport — which resolves
//! to a coarse zoom and is served from the level-of-detail pyramid —
//! pans around at that zoom, drills into a street-level window (exact
//! path, shard-routed restriction), then commits an edit and returns to
//! the coarse view (lazy mipmap patch). The acceptance bar: the cold
//! country viewport in single-digit seconds at n = 2M, warm pans in the
//! millisecond range.

use std::io::Write as _;

use rnn_heatmap::prelude::*;
use rnn_heatmap::HeatMapBuilder;
use rnnhm_core::parallel::effective_parallelism;

use crate::runner::ms;
use crate::workload::{build_workload, DatasetKind};

/// Coarse pan steps at the country zoom.
pub const PAN_STEPS: usize = 8;

/// Wall-clock results of one millions-of-points scale run.
#[derive(Debug, Clone)]
pub struct ScaleRun {
    /// Number of clients (NN-circles before zero-radius drops).
    pub n_clients: usize,
    /// `|O|/|F|` ratio.
    pub ratio: usize,
    /// Vertical slabs in the sharded build.
    pub shards: usize,
    /// The LoD exact-zoom threshold: tiles coarser than this are
    /// approximate.
    pub lod_exact_zoom: u8,
    /// Worker threads available.
    pub threads: usize,
    /// Sharded snapshot build (assignments + per-shard arrangements +
    /// composed fingerprint).
    pub build_ms: f64,
    /// First whole-extent viewport: renders every base tile of the
    /// pyramid, reduces the mipmap levels, stitches the coarse frame.
    pub cold_country_ms: f64,
    /// Mean per-frame time over [`PAN_STEPS`] coarse pans (cached
    /// approximate tiles + stitch).
    pub warm_pan_ms: f64,
    /// Street-level exact viewport (shard-routed restriction, one tile
    /// neighborhood).
    pub drill_down_ms: f64,
    /// One `add_facility` commit at full scale.
    pub edit_ms: f64,
    /// First coarse viewport after the edit: lazy mipmap re-patch of
    /// the dirty-touched base tiles plus the reduction update.
    pub repatch_ms: f64,
    /// The measured error bound reported with the cold coarse frame
    /// (largest exact `max − min` collapsed into one coarse pixel).
    pub error_bound: f64,
    /// Whether the country viewport was in fact served approximate.
    pub approx_served: bool,
    /// Mean bytes a cached tile occupies at scenario end (payload +
    /// entry overhead): count tiles take a fraction of a byte per pixel.
    pub bytes_per_tile: f64,
    /// Cached bytes held in compact payloads at scenario end.
    pub bytes_quantized: usize,
    /// Cached bytes held in raw `f64` payloads at scenario end.
    pub bytes_exact: usize,
}

/// Runs the scale scenario on a Uniform workload under the count
/// measure.
pub fn run_scale(n_clients: usize, ratio: usize, shards: usize, seed: u64) -> ScaleRun {
    let ze: u8 = 2;
    let w = build_workload(DatasetKind::Uniform, n_clients, ratio, seed);

    let start = rnnhm_core::clock::now();
    let engine = HeatMapBuilder::bichromatic(w.clients, w.facilities)
        .metric(Metric::Linf)
        .tile_px(256)
        .shards(shards)
        .lod_exact_zoom(ze)
        .build_engine(CountMeasure)
        .expect("non-empty workload");
    let build_ms = ms(start);
    let mut session = engine.session();
    // The "country" is the tile scheme's snapped world (the
    // arrangement's bounding square) — a whole-world request at two
    // tiles' worth of pixels resolves to zoom 1, below the threshold.
    let world = session.tile_scheme().world();

    // Cold country view: whole extent at 512×512 px resolves to a zoom
    // below the threshold; the first request builds the whole pyramid.
    let start = rnnhm_core::clock::now();
    let frame = session.viewport_frame(world, 512, 512);
    let cold_country_ms = ms(start);
    let (approx_served, error_bound) = match &frame {
        ViewportFrame::Approx { error_bound, .. } => (true, *error_bound),
        _ => (false, 0.0),
    };
    drop(frame);

    // Warm pans: half-extent windows sliding east at the same coarse
    // zoom — every tile is already in the cache.
    let ww = world.width();
    let start = rnnhm_core::clock::now();
    for i in 0..PAN_STEPS {
        let dx = (i + 1) as f64 * (0.45 * ww / PAN_STEPS as f64);
        let view = Rect::new(
            world.x_lo + dx,
            world.x_lo + dx + 0.5 * ww,
            world.y_lo + 0.25 * ww,
            world.y_lo + 0.75 * ww,
        );
        drop(session.viewport_frame(view, 256, 256));
    }
    let warm_pan_ms = ms(start) / PAN_STEPS as f64;

    // Street-level drill-down: a 1/64-extent window is past the
    // threshold — exact, shard-routed, and still interactive.
    let start = rnnhm_core::clock::now();
    let street = Rect::new(
        world.x_lo + 0.50 * ww,
        world.x_lo + 0.50 * ww + ww / 64.0,
        world.y_lo + 0.50 * ww,
        world.y_lo + 0.50 * ww + ww / 64.0,
    );
    let exact = session.viewport_frame(street, 256, 256);
    let drill_down_ms = ms(start);
    assert!(matches!(exact, ViewportFrame::Exact(_)), "street-level viewports must stay exact");
    drop(exact);

    // Edit at full scale, then the first coarse frame afterwards pays
    // the lazy pyramid patch.
    let start = rnnhm_core::clock::now();
    session.add_facility(Point::new(0.41, 0.59)).expect("in-bounds add");
    let edit_ms = ms(start);
    let start = rnnhm_core::clock::now();
    drop(session.viewport_frame(world, 512, 512));
    let repatch_ms = ms(start);

    let cstats = session.cache_stats();
    ScaleRun {
        n_clients,
        ratio,
        shards,
        lod_exact_zoom: ze,
        threads: effective_parallelism(),
        build_ms,
        cold_country_ms,
        warm_pan_ms,
        drill_down_ms,
        edit_ms,
        repatch_ms,
        error_bound,
        approx_served,
        bytes_per_tile: if cstats.entries > 0 {
            cstats.bytes as f64 / cstats.entries as f64
        } else {
            0.0
        },
        bytes_quantized: cstats.bytes_quantized,
        bytes_exact: cstats.bytes_exact,
    }
}

/// Writes scale results as JSON (hand-rolled; the environment has no
/// serde) to `path`.
pub fn write_scale_json(path: &str, runs: &[ScaleRun]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"benchmark\": \"millions-of-points: sharded build + LoD pyramid serving\",")?;
    writeln!(f, "  \"measure\": \"count\",")?;
    writeln!(f, "  \"dataset\": \"Uniform\",")?;
    writeln!(f, "  \"pan_steps\": {PAN_STEPS},")?;
    writeln!(f, "  \"runs\": [")?;
    for (i, r) in runs.iter().enumerate() {
        let comma = if i + 1 < runs.len() { "," } else { "" };
        writeln!(f, "    {{")?;
        writeln!(f, "      \"n_clients\": {},", r.n_clients)?;
        writeln!(f, "      \"ratio\": {},", r.ratio)?;
        writeln!(f, "      \"shards\": {},", r.shards)?;
        writeln!(f, "      \"lod_exact_zoom\": {},", r.lod_exact_zoom)?;
        writeln!(f, "      \"threads\": {},", r.threads)?;
        writeln!(f, "      \"build_ms\": {:.3},", r.build_ms)?;
        writeln!(f, "      \"cold_country_viewport_ms\": {:.3},", r.cold_country_ms)?;
        writeln!(f, "      \"warm_pan_ms\": {:.3},", r.warm_pan_ms)?;
        writeln!(f, "      \"drill_down_exact_ms\": {:.3},", r.drill_down_ms)?;
        writeln!(f, "      \"edit_commit_ms\": {:.3},", r.edit_ms)?;
        writeln!(f, "      \"repatch_coarse_ms\": {:.3},", r.repatch_ms)?;
        writeln!(f, "      \"error_bound\": {:.6},", r.error_bound)?;
        writeln!(f, "      \"approx_served\": {},", r.approx_served)?;
        writeln!(f, "      \"bytes_per_tile\": {:.1},", r.bytes_per_tile)?;
        writeln!(f, "      \"bytes_quantized\": {},", r.bytes_quantized)?;
        writeln!(f, "      \"bytes_exact\": {}", r.bytes_exact)?;
        writeln!(f, "    }}{comma}")?;
    }
    writeln!(f, "  ]")?;
    writeln!(f, "}}")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_run_serves_approx_and_patches() {
        let r = run_scale(2_000, 16, 4, 7);
        assert!(r.approx_served, "the country viewport must come from the pyramid");
        assert!(r.error_bound.is_finite() && r.error_bound >= 0.0);
        assert!(r.build_ms > 0.0 && r.cold_country_ms > 0.0 && r.warm_pan_ms > 0.0);
    }

    #[test]
    fn scale_json_emitter_produces_valid_shape() {
        let r = run_scale(500, 8, 2, 9);
        let path = std::env::temp_dir().join("bench_scale_test.json");
        let path = path.to_str().unwrap();
        write_scale_json(path, &[r]).unwrap();
        let body = std::fs::read_to_string(path).unwrap();
        assert!(body.contains("\"approx_served\": true"));
        assert!(body.trim_start().starts_with('{') && body.trim_end().ends_with('}'));
        std::fs::remove_file(path).ok();
    }
}
