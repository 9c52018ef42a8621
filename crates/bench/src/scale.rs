//! The country-to-street scenario on a sharded, level-of-detail engine
//! over this crate's Uniform workload: a whole-extent viewport resolves
//! to a coarse zoom and is served from the mipmap pyramid, warm pans
//! stay at that zoom, a street-level window falls back to the exact
//! shard-routed path, and an edit is followed by the lazy pyramid
//! re-patch.

use rnn_heatmap::prelude::*;
use rnn_heatmap::HeatMapBuilder;

use crate::runner::ms;
use crate::workload::{build_workload, DatasetKind};

/// Half-extent pans at the coarse zoom.
const PAN_STEPS: usize = 8;

/// One scenario run.
struct ScaleRun {
    /// Milliseconds to build the sharded engine.
    build_ms: f64,
    /// Milliseconds of the cold whole-extent viewport (pyramid build
    /// included).
    cold_country_ms: f64,
    /// Mean milliseconds of one warm coarse pan.
    warm_pan_ms: f64,
    /// Error bound of the whole-extent frame (0 if it came out exact).
    error_bound: f64,
    /// Whether the whole-extent frame came from the pyramid.
    approx_served: bool,
    /// Whether the whole-extent frame after the edit still came from
    /// the (re-patched) pyramid with a finite bound.
    repatched_approx: bool,
}

fn approx_bound(frame: &ViewportFrame) -> Option<f64> {
    match frame {
        ViewportFrame::Approx { error_bound, .. } => Some(*error_bound),
        _ => None,
    }
}

/// Runs the scenario on `shards` slabs; `ratio` is `|O|/|F|`.
fn run_scale(n_clients: usize, ratio: usize, shards: usize, seed: u64) -> ScaleRun {
    let w = build_workload(DatasetKind::Uniform, n_clients, ratio, seed);

    let start = rnnhm_core::clock::now();
    let engine = HeatMapBuilder::bichromatic(w.clients, w.facilities)
        .metric(Metric::Linf)
        .tile_px(256)
        .shards(shards)
        .lod_exact_zoom(2)
        .build_engine(CountMeasure)
        .expect("non-empty workload");
    let build_ms = ms(start);
    let mut session = engine.session();
    // The "country" is the tile scheme's snapped world; a whole-world
    // request at 512² px resolves to zoom 1, below the threshold, and
    // the first request builds the whole pyramid.
    let world = session.tile_scheme().world();
    let start = rnnhm_core::clock::now();
    let cold = approx_bound(&session.viewport_frame(world, 512, 512));
    let cold_country_ms = ms(start);

    // Warm pans: half-extent windows sliding east at the same zoom.
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

    // Street level: a 1/64-extent window is past the threshold.
    let street = Rect::new(
        world.x_lo + 0.50 * ww,
        world.x_lo + 0.50 * ww + ww / 64.0,
        world.y_lo + 0.50 * ww,
        world.y_lo + 0.50 * ww + ww / 64.0,
    );
    let exact = session.viewport_frame(street, 256, 256);
    assert!(matches!(exact, ViewportFrame::Exact(_)), "street-level viewports must stay exact");
    drop(exact);

    // An edit, then the first coarse frame afterwards pays the lazy
    // pyramid patch.
    session.add_facility(Point::new(0.41, 0.59)).expect("in-bounds add");
    let repatched = approx_bound(&session.viewport_frame(world, 512, 512));

    ScaleRun {
        build_ms,
        cold_country_ms,
        warm_pan_ms,
        error_bound: cold.unwrap_or(0.0),
        approx_served: cold.is_some(),
        repatched_approx: repatched.is_some_and(f64::is_finite),
    }
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
        assert!(r.repatched_approx, "after an edit the country viewport is re-patched, not exact");
    }
}
