//! What-if edit agreement on this crate's Uniform workload: an analyst
//! holds a viewport open and scripts facility edits — adds, moves,
//! removes — around it. Per step the *edit path* applies the edit to a
//! [`rnn_heatmap::Session`] (arrangement maintenance plus targeted tile
//! invalidation) and re-renders the warm viewport; the *rebuild path*
//! recomputes every client's k-NN over the edited facility set and
//! renders the same spec one-shot. Both must agree bit for bit.

use rnn_heatmap::HeatMapBuilder;
use rnnhm_core::arrangement::{build_square_arrangement_k, Mode};
use rnnhm_core::measure::CountMeasure;
use rnnhm_geom::{Metric, Point, Rect};
use rnnhm_heatmap::scanline::rasterize_squares_scanline;

use crate::raster::bit_identical;
use crate::runner::ms;
use crate::workload::{build_workload, DatasetKind};

/// Edits per script (adds, moves and removes interleaved).
const EDIT_STEPS: usize = 16;

/// One edit-script run.
struct EditChurn {
    /// The RkNN `k` of the map.
    k: usize,
    /// Edit steps run.
    steps: usize,
    /// Milliseconds of the first (cold) viewport.
    cold_ms: f64,
    /// Median milliseconds of an edit plus warm re-render.
    edit_median_ms: f64,
    /// Median milliseconds of a k-NN rebuild plus one-shot render.
    rebuild_median_ms: f64,
    /// Tiles the script's edits invalidated.
    tiles_invalidated: u64,
    /// Tiles rendered after the cold frame.
    tiles_rerendered: u64,
    /// Tiles one viewport covers.
    tiles_total: usize,
    /// Whether every warm frame matched its rebuild bit for bit.
    identical: bool,
}

fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// Runs the [`EDIT_STEPS`]-step script on a `view_px`² viewport of
/// `tile_px` tiles; `ratio` is `|O|/|F|`.
fn compare_edit_paths_k(
    n_clients: usize,
    ratio: usize,
    view_px: usize,
    tile_px: usize,
    seed: u64,
    k: usize,
) -> EditChurn {
    let w = build_workload(DatasetKind::Uniform, n_clients, ratio, seed);
    assert!(w.facilities.len() >= k, "workload must offer at least k facilities");
    let mut map = HeatMapBuilder::bichromatic(w.clients.clone(), w.facilities.clone())
        .metric(Metric::Linf)
        .k(k)
        .tile_px(tile_px)
        .tile_cache_bytes(512 << 20)
        .build(CountMeasure)
        .expect("non-empty workload");

    // The analyst's viewport: most of the populated unit square.
    let view = Rect::new(0.15, 0.85, 0.15, 0.85);
    let start = rnnhm_core::clock::now();
    let cold = map.viewport(view, view_px, view_px);
    let cold_ms = ms(start);
    assert!(cold.spec.width >= view_px, "viewport must meet the pixel budget");
    let tiles_total = map.tile_scheme().viewport(view, view_px, view_px).tiles().len();
    drop(cold);

    // Deterministic edit sites inside the viewport.
    let mut state = seed ^ 0x9e3779b97f4a7c15;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 11) as f64) / ((1u64 << 53) as f64)
    };
    let mut site = move || Point::new(0.2 + next() * 0.6, 0.2 + next() * 0.6);

    let mut edit_ms = Vec::with_capacity(EDIT_STEPS);
    let mut rebuild_ms = Vec::with_capacity(EDIT_STEPS);
    let mut identical = true;
    let mut added: Vec<u32> = Vec::new();
    let misses_before_script = map.cache_stats().misses;
    for step in 0..EDIT_STEPS {
        let p = site();
        let start = rnnhm_core::clock::now();
        match (step % 3, added.last().copied()) {
            (1, Some(id)) => drop(map.move_facility(id, p).expect("added id is live")),
            (2, Some(id)) => {
                added.pop();
                map.remove_facility(id).expect("added id is live");
            }
            _ => added.push(map.add_facility(p).expect("bichromatic map accepts adds").0),
        }
        let frame = map.viewport(view, view_px, view_px);
        edit_ms.push(ms(start));

        let facilities_now: Vec<Point> = map.facilities().into_iter().map(|(_, p)| p).collect();
        let start = rnnhm_core::clock::now();
        let arr = build_square_arrangement_k(
            &w.clients,
            &facilities_now,
            Metric::Linf,
            Mode::Bichromatic,
            k,
        )
        .expect("non-empty instance");
        let full = rasterize_squares_scanline(&arr, &CountMeasure, frame.spec);
        rebuild_ms.push(ms(start));

        identical &= bit_identical(&frame, &full);
    }

    let stats = map.cache_stats();
    EditChurn {
        k,
        steps: EDIT_STEPS,
        cold_ms,
        edit_median_ms: median(&edit_ms),
        rebuild_median_ms: median(&rebuild_ms),
        tiles_invalidated: stats.invalidations,
        tiles_rerendered: stats.misses - misses_before_script,
        tiles_total,
        identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_edit_churn_runs_and_agrees() {
        let r = compare_edit_paths_k(512, 16, 96, 32, 7, 1);
        assert!(r.identical, "every warm frame must match the rebuild bit for bit");
        assert_eq!(r.steps, EDIT_STEPS);
        assert!(r.tiles_invalidated > 0, "edits inside the viewport must dirty tiles");
        assert!(
            r.tiles_rerendered < (EDIT_STEPS * r.tiles_total) as u64,
            "warm frames must reuse clean tiles"
        );
        assert!(r.cold_ms > 0.0 && r.edit_median_ms > 0.0 && r.rebuild_median_ms > 0.0);
    }

    #[test]
    fn k_sweep_edit_churn_runs_and_agrees() {
        for k in [4usize, 16] {
            let r = compare_edit_paths_k(256, 8, 64, 32, 11, k);
            assert_eq!(r.k, k);
            assert!(r.identical, "k={k}: every warm frame must match the rebuild bit for bit");
        }
    }
}
