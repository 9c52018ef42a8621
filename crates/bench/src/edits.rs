//! Edit-churn benchmarking: what-if facility edits with warm-viewport
//! re-render vs a full rebuild, with a JSON emitter for
//! `BENCH_edits.json`.
//!
//! The what-if scenario (ISSUE 3): an analyst holds a viewport open
//! and scripts 16 facility edits — adds, moves, removes — around it.
//! Per step the *edit path* applies the edit incrementally
//! (`Session::{add,move,remove}_facility`: arrangement maintenance
//! plus targeted tile invalidation) and re-renders the same viewport
//! (only the invalidated tiles rasterize). The *rebuild path* —
//! what the repo did before this subsystem — recomputes every
//! client's NN from scratch over the edited facility set and renders
//! the viewport's spec one-shot. Both paths must produce
//! bit-identical pixels every step; the acceptance bar is a median
//! per-step speedup of at least **5×** at n = 100k, 1024² viewport.

use std::io::Write as _;

use rnnhm_core::arrangement::{build_square_arrangement_k, Mode};
use rnnhm_core::measure::CountMeasure;
use rnnhm_core::parallel::effective_parallelism;
use rnnhm_geom::{Metric, Point, Rect};
use rnnhm_heatmap::scanline::rasterize_squares_scanline;

use crate::runner::{bit_identical, ms};
use crate::workload::{build_workload, DatasetKind};
use rnn_heatmap::HeatMapBuilder;

/// Edits per script (6 adds, 5 moves, 5 removes interleaved).
const EDIT_STEPS: usize = 16;

/// Wall-clock results of one edit-churn run.
#[derive(Debug, Clone)]
pub struct EditChurn {
    /// Number of clients.
    pub n_clients: usize,
    /// The RkNN `k` of the map (1 = plain RNN). Higher `k` widens the
    /// circles, so each edit dirties more area — the edit path's
    /// stress axis.
    pub k: usize,
    /// Number of initial facilities (`|O| / ratio`).
    pub n_facilities: usize,
    /// Requested viewport pixel budget per axis.
    pub view_px: usize,
    /// Tile edge in pixels.
    pub tile_px: usize,
    /// Worker threads available.
    pub threads: usize,
    /// Edits in the script.
    pub steps: usize,
    /// First viewport render, empty cache (cold).
    pub cold_ms: f64,
    /// Median per-step edit + warm-viewport re-render.
    pub edit_median_ms: f64,
    /// Mean per-step edit + warm-viewport re-render.
    pub edit_mean_ms: f64,
    /// Median per-step full rebuild (NN recompute over the edited
    /// facility set + one-shot render of the same viewport spec).
    pub rebuild_median_ms: f64,
    /// `rebuild_median_ms / edit_median_ms` — the acceptance metric.
    pub speedup_median: f64,
    /// Tiles invalidated across the whole script.
    pub tiles_invalidated: u64,
    /// Tiles re-rendered across the whole script (cache misses after
    /// the cold frame).
    pub tiles_rerendered: u64,
    /// Tiles covering one viewport.
    pub tiles_total: usize,
    /// Whether every step's warm frame was bit-identical to the full
    /// rebuild's render of the same spec.
    pub identical: bool,
}

fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// Runs the edit-churn scenario on a Uniform workload under the count
/// measure and the L∞ metric. `ratio` is `|O|/|F|` as in the paper's
/// sweeps.
pub fn compare_edit_paths(
    n_clients: usize,
    ratio: usize,
    view_px: usize,
    tile_px: usize,
    seed: u64,
) -> EditChurn {
    compare_edit_paths_k(n_clients, ratio, view_px, tile_px, seed, 1)
}

/// [`compare_edit_paths`] at RkNN depth `k`: the rebuild path
/// recomputes every client's `k`-NN from scratch, the edit path
/// maintains the `k`-NN candidate lists incrementally.
pub fn compare_edit_paths_k(
    n_clients: usize,
    ratio: usize,
    view_px: usize,
    tile_px: usize,
    seed: u64,
    k: usize,
) -> EditChurn {
    let w = build_workload(DatasetKind::Uniform, n_clients, ratio, seed);
    let n_facilities = w.facilities.len();
    assert!(n_facilities >= k, "workload must offer at least k facilities");
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
        // Edit path: apply one edit, re-render the (warm) viewport.
        let p = site();
        let start = rnnhm_core::clock::now();
        match step % 3 {
            0 => {
                let (id, _) = map.add_facility(p).expect("bichromatic map accepts adds");
                added.push(id);
            }
            1 => {
                match added.last().copied() {
                    Some(id) => drop(map.move_facility(id, p).expect("added id is live")),
                    None => {
                        let (id, _) = map.add_facility(p).expect("add fallback");
                        added.push(id);
                    }
                };
            }
            _ => match added.pop() {
                Some(id) => drop(map.remove_facility(id).expect("added id is live")),
                None => {
                    let (id, _) = map.add_facility(p).expect("add fallback");
                    added.push(id);
                }
            },
        }
        let frame = map.viewport(view, view_px, view_px);
        edit_ms.push(ms(start));

        // Rebuild path: NN recompute from scratch over the *current*
        // facility set + one-shot render of the exact same spec.
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
        // Drop frames before the next allocation (page-fault hygiene on
        // memory-bandwidth-bound boxes).
        drop(frame);
        drop(full);
    }

    let stats = map.cache_stats();
    let edit_median_ms = median(&edit_ms);
    let rebuild_median_ms = median(&rebuild_ms);
    EditChurn {
        n_clients,
        k,
        n_facilities,
        view_px,
        tile_px,
        threads: effective_parallelism(),
        steps: EDIT_STEPS,
        cold_ms,
        edit_median_ms,
        edit_mean_ms: edit_ms.iter().sum::<f64>() / edit_ms.len() as f64,
        rebuild_median_ms,
        speedup_median: rebuild_median_ms / edit_median_ms,
        tiles_invalidated: stats.invalidations,
        tiles_rerendered: stats.misses - misses_before_script,
        tiles_total,
        identical,
    }
}

/// Writes edit-churn results as JSON (hand-rolled; the environment has
/// no serde) to `path`.
pub fn write_edits_json(path: &str, runs: &[EditChurn]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(
        f,
        "  \"benchmark\": \"edit churn: incremental facility edits + warm viewport vs full rebuild\","
    )?;
    writeln!(f, "  \"measure\": \"count\",")?;
    writeln!(f, "  \"metric\": \"Linf\",")?;
    writeln!(f, "  \"dataset\": \"Uniform\",")?;
    writeln!(f, "  \"script\": \"interleaved add/move/remove\",")?;
    writeln!(f, "  \"acceptance\": \"median speedup >= 5x, bit-identical frames\",")?;
    writeln!(f, "  \"runs\": [")?;
    for (i, r) in runs.iter().enumerate() {
        let comma = if i + 1 < runs.len() { "," } else { "" };
        writeln!(f, "    {{")?;
        writeln!(f, "      \"n_clients\": {},", r.n_clients)?;
        writeln!(f, "      \"k\": {},", r.k)?;
        writeln!(f, "      \"n_facilities\": {},", r.n_facilities)?;
        writeln!(f, "      \"view_px\": {},", r.view_px)?;
        writeln!(f, "      \"tile_px\": {},", r.tile_px)?;
        writeln!(f, "      \"threads\": {},", r.threads)?;
        writeln!(f, "      \"edit_steps\": {},", r.steps)?;
        writeln!(f, "      \"cold_viewport_ms\": {:.3},", r.cold_ms)?;
        writeln!(f, "      \"edit_step_median_ms\": {:.3},", r.edit_median_ms)?;
        writeln!(f, "      \"edit_step_mean_ms\": {:.3},", r.edit_mean_ms)?;
        writeln!(f, "      \"rebuild_step_median_ms\": {:.3},", r.rebuild_median_ms)?;
        writeln!(f, "      \"speedup_median\": {:.2},", r.speedup_median)?;
        writeln!(f, "      \"tiles_invalidated\": {},", r.tiles_invalidated)?;
        writeln!(f, "      \"tiles_rerendered\": {},", r.tiles_rerendered)?;
        writeln!(f, "      \"tiles_per_viewport\": {},", r.tiles_total)?;
        writeln!(f, "      \"bit_identical\": {}", r.identical)?;
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
    fn small_edit_churn_runs_and_agrees() {
        let r = compare_edit_paths(512, 16, 96, 32, 7);
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

    #[test]
    fn edits_json_emitter_produces_valid_shape() {
        let r = compare_edit_paths(128, 8, 48, 16, 9);
        let path = std::env::temp_dir().join("bench_edits_test.json");
        let path = path.to_str().unwrap();
        write_edits_json(path, &[r]).unwrap();
        let body = std::fs::read_to_string(path).unwrap();
        assert!(body.contains("\"bit_identical\": true"));
        assert!(body.trim_start().starts_with('{') && body.trim_end().ends_with('}'));
        std::fs::remove_file(path).ok();
    }
}
