//! Raster-path agreement on this crate's Uniform workload: the scanline
//! engine against the per-pixel-stab oracle under the count measure,
//! bit for bit, at k = 1 and across RkNN depths.

use rnnhm_core::arrangement::{build_square_arrangement_k, Mode};
use rnnhm_core::measure::CountMeasure;
use rnnhm_geom::{Metric, Rect};
use rnnhm_heatmap::compute::rasterize_squares_oracle;
use rnnhm_heatmap::scanline::rasterize_squares_scanline;
use rnnhm_heatmap::{GridSpec, HeatRaster};

use crate::runner::ms;
use crate::workload::{build_workload, DatasetKind};

/// One scanline-vs-oracle run.
struct RasterComparison {
    /// The RkNN `k` of the arrangement.
    k: usize,
    /// Per-pixel-stab oracle milliseconds.
    oracle_ms: f64,
    /// Scanline engine milliseconds.
    scanline_ms: f64,
    /// Whether the scanline raster was bit-identical to the oracle.
    identical: bool,
}

/// Whether two rasters agree bit for bit.
pub(crate) fn bit_identical(a: &HeatRaster, b: &HeatRaster) -> bool {
    a.values().len() == b.values().len()
        && a.values().iter().zip(b.values()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Renders a Uniform workload's k-NN squares over the unit square with
/// the oracle and the scanline engine; `ratio` is `|O|/|F|` as in the
/// paper's sweeps.
fn compare_raster_paths_k(
    n_clients: usize,
    ratio: usize,
    width: usize,
    height: usize,
    seed: u64,
    k: usize,
) -> RasterComparison {
    let w = build_workload(DatasetKind::Uniform, n_clients, ratio, seed);
    let arr =
        build_square_arrangement_k(&w.clients, &w.facilities, Metric::Linf, Mode::Bichromatic, k)
            .expect("workload offers at least k facilities");
    let spec = GridSpec::new(width, height, Rect::new(0.0, 1.0, 0.0, 1.0));

    let start = rnnhm_core::clock::now();
    let oracle = rasterize_squares_oracle(&arr, &CountMeasure, spec);
    let oracle_ms = ms(start);

    let start = rnnhm_core::clock::now();
    let scan = rasterize_squares_scanline(&arr, &CountMeasure, spec);
    let scanline_ms = ms(start);

    RasterComparison { k, oracle_ms, scanline_ms, identical: bit_identical(&scan, &oracle) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_comparison_runs_and_agrees() {
        let r = compare_raster_paths_k(512, 16, 64, 64, 7, 1);
        assert!(r.identical, "scanline must match the oracle bit for bit");
        assert!(r.oracle_ms > 0.0 && r.scanline_ms > 0.0);
        assert_eq!(r.k, 1);
    }

    #[test]
    fn k_sweep_comparison_runs_and_agrees() {
        for k in [4usize, 16] {
            let r = compare_raster_paths_k(512, 16, 48, 48, 7, k);
            assert!(r.identical, "k={k}: scanline must match the oracle bit for bit");
            assert_eq!(r.k, k);
        }
    }
}
