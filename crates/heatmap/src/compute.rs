//! Rasterization: influence values on a pixel grid.
//!
//! Two paths, one fast and one obviously correct:
//!
//! * **Exact scanline** ([`rasterize_squares`], [`rasterize_disks`] —
//!   the default): each pixel row is swept once; NN-shapes contribute
//!   enter/leave events at the pixel columns where their row span
//!   starts and ends, and the influence is maintained *incrementally*
//!   ([`rnnhm_core::IncrementalMeasure`]) between events instead of
//!   being recomputed per pixel. Rows render in parallel bands across
//!   all cores. `O(Σ rows(shape) + events·log events + P)` — typically
//!   orders of magnitude less work than the per-pixel oracle at heat-map
//!   resolutions. Under the count measure, row-invariant squares skip
//!   events and add into a per-row difference array — the paper's
//!   superimposition (Fig 3(b)), exact because the count is a plain sum.
//!   Implemented in [`crate::scanline`].
//! * **Exact per-pixel oracle** ([`rasterize_squares_oracle`],
//!   [`rasterize_disks_oracle`]): an independent point-enclosure query
//!   per pixel center against an R-tree over the NN-circles, then the
//!   measure on the resulting RNN set. `O(P · (log n + α + measure))`
//!   with no coherence between adjacent pixels. Works for any
//!   [`InfluenceMeasure`] (no incremental interface needed) and serves
//!   as the reference implementation the scanline path is tested
//!   bit-identical against (`tests/scanline_matches_oracle.rs`).
//!
//! The scanline path is bit-identical to the oracle for every measure
//! whose value is an order-insensitive exact computation (all four
//! paper measures; see [`rnnhm_core::IncrementalMeasure`]'s contract).
//! Measures summing arbitrary floats may differ from the oracle by f64
//! addition order (~1 ULP); use [`rasterize_squares_oracle`] when exact
//! stab-order rounding is required.

use rnnhm_core::arrangement::{DiskArrangement, SquareArrangement};
use rnnhm_core::measure::{IncrementalMeasure, InfluenceMeasure};
use rnnhm_geom::{Circle, Rect};
use rnnhm_index::RTree;

use crate::raster::{GridSpec, HeatRaster};
use crate::scanline::{rasterize_disks_scanline, rasterize_squares_scanline};

/// Exact rasterization of a square arrangement (L∞ or rotated L1) under
/// any incremental influence measure — the row-parallel scanline path.
///
/// `spec.extent` is in *original* (input) coordinates; pixel centers are
/// mapped through the arrangement's [`rnnhm_core::CoordSpace`] before the
/// enclosure test, so L1 heat maps come out unrotated.
///
/// Measures without a native [`IncrementalMeasure`] implementation can
/// be wrapped in [`rnnhm_core::ExactFallback`]; the fully generic
/// per-pixel path remains available as [`rasterize_squares_oracle`].
pub fn rasterize_squares<M: IncrementalMeasure + Sync>(
    arr: &SquareArrangement,
    measure: &M,
    spec: GridSpec,
) -> HeatRaster {
    rasterize_squares_scanline(arr, measure, spec)
}

/// Exact rasterization of a disk arrangement (L2) under any incremental
/// influence measure — the row-parallel scanline path.
pub fn rasterize_disks<M: IncrementalMeasure + Sync>(
    arr: &DiskArrangement,
    measure: &M,
    spec: GridSpec,
) -> HeatRaster {
    rasterize_disks_scanline(arr, measure, spec)
}

/// Per-pixel-stab exact rasterization of a square arrangement — the
/// reference implementation (see module docs).
pub fn rasterize_squares_oracle<M: InfluenceMeasure>(
    arr: &SquareArrangement,
    measure: &M,
    spec: GridSpec,
) -> HeatRaster {
    let tree = RTree::build(&arr.squares);
    let mut raster = HeatRaster::new(spec);
    let mut hits: Vec<u32> = Vec::new();
    let mut members: Vec<u32> = Vec::new();
    for row in 0..spec.height {
        for col in 0..spec.width {
            let p = arr.space.to_sweep(spec.pixel_center(col, row));
            hits.clear();
            tree.stab(p, &mut hits);
            members.clear();
            members.extend(hits.iter().map(|&c| arr.owners[c as usize]));
            raster.set(col, row, measure.influence(&members));
        }
    }
    raster
}

/// Per-pixel-stab exact rasterization of a disk arrangement — the
/// reference implementation (see module docs).
pub fn rasterize_disks_oracle<M: InfluenceMeasure>(
    arr: &DiskArrangement,
    measure: &M,
    spec: GridSpec,
) -> HeatRaster {
    let bboxes: Vec<Rect> = arr.disks.iter().map(Circle::bbox).collect();
    let tree = RTree::build(&bboxes);
    let mut raster = HeatRaster::new(spec);
    let mut hits: Vec<u32> = Vec::new();
    let mut members: Vec<u32> = Vec::new();
    for row in 0..spec.height {
        for col in 0..spec.width {
            let p = spec.pixel_center(col, row);
            hits.clear();
            tree.stab(p, &mut hits);
            members.clear();
            members.extend(
                hits.iter()
                    .filter(|&&c| arr.disks[c as usize].contains_closed(p))
                    .map(|&c| arr.owners[c as usize]),
            );
            raster.set(col, row, measure.influence(&members));
        }
    }
    raster
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnnhm_core::arrangement::CoordSpace;
    use rnnhm_core::measure::CountMeasure;
    use rnnhm_geom::Point;

    fn arr_from_squares(squares: Vec<Rect>) -> SquareArrangement {
        let owners = (0..squares.len() as u32).collect();
        let n = squares.len();
        SquareArrangement {
            squares,
            owners,
            space: CoordSpace::Identity,
            n_clients: n,
            dropped: 0,
            k: 1,
        }
    }

    fn pseudo_squares(n: usize, seed: u64) -> Vec<Rect> {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        (0..n)
            .map(|_| {
                Rect::centered(Point::new(next() * 8.0 + 1.0, next() * 8.0 + 1.0), 0.3 + next())
            })
            .collect()
    }

    #[test]
    fn fast_count_matches_exact() {
        // The scanline's count path (difference array for row-invariant
        // squares) against the per-pixel oracle.
        let arr = arr_from_squares(pseudo_squares(40, 5));
        let spec = GridSpec::new(64, 48, Rect::new(0.0, 10.0, 0.0, 10.0));
        let exact = rasterize_squares_oracle(&arr, &CountMeasure, spec);
        let fast = rasterize_squares(&arr, &CountMeasure, spec);
        for row in 0..spec.height {
            for col in 0..spec.width {
                assert_eq!(
                    exact.get(col, row),
                    fast.get(col, row),
                    "pixel ({col},{row}) center {:?}",
                    spec.pixel_center(col, row)
                );
            }
        }
    }

    #[test]
    fn disks_raster_counts_coverage() {
        let disks =
            vec![Circle::new(Point::new(5.0, 5.0), 2.0), Circle::new(Point::new(6.0, 5.0), 2.0)];
        let owners = vec![0, 1];
        let arr = DiskArrangement { disks, owners, n_clients: 2, dropped: 0, k: 1 };
        let spec = GridSpec::new(50, 50, Rect::new(0.0, 10.0, 0.0, 10.0));
        let raster = rasterize_disks(&arr, &CountMeasure, spec);
        // The midpoint between centers is inside both disks.
        let (c, r) = spec.locate(Point::new(5.5, 5.0)).unwrap();
        assert_eq!(raster.get(c, r), 2.0);
        // Far corner is inside neither.
        let (c, r) = spec.locate(Point::new(0.2, 0.2)).unwrap();
        assert_eq!(raster.get(c, r), 0.0);
    }

    #[test]
    fn square_outside_grid_ignored() {
        let arr = arr_from_squares(vec![Rect::new(100.0, 101.0, 100.0, 101.0)]);
        let spec = GridSpec::new(8, 8, Rect::new(0.0, 10.0, 0.0, 10.0));
        let raster = rasterize_squares(&arr, &CountMeasure, spec);
        assert_eq!(raster.sum(), 0.0);
    }
}
