//! Raster operations for exploratory analysis: differences (before/after
//! a candidate placement), downsampling, and peak extraction.

use crate::quant::TilePayload;
use crate::raster::{GridSpec, HeatRaster};

/// `a − b`, pixel-wise. Panics if the grids differ.
///
/// The exploration use case: render the heat map before and after adding
/// a candidate facility; the difference shows exactly whose influence the
/// newcomer cannibalizes.
pub fn diff(a: &HeatRaster, b: &HeatRaster) -> HeatRaster {
    assert_eq!(a.spec, b.spec, "rasters must share a grid");
    let mut out = HeatRaster::new(a.spec);
    for row in 0..a.spec.height {
        for col in 0..a.spec.width {
            out.set(col, row, a.get(col, row) - b.get(col, row));
        }
    }
    out
}

/// Downsamples by an integer `factor`, averaging each block (partial
/// edge blocks average their covered pixels).
pub fn downsample(r: &HeatRaster, factor: usize) -> HeatRaster {
    assert!(factor >= 1, "factor must be positive");
    let spec = r.spec;
    let w = spec.width.div_ceil(factor);
    let h = spec.height.div_ceil(factor);
    let mut out = HeatRaster::new(GridSpec::new(w, h, spec.extent));
    for row in 0..h {
        for col in 0..w {
            let mut sum = 0.0;
            let mut count = 0usize;
            for dy in 0..factor {
                for dx in 0..factor {
                    let (sc, sr) = (col * factor + dx, row * factor + dy);
                    if sc < spec.width && sr < spec.height {
                        sum += r.get(sc, sr);
                        count += 1;
                    }
                }
            }
            out.set(col, row, sum / count as f64);
        }
    }
    out
}

/// Copies a `w × h` pixel block from `src` (starting at
/// `(src_col, src_row)`) into `dst` (starting at `(dst_col, dst_row)`),
/// row segment by row segment.
///
/// This is the tile-stitching primitive: a viewport raster is assembled
/// by blitting the overlapping block of every covering tile. Values are
/// copied bitwise, so a stitched raster is exactly the tiles' pixels.
///
/// Panics if either block runs outside its raster.
pub fn blit(
    dst: &mut HeatRaster,
    src: &HeatRaster,
    (src_col, src_row): (usize, usize),
    (dst_col, dst_row): (usize, usize),
    (w, h): (usize, usize),
) {
    assert!(src_col + w <= src.spec.width && src_row + h <= src.spec.height, "src block oob");
    assert!(dst_col + w <= dst.spec.width && dst_row + h <= dst.spec.height, "dst block oob");
    let (sw, dw) = (src.spec.width, dst.spec.width);
    for dy in 0..h {
        let s0 = (src_row + dy) * sw + src_col;
        let d0 = (dst_row + dy) * dw + dst_col;
        let src_vals = &src.values()[s0..s0 + w];
        dst.values_mut()[d0..d0 + w].copy_from_slice(src_vals);
    }
}

/// [`blit`] over a cached [`TilePayload`]: copies a `w × h` block from
/// the (possibly compact) `src` payload into `dst`, decoding row
/// segments on the fly. Decoding returns the stored bits of every
/// payload, so this produces the same pixels as blitting the original
/// raster.
///
/// Panics if either block runs outside its raster.
pub fn blit_payload(
    dst: &mut HeatRaster,
    src: &TilePayload,
    (src_col, src_row): (usize, usize),
    (dst_col, dst_row): (usize, usize),
    (w, h): (usize, usize),
) {
    let spec = src.spec();
    assert!(src_col + w <= spec.width && src_row + h <= spec.height, "src block oob");
    assert!(dst_col + w <= dst.spec.width && dst_row + h <= dst.spec.height, "dst block oob");
    let dw = dst.spec.width;
    for dy in 0..h {
        let d0 = (dst_row + dy) * dw + dst_col;
        src.read_row_segment(src_row + dy, src_col, &mut dst.values_mut()[d0..d0 + w]);
    }
}

/// Upsamples by an integer `factor` with nearest-neighbor replication:
/// every source pixel becomes a `factor × factor` block — the inverse
/// companion of [`downsample`], for zoom-out display of an existing
/// raster. (Tile previews use the same nearest-neighbor rule but with
/// per-block offsets into the ancestor tile, implemented inline in
/// `tiles::Viewport::preview`.)
pub fn upsample_nearest(r: &HeatRaster, factor: usize) -> HeatRaster {
    assert!(factor >= 1, "factor must be positive");
    let spec = r.spec;
    let out_spec = GridSpec::new(spec.width * factor, spec.height * factor, spec.extent);
    let mut out = HeatRaster::new(out_spec);
    for row in 0..out_spec.height {
        for col in 0..out_spec.width {
            out.set(col, row, r.get(col / factor, row / factor));
        }
    }
    out
}

/// The hottest pixel: `(col, row, value)`. Ties go to the first in
/// row-major order. `None` on an all-NaN-free empty… rasters are never
/// empty, so this always returns a pixel.
pub fn max_pixel(r: &HeatRaster) -> (usize, usize, f64) {
    let mut best = (0, 0, f64::NEG_INFINITY);
    for row in 0..r.spec.height {
        for col in 0..r.spec.width {
            let v = r.get(col, row);
            if v > best.2 {
                best = (col, row, v);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnnhm_geom::Rect;

    fn raster_with(values: &[(usize, usize, f64)], w: usize, h: usize) -> HeatRaster {
        let mut r = HeatRaster::new(GridSpec::new(w, h, Rect::new(0.0, 1.0, 0.0, 1.0)));
        for &(c, row, v) in values {
            r.set(c, row, v);
        }
        r
    }

    #[test]
    fn diff_subtracts() {
        let a = raster_with(&[(0, 0, 5.0), (1, 1, 3.0)], 2, 2);
        let b = raster_with(&[(0, 0, 2.0), (1, 0, 1.0)], 2, 2);
        let d = diff(&a, &b);
        assert_eq!(d.get(0, 0), 3.0);
        assert_eq!(d.get(1, 0), -1.0);
        assert_eq!(d.get(1, 1), 3.0);
    }

    #[test]
    #[should_panic(expected = "share a grid")]
    fn diff_rejects_mismatched_specs() {
        let a = raster_with(&[], 2, 2);
        let b = raster_with(&[], 3, 2);
        diff(&a, &b);
    }

    #[test]
    fn downsample_averages_blocks() {
        let mut r = raster_with(&[], 4, 4);
        for row in 0..4 {
            for col in 0..4 {
                r.set(col, row, (row * 4 + col) as f64);
            }
        }
        let d = downsample(&r, 2);
        assert_eq!(d.spec.width, 2);
        assert_eq!(d.spec.height, 2);
        // Block (0,0) holds values {0,1,4,5} → mean 2.5.
        assert_eq!(d.get(0, 0), 2.5);
        // Block (1,1) holds {10,11,14,15} → mean 12.5.
        assert_eq!(d.get(1, 1), 12.5);
    }

    #[test]
    fn downsample_handles_ragged_edges() {
        let mut r = raster_with(&[], 3, 3);
        for row in 0..3 {
            for col in 0..3 {
                r.set(col, row, 1.0);
            }
        }
        let d = downsample(&r, 2);
        assert_eq!(d.spec.width, 2);
        assert_eq!(d.spec.height, 2);
        // Constant raster stays constant regardless of block coverage.
        for row in 0..2 {
            for col in 0..2 {
                assert_eq!(d.get(col, row), 1.0);
            }
        }
    }

    #[test]
    fn blit_copies_block() {
        let src = raster_with(&[(0, 0, 1.0), (1, 0, 2.0), (0, 1, 3.0), (1, 1, 4.0)], 3, 3);
        let mut dst = raster_with(&[(0, 0, 9.0)], 4, 4);
        blit(&mut dst, &src, (0, 0), (2, 1), (2, 2));
        assert_eq!(dst.get(2, 1), 1.0);
        assert_eq!(dst.get(3, 1), 2.0);
        assert_eq!(dst.get(2, 2), 3.0);
        assert_eq!(dst.get(3, 2), 4.0);
        // Pixels outside the destination block are untouched.
        assert_eq!(dst.get(0, 0), 9.0);
        assert_eq!(dst.get(1, 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "oob")]
    fn blit_rejects_out_of_bounds() {
        let src = raster_with(&[], 2, 2);
        let mut dst = raster_with(&[], 2, 2);
        blit(&mut dst, &src, (1, 1), (0, 0), (2, 2));
    }

    #[test]
    fn upsample_replicates_and_inverts_downsample() {
        let src = raster_with(&[(0, 0, 1.0), (1, 0, 2.0), (0, 1, 3.0), (1, 1, 4.0)], 2, 2);
        let up = upsample_nearest(&src, 2);
        assert_eq!(up.spec.width, 4);
        assert_eq!(up.spec.height, 4);
        for (col, row, v) in [(0, 0, 1.0), (1, 1, 1.0), (2, 0, 2.0), (1, 2, 3.0), (3, 3, 4.0)] {
            assert_eq!(up.get(col, row), v, "({col},{row})");
        }
        // Averaging each replicated block recovers the original.
        let down = downsample(&up, 2);
        assert_eq!(down.values(), src.values());
    }

    #[test]
    fn max_pixel_finds_peak() {
        let r = raster_with(&[(2, 1, 9.0), (0, 0, 4.0)], 4, 3);
        assert_eq!(max_pixel(&r), (2, 1, 9.0));
    }

    #[test]
    fn identity_downsample() {
        let r = raster_with(&[(1, 1, 7.0)], 3, 3);
        let d = downsample(&r, 1);
        assert_eq!(d.get(1, 1), 7.0);
        assert_eq!(d.spec, r.spec);
    }
}
