//! Raster operations for exploratory analysis: differences (before/after
//! a candidate placement), peak extraction, and the block copies that
//! stitch tiles into viewports. Coarser and finer views come from the
//! tile layer: `HeatMipmap` averages base tiles, `Viewport::preview`
//! upsamples cached ancestors.

use crate::quant::TilePayload;
use crate::raster::HeatRaster;

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
    use crate::raster::GridSpec;
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
    fn max_pixel_finds_peak() {
        let r = raster_with(&[(2, 1, 9.0), (0, 0, 4.0)], 4, 3);
        assert_eq!(max_pixel(&r), (2, 1, 9.0));
    }
}
