//! The heat raster: a grid of influence values over a map extent.

use rnnhm_geom::{Point, Rect};

/// Grid geometry: pixel dimensions and the mapped extent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSpec {
    /// Pixels per row.
    pub width: usize,
    /// Number of rows.
    pub height: usize,
    /// The map extent covered by the grid.
    pub extent: Rect,
}

impl GridSpec {
    /// Creates a grid spec; panics on zero dimensions or an empty extent.
    pub fn new(width: usize, height: usize, extent: Rect) -> Self {
        assert!(width > 0 && height > 0, "empty raster");
        assert!(extent.width() > 0.0 && extent.height() > 0.0, "degenerate extent");
        GridSpec { width, height, extent }
    }

    /// Center point of pixel `(col, row)`; row 0 is the *bottom* row
    /// (y increases upward, like map coordinates).
    ///
    /// Computed as `x_lo + (col + 0.5) · pixel_size` with the pixel size
    /// divided out first. When the extent is aligned to a dyadic pixel
    /// lattice — origin and width both integer multiples of a
    /// power-of-two pixel size, as every [`crate::tiles::TileScheme`]
    /// grid is — each operation's true result is representable and the
    /// center is *exact*, independent of the grid's width/height. That
    /// is what makes a tile raster, a stitched viewport, and a one-shot
    /// raster of the same extent agree bit for bit: they all evaluate
    /// the same exact pixel-center coordinates.
    #[inline]
    pub fn pixel_center(&self, col: usize, row: usize) -> Point {
        Point::new(
            self.extent.x_lo + (col as f64 + 0.5) * (self.extent.width() / self.width as f64),
            self.extent.y_lo + (row as f64 + 0.5) * (self.extent.height() / self.height as f64),
        )
    }

    /// Pixel containing `p`, or `None` if outside the extent.
    pub fn locate(&self, p: Point) -> Option<(usize, usize)> {
        if !self.extent.contains_closed(p) {
            return None;
        }
        let fx = (p.x - self.extent.x_lo) / self.extent.width();
        let fy = (p.y - self.extent.y_lo) / self.extent.height();
        let col = ((fx * self.width as f64) as usize).min(self.width - 1);
        let row = ((fy * self.height as f64) as usize).min(self.height - 1);
        Some((col, row))
    }
}

/// A grid of influence values.
#[derive(Debug, Clone)]
pub struct HeatRaster {
    /// Grid geometry.
    pub spec: GridSpec,
    values: Vec<f64>,
}

impl HeatRaster {
    /// Creates a zero-filled raster.
    pub fn new(spec: GridSpec) -> Self {
        HeatRaster { spec, values: vec![0.0; spec.width * spec.height] }
    }

    /// Wraps an existing row-major value buffer (row 0 at the bottom).
    ///
    /// Used by renderers that fill rows in parallel and hand the buffer
    /// over in one move. Panics if the length does not match the spec.
    pub fn from_values(spec: GridSpec, values: Vec<f64>) -> Self {
        assert_eq!(values.len(), spec.width * spec.height, "buffer/spec size mismatch");
        HeatRaster { spec, values }
    }

    /// Value at `(col, row)`.
    #[inline]
    pub fn get(&self, col: usize, row: usize) -> f64 {
        self.values[row * self.spec.width + col]
    }

    /// Sets the value at `(col, row)`.
    #[inline]
    pub fn set(&mut self, col: usize, row: usize, v: f64) {
        self.values[row * self.spec.width + col] = v;
    }

    /// Adds to the value at `(col, row)`.
    #[inline]
    pub fn add(&mut self, col: usize, row: usize, v: f64) {
        self.values[row * self.spec.width + col] += v;
    }

    /// The raw values, row-major with row 0 at the bottom.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the raw values (row-major, row 0 at the
    /// bottom). Used by the tile stitcher to copy whole row segments
    /// with `copy_from_slice` instead of per-pixel `set` calls.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Consumes the raster, handing back its value buffer (row-major,
    /// row 0 at the bottom) without a copy.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// Minimum and maximum value.
    pub fn min_max(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in &self.values {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if lo > hi {
            (0.0, 0.0)
        } else {
            (lo, hi)
        }
    }

    /// Value normalized to `[0, 1]` over the raster's range (0 when the
    /// raster is constant).
    pub fn normalized(&self, col: usize, row: usize) -> f64 {
        let (lo, hi) = self.min_max();
        if hi - lo <= 0.0 {
            0.0
        } else {
            (self.get(col, row) - lo) / (hi - lo)
        }
    }

    /// Sum of all values (used by conservation tests).
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> GridSpec {
        GridSpec::new(10, 5, Rect::new(0.0, 10.0, 0.0, 5.0))
    }

    #[test]
    fn pixel_centers_and_locate_roundtrip() {
        let g = spec();
        for row in 0..g.height {
            for col in 0..g.width {
                let c = g.pixel_center(col, row);
                assert_eq!(g.locate(c), Some((col, row)));
            }
        }
        assert_eq!(g.locate(Point::new(-1.0, 0.0)), None);
        assert_eq!(g.locate(Point::new(100.0, 1.0)), None);
    }

    #[test]
    fn row_zero_is_bottom() {
        let g = spec();
        assert!(g.pixel_center(0, 0).y < g.pixel_center(0, g.height - 1).y);
    }

    #[test]
    fn raster_ops() {
        let mut r = HeatRaster::new(spec());
        r.set(3, 2, 7.0);
        r.add(3, 2, 1.0);
        assert_eq!(r.get(3, 2), 8.0);
        assert_eq!(r.min_max(), (0.0, 8.0));
        assert_eq!(r.normalized(3, 2), 1.0);
        assert_eq!(r.normalized(0, 0), 0.0);
        assert_eq!(r.sum(), 8.0);
    }

    #[test]
    fn constant_raster_normalizes_to_zero() {
        let r = HeatRaster::new(spec());
        assert_eq!(r.normalized(1, 1), 0.0);
    }
}
