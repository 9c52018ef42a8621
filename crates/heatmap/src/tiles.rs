//! Multi-resolution tile pyramid with cached viewport rendering — the
//! interactive-exploration serving layer.
//!
//! The paper frames RNN heat maps as a tool an analyst *explores*: pan,
//! zoom, score a candidate site, pan again. A full-frame render per
//! viewport change (even a fast one) repeats almost all of its work,
//! because consecutive viewports overlap heavily. Real map servers
//! amortize that cost with a **tile pyramid**: the world is cut into
//! fixed-size square tiles at power-of-two zoom levels, tiles are
//! rendered once and cached, and a viewport is *stitched* from the
//! covering tiles. This module is that substrate:
//!
//! * [`TileId`] / [`TileScheme`] — tile addressing `(zoom, tx, ty)`
//!   over a fixed world extent, with per-tile [`GridSpec`] derivation,
//! * [`TileCache`] — a byte-accounted LRU cache keyed by
//!   `(arrangement fingerprint, measure key, tile)` with hit/miss
//!   statistics, safe to share across threads. Entries are
//!   [`TilePayload`]s, not raw rasters: each tile is stored as
//!   deduplicated rows of runs or codes into a palette of its distinct
//!   values (see [`crate::quant`]) — the 256² count tiles of the
//!   `pan_zoom` benchmark average ~14 KB against 512 KiB of raw `f64`;
//!   all eviction and shard accounting runs on true payload bytes,
//! * [`Viewport`] — resolves a map rectangle plus an on-screen pixel
//!   budget to a zoom level and a pixel window of the global grid,
//!   fetches/renders the covering tiles in parallel, and stitches them
//!   into one [`HeatRaster`],
//! * [`Viewport::preview`] — an *instant* coarse image built purely
//!   from already-cached tiles (exact where present, parent tiles
//!   upsampled where not), for progressive display while exact tiles
//!   fill in.
//!
//! ## Exactness: why stitched equals one-shot, bit for bit
//!
//! [`TileScheme::for_extent`] snaps the world to a square whose side is
//! a power of two and whose origin is an integer multiple of
//! `side / 2^10`. Every derived quantity is then *dyadic* with a short
//! mantissa: the pixel size at zoom `z`
//! is `side / (tile_px · 2^z)` (a power of two times a power of two),
//! and every tile or viewport extent is an integer multiple of it. With
//! [`GridSpec::pixel_center`]'s pixel-size-first formula, each floating
//! point operation's true result is representable, so pixel centers
//! come out **exact** — a tile raster, a stitched viewport, and a
//! one-shot render of the viewport's own `GridSpec` all evaluate
//! influence at bitwise-identical coordinates and therefore agree bit
//! for bit (property-tested in `tests/tiles_match_raster.rs`). Tiles
//! cached at one viewport remain exact for every future viewport.
//!
//! The guarantee needs the world coordinates to be moderate relative to
//! the pixel size (the dyadic values must fit in f64's 53-bit
//! mantissa); beyond that the pyramid still renders correctly, merely
//! without the structural bit-identity argument.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Instant;

use rnnhm_core::parallel::{chunk_ranges, effective_parallelism};
use rnnhm_geom::Rect;

use crate::ops::blit_payload;
use crate::quant::TilePayload;
use crate::raster::{GridSpec, HeatRaster};

/// Total pixels per axis of the finest zoom level are capped at
/// `2^MAX_GRID_BITS` so pixel indices stay well inside `u32`/`f64`
/// integer range.
const MAX_GRID_BITS: u32 = 30;

/// Address of one tile: zoom level plus tile column/row.
///
/// Zoom `z` cuts the world into `2^z × 2^z` tiles; `(tx, ty) = (0, 0)`
/// is the south-west corner (rows grow upward, like raster rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TileId {
    /// Zoom level; the world is `2^zoom` tiles on each axis.
    pub zoom: u8,
    /// Tile column, `0 ..= 2^zoom - 1`, west to east.
    pub tx: u32,
    /// Tile row, `0 ..= 2^zoom - 1`, south to north.
    pub ty: u32,
}

impl TileId {
    /// The tile one zoom level up that contains this tile, or `None`
    /// at zoom 0.
    pub fn parent(self) -> Option<TileId> {
        if self.zoom == 0 {
            return None;
        }
        Some(TileId { zoom: self.zoom - 1, tx: self.tx >> 1, ty: self.ty >> 1 })
    }

    /// The ancestor `levels` zoom steps up (`levels = 0` is `self`), or
    /// `None` when that would rise past zoom 0.
    pub fn ancestor(self, levels: u8) -> Option<TileId> {
        if levels > self.zoom {
            return None;
        }
        Some(TileId { zoom: self.zoom - levels, tx: self.tx >> levels, ty: self.ty >> levels })
    }
}

impl std::fmt::Display for TileId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}/{}", self.zoom, self.tx, self.ty)
    }
}

/// Tile-pyramid geometry: a fixed square world extent divided into
/// `2^zoom × 2^zoom` tiles of `tile_px × tile_px` pixels each.
#[derive(Debug, Clone, PartialEq)]
pub struct TileScheme {
    world: Rect,
    tile_px: usize,
    max_zoom: u8,
}

impl TileScheme {
    /// Builds a scheme whose world is a small dyadic square containing
    /// `bbox`: the side is a power of two and the origin an integer
    /// multiple of `side / 2^10` — every world/tile/pixel coordinate is
    /// then dyadic with a short mantissa, which is what makes all
    /// derived pixel-center arithmetic exact (see the module docs).
    ///
    /// `tile_px` is the tile edge in pixels; it must be a power of two
    /// of at least 8 (servers typically use 256).
    ///
    /// Degenerate extents never panic or hang: non-finite coordinates
    /// (or a finite bbox whose width/height overflows to infinity)
    /// fall back to the unit world around the origin, zero-area
    /// bboxes get a minimal positive span, and spans too large for any
    /// finite power-of-two side clamp to the largest representable
    /// dyadic square — the scheme stays valid; out-of-world data
    /// simply maps outside every tile.
    pub fn for_extent(bbox: Rect, tile_px: usize) -> TileScheme {
        assert!(tile_px.is_power_of_two() && tile_px >= 8, "tile_px must be a power of two >= 8");
        let max_zoom = (MAX_GRID_BITS - tile_px.trailing_zeros()) as u8;
        let finite = bbox.x_lo.is_finite()
            && bbox.x_hi.is_finite()
            && bbox.y_lo.is_finite()
            && bbox.y_hi.is_finite()
            && bbox.width().is_finite()
            && bbox.height().is_finite();
        if !finite {
            return TileScheme { world: Rect::new(-0.5, 0.5, -0.5, 0.5), tile_px, max_zoom };
        }
        // Far-from-origin guard: a span many orders of magnitude below
        // the coordinates themselves would push the side/2^10 snap
        // lattice under the coordinates' representable granularity
        // (floor(x/g)·g degrades to noise and the containment check
        // can thrash). Flooring the span at 2^-40 of the magnitude
        // keeps every lattice computation ≥ 12 significant digits.
        let mag = bbox.x_lo.abs().max(bbox.x_hi.abs()).max(bbox.y_lo.abs()).max(bbox.y_hi.abs());
        let span = bbox.width().max(bbox.height()).max(1e-9).max(mag * 2f64.powi(-40));
        // Smallest power of two >= span (shrinking for sub-unit spans).
        let mut side = 1.0f64;
        while side < span {
            side *= 2.0;
        }
        while side.is_finite() && side * 0.5 >= span {
            side *= 0.5;
        }
        // Snap the origin *down* to the lattice of side/2^10. The
        // lattice must be finer than the side itself: a bbox straddling
        // a coarse lattice line (e.g. 0) would otherwise never fit in
        // one cell at any side. At most one doubling is needed, since
        // snapping loses under side/1024 of headroom per axis.
        let world = loop {
            if !side.is_finite() {
                // Astronomical extents (width approaching f64::MAX):
                // no power-of-two side both covers the bbox and stays
                // finite. Clamp to the largest dyadic square centered
                // near the bbox instead of looping forever.
                let half = 2f64.powi(1022);
                let cx = (bbox.x_lo * 0.5 + bbox.x_hi * 0.5).clamp(-2.0 * half, 2.0 * half);
                let cy = (bbox.y_lo * 0.5 + bbox.y_hi * 0.5).clamp(-2.0 * half, 2.0 * half);
                break Rect::new(cx - half, cx + half, cy - half, cy + half);
            }
            let g = side / 1024.0;
            let mut x0 = (bbox.x_lo / g).floor() * g;
            let mut y0 = (bbox.y_lo / g).floor() * g;
            // floor(x/g)·g can land one lattice step high when x/g
            // rounds up to an integer; step back down.
            if x0 > bbox.x_lo {
                x0 -= g;
            }
            if y0 > bbox.y_lo {
                y0 -= g;
            }
            if bbox.x_hi <= x0 + side && bbox.y_hi <= y0 + side {
                break Rect::new(x0, x0 + side, y0, y0 + side);
            }
            side *= 2.0;
        };
        TileScheme { world, tile_px, max_zoom }
    }

    /// The (snapped) world extent the pyramid covers.
    pub fn world(&self) -> Rect {
        self.world
    }

    /// A stable fingerprint of the pyramid geometry (world extent +
    /// tile size). Part of every [`TileKey`]: two schemes over the
    /// same arrangement address geometrically different tiles with the
    /// same `(zoom, tx, ty)`, so a shared cache must separate them.
    pub fn fingerprint(&self) -> u64 {
        rnnhm_core::arrangement::fnv1a_words([
            0x4d5348, // "SHM" discriminant
            self.world.x_lo.to_bits(),
            self.world.y_lo.to_bits(),
            self.world.x_hi.to_bits(),
            self.tile_px as u64,
        ])
    }

    /// Tile edge length in pixels.
    pub fn tile_px(&self) -> usize {
        self.tile_px
    }

    /// The deepest zoom level the scheme addresses.
    pub fn max_zoom(&self) -> u8 {
        self.max_zoom
    }

    /// Number of tiles per axis at `zoom` (`2^zoom`).
    pub fn n_tiles(&self, zoom: u8) -> u32 {
        1u32 << zoom
    }

    /// Number of pixels per axis of the full world grid at `zoom`.
    pub fn n_px(&self, zoom: u8) -> usize {
        self.tile_px << zoom
    }

    /// Side length of one pixel at `zoom` (exact: a power of two times
    /// the world side).
    pub fn pixel_size(&self, zoom: u8) -> f64 {
        self.world.width() / self.n_px(zoom) as f64
    }

    /// Map extent of tile `id` (an exact dyadic sub-square of the
    /// world).
    pub fn tile_extent(&self, id: TileId) -> Rect {
        debug_assert!(id.zoom <= self.max_zoom, "zoom {} past max {}", id.zoom, self.max_zoom);
        debug_assert!(id.tx < self.n_tiles(id.zoom) && id.ty < self.n_tiles(id.zoom));
        let side = self.world.width() / self.n_tiles(id.zoom) as f64;
        Rect::new(
            self.world.x_lo + id.tx as f64 * side,
            self.world.x_lo + (id.tx + 1) as f64 * side,
            self.world.y_lo + id.ty as f64 * side,
            self.world.y_lo + (id.ty + 1) as f64 * side,
        )
    }

    /// The `GridSpec` a renderer must use to produce tile `id`.
    pub fn tile_spec(&self, id: TileId) -> GridSpec {
        GridSpec::new(self.tile_px, self.tile_px, self.tile_extent(id))
    }

    /// The shallowest zoom whose pixels are at least as fine as
    /// `rect` drawn on a `px_w × px_h` screen, clamped to
    /// [`TileScheme::max_zoom`].
    pub fn zoom_for(&self, rect: Rect, px_w: usize, px_h: usize) -> u8 {
        assert!(px_w > 0 && px_h > 0, "empty pixel budget");
        let target = (rect.width() / px_w as f64).min(rect.height() / px_h as f64);
        let mut zoom = 0u8;
        while zoom < self.max_zoom && self.pixel_size(zoom) > target {
            zoom += 1;
        }
        zoom
    }

    /// Resolves a viewport: the window of global pixels (at the zoom
    /// chosen by [`TileScheme::zoom_for`]) covering `rect`, clamped to
    /// the world, together with the tiles that cover it.
    ///
    /// The returned window is *snapped to the tile grid's pixel
    /// lattice*, so its raster is at least as sharp as the requested
    /// `px_w × px_h` budget and every pixel coincides with a tile
    /// pixel — the property that lets cached tiles be reused bitwise.
    pub fn viewport(&self, rect: Rect, px_w: usize, px_h: usize) -> Viewport {
        let zoom = self.zoom_for(rect, px_w, px_h);
        let p = self.pixel_size(zoom);
        let n = self.n_px(zoom);
        let lo_px = |v: f64, origin: f64| -> usize {
            let i = ((v - origin) / p).floor();
            (i.max(0.0) as usize).min(n - 1)
        };
        let hi_px = |v: f64, origin: f64, lo: usize| -> usize {
            let i = ((v - origin) / p).ceil();
            (i.max(0.0) as usize).clamp(lo + 1, n)
        };
        let col0 = lo_px(rect.x_lo, self.world.x_lo);
        let col1 = hi_px(rect.x_hi, self.world.x_lo, col0);
        let row0 = lo_px(rect.y_lo, self.world.y_lo);
        let row1 = hi_px(rect.y_hi, self.world.y_lo, row0);
        let extent = Rect::new(
            self.world.x_lo + col0 as f64 * p,
            self.world.x_lo + col1 as f64 * p,
            self.world.y_lo + row0 as f64 * p,
            self.world.y_lo + row1 as f64 * p,
        );
        let spec = GridSpec::new(col1 - col0, row1 - row0, extent);
        let t = self.tile_px;
        let mut tiles = Vec::new();
        for ty in (row0 / t)..=((row1 - 1) / t) {
            for tx in (col0 / t)..=((col1 - 1) / t) {
                tiles.push(TileId { zoom, tx: tx as u32, ty: ty as u32 });
            }
        }
        Viewport { zoom, col0, row0, spec, tiles }
    }
}

/// A resolved viewport: zoom level, pixel window of the global grid,
/// output [`GridSpec`], and the covering tiles.
///
/// Produced by [`TileScheme::viewport`]; consumed by
/// [`Viewport::stitch`] (exact) or [`Viewport::preview`]
/// (cache-only, instant).
#[derive(Debug, Clone)]
pub struct Viewport {
    /// Resolved zoom level.
    pub zoom: u8,
    col0: usize,
    row0: usize,
    spec: GridSpec,
    tiles: Vec<TileId>,
}

impl Viewport {
    /// The grid the stitched raster will cover (pixel-lattice-snapped;
    /// rendering this spec in one shot yields bit-identical output).
    pub fn spec(&self) -> GridSpec {
        self.spec
    }

    /// Global pixel coordinates of the window's south-west corner.
    pub fn pixel_origin(&self) -> (usize, usize) {
        (self.col0, self.row0)
    }

    /// The tiles covering the window, row-major from the south-west.
    pub fn tiles(&self) -> &[TileId] {
        &self.tiles
    }

    /// The overlap of tile `id` with the window:
    /// `(tile-local origin, window-local origin, block size)`.
    fn overlap(
        &self,
        scheme: &TileScheme,
        id: TileId,
    ) -> ((usize, usize), (usize, usize), (usize, usize)) {
        let t = scheme.tile_px;
        let (tc0, tr0) = (id.tx as usize * t, id.ty as usize * t);
        let c_lo = tc0.max(self.col0);
        let c_hi = (tc0 + t).min(self.col0 + self.spec.width);
        let r_lo = tr0.max(self.row0);
        let r_hi = (tr0 + t).min(self.row0 + self.spec.height);
        debug_assert!(c_lo < c_hi && r_lo < r_hi, "tile {id} does not overlap the window");
        ((c_lo - tc0, r_lo - tr0), (c_lo - self.col0, r_lo - self.row0), (c_hi - c_lo, r_hi - r_lo))
    }

    /// Assembles the viewport raster from `payloads`, one per
    /// [`Viewport::tiles`] entry in the same order.
    ///
    /// The output buffer is filled row by row, append-only (no
    /// zero-fill pass), because the covering tiles blanket every window
    /// pixel. A tile segment whose row repeats the tile's row above
    /// ([`TilePayload::row_repeats`]) is copied from the frame row
    /// above, which shows that very tile row; when every segment of a
    /// frame row repeats, the whole previous frame row is copied. Any
    /// other segment is decoded from its payload. A tile's first row
    /// never repeats, so no copy crosses a tile-row boundary, and the
    /// window's first row is always decoded. The output is
    /// bit-identical to stitching the decoded rasters, because decoding
    /// is bit-exact and a repeated row is bitwise its row above.
    pub fn stitch(&self, scheme: &TileScheme, payloads: &[Arc<TilePayload>]) -> HeatRaster {
        assert_eq!(payloads.len(), self.tiles.len(), "one payload per covering tile");
        let t = scheme.tile_px;
        for tile in payloads {
            assert_eq!(
                (tile.spec().width, tile.spec().height),
                (t, t),
                "tile payload has wrong dimensions"
            );
        }
        let (w, h) = (self.spec.width, self.spec.height);
        let ty0 = self.row0 / t;
        let cols = (self.col0 + w - 1) / t - self.col0 / t + 1;
        debug_assert_eq!(self.tiles.len() % cols, 0, "row-major cover");
        let mut values = Vec::with_capacity(w * h);
        for r in 0..h {
            let g_row = self.row0 + r;
            let row_base = (g_row / t - ty0) * cols;
            let src_row = g_row % t;
            let row_tiles = &payloads[row_base..row_base + cols];
            // Start of the frame row above, if there is one to copy from.
            let above = values.len().checked_sub(w);
            if let Some(above) = above {
                if row_tiles.iter().all(|tile| tile.row_repeats(src_row)) {
                    values.extend_from_within(above..above + w);
                    continue;
                }
            }
            for (tile, id) in row_tiles.iter().zip(&self.tiles[row_base..row_base + cols]) {
                let tc0 = id.tx as usize * t;
                let c_lo = tc0.max(self.col0);
                let c_hi = (tc0 + t).min(self.col0 + w);
                match above {
                    Some(above) if tile.row_repeats(src_row) => {
                        let s0 = above + c_lo - self.col0;
                        values.extend_from_within(s0..s0 + c_hi - c_lo);
                    }
                    _ => tile.append_row_segment(src_row, c_lo - tc0, c_hi - c_lo, &mut values),
                }
            }
        }
        HeatRaster::from_values(self.spec, values)
    }

    /// Builds a coarse image *instantly* from whatever the cache
    /// already holds — no rendering. Exact tiles are blitted where
    /// present; elsewhere the nearest cached ancestor tile is upsampled
    /// (nearest-neighbor), and pixels with no cached cover at all are
    /// filled with `background` (the measure's empty-set influence).
    ///
    /// Returns the raster plus the fraction of pixels backed by
    /// exact-zoom tiles — `1.0` means the preview *is* the exact image.
    /// Lookups use [`TileCache::peek`], so previews neither disturb the
    /// LRU order nor inflate the hit/miss statistics.
    pub fn preview(
        &self,
        scheme: &TileScheme,
        cache: &TileCache,
        arrangement: u64,
        measure: u64,
        background: f64,
    ) -> Preview {
        let mut out = HeatRaster::new(self.spec);
        let t = scheme.tile_px;
        let scheme_key = scheme.fingerprint();
        let mut exact_px = 0usize;
        for &id in &self.tiles {
            let (src, dst, size) = self.overlap(scheme, id);
            let key = TileKey { arrangement, measure, scheme: scheme_key, tile: id };
            if let Some(tile) = cache.peek(key) {
                blit_payload(&mut out, &tile, src, dst, size);
                exact_px += size.0 * size.1;
                continue;
            }
            // Walk up the pyramid for the nearest cached ancestor.
            let mut coarse: Option<(u8, Arc<TilePayload>)> = None;
            for levels in 1..=id.zoom {
                let anc = id.ancestor(levels).expect("levels <= zoom");
                let key = TileKey { arrangement, measure, scheme: scheme_key, tile: anc };
                if let Some(tile) = cache.peek(key) {
                    coarse = Some((levels, tile));
                    break;
                }
            }
            match coarse {
                Some((levels, tile)) => {
                    // Global fine pixel C at this zoom sits inside
                    // ancestor-local pixel (C >> levels) - anc_origin.
                    let anc_c0 = (id.tx as usize >> levels) * t;
                    let anc_r0 = (id.ty as usize >> levels) * t;
                    let fine_c0 = self.col0 + dst.0;
                    let sc0 = (fine_c0 >> levels) - anc_c0;
                    let sc1 = ((fine_c0 + size.0 - 1) >> levels) - anc_c0;
                    // The ancestor row segment this block samples,
                    // decoded once per ancestor row.
                    let mut anc_row = vec![0.0; sc1 - sc0 + 1];
                    let mut decoded = None;
                    for dy in 0..size.1 {
                        let sr = ((self.row0 + dst.1 + dy) >> levels) - anc_r0;
                        if decoded != Some(sr) {
                            tile.read_row_segment(sr, sc0, &mut anc_row);
                            decoded = Some(sr);
                        }
                        let d0 = (dst.1 + dy) * self.spec.width + dst.0;
                        let out_row = &mut out.values_mut()[d0..d0 + size.0];
                        for (dx, px) in out_row.iter_mut().enumerate() {
                            *px = anc_row[((fine_c0 + dx) >> levels) - anc_c0 - sc0];
                        }
                    }
                }
                None => {
                    for dy in 0..size.1 {
                        let d0 = (dst.1 + dy) * self.spec.width + dst.0;
                        out.values_mut()[d0..d0 + size.0].fill(background);
                    }
                }
            }
        }
        let total = self.spec.width * self.spec.height;
        Preview { raster: out, resolved: exact_px as f64 / total as f64 }
    }

    /// Fetches the covering tiles through `cache` — rendering the
    /// misses in parallel via `render` — and stitches the exact
    /// viewport raster. The renderer may return a plain [`HeatRaster`]
    /// (encoded on the way into the cache via `Into<TilePayload>`) or a
    /// pre-encoded payload.
    pub fn render<R, F>(
        &self,
        scheme: &TileScheme,
        cache: &TileCache,
        arrangement: u64,
        measure: u64,
        render: F,
    ) -> HeatRaster
    where
        R: Into<TilePayload>,
        F: Fn(TileId, GridSpec) -> R + Sync,
    {
        let payloads = cache.fetch(arrangement, measure, scheme, &self.tiles, render);
        self.stitch(scheme, &payloads)
    }
}

/// A [`Viewport::preview`] result: the coarse raster plus how much of
/// it is already exact.
#[derive(Debug, Clone)]
pub struct Preview {
    /// The preview image over the viewport's [`Viewport::spec`].
    pub raster: HeatRaster,
    /// Fraction of pixels backed by exact-zoom cached tiles, in
    /// `[0, 1]`.
    pub resolved: f64,
}

/// Cache key: which arrangement, under which measure, through which
/// pyramid geometry, which tile.
///
/// Arrangement fingerprints come from
/// `rnnhm_core::arrangement::{SquareArrangement, DiskArrangement}::fingerprint`;
/// measure keys from `rnnhm_core::measure::InfluenceMeasure::cache_key`;
/// scheme fingerprints from [`TileScheme::fingerprint`]. Together they
/// make one shared cache safe for many heat maps: the same `(zoom,
/// tx, ty)` addresses geometrically different tiles under different
/// schemes, so the scheme must be part of the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TileKey {
    /// Stable fingerprint of the NN-circle arrangement.
    pub arrangement: u64,
    /// Stable key of the influence measure (type + parameters).
    pub measure: u64,
    /// Stable fingerprint of the tile scheme (world extent + tile
    /// size).
    pub scheme: u64,
    /// The tile address.
    pub tile: TileId,
}

/// Occupancy of one cache shard; see [`CacheStats::shards`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardOccupancy {
    /// Bytes currently accounted to this shard's tiles.
    pub bytes: usize,
    /// Tiles currently cached in this shard.
    pub entries: usize,
    /// This shard's byte budget.
    pub capacity: usize,
    /// The largest byte occupancy this shard ever reached.
    pub bytes_high_water: usize,
    /// The portion of `bytes` held in compact (quantized) payloads.
    pub bytes_quantized: usize,
}

/// Counters describing a [`TileCache`]'s behaviour since creation,
/// aggregated over all shards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Tiles inserted.
    pub insertions: u64,
    /// Tiles evicted to make room.
    pub evictions: u64,
    /// Tiles dropped by [`TileCache::invalidate_region`] because a
    /// what-if edit dirtied their extent.
    pub invalidations: u64,
    /// Bytes currently accounted to cached tiles.
    pub bytes: usize,
    /// The portion of `bytes` held in compact payloads (deduplicated
    /// rows of runs or palette codes — see [`crate::quant`]).
    /// `bytes_quantized + bytes_exact == bytes` always.
    pub bytes_quantized: usize,
    /// The portion of `bytes` held in raw `f64` payloads.
    pub bytes_exact: usize,
    /// Tiles currently cached.
    pub entries: usize,
    /// Sum of each shard's byte high-water mark — an upper bound on
    /// the cache's peak byte occupancy (exact with one shard).
    pub bytes_high_water: usize,
    /// Times a fetch found another caller already rendering the same
    /// tile and waited for it instead of rendering (single-flight).
    pub single_flight_waits: u64,
    /// Renders actually avoided: misses answered with a raster some
    /// other caller produced concurrently — either by waiting on its
    /// flight or by finding the tile freshly cached at flight
    /// registration. (Waits whose leader unwound fall back to
    /// rendering and count in neither.)
    pub single_flight_dedups: u64,
    /// Deadline-bounded fetches ([`TileCache::fetch_deadline`]) that
    /// gave up with covering tiles still unrendered. Tiles completed
    /// before the deadline stay cached, so a follow-up preview or
    /// retry starts warmer.
    pub deadline_giveups: u64,
    /// Per-shard occupancy, in shard order.
    pub shards: Vec<ShardOccupancy>,
}

impl CacheStats {
    /// `hits / (hits + misses)`, or 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct CacheEntry {
    payload: Arc<TilePayload>,
    bytes: usize,
    stamp: u64,
}

struct CacheInner {
    map: HashMap<TileKey, CacheEntry>,
    /// Recency order: oldest stamp first. Stamps are unique within a
    /// shard (a monotonically increasing clock), so this is a faithful
    /// LRU list.
    lru: BTreeMap<u64, TileKey>,
    clock: u64,
    bytes: usize,
    /// Portion of `bytes` in compact (quantized) payloads; the exact
    /// portion is `bytes - bytes_quantized`.
    bytes_quantized: usize,
    bytes_high_water: usize,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    invalidations: u64,
}

impl CacheInner {
    fn new() -> CacheInner {
        CacheInner {
            map: HashMap::new(),
            lru: BTreeMap::new(),
            clock: 0,
            bytes: 0,
            bytes_quantized: 0,
            bytes_high_water: 0,
            hits: 0,
            misses: 0,
            insertions: 0,
            evictions: 0,
            invalidations: 0,
        }
    }

    /// Releases `bytes` of `payload` from the occupancy counters.
    fn account_remove(&mut self, payload: &TilePayload, bytes: usize) {
        self.bytes -= bytes;
        if payload.quantized() {
            self.bytes_quantized -= bytes;
        }
    }
}

/// A single-flight ticket: one per `(shard, key)` render in progress.
struct Flight {
    // lint:lock-rank(44)
    state: Mutex<FlightState>,
    // lint:lock-rank(44)
    cv: Condvar,
}

enum FlightState {
    /// The leader is still rendering.
    Pending,
    /// The leader finished; waiters share the payload.
    Done(Arc<TilePayload>),
    /// The leader unwound without producing a payload; waiters render
    /// for themselves.
    Abandoned,
}

/// How a waiter's stay on a [`Flight`] ended.
enum WaitOutcome {
    /// The leader produced a payload before the deadline.
    Done(Arc<TilePayload>),
    /// The leader unwound (or abandoned the flight at its own
    /// deadline) without producing a payload.
    Abandoned,
    /// The waiter's deadline expired while the flight was still
    /// pending.
    TimedOut,
}

impl Flight {
    fn new() -> Flight {
        Flight { state: Mutex::new(FlightState::Pending), cv: Condvar::new() }
    }

    /// Blocks until the leader resolves the flight or `deadline`
    /// passes (`None` waits forever).
    fn wait_until(&self, deadline: Option<Instant>) -> WaitOutcome {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            match &*state {
                FlightState::Pending => match deadline {
                    None => state = self.cv.wait(state).unwrap_or_else(|e| e.into_inner()),
                    Some(d) => {
                        let now = rnnhm_core::clock::now();
                        if now >= d {
                            return WaitOutcome::TimedOut;
                        }
                        state = self
                            .cv
                            .wait_timeout(state, d - now)
                            .unwrap_or_else(|e| e.into_inner())
                            .0;
                    }
                },
                FlightState::Done(payload) => return WaitOutcome::Done(payload.clone()),
                FlightState::Abandoned => return WaitOutcome::Abandoned,
            }
        }
    }

    fn resolve(&self, result: Option<Arc<TilePayload>>) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        *state = match result {
            Some(payload) => FlightState::Done(payload),
            None => FlightState::Abandoned,
        };
        self.cv.notify_all();
    }
}

/// What [`TileCache::begin_flight`] hands a fetch for one missing key.
enum FlightTicket {
    /// The key landed in the cache between the miss and the flight
    /// registration (another caller just finished it).
    Ready(Arc<TilePayload>),
    /// This caller renders the tile; everyone else waits on the flight.
    Leader(Arc<Flight>),
    /// Another caller is already rendering this key.
    Waiter(Arc<Flight>),
}

/// Marks a leader's flight abandoned if the render unwinds, so waiters
/// in *other* fetches fall back to rendering instead of hanging.
struct FlightGuard<'a> {
    cache: &'a TileCache,
    key: TileKey,
    flight: Arc<Flight>,
    armed: bool,
}

impl FlightGuard<'_> {
    fn complete(mut self, payload: Arc<TilePayload>) {
        self.cache.finish_flight(self.key, &self.flight, Some(payload));
        self.armed = false;
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.cache.finish_flight(self.key, &self.flight, None);
        }
    }
}

struct Shard {
    // lint:lock-rank(42)
    inner: Mutex<CacheInner>,
    /// In-progress renders keyed by tile key. Lock order: `flights`
    /// before `inner`; never the reverse.
    // lint:lock-rank(40)
    flights: Mutex<HashMap<TileKey, Arc<Flight>>>,
    capacity: usize,
}

/// Target bytes per shard when picking a shard count automatically: a
/// cache gets one shard per 8 MiB of budget, up to [`MAX_SHARDS`], so
/// small (test-sized) caches keep exact single-LRU semantics while
/// serving-sized caches spread lock contention.
const SHARD_TARGET_BYTES: usize = 8 << 20;

/// Upper bound on the automatic shard count.
const MAX_SHARDS: usize = 8;

/// A thread-safe, byte-accounted, hash-sharded LRU cache of rendered
/// tiles with single-flight miss rendering.
///
/// Keys hash to one of N shards, each an independent LRU with its own
/// byte budget (`capacity / N`) and mutex, so concurrent sessions
/// serving disjoint tiles rarely contend. [`TileCache::fetch`] renders
/// misses *single-flight*: when several callers miss the same key at
/// once, one renders and the rest wait for its raster
/// ([`CacheStats::single_flight_waits`] /
/// [`CacheStats::single_flight_dedups`]) — a thundering herd on a cold
/// viewport does the work once.
///
/// Capacity is in bytes (pixel payload plus a fixed per-entry
/// overhead); inserting past a shard's budget evicts that shard's
/// least-recently-used tiles first. [`TileCache::get`] refreshes
/// recency and counts hit/miss; [`TileCache::peek`] does neither (used
/// by previews).
pub struct TileCache {
    shards: Vec<Shard>,
    capacity: usize,
    flight_waits: AtomicU64,
    flight_dedups: AtomicU64,
    deadline_giveups: AtomicU64,
}

impl TileCache {
    /// Creates a cache bounded at `capacity_bytes`, with the shard
    /// count chosen from the budget (1 shard per 8 MiB, at most 8).
    pub fn new(capacity_bytes: usize) -> TileCache {
        let shards = (capacity_bytes / SHARD_TARGET_BYTES).clamp(1, MAX_SHARDS);
        TileCache::with_shards(capacity_bytes, shards)
    }

    /// Creates a cache bounded at `capacity_bytes` split evenly over
    /// exactly `n_shards` hash shards.
    pub fn with_shards(capacity_bytes: usize, n_shards: usize) -> TileCache {
        assert!(n_shards >= 1, "a cache needs at least one shard");
        let per_shard = capacity_bytes / n_shards;
        TileCache {
            shards: (0..n_shards)
                .map(|_| Shard {
                    inner: Mutex::new(CacheInner::new()),
                    flights: Mutex::new(HashMap::new()),
                    capacity: per_shard,
                })
                .collect(),
            capacity: capacity_bytes,
            flight_waits: AtomicU64::new(0),
            flight_dedups: AtomicU64::new(0),
            deadline_giveups: AtomicU64::new(0),
        }
    }

    /// The byte capacity the cache was built with.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity
    }

    /// Number of hash shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard a key routes to (a stable FNV hash of the key).
    fn shard_of(&self, key: &TileKey) -> &Shard {
        let h = rnnhm_core::arrangement::fnv1a_words([
            key.arrangement,
            key.measure,
            key.scheme,
            key.tile.zoom as u64,
            key.tile.tx as u64,
            key.tile.ty as u64,
        ]);
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    // lint:returns-lock(inner)
    fn lock_inner(shard: &Shard) -> std::sync::MutexGuard<'_, CacheInner> {
        shard.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks `key` up, refreshing its recency; counts a hit or miss.
    pub fn get(&self, key: TileKey) -> Option<Arc<TilePayload>> {
        let mut inner = Self::lock_inner(self.shard_of(&key));
        inner.clock += 1;
        let stamp = inner.clock;
        match inner.map.get_mut(&key) {
            Some(entry) => {
                let old = std::mem::replace(&mut entry.stamp, stamp);
                let payload = entry.payload.clone();
                inner.lru.remove(&old);
                inner.lru.insert(stamp, key);
                inner.hits += 1;
                Some(payload)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Looks `key` up without touching recency or statistics.
    pub fn peek(&self, key: TileKey) -> Option<Arc<TilePayload>> {
        Self::lock_inner(self.shard_of(&key)).map.get(&key).map(|e| e.payload.clone())
    }

    /// Inserts (or replaces) a tile, evicting LRU entries of its shard
    /// until the shard's byte budget holds. A tile larger than the
    /// shard capacity is not cached at all. The byte cost is the
    /// payload's own [`TilePayload::bytes`]: the heap the payload
    /// really holds, so a budget holds as many tiles as fit in memory
    /// (~4,700 of `pan_zoom`'s ~14 KB count tiles in 64 MiB).
    pub fn insert(&self, key: TileKey, payload: Arc<TilePayload>) {
        let bytes = payload.bytes();
        self.place(key, payload, bytes, true);
    }

    /// The insertion worker shared by [`TileCache::insert`] and the
    /// re-key/alias migration paths (which preserve payloads without
    /// counting as fresh insertions).
    fn place(&self, key: TileKey, payload: Arc<TilePayload>, bytes: usize, count_insert: bool) {
        let shard = self.shard_of(&key);
        if bytes > shard.capacity {
            return;
        }
        let mut inner = Self::lock_inner(shard);
        inner.clock += 1;
        let stamp = inner.clock;
        let quantized_in = payload.quantized();
        if let Some(old) = inner.map.insert(key, CacheEntry { payload, bytes, stamp }) {
            inner.lru.remove(&old.stamp);
            inner.account_remove(&old.payload, old.bytes);
        }
        inner.lru.insert(stamp, key);
        inner.bytes += bytes;
        if quantized_in {
            inner.bytes_quantized += bytes;
        }
        if count_insert {
            inner.insertions += 1;
        }
        while inner.bytes > shard.capacity {
            let (&oldest, &victim) = inner.lru.iter().next().expect("bytes > 0 implies entries");
            inner.lru.remove(&oldest);
            let gone = inner.map.remove(&victim).expect("lru and map agree");
            inner.account_remove(&gone.payload, gone.bytes);
            inner.evictions += 1;
        }
        // The settled occupancy peak (transient pre-eviction overshoot
        // excluded, so the mark never exceeds the budget).
        inner.bytes_high_water = inner.bytes_high_water.max(inner.bytes);
    }

    /// Drops every cached tile (statistics are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut inner = Self::lock_inner(shard);
            inner.map.clear();
            inner.lru.clear();
            inner.bytes = 0;
            inner.bytes_quantized = 0;
        }
    }

    /// A consistent per-shard snapshot of the cache counters,
    /// aggregated over all shards.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats {
            single_flight_waits: self.flight_waits.load(Ordering::Relaxed),
            single_flight_dedups: self.flight_dedups.load(Ordering::Relaxed),
            deadline_giveups: self.deadline_giveups.load(Ordering::Relaxed),
            ..CacheStats::default()
        };
        for shard in &self.shards {
            let inner = Self::lock_inner(shard);
            stats.hits += inner.hits;
            stats.misses += inner.misses;
            stats.insertions += inner.insertions;
            stats.evictions += inner.evictions;
            stats.invalidations += inner.invalidations;
            stats.bytes += inner.bytes;
            stats.bytes_quantized += inner.bytes_quantized;
            stats.bytes_exact += inner.bytes - inner.bytes_quantized;
            stats.entries += inner.map.len();
            stats.bytes_high_water += inner.bytes_high_water;
            stats.shards.push(ShardOccupancy {
                bytes: inner.bytes,
                bytes_quantized: inner.bytes_quantized,
                entries: inner.map.len(),
                capacity: shard.capacity,
                bytes_high_water: inner.bytes_high_water,
            });
        }
        stats
    }

    /// Registers interest in rendering `key`: the first caller becomes
    /// the leader, everyone else a waiter. Re-checks the cache under
    /// the flight lock, so a key completed between the caller's miss
    /// and this call is returned ready.
    fn begin_flight(&self, key: TileKey) -> FlightTicket {
        let shard = self.shard_of(&key);
        let mut flights = shard.flights.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(entry) = Self::lock_inner(shard).map.get(&key) {
            return FlightTicket::Ready(entry.payload.clone());
        }
        match flights.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => FlightTicket::Waiter(e.get().clone()),
            std::collections::hash_map::Entry::Vacant(v) => {
                let flight = Arc::new(Flight::new());
                v.insert(flight.clone());
                FlightTicket::Leader(flight)
            }
        }
    }

    /// Resolves a leader's flight and unregisters it.
    fn finish_flight(&self, key: TileKey, flight: &Arc<Flight>, result: Option<Arc<TilePayload>>) {
        let shard = self.shard_of(&key);
        shard.flights.lock().unwrap_or_else(|e| e.into_inner()).remove(&key);
        flight.resolve(result);
    }

    /// Fetches `ids` in order: cached tiles are returned immediately;
    /// misses are rendered *single-flight* — this call renders the
    /// keys it leads (in parallel across all cores when more than one
    /// is missing) and waits for keys another concurrent fetch is
    /// already rendering, reusing that caller's payload.
    ///
    /// `render` receives the tile id and the exact [`GridSpec`] the
    /// tile must be rendered with ([`TileScheme::tile_spec`]); it may
    /// return a plain [`HeatRaster`] (encoded on the way in) or a
    /// pre-encoded [`TilePayload`].
    pub fn fetch<R, F>(
        &self,
        arrangement: u64,
        measure: u64,
        scheme: &TileScheme,
        ids: &[TileId],
        render: F,
    ) -> Vec<Arc<TilePayload>>
    where
        R: Into<TilePayload>,
        F: Fn(TileId, GridSpec) -> R + Sync,
    {
        self.fetch_inner(arrangement, measure, scheme, ids, None, render)
            .expect("a fetch without a deadline always completes")
    }

    /// [`TileCache::fetch`] bounded by a wall-clock `deadline`: misses
    /// render only while time remains (the check runs before each tile
    /// render, never mid-tile), and waits on other callers' flights
    /// time out at the deadline. Returns `None` — counting a
    /// [`CacheStats::deadline_giveups`] — if any requested tile was
    /// still unrendered when the budget ran out; everything rendered
    /// up to that point is already cached, so a follow-up
    /// [`Viewport::preview`] (the graceful-degradation path) or a
    /// retry starts from the warmed state.
    pub fn fetch_deadline<R, F>(
        &self,
        arrangement: u64,
        measure: u64,
        scheme: &TileScheme,
        ids: &[TileId],
        deadline: Instant,
        render: F,
    ) -> Option<Vec<Arc<TilePayload>>>
    where
        R: Into<TilePayload>,
        F: Fn(TileId, GridSpec) -> R + Sync,
    {
        self.fetch_inner(arrangement, measure, scheme, ids, Some(deadline), render)
    }

    fn fetch_inner<R, F>(
        &self,
        arrangement: u64,
        measure: u64,
        scheme: &TileScheme,
        ids: &[TileId],
        deadline: Option<Instant>,
        render: F,
    ) -> Option<Vec<Arc<TilePayload>>>
    where
        R: Into<TilePayload>,
        F: Fn(TileId, GridSpec) -> R + Sync,
    {
        let scheme_key = scheme.fingerprint();
        let key_of = |tile: TileId| TileKey { arrangement, measure, scheme: scheme_key, tile };
        let expired = || deadline.is_some_and(|d| rnnhm_core::clock::now() >= d);
        let mut out: Vec<Option<Arc<TilePayload>>> =
            ids.iter().map(|&tile| self.get(key_of(tile))).collect();
        let mut leaders: Vec<(usize, Arc<Flight>)> = Vec::new();
        let mut waiters: Vec<(usize, Arc<Flight>)> = Vec::new();
        for (i, slot) in out.iter_mut().enumerate() {
            if slot.is_some() {
                continue;
            }
            match self.begin_flight(key_of(ids[i])) {
                FlightTicket::Ready(payload) => {
                    // The key landed in the cache between our miss and
                    // the flight registration: a render avoided, just
                    // without waiting.
                    self.flight_dedups.fetch_add(1, Ordering::Relaxed);
                    *slot = Some(payload);
                }
                FlightTicket::Leader(flight) => leaders.push((i, flight)),
                FlightTicket::Waiter(flight) => {
                    self.flight_waits.fetch_add(1, Ordering::Relaxed);
                    waiters.push((i, flight));
                }
            }
        }
        let gave_up = AtomicBool::new(false);
        if !leaders.is_empty() {
            // Render the led tiles; each flight resolves as soon as its
            // tile lands, so concurrent waiters unblock without waiting
            // for the whole batch. Past the deadline, remaining led
            // flights are abandoned *unrendered* so concurrent waiters
            // fall back to rendering for themselves.
            let render_one =
                |(i, flight): (usize, Arc<Flight>)| -> (usize, Option<Arc<TilePayload>>) {
                    let key = key_of(ids[i]);
                    if expired() {
                        self.finish_flight(key, &flight, None);
                        gave_up.store(true, Ordering::Relaxed);
                        return (i, None);
                    }
                    let guard = FlightGuard { cache: self, key, flight, armed: true };
                    let payload = Arc::new(render(ids[i], scheme.tile_spec(ids[i])).into());
                    self.insert(key, payload.clone());
                    guard.complete(payload.clone());
                    (i, Some(payload))
                };
            let workers = effective_parallelism().min(leaders.len());
            let rendered: Vec<(usize, Option<Arc<TilePayload>>)> = if workers <= 1 {
                leaders.into_iter().map(render_one).collect()
            } else {
                let leaders = &leaders;
                let render_one = &render_one;
                let mut all = Vec::with_capacity(leaders.len());
                thread::scope(|scope| {
                    let handles: Vec<_> = chunk_ranges(leaders.len(), workers)
                        .into_iter()
                        .map(|range| {
                            scope.spawn(move || {
                                range.map(|j| render_one(leaders[j].clone())).collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    for h in handles {
                        all.extend(h.join().expect("tile render worker panicked"));
                    }
                });
                all
            };
            for (i, payload) in rendered {
                out[i] = payload;
            }
        }
        for (i, flight) in waiters {
            match flight.wait_until(deadline) {
                WaitOutcome::Done(payload) => {
                    self.flight_dedups.fetch_add(1, Ordering::Relaxed);
                    out[i] = Some(payload);
                }
                WaitOutcome::Abandoned => {
                    // The leader unwound (or hit its own deadline);
                    // render for ourselves if time remains.
                    if expired() {
                        gave_up.store(true, Ordering::Relaxed);
                        continue;
                    }
                    let key = key_of(ids[i]);
                    let payload = Arc::new(render(ids[i], scheme.tile_spec(ids[i])).into());
                    self.insert(key, payload.clone());
                    out[i] = Some(payload);
                }
                WaitOutcome::TimedOut => gave_up.store(true, Ordering::Relaxed),
            }
        }
        if gave_up.load(Ordering::Relaxed) {
            self.deadline_giveups.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        Some(out.into_iter().map(|r| r.expect("every tile fetched or rendered")).collect())
    }

    /// Collects the entries of `old_arrangement` under `scheme` from
    /// every shard, removing them: dirty-intersecting entries are
    /// dropped (counted as invalidations), the rest are returned for
    /// migration, oldest recency first.
    #[allow(clippy::type_complexity)]
    fn extract_for_edit(
        &self,
        old_arrangement: u64,
        scheme: &TileScheme,
        dirty: &rnnhm_core::edit::DirtyRegion,
        remove_clean: bool,
    ) -> (usize, Vec<(u64, TileKey, Arc<TilePayload>, usize)>) {
        let scheme_key = scheme.fingerprint();
        let mut invalidated = 0usize;
        let mut moved: Vec<(u64, TileKey, Arc<TilePayload>, usize)> = Vec::new();
        for shard in &self.shards {
            let mut inner = Self::lock_inner(shard);
            // Walk the stamp-ordered LRU index, not the hash map: the
            // listing order (and so eviction order after migration) must
            // not depend on the per-process hasher seed.
            let affected: Vec<TileKey> = inner
                .lru
                .values()
                .filter(|k| k.arrangement == old_arrangement && k.scheme == scheme_key)
                .copied()
                .collect();
            for key in affected {
                let is_dirty = dirty.intersects(&scheme.tile_extent(key.tile));
                if is_dirty && remove_clean {
                    let entry = inner.map.remove(&key).expect("key just listed");
                    inner.lru.remove(&entry.stamp);
                    inner.account_remove(&entry.payload, entry.bytes);
                    inner.invalidations += 1;
                    invalidated += 1;
                } else if !is_dirty {
                    if remove_clean {
                        let entry = inner.map.remove(&key).expect("key just listed");
                        inner.lru.remove(&entry.stamp);
                        inner.account_remove(&entry.payload, entry.bytes);
                        moved.push((entry.stamp, key, entry.payload, entry.bytes));
                    } else {
                        let entry = &inner.map[&key];
                        moved.push((entry.stamp, key, entry.payload.clone(), entry.bytes));
                    }
                }
            }
        }
        // Reinsert oldest first, approximately preserving relative
        // recency across the (per-shard) clocks. Keyed by (stamp, key),
        // a total order: per-shard clocks can collide across shards.
        moved.sort_unstable_by_key(|&(stamp, key, ..)| (stamp, key));
        (invalidated, moved)
    }

    /// Applies a what-if edit to the cache *exclusively*: entries keyed
    /// under `old_arrangement` (and this `scheme`) whose tile extent
    /// intersects `dirty` are dropped — their pixels may have changed —
    /// while all other entries of that arrangement are *re-keyed* to
    /// `new_arrangement`, preserving bytes and payload.
    ///
    /// This is what keeps viewports warm across edits for a session
    /// that is the sole user of the old snapshot: the edited
    /// arrangement gets a fresh fingerprint, and instead of orphaning
    /// every cached tile under the stale key, the untouched tiles —
    /// provably pixel-identical, because all changed area lies inside
    /// the dirty region — migrate to the new key in one `O(entries)`
    /// pass. Tiles of *other* arrangements or schemes sharing the
    /// cache are untouched. When the old snapshot is still served to
    /// other sessions (a fork), use [`TileCache::alias_region`]
    /// instead.
    ///
    /// Returns `(invalidated, rekeyed)` counts; invalidated tiles are
    /// also reported in [`CacheStats::invalidations`].
    pub fn invalidate_region(
        &self,
        old_arrangement: u64,
        new_arrangement: u64,
        scheme: &TileScheme,
        dirty: &rnnhm_core::edit::DirtyRegion,
    ) -> (usize, usize) {
        let (invalidated, moved) = self.extract_for_edit(old_arrangement, scheme, dirty, true);
        let mut rekeyed = 0usize;
        for (_, key, payload, bytes) in moved {
            if new_arrangement == old_arrangement {
                // Degenerate re-key: put the entry back where it was.
                self.place(key, payload, bytes, false);
                continue;
            }
            let new_key = TileKey { arrangement: new_arrangement, ..key };
            if self.peek(new_key).is_some() {
                // The target key is already cached (a caller re-keyed
                // back onto an existing fingerprint): keep the existing
                // entry, drop this one.
                continue;
            }
            self.place(new_key, payload, bytes, false);
            rekeyed += 1;
        }
        (invalidated, rekeyed)
    }

    /// The *shared* counterpart of [`TileCache::invalidate_region`]:
    /// propagates an edit by **copying** the clean entries of
    /// `old_arrangement` to `new_arrangement` (the `Arc` pixel
    /// payloads are shared; only the byte accounting doubles), leaving
    /// every old entry in place. Used when the old snapshot is still
    /// being served to other sessions — forks keep their warm tiles,
    /// the editing session starts warm everywhere outside its dirty
    /// region, and the old entries age out of the LRU naturally once
    /// the last session drops the old snapshot.
    ///
    /// Returns the number of entries aliased under the new key.
    pub fn alias_region(
        &self,
        old_arrangement: u64,
        new_arrangement: u64,
        scheme: &TileScheme,
        dirty: &rnnhm_core::edit::DirtyRegion,
    ) -> usize {
        if new_arrangement == old_arrangement {
            return 0;
        }
        let (_, clean) = self.extract_for_edit(old_arrangement, scheme, dirty, false);
        let mut aliased = 0usize;
        for (_, key, payload, bytes) in clean {
            let new_key = TileKey { arrangement: new_arrangement, ..key };
            if self.peek(new_key).is_some() {
                continue;
            }
            self.place(new_key, payload, bytes, false);
            aliased += 1;
        }
        aliased
    }

    /// [`TileCache::fetch`] with the *two-stage restriction* pattern
    /// viewport serving uses (the facade goes through this):
    /// `make_base` builds a render base restricted to
    /// the union extent of the tiles currently missing the cache — on
    /// a pan, a thin strip of the viewport — and `render` draws one
    /// tile from that base, restricting it further to the tile's own
    /// extent. For any missing tile outside the snapshot union
    /// (possible when a concurrent eviction races the initial peek),
    /// `make_base` is re-invoked with the tile's own extent, so the
    /// two-stage filter is a pure optimization, never a correctness
    /// dependency.
    pub fn fetch_restricted<B, R, F, G>(
        &self,
        arrangement: u64,
        measure: u64,
        scheme: &TileScheme,
        ids: &[TileId],
        make_base: F,
        render: G,
    ) -> Vec<Arc<TilePayload>>
    where
        B: Sync,
        R: Into<TilePayload>,
        F: Fn(Rect) -> B + Sync,
        G: Fn(&B, TileId, GridSpec) -> R + Sync,
    {
        self.fetch_restricted_inner(arrangement, measure, scheme, ids, None, make_base, render)
            .expect("a fetch without a deadline always completes")
    }

    /// [`TileCache::fetch_restricted`] bounded by a wall-clock
    /// deadline; see [`TileCache::fetch_deadline`] for the giveup
    /// semantics (`None` ⇒ at least one tile unrendered at the
    /// deadline, everything rendered so far cached).
    #[allow(clippy::too_many_arguments)]
    pub fn fetch_restricted_deadline<B, R, F, G>(
        &self,
        arrangement: u64,
        measure: u64,
        scheme: &TileScheme,
        ids: &[TileId],
        deadline: Instant,
        make_base: F,
        render: G,
    ) -> Option<Vec<Arc<TilePayload>>>
    where
        B: Sync,
        R: Into<TilePayload>,
        F: Fn(Rect) -> B + Sync,
        G: Fn(&B, TileId, GridSpec) -> R + Sync,
    {
        self.fetch_restricted_inner(
            arrangement,
            measure,
            scheme,
            ids,
            Some(deadline),
            make_base,
            render,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn fetch_restricted_inner<B, R, F, G>(
        &self,
        arrangement: u64,
        measure: u64,
        scheme: &TileScheme,
        ids: &[TileId],
        deadline: Option<Instant>,
        make_base: F,
        render: G,
    ) -> Option<Vec<Arc<TilePayload>>>
    where
        B: Sync,
        R: Into<TilePayload>,
        F: Fn(Rect) -> B + Sync,
        G: Fn(&B, TileId, GridSpec) -> R + Sync,
    {
        let scheme_key = scheme.fingerprint();
        let missing_union = ids
            .iter()
            .filter(|&&tile| {
                self.peek(TileKey { arrangement, measure, scheme: scheme_key, tile }).is_none()
            })
            .map(|&tile| scheme.tile_extent(tile))
            .reduce(|a, b| a.union(&b));
        let base = missing_union.map(|u| (u, make_base(u)));
        self.fetch_inner(arrangement, measure, scheme, ids, deadline, |id, spec| match &base {
            Some((u, b)) if u.contains_rect(&spec.extent) => render(b, id, spec),
            _ => render(&make_base(spec.extent), id, spec),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnnhm_geom::Point;

    fn scheme() -> TileScheme {
        TileScheme::for_extent(Rect::new(0.1, 9.3, 0.4, 7.9), 16)
    }

    #[test]
    fn world_snap_is_dyadic_and_contains_bbox() {
        let bbox = Rect::new(0.1, 9.3, 0.4, 7.9);
        let s = TileScheme::for_extent(bbox, 16);
        let w = s.world();
        assert!(w.contains_rect(&bbox));
        assert_eq!(w.width(), w.height(), "world must be square");
        assert_eq!(w.width(), 16.0, "smallest power of two covering span 9.2");
        let g = w.width() / 1024.0;
        assert_eq!(w.x_lo % g, 0.0, "origin aligned to the side/2^10 lattice");
        assert_eq!(w.y_lo % g, 0.0);
    }

    #[test]
    fn world_snap_handles_negative_and_tiny_extents() {
        let s = TileScheme::for_extent(Rect::new(-3.7, -1.2, -9.9, -8.0), 16);
        assert!(s.world().contains_rect(&Rect::new(-3.7, -1.2, -9.9, -8.0)));
        // A degenerate (point) extent still yields a usable world.
        let p = TileScheme::for_extent(Rect::new(2.0, 2.0, 5.0, 5.0), 16);
        assert!(p.world().width() > 0.0);
        assert!(p.world().contains_closed(Point::new(2.0, 5.0)));
        // Extents straddling 0 (the regression that used to hang: 0 is
        // a cell boundary at *every* power-of-two side).
        let z = TileScheme::for_extent(Rect::new(-1.5, 8.3, -0.1, 9.9), 16);
        assert!(z.world().contains_rect(&Rect::new(-1.5, 8.3, -0.1, 9.9)));
        assert!(z.world().width() <= 32.0, "no runaway doubling");
    }

    #[test]
    fn world_snap_rejects_non_finite_extents_with_unit_fallback() {
        // Struct literals: `Rect::new` debug-asserts ordered bounds,
        // but release-mode callers can produce NaN/inf rects from
        // arithmetic — `for_extent` must absorb them regardless.
        let r = |x_lo, x_hi, y_lo, y_hi| Rect { x_lo, x_hi, y_lo, y_hi };
        for bad in [
            r(f64::NAN, 1.0, 0.0, 1.0),
            r(0.0, f64::INFINITY, 0.0, 1.0),
            r(0.0, 1.0, f64::NEG_INFINITY, 1.0),
            r(f64::NAN, f64::NAN, f64::NAN, f64::NAN),
            // Finite endpoints whose width overflows to infinity.
            r(-1e308, 1e308, -1.0, 1.0),
        ] {
            let s = TileScheme::for_extent(bad, 16);
            assert_eq!(s.world(), Rect::new(-0.5, 0.5, -0.5, 0.5), "unit fallback for {bad:?}");
            assert!(s.world().area() > 0.0);
            // The scheme must remain fully usable.
            let e = s.tile_extent(TileId { zoom: 2, tx: 1, ty: 3 });
            assert!(e.area() > 0.0 && e.x_lo.is_finite());
        }
    }

    #[test]
    fn world_snap_handles_far_from_origin_point_extents() {
        // A (near-)degenerate bbox eight orders of magnitude from the
        // origin: the naive side search would start at sub-ULP scale
        // where floor(x/g)·g is pure noise. The magnitude floor keeps
        // the lattice representable and the loop short.
        for c in [1e8, -3.7e12, 2.5e15] {
            let bbox = Rect::new(c, c, c * 0.5, c * 0.5);
            let s = TileScheme::for_extent(bbox, 16);
            let w = s.world();
            assert!(w.x_lo.is_finite() && w.width() > 0.0);
            assert!(w.contains_closed(Point::new(c, c * 0.5)), "world misses the point at {c}");
            assert_eq!(w.width(), w.height());
            assert!(
                w.width() <= c.abs() * 1e-9,
                "world side {} not commensurate with magnitude {c}",
                w.width()
            );
        }
    }

    #[test]
    fn world_snap_survives_astronomical_spans() {
        // Finite width just past the largest power of two: the side
        // search would overflow to infinity; the clamp keeps the
        // scheme finite and centered on the data.
        let huge = Rect::new(-8e307, 8e307, -8e307, 8e307);
        let s = TileScheme::for_extent(huge, 16);
        let w = s.world();
        assert!(w.x_lo.is_finite() && w.x_hi.is_finite());
        assert!(w.y_lo.is_finite() && w.y_hi.is_finite());
        assert!(w.width() > 0.0 && w.width().is_finite());
        // (The *area* of any square covering a ~1.6e308-wide bbox
        // overflows f64 — only finite edges can be promised here.)
        let e = s.tile_extent(TileId { zoom: 3, tx: 1, ty: 5 });
        assert!(e.x_lo.is_finite() && e.x_hi.is_finite() && e.x_lo < e.x_hi);
    }

    #[test]
    fn world_snap_zero_area_bbox_at_origin() {
        let s = TileScheme::for_extent(Rect::new(0.0, 0.0, 0.0, 0.0), 16);
        let w = s.world();
        assert!(w.contains_closed(Point::new(0.0, 0.0)));
        assert!(w.width() > 0.0, "zero-area bbox still yields a positive world");
        // Pixel geometry at deep zoom stays exact and non-degenerate.
        let spec = s.tile_spec(TileId { zoom: s.max_zoom(), tx: 0, ty: 0 });
        assert!(spec.extent.area() > 0.0);
    }

    #[test]
    fn tile_extents_partition_the_world() {
        let s = scheme();
        for zoom in 0..3u8 {
            let n = s.n_tiles(zoom);
            let mut area = 0.0;
            for ty in 0..n {
                for tx in 0..n {
                    let e = s.tile_extent(TileId { zoom, tx, ty });
                    assert!(s.world().contains_rect(&e));
                    area += e.area();
                }
            }
            assert!((area - s.world().area()).abs() < 1e-9, "zoom {zoom} tiles must tile");
            // Adjacent tiles share edges exactly (dyadic coordinates).
            if n > 1 {
                let a = s.tile_extent(TileId { zoom, tx: 0, ty: 0 });
                let b = s.tile_extent(TileId { zoom, tx: 1, ty: 0 });
                assert_eq!(a.x_hi, b.x_lo);
            }
        }
    }

    #[test]
    fn pixel_centers_are_globally_consistent() {
        // The structural invariant behind stitch-vs-one-shot
        // bit-identity: a tile's GridSpec computes the *same f64* for a
        // pixel center as any viewport window spec covering that pixel.
        let s = scheme();
        let zoom = 2u8;
        let p = s.pixel_size(zoom);
        for (tx, ty) in [(0u32, 0u32), (1, 2), (3, 3)] {
            let id = TileId { zoom, tx, ty };
            let spec = s.tile_spec(id);
            for (c, r) in [(0usize, 0usize), (7, 3), (15, 15)] {
                let center = spec.pixel_center(c, r);
                let global_c = tx as usize * s.tile_px() + c;
                let global_r = ty as usize * s.tile_px() + r;
                let expect_x = s.world().x_lo + (global_c as f64 + 0.5) * p;
                let expect_y = s.world().y_lo + (global_r as f64 + 0.5) * p;
                assert_eq!(center.x.to_bits(), expect_x.to_bits(), "tile {id} px ({c},{r})");
                assert_eq!(center.y.to_bits(), expect_y.to_bits(), "tile {id} px ({c},{r})");
            }
        }
        // And the same for an odd-sized viewport window straddling tiles.
        let view = s.viewport(Rect::new(3.1, 11.0, 2.9, 9.7), 37, 53);
        let spec = view.spec();
        let (c0, r0) = view.pixel_origin();
        let pz = s.pixel_size(view.zoom);
        for (c, r) in [(0usize, 0usize), (spec.width - 1, spec.height - 1), (3, 5)] {
            let center = spec.pixel_center(c, r);
            let expect_x = s.world().x_lo + ((c0 + c) as f64 + 0.5) * pz;
            let expect_y = s.world().y_lo + ((r0 + r) as f64 + 0.5) * pz;
            assert_eq!(center.x.to_bits(), expect_x.to_bits());
            assert_eq!(center.y.to_bits(), expect_y.to_bits());
        }
    }

    #[test]
    fn zoom_resolution_meets_request() {
        let s = scheme();
        let rect = Rect::new(1.0, 3.0, 1.0, 3.0);
        let zoom = s.zoom_for(rect, 256, 256);
        assert!(s.pixel_size(zoom) <= rect.width() / 256.0);
        // Zoomed far out: zoom 0 suffices.
        assert_eq!(s.zoom_for(s.world(), 8, 8), 0);
        // Absurdly deep requests clamp at max_zoom.
        let deep = s.zoom_for(Rect::new(1.0, 1.0 + 1e-12, 1.0, 1.0 + 1e-12), 512, 512);
        assert_eq!(deep, s.max_zoom());
    }

    #[test]
    fn viewport_covers_request_and_clamps_to_world() {
        let s = scheme();
        let rect = Rect::new(2.3, 6.7, 1.1, 5.5);
        let v = s.viewport(rect, 100, 100);
        let spec = v.spec();
        assert!(spec.extent.contains_rect(&rect));
        assert!(spec.width >= 100 && spec.height >= 100, "at least the requested sharpness");
        // Every covering tile overlaps the window.
        assert!(!v.tiles().is_empty());
        // A rect hanging off the world is clamped.
        let off = s.viewport(Rect::new(-50.0, 1.0, -50.0, 1.0), 64, 64);
        assert!(s.world().contains_rect(&off.spec().extent));
    }

    #[test]
    fn tile_parent_and_ancestor() {
        let id = TileId { zoom: 3, tx: 5, ty: 6 };
        assert_eq!(id.parent(), Some(TileId { zoom: 2, tx: 2, ty: 3 }));
        assert_eq!(id.ancestor(0), Some(id));
        assert_eq!(id.ancestor(3), Some(TileId { zoom: 0, tx: 0, ty: 0 }));
        assert_eq!(id.ancestor(4), None);
        assert_eq!(TileId { zoom: 0, tx: 0, ty: 0 }.parent(), None);
    }

    /// A constant-valued tile payload: one run repeated on every row,
    /// so a few hundred bytes in the compact form.
    fn flat_tile(s: &TileScheme, id: TileId, v: f64) -> Arc<TilePayload> {
        let spec = s.tile_spec(id);
        let values = vec![v; spec.width * spec.height];
        Arc::new(TilePayload::from(HeatRaster::from_values(spec, values)))
    }

    /// An incompressible tile payload: one distinct fractional value
    /// per pixel keeps the raw f64 raster (8 bytes per pixel).
    fn noisy_tile(s: &TileScheme, id: TileId, salt: f64) -> Arc<TilePayload> {
        let spec = s.tile_spec(id);
        let values =
            (0..spec.width * spec.height).map(|i| salt + 1.0 / (i + 3) as f64).collect::<Vec<_>>();
        let payload = TilePayload::from(HeatRaster::from_values(spec, values));
        assert!(!payload.quantized(), "noisy tiles must stay exact");
        Arc::new(payload)
    }

    /// The byte cost of one `flat_tile` under `s` — the single source
    /// of tile-size arithmetic for budget math in these tests (no
    /// hard-coded bytes-per-pixel).
    fn flat_tile_bytes(s: &TileScheme) -> usize {
        flat_tile(s, TileId { zoom: 0, tx: 0, ty: 0 }, 0.0).bytes()
    }

    /// The byte cost of one `noisy_tile` under `s`.
    fn noisy_tile_bytes(s: &TileScheme) -> usize {
        noisy_tile(s, TileId { zoom: 0, tx: 0, ty: 0 }, 0.0).bytes()
    }

    fn key(tile: TileId) -> TileKey {
        TileKey { arrangement: 1, measure: 2, scheme: scheme().fingerprint(), tile }
    }

    #[test]
    fn scheme_fingerprint_separates_pyramids() {
        // Same (zoom, tx, ty) under different schemes addresses
        // geometrically different tiles; the fingerprint keeps their
        // cache entries apart.
        let a = TileScheme::for_extent(Rect::new(0.0, 1.0, 0.0, 1.0), 16);
        let b = TileScheme::for_extent(Rect::new(0.0, 2.5, 0.0, 2.5), 16);
        let c = TileScheme::for_extent(Rect::new(0.0, 1.0, 0.0, 1.0), 32);
        assert_ne!(a.fingerprint(), b.fingerprint(), "different worlds");
        assert_ne!(a.fingerprint(), c.fingerprint(), "different tile sizes");
        assert_eq!(
            a.fingerprint(),
            TileScheme::for_extent(Rect::new(0.0, 1.0, 0.0, 1.0), 16).fingerprint(),
            "stable across instances"
        );
        // End to end: a tile cached under scheme `a` is invisible to a
        // fetch through scheme `b`.
        let cache = TileCache::new(64 << 20);
        let id = TileId { zoom: 1, tx: 0, ty: 0 };
        let render =
            |_, spec: GridSpec| HeatRaster::from_values(spec, vec![1.0; spec.width * spec.height]);
        cache.fetch(1, 2, &a, &[id], render);
        assert_eq!(cache.stats().misses, 1);
        cache.fetch(1, 2, &b, &[id], render);
        assert_eq!(cache.stats().misses, 2, "same id under scheme b must re-render");
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn fetch_restricted_matches_fetch_and_reuses_base() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let s = scheme();
        let cache = TileCache::new(64 << 20);
        let v = s.viewport(Rect::new(1.0, 7.0, 1.0, 7.0), 40, 40);
        let bases = AtomicUsize::new(0);
        let rasters = cache.fetch_restricted(
            3,
            4,
            &s,
            v.tiles(),
            |extent| {
                bases.fetch_add(1, Ordering::Relaxed);
                extent
            },
            |base, _, spec| {
                assert!(base.contains_rect(&spec.extent), "base must cover the tile");
                HeatRaster::from_values(spec, vec![base.x_lo; spec.width * spec.height])
            },
        );
        assert_eq!(rasters.len(), v.tiles().len());
        assert_eq!(bases.load(Ordering::Relaxed), 1, "one base for the whole missing batch");
        // All warm: no base is built at all.
        cache.fetch_restricted(
            3,
            4,
            &s,
            v.tiles(),
            |extent| {
                bases.fetch_add(1, Ordering::Relaxed);
                extent
            },
            |_, _, spec| HeatRaster::new(spec),
        );
        assert_eq!(bases.load(Ordering::Relaxed), 1, "warm fetch builds no base");
    }

    #[test]
    fn cache_lru_eviction_and_stats() {
        let s = scheme();
        let tile_bytes = flat_tile_bytes(&s);
        let cache = TileCache::new(tile_bytes * 2); // room for two tiles
        let ids: Vec<TileId> = (0..3).map(|i| TileId { zoom: 2, tx: i, ty: 0 }).collect();
        cache.insert(key(ids[0]), flat_tile(&s, ids[0], 0.0));
        cache.insert(key(ids[1]), flat_tile(&s, ids[1], 1.0));
        // Touch tile 0 so tile 1 becomes the LRU victim.
        assert!(cache.get(key(ids[0])).is_some());
        cache.insert(key(ids[2]), flat_tile(&s, ids[2], 2.0));
        assert!(cache.peek(key(ids[0])).is_some(), "recently used survives");
        assert!(cache.peek(key(ids[1])).is_none(), "LRU evicted");
        assert!(cache.peek(key(ids[2])).is_some());
        let st = cache.stats();
        assert_eq!(st.entries, 2);
        assert_eq!(st.evictions, 1);
        assert_eq!(st.insertions, 3);
        assert_eq!(st.hits, 1);
        assert_eq!(st.bytes, tile_bytes * 2);
        assert!(st.bytes <= cache.capacity_bytes());
        // A miss is counted by get, not peek.
        assert!(cache.get(key(ids[1])).is_none());
        assert_eq!(cache.stats().misses, 1);
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cache_rejects_oversized_and_replaces_in_place() {
        let s = scheme();
        let cache = TileCache::new(64); // smaller than any tile
        let id = TileId { zoom: 0, tx: 0, ty: 0 };
        cache.insert(key(id), flat_tile(&s, id, 1.0));
        assert_eq!(cache.stats().entries, 0, "oversized tiles are not cached");

        let tile_bytes = flat_tile_bytes(&s);
        let cache = TileCache::new(tile_bytes * 4);
        cache.insert(key(id), flat_tile(&s, id, 1.0));
        cache.insert(key(id), flat_tile(&s, id, 2.0));
        let st = cache.stats();
        assert_eq!(st.entries, 1, "same key replaces");
        assert_eq!(st.bytes, tile_bytes);
        assert_eq!(cache.peek(key(id)).unwrap().get(0, 0), 2.0);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().bytes, 0);
    }

    #[test]
    fn fetch_renders_misses_once_then_hits() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let s = scheme();
        let cache = TileCache::new(64 << 20);
        let v = s.viewport(Rect::new(1.0, 7.0, 1.0, 7.0), 40, 40);
        let renders = AtomicUsize::new(0);
        let render = |id: TileId, spec: GridSpec| {
            renders.fetch_add(1, Ordering::Relaxed);
            HeatRaster::from_values(spec, vec![id.tx as f64; spec.width * spec.height])
        };
        let first = cache.fetch(7, 9, &s, v.tiles(), render);
        assert_eq!(renders.load(Ordering::Relaxed), v.tiles().len());
        let second = cache.fetch(7, 9, &s, v.tiles(), render);
        assert_eq!(renders.load(Ordering::Relaxed), v.tiles().len(), "all warm, no re-render");
        for (a, b) in first.iter().zip(&second) {
            assert!(Arc::ptr_eq(a, b), "warm fetch returns the cached tile");
        }
        let st = cache.stats();
        assert_eq!(st.hits as usize, v.tiles().len());
        assert_eq!(st.misses as usize, v.tiles().len());
        // Different measure key: cold again.
        cache.fetch(7, 10, &s, v.tiles(), render);
        assert_eq!(renders.load(Ordering::Relaxed), 2 * v.tiles().len());
    }

    #[test]
    fn stitch_places_tiles_by_address() {
        let s = scheme();
        let v = s.viewport(Rect::new(0.5, 14.0, 0.5, 14.0), 30, 30);
        let rasters: Vec<Arc<TilePayload>> =
            v.tiles().iter().map(|&id| flat_tile(&s, id, (id.tx * 100 + id.ty) as f64)).collect();
        let out = v.stitch(&s, &rasters);
        let spec = out.spec;
        // Every pixel carries its owning tile's marker value.
        let t = s.tile_px();
        let (c0, r0) = v.pixel_origin();
        for row in [0, spec.height / 2, spec.height - 1] {
            for col in [0, spec.width / 2, spec.width - 1] {
                let tx = (c0 + col) / t;
                let ty = (r0 + row) / t;
                assert_eq!(out.get(col, row), (tx * 100 + ty) as f64, "pixel ({col},{row})");
            }
        }
    }

    /// The viewport over global pixels `col0..col0 + w` ×
    /// `row0..row0 + h` at `zoom`.
    fn window(
        s: &TileScheme,
        zoom: u8,
        (col0, row0): (usize, usize),
        (w, h): (usize, usize),
    ) -> Viewport {
        let (o, p) = (s.world(), s.pixel_size(zoom));
        let at = |origin: f64, px: usize| origin + px as f64 * p;
        let rect = Rect::new(
            at(o.x_lo, col0),
            at(o.x_lo, col0 + w),
            at(o.y_lo, row0),
            at(o.y_lo, row0 + h),
        );
        let v = s.viewport(rect, w, h);
        assert_eq!(
            (v.zoom, v.pixel_origin(), v.spec().width, v.spec().height),
            (zoom, (col0, row0), w, h)
        );
        v
    }

    /// Payloads for the stitch's row-copy rule. In tile column `tx`,
    /// rows repeat in bands of `2 + tx % 3`, so one frame row mixes
    /// repeated and fresh segments; runs are 1, 16 or 8 px by `ty`
    /// (code rows and run rows). Every value carries `ty`, so a tile's
    /// first row differs from the last row of the tile before it.
    /// Tile `raw`, if given, is incompressible and stays raw.
    fn row_copy_tiles(s: &TileScheme, v: &Viewport, raw: Option<TileId>) -> Vec<Arc<TilePayload>> {
        let t = s.tile_px();
        let tiles = v.tiles().iter().map(|&id| {
            let band = 2 + id.tx as usize % 3;
            let run = [1, 16, 8][id.ty as usize % 3];
            let base = (id.ty * 1000 + id.tx * 100) as f64;
            let values = (0..t * t)
                .map(|i| {
                    if Some(id) == raw {
                        1.0 / (i + 3) as f64
                    } else {
                        base + (i / t / band) as f64 + 0.25 * (i % t / run) as f64
                    }
                })
                .collect();
            let payload = TilePayload::from(HeatRaster::from_values(s.tile_spec(id), values));
            assert_eq!(payload.quantized(), Some(id) != raw);
            Arc::new(payload)
        });
        tiles.collect()
    }

    /// The reference stitch: decode every payload, blit the rasters.
    fn stitch_decoded(s: &TileScheme, v: &Viewport, payloads: &[Arc<TilePayload>]) -> HeatRaster {
        let mut out = HeatRaster::new(v.spec());
        for (&id, payload) in v.tiles().iter().zip(payloads) {
            let (src, dst, size) = v.overlap(s, id);
            crate::ops::blit(&mut out, &payload.to_raster(), src, dst, size);
        }
        out
    }

    #[test]
    fn stitch_copies_repeated_rows_only_within_a_tile() {
        let s = scheme();
        let t = s.tile_px();
        let mid = TileId { zoom: 2, tx: 1, ty: 1 };
        // (window origin, size, raw tile): starts mid-tile on both
        // axes and crosses tile-row boundaries; starts on a row every
        // tile repeats; one raw tile among compact ones.
        for (origin, size, raw) in [
            ((5, 7), (40, 37), None),
            ((3, t + 1), (45, 30), None),
            ((5, 7), (40, 37), Some(mid)),
            ((t + 2, t + 1), (t - 4, 20), Some(mid)),
        ] {
            let v = window(&s, 2, origin, size);
            let payloads = row_copy_tiles(&s, &v, raw);
            let got = v.stitch(&s, &payloads);
            let want = stitch_decoded(&s, &v, &payloads);
            let same =
                got.values().iter().zip(want.values()).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "stitch ≠ decoded stitch for window {origin:?} {size:?}, raw {raw:?}");
        }
        // The data exercises every branch of the rule: rows where every
        // segment repeats, rows that mix, and boundary rows.
        let v = window(&s, 2, (5, 7), (40, 37));
        let payloads = row_copy_tiles(&s, &v, None);
        let cols = v.tiles().len() / 3;
        let kinds: Vec<usize> = (1..37)
            .map(|r| {
                let g_row = 7 + r;
                let row = &payloads[(g_row / t) * cols..][..cols];
                row.iter().filter(|p| p.row_repeats(g_row % t)).count()
            })
            .collect();
        assert!(kinds.contains(&cols) && kinds.contains(&0));
        assert!(
            kinds.iter().any(|&k| k > 0 && k < cols),
            "a row mixing repeated and fresh segments"
        );
    }

    #[test]
    fn invalidate_region_evicts_exactly_intersecting_and_rekeys_the_rest() {
        use rnnhm_core::edit::DirtyRegion;
        let s = scheme();
        let cache = TileCache::new(64 << 20);
        // Populate every zoom-2 tile under arrangement key 1, plus one
        // tile of an unrelated arrangement (key 9) that must survive.
        let n = s.n_tiles(2);
        for ty in 0..n {
            for tx in 0..n {
                let id = TileId { zoom: 2, tx, ty };
                cache.insert(key(id), flat_tile(&s, id, (tx + ty) as f64));
            }
        }
        let foreign = TileId { zoom: 2, tx: 0, ty: 0 };
        cache.insert(
            TileKey { arrangement: 9, measure: 2, scheme: s.fingerprint(), tile: foreign },
            flat_tile(&s, foreign, 42.0),
        );
        let entries_before = cache.stats().entries;

        let mut dirty = DirtyRegion::new();
        // One tile-sized box in the world's south-west corner.
        let w = s.world();
        let tile_side = w.width() / n as f64;
        dirty.push(Rect::new(
            w.x_lo + 0.1 * tile_side,
            w.x_lo + 0.9 * tile_side,
            w.y_lo + 0.1 * tile_side,
            w.y_lo + 0.9 * tile_side,
        ));
        let (invalidated, rekeyed) = cache.invalidate_region(1, 2, &s, &dirty);
        assert_eq!(invalidated, 1, "exactly the one intersecting tile is dropped");
        assert_eq!(rekeyed, (n * n) as usize - 1);
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(cache.stats().entries, entries_before - 1);
        for ty in 0..n {
            for tx in 0..n {
                let id = TileId { zoom: 2, tx, ty };
                let old = key(id);
                let new = TileKey { arrangement: 2, ..old };
                assert!(cache.peek(old).is_none(), "no entry may keep the stale key");
                if tx == 0 && ty == 0 {
                    assert!(cache.peek(new).is_none(), "dirty tile evicted");
                } else {
                    let tile = cache.peek(new).expect("clean tile re-keyed");
                    assert_eq!(tile.get(0, 0), (tx + ty) as f64, "payload preserved");
                }
            }
        }
        // The unrelated arrangement is untouched.
        assert!(cache
            .peek(TileKey { arrangement: 9, measure: 2, scheme: s.fingerprint(), tile: foreign })
            .is_some());
    }

    #[test]
    fn invalidate_region_respects_boundaries_and_byte_accounting() {
        use rnnhm_core::edit::DirtyRegion;
        let s = scheme();
        let tile_bytes = flat_tile_bytes(&s);
        let cache = TileCache::new(64 << 20);
        let a = TileId { zoom: 1, tx: 0, ty: 0 };
        let b = TileId { zoom: 1, tx: 1, ty: 1 };
        cache.insert(key(a), flat_tile(&s, a, 1.0));
        cache.insert(key(b), flat_tile(&s, b, 2.0));
        // A dirty box touching tile `a` only at its shared corner with
        // `b`'s quadrant: closed-rect semantics still count the touch.
        let w = s.world();
        let mid_x = s.tile_extent(a).x_hi;
        let mid_y = s.tile_extent(a).y_hi;
        let mut dirty = DirtyRegion::new();
        dirty.push(Rect::new(mid_x, w.x_hi, mid_y, w.y_hi)); // b's quadrant, touching a's corner
        let (invalidated, _) = cache.invalidate_region(1, 7, &s, &dirty);
        assert_eq!(invalidated, 2, "corner touch invalidates both (closed semantics)");
        assert_eq!(cache.stats().bytes, 0);
        assert_eq!(cache.stats().entries, 0);
        // Re-key only (empty dirty): nothing invalidated, key moves.
        cache.insert(key(a), flat_tile(&s, a, 3.0));
        let (invalidated, rekeyed) = cache.invalidate_region(1, 5, &s, &DirtyRegion::new());
        assert_eq!((invalidated, rekeyed), (0, 1));
        assert_eq!(cache.stats().bytes, tile_bytes);
        assert!(cache.peek(TileKey { arrangement: 5, ..key(a) }).is_some());
        // LRU still works on a re-keyed entry (stamp preserved).
        assert!(cache.get(TileKey { arrangement: 5, ..key(a) }).is_some());
    }

    #[test]
    fn invalidate_region_rekey_onto_existing_key_keeps_accounting_sound() {
        use rnnhm_core::edit::DirtyRegion;
        let s = scheme();
        let tile_bytes = flat_tile_bytes(&s);
        let cache = TileCache::new(tile_bytes * 2); // room for exactly two tiles
        let id = TileId { zoom: 1, tx: 0, ty: 0 };
        // The same tile cached under two arrangement keys, then re-key
        // 1 → 5 where 5 already holds an entry: one of the two must be
        // dropped cleanly (bytes and LRU stay consistent).
        cache.insert(key(id), flat_tile(&s, id, 1.0));
        cache.insert(TileKey { arrangement: 5, ..key(id) }, flat_tile(&s, id, 5.0));
        let (invalidated, rekeyed) = cache.invalidate_region(1, 5, &s, &DirtyRegion::new());
        assert_eq!((invalidated, rekeyed), (0, 0), "collision is neither eviction nor re-key");
        let st = cache.stats();
        assert_eq!(st.entries, 1);
        assert_eq!(st.bytes, tile_bytes, "the dropped entry's bytes are released");
        assert_eq!(cache.peek(TileKey { arrangement: 5, ..key(id) }).unwrap().get(0, 0), 5.0);
        // The cache still evicts without panicking (the LRU list holds
        // no dangling stamp for the dropped entry).
        let other = TileId { zoom: 1, tx: 1, ty: 0 };
        cache.insert(TileKey { arrangement: 5, ..key(other) }, flat_tile(&s, other, 6.0));
        let third = TileId { zoom: 1, tx: 0, ty: 1 };
        cache.insert(TileKey { arrangement: 5, ..key(third) }, flat_tile(&s, third, 7.0));
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn preview_fully_cold_reports_zero_resolved_and_background_fill() {
        // Regression (ISSUE 5 satellite): the zero-coverage fallback
        // path — nothing cached at any zoom — must produce a
        // well-formed raster entirely at the background value with
        // `resolved == 0.0`, and must not disturb cache statistics.
        let s = scheme();
        let cache = TileCache::new(64 << 20);
        for (rect, px) in [
            (Rect::new(1.0, 7.0, 1.0, 7.0), 48),
            (s.world(), 16),                         // zoom 0: no parent to walk to
            (Rect::new(3.07, 3.08, 4.11, 4.12), 64), // deep zoom, far from any cache
        ] {
            let v = s.viewport(rect, px, px);
            let p = v.preview(&s, &cache, 11, 22, 0.0);
            assert_eq!(p.resolved, 0.0, "cold cache cannot resolve anything");
            let spec = p.raster.spec;
            assert_eq!(spec, v.spec(), "preview raster covers the viewport spec");
            assert_eq!(p.raster.values().len(), spec.width * spec.height);
            assert!(p.raster.values().iter().all(|&x| x == 0.0), "zeroed background");
        }
        let st = cache.stats();
        assert_eq!((st.hits, st.misses), (0, 0), "previews never count lookups");
    }

    #[test]
    fn sharded_eviction_accounting_stays_exact() {
        // Satellite: byte/entry accounting must stay exact per shard
        // and in aggregate while insertions force evictions in some
        // shards and not others.
        let s = scheme();
        let tile_bytes = flat_tile_bytes(&s);
        let cache = TileCache::with_shards(tile_bytes * 8, 4); // 2 tiles per shard
        assert_eq!(cache.n_shards(), 4);
        let n = s.n_tiles(3);
        let mut inserted = 0u64;
        for ty in 0..n {
            for tx in 0..n {
                let id = TileId { zoom: 3, tx, ty };
                cache.insert(key(id), flat_tile(&s, id, (tx * 10 + ty) as f64));
                inserted += 1;
            }
        }
        let st = cache.stats();
        assert_eq!(st.insertions, inserted);
        assert_eq!(st.shards.len(), 4);
        let shard_bytes: usize = st.shards.iter().map(|sh| sh.bytes).sum();
        let shard_entries: usize = st.shards.iter().map(|sh| sh.entries).sum();
        assert_eq!(shard_bytes, st.bytes, "aggregate bytes = sum of shard bytes");
        assert_eq!(shard_entries, st.entries, "aggregate entries = sum of shard entries");
        for sh in &st.shards {
            assert!(sh.bytes <= sh.capacity, "no shard exceeds its budget: {sh:?}");
            assert_eq!(sh.bytes, sh.entries * tile_bytes, "per-shard byte accounting exact");
            assert!(sh.bytes_high_water >= sh.bytes);
            assert!(sh.bytes_high_water <= sh.capacity);
        }
        assert_eq!(
            st.evictions,
            inserted - st.entries as u64,
            "every insert either resides or was evicted (no replacements here)"
        );
        assert!(st.evictions > 0, "64 tiles into 8 slots must evict");
        assert_eq!(st.bytes_high_water, st.shards.iter().map(|sh| sh.bytes_high_water).sum());
    }

    #[test]
    fn mixed_payload_byte_accounting_and_eviction_order() {
        // Satellite (ISSUE 10): quantized and exact payloads of very
        // different sizes share one budget; accounting must track each
        // entry's own width and eviction must stay strictly LRU.
        let s = scheme();
        let flat = flat_tile_bytes(&s);
        let noisy = noisy_tile_bytes(&s);
        assert!(noisy > flat * 3, "exact tiles must dwarf quantized ones ({noisy} vs {flat})");
        // Room for two exact tiles (and change): the initial mix fits,
        // the second exact insert forces both quantized tiles out.
        let cache = TileCache::new(2 * noisy);
        let a = TileId { zoom: 2, tx: 0, ty: 0 };
        let b = TileId { zoom: 2, tx: 1, ty: 0 };
        let c = TileId { zoom: 2, tx: 2, ty: 0 };
        cache.insert(key(a), noisy_tile(&s, a, 1.0));
        cache.insert(key(b), flat_tile(&s, b, 2.0));
        cache.insert(key(c), flat_tile(&s, c, 3.0));
        let st = cache.stats();
        assert_eq!(st.entries, 3, "all three fit");
        assert_eq!(st.bytes, noisy + 2 * flat);
        assert_eq!(st.bytes_exact, noisy);
        assert_eq!(st.bytes_quantized, 2 * flat);
        assert_eq!(st.bytes_quantized + st.bytes_exact, st.bytes);
        for sh in &st.shards {
            assert!(sh.bytes_quantized <= sh.bytes, "shard quantized bytes within total: {sh:?}");
        }
        // Touch the big exact tile, then insert another exact tile:
        // both quantized tiles (now the two LRU entries) must go, and
        // the quantized counter must drain to exactly zero.
        assert!(cache.get(key(a)).is_some());
        let d = TileId { zoom: 2, tx: 3, ty: 0 };
        cache.insert(key(d), noisy_tile(&s, d, 4.0));
        let st = cache.stats();
        assert!(cache.peek(key(a)).is_some(), "recently-touched exact tile survives");
        assert!(cache.peek(key(b)).is_none(), "oldest quantized tile evicted");
        assert!(cache.peek(key(c)).is_none(), "next quantized tile evicted");
        assert_eq!(st.bytes_quantized, 0, "quantized bytes released exactly");
        assert_eq!(st.bytes_exact, 2 * noisy);
        assert_eq!(st.bytes, st.bytes_quantized + st.bytes_exact);
        assert_eq!(st.evictions, 2);
    }

    #[test]
    fn rekey_and_alias_preserve_quantized_payloads() {
        // Satellite (ISSUE 10): edit migration must move payloads
        // verbatim — a quantized tile stays quantized (same Arc, no
        // re-encode) and the quantized byte counters follow it.
        use rnnhm_core::edit::DirtyRegion;
        let s = scheme();
        let flat = flat_tile_bytes(&s);
        let noisy = noisy_tile_bytes(&s);
        let cache = TileCache::new(64 << 20);
        let q = TileId { zoom: 1, tx: 0, ty: 0 };
        let e = TileId { zoom: 1, tx: 1, ty: 1 };
        let q_payload = flat_tile(&s, q, 7.0);
        cache.insert(key(q), q_payload.clone());
        cache.insert(key(e), noisy_tile(&s, e, 8.0));
        // Exclusive re-key 1 → 5 with an empty dirty region: both move.
        let (invalidated, rekeyed) = cache.invalidate_region(1, 5, &s, &DirtyRegion::new());
        assert_eq!((invalidated, rekeyed), (0, 2));
        let moved_q = cache.peek(TileKey { arrangement: 5, ..key(q) }).expect("quantized moved");
        assert!(moved_q.quantized(), "re-key must not decode the payload");
        assert!(Arc::ptr_eq(&moved_q, &q_payload), "the same payload Arc migrated");
        let st = cache.stats();
        assert_eq!(st.bytes_quantized, flat, "quantized bytes follow the re-key");
        assert_eq!(st.bytes_exact, noisy);
        // Shared alias 5 → 9: payload Arcs are shared, accounting doubles.
        let aliased = cache.alias_region(5, 9, &s, &DirtyRegion::new());
        assert_eq!(aliased, 2);
        let alias_q = cache.peek(TileKey { arrangement: 9, ..key(q) }).expect("alias exists");
        assert!(alias_q.quantized());
        assert!(Arc::ptr_eq(&alias_q, &q_payload), "alias shares the payload, not a copy");
        let st = cache.stats();
        assert_eq!(st.bytes_quantized, 2 * flat);
        assert_eq!(st.bytes_exact, 2 * noisy);
        assert_eq!(st.bytes, st.bytes_quantized + st.bytes_exact);
    }

    #[test]
    fn single_flight_dedups_concurrent_misses() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;
        let s = scheme();
        let cache = TileCache::new(64 << 20);
        let v = s.viewport(Rect::new(1.0, 7.0, 1.0, 7.0), 60, 60);
        let renders = AtomicUsize::new(0);
        let barrier = Barrier::new(4);
        let frames: Vec<Vec<Arc<TilePayload>>> = thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        cache.fetch(5, 6, &s, v.tiles(), |id, spec| {
                            renders.fetch_add(1, Ordering::Relaxed);
                            // Slow the render enough that the herd overlaps.
                            std::thread::sleep(std::time::Duration::from_millis(5));
                            HeatRaster::from_values(
                                spec,
                                vec![id.tx as f64; spec.width * spec.height],
                            )
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("herd thread")).collect()
        });
        // Every thread got a full, identical frame set.
        for frame in &frames {
            assert_eq!(frame.len(), v.tiles().len());
            for (a, b) in frame.iter().zip(&frames[0]) {
                assert_eq!(
                    a.to_raster().values(),
                    b.to_raster().values(),
                    "all herd members see the same tiles"
                );
            }
        }
        let st = cache.stats();
        assert!(st.single_flight_waits > 0, "a 4-way cold herd must overlap at least once: {st:?}");
        assert_eq!(
            st.single_flight_dedups + renders.load(Ordering::Relaxed) as u64,
            st.misses,
            "every miss was either rendered once or deduplicated"
        );
        assert!(
            (renders.load(Ordering::Relaxed)) < 4 * v.tiles().len(),
            "the herd must not render everything four times"
        );
    }

    #[test]
    fn abandoned_flight_lets_waiters_self_render_with_consistent_stats() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        let s = scheme();
        let cache = TileCache::new(64 << 20);
        let id = TileId { zoom: 2, tx: 1, ty: 1 };
        let leading = AtomicBool::new(false);
        let waiter_renders = AtomicUsize::new(0);
        thread::scope(|scope| {
            // Leader: claims the flight, holds it until the waiter is
            // provably queued behind it, then dies mid-render. The
            // stats poll makes the leader/waiter interleaving
            // deterministic rather than a sleep-tuned race.
            let leader = scope.spawn(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    cache.fetch(1, 2, &s, &[id], |_, _spec| -> HeatRaster {
                        leading.store(true, Ordering::SeqCst);
                        while cache.stats().single_flight_waits < 1 {
                            std::thread::sleep(std::time::Duration::from_millis(1));
                        }
                        panic!("injected renderer failure");
                    })
                }))
            });
            // Waiter: joins the same key only once the leader owns it.
            let waiter = scope.spawn(|| {
                while !leading.load(Ordering::SeqCst) {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                cache.fetch(1, 2, &s, &[id], |_, spec| {
                    waiter_renders.fetch_add(1, Ordering::SeqCst);
                    HeatRaster::from_values(spec, vec![3.25; spec.width * spec.height])
                })
            });
            assert!(leader.join().expect("leader thread").is_err(), "panic reaches the caller");
            let frame = waiter.join().expect("waiter thread");
            assert_eq!(frame.len(), 1);
            let vals = frame[0].to_raster();
            assert!(vals.values().iter().all(|&x| x == 3.25), "waiter's own render served");
        });
        assert_eq!(waiter_renders.load(Ordering::SeqCst), 1, "the waiter rendered for itself");
        let st = cache.stats();
        assert_eq!(st.single_flight_waits, 1, "the waiter queued behind the doomed flight");
        assert_eq!(st.single_flight_dedups, 0, "an abandoned flight deduplicates nothing");
        assert_eq!(st.misses, 2, "both callers missed the cold cache");
        assert_eq!(st.insertions, 1, "only the waiter's self-render landed");
        let k = TileKey { arrangement: 1, measure: 2, scheme: s.fingerprint(), tile: id };
        assert!(cache.peek(k).is_some(), "the recovered tile stays cached for the next caller");
        // And the next fetch is a plain hit — the abandonment left no
        // stuck flight behind.
        cache.fetch(1, 2, &s, &[id], |_, _| -> HeatRaster { unreachable!("tile is warm") });
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn expired_deadline_gives_up_before_rendering() {
        let s = scheme();
        let cache = TileCache::new(64 << 20);
        let v = s.viewport(Rect::new(1.0, 7.0, 1.0, 7.0), 40, 40);
        let out = cache.fetch_deadline(
            1,
            2,
            &s,
            v.tiles(),
            rnnhm_core::clock::now() - std::time::Duration::from_millis(1),
            |_, _| -> HeatRaster { unreachable!("no render budget remains") },
        );
        assert!(out.is_none());
        let st = cache.stats();
        assert_eq!(st.deadline_giveups, 1);
        assert_eq!(st.insertions, 0, "nothing rendered, nothing cached");
        // The abandoned flights left no residue: an undeadlined fetch
        // renders everything normally.
        let full = cache.fetch(1, 2, &s, v.tiles(), |id, spec| {
            HeatRaster::from_values(spec, vec![id.tx as f64; spec.width * spec.height])
        });
        assert_eq!(full.len(), v.tiles().len());
    }

    #[test]
    fn deadline_with_headroom_matches_plain_fetch() {
        let s = scheme();
        let cache = TileCache::new(64 << 20);
        let v = s.viewport(Rect::new(1.0, 7.0, 1.0, 7.0), 40, 40);
        let render = |id: TileId, spec: GridSpec| {
            HeatRaster::from_values(spec, vec![id.tx as f64; spec.width * spec.height])
        };
        let deadline = rnnhm_core::clock::now() + std::time::Duration::from_secs(60);
        let bounded = cache
            .fetch_deadline(1, 2, &s, v.tiles(), deadline, render)
            .expect("a generous deadline completes");
        let plain = cache.fetch(1, 2, &s, v.tiles(), render);
        for (a, b) in bounded.iter().zip(&plain) {
            assert!(Arc::ptr_eq(a, b), "deadline path fills the same cache entries");
        }
        assert_eq!(cache.stats().deadline_giveups, 0);
    }

    #[test]
    fn partial_render_under_deadline_stays_cached_and_warms_preview() {
        let s = scheme();
        let cache = TileCache::new(64 << 20);
        let v = s.viewport(Rect::new(1.0, 7.0, 1.0, 7.0), 60, 60);
        let total = v.tiles().len();
        assert!(total >= 16, "needs enough tiles that the budget can't cover them all");
        // Each tile costs ~20 ms; the 10 ms budget admits the first
        // render per worker (the deadline check runs before a render
        // starts, never mid-tile) and then expires.
        let out = cache.fetch_deadline(
            1,
            2,
            &s,
            v.tiles(),
            rnnhm_core::clock::now() + std::time::Duration::from_millis(10),
            |id, spec| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                HeatRaster::from_values(spec, vec![id.tx as f64; spec.width * spec.height])
            },
        );
        assert!(out.is_none(), "the budget cannot cover {total} tiles");
        let st = cache.stats();
        assert_eq!(st.deadline_giveups, 1);
        assert!(st.insertions >= 1, "work done before the deadline is kept: {st:?}");
        assert!((st.insertions as usize) < total, "the deadline stopped the batch early");
        // The partial work is exactly what a degraded preview feeds on.
        let p = v.preview(&s, &cache, 1, 2, 0.0);
        assert!(p.resolved > 0.0, "rendered-before-deadline tiles resolve in the preview");
    }

    #[test]
    fn alias_region_copies_clean_tiles_and_keeps_old_entries() {
        use rnnhm_core::edit::DirtyRegion;
        let s = scheme();
        let cache = TileCache::new(64 << 20);
        let n = s.n_tiles(2);
        for ty in 0..n {
            for tx in 0..n {
                let id = TileId { zoom: 2, tx, ty };
                cache.insert(key(id), flat_tile(&s, id, (tx + ty) as f64));
            }
        }
        let entries_before = cache.stats().entries;
        let w = s.world();
        let tile_side = w.width() / n as f64;
        let mut dirty = DirtyRegion::new();
        dirty.push(Rect::new(
            w.x_lo + 0.1 * tile_side,
            w.x_lo + 0.9 * tile_side,
            w.y_lo + 0.1 * tile_side,
            w.y_lo + 0.9 * tile_side,
        ));
        let aliased = cache.alias_region(1, 7, &s, &dirty);
        assert_eq!(aliased, (n * n) as usize - 1, "every clean tile is aliased");
        let st = cache.stats();
        assert_eq!(st.invalidations, 0, "aliasing never drops the old snapshot's tiles");
        assert_eq!(st.entries, entries_before + aliased);
        for ty in 0..n {
            for tx in 0..n {
                let id = TileId { zoom: 2, tx, ty };
                let old = cache.peek(key(id)).expect("old snapshot stays fully warm");
                let new = cache.peek(TileKey { arrangement: 7, ..key(id) });
                if tx == 0 && ty == 0 {
                    assert!(new.is_none(), "the dirty tile is not propagated");
                } else {
                    let new = new.expect("clean tile aliased");
                    assert!(Arc::ptr_eq(&old, &new), "alias shares the pixel payload");
                }
            }
        }
        // Aliasing onto an existing key is a no-op for that key.
        assert_eq!(cache.alias_region(1, 7, &s, &dirty), 0);
    }

    #[test]
    fn preview_uses_parents_and_reports_coverage() {
        let s = scheme();
        let cache = TileCache::new(64 << 20);
        // Starts mid-tile at odd pixels, so the first tile's block does
        // not start on a parent pixel boundary.
        let v = window(&s, 2, (5, 7), (40, 37));

        // Nothing cached: fully background, zero resolved.
        let p0 = v.preview(&s, &cache, 1, 2, 7.5);
        assert_eq!(p0.resolved, 0.0);
        assert!(p0.raster.values().iter().all(|&x| x == 7.5));

        // Cache one exact tile and the *parent* of another.
        let exact = *v.tiles().last().unwrap();
        cache.insert(key(exact), flat_tile(&s, exact, 3.0));
        let other = v.tiles()[0];
        let parent = other.parent().unwrap();
        let t = s.tile_px();
        let pattern = (0..t * t).map(|i| 4.0 + (i % t / 3) as f64 + 10.0 * (i / t / 2) as f64);
        let parent_tile = Arc::new(TilePayload::from(HeatRaster::from_values(
            s.tile_spec(parent),
            pattern.collect(),
        )));
        cache.insert(key(parent), parent_tile.clone());
        let p1 = v.preview(&s, &cache, 1, 2, 7.5);
        assert!(p1.resolved > 0.0 && p1.resolved < 1.0);
        // A pixel inside the exact tile's block shows its value.
        let (_, dst, _) = v.overlap(&s, exact);
        assert_eq!(p1.raster.get(dst.0, dst.1), 3.0);
        // Every pixel of the parent-backed block shows the parent pixel
        // it sits in (nearest neighbour).
        let (_, dst_o, size_o) = v.overlap(&s, other);
        let (c0, r0) = v.pixel_origin();
        let (pc0, pr0) = (parent.tx as usize * t, parent.ty as usize * t);
        for dy in 0..size_o.1 {
            for dx in 0..size_o.0 {
                let (col, row) = (dst_o.0 + dx, dst_o.1 + dy);
                let want = parent_tile.get(((c0 + col) >> 1) - pc0, ((r0 + row) >> 1) - pr0);
                assert_eq!(p1.raster.get(col, row).to_bits(), want.to_bits(), "({col},{row})");
            }
        }
        // Previews must not skew hit/miss statistics.
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 0);
    }
}
