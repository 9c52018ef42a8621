//! # rnnhm-heatmap
//!
//! Raster heat map construction and rendering — the presentation layer
//! that turns region coloring output into the images of the paper's
//! Figs 1 and 15.
//!
//! * [`raster::HeatRaster`] — a rectangular grid of influence values,
//! * [`scanline`] — the default exact rasterizer: per-row enter/leave
//!   events over NN-shape spans, incremental influence maintenance
//!   between events, row-parallel across all cores,
//! * [`compute`] — the rasterization front ends: scanline (default)
//!   and the per-pixel-stab oracle (any measure; the scanline path's
//!   test reference),
//! * [`ops`] — raster differences, peak extraction and the block
//!   copies that stitch tiles,
//! * [`render`] — PPM/PGM/ASCII writers with heat color ramps (darker =
//!   more influential, following the paper's figures),
//! * [`quant`] — compact bit-exact tile payloads: deduplicated rows of
//!   `u16` runs or codes into a palette of the tile's distinct values,
//!   falling back to raw `f64` where that is not smaller,
//! * [`tiles`] — the interactive-exploration serving layer: a
//!   multi-resolution tile pyramid rendered through the scanline
//!   engine, an LRU tile cache, and cached viewport stitching with
//!   parent-tile previews,
//! * [`mipmap`] — the level-of-detail pyramid for millions-of-points
//!   scale: coarse-zoom tiles become O(tile_px²) blits from
//!   precomputed averages with an exact min/max error contract,
//!   instead of full-data renders.

#![warn(missing_docs)]

pub mod compute;
pub mod mipmap;
pub mod ops;
pub mod quant;
pub mod raster;
pub mod render;
pub mod scanline;
pub mod tiles;

pub use compute::{
    rasterize_disks, rasterize_disks_oracle, rasterize_squares, rasterize_squares_oracle,
};
pub use mipmap::HeatMipmap;
pub use ops::{blit, blit_payload, diff, max_pixel};
pub use quant::TilePayload;
pub use raster::{GridSpec, HeatRaster};
pub use render::{write_pgm, write_ppm, ColorRamp};
pub use tiles::{
    CacheStats, Preview, ShardOccupancy, TileCache, TileId, TileKey, TileScheme, Viewport,
};
