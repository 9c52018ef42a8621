//! Tile payloads — the form the tile cache stores each rendered tile
//! in, decoded on the fly by the stitcher, previews and mipmap blits.
//!
//! Influence is constant over each CREST region, so a tile is mostly
//! long runs of one value and most of its rows equal the row above.
//! [`TilePayload`] stores a tile as a **palette** of its distinct
//! values (exact bit patterns, sorted by bits, named by `u16` codes), a
//! **row index** naming the distinct row each row shows (a row bitwise
//! equal to the row above shares its entry, see
//! [`TilePayload::row_repeats`]), and the **distinct rows**, each as
//! `(u16 end, u16 code)` runs when its runs average at least 16 px,
//! else as one code per pixel.
//!
//! Decoding returns the stored bits, so every pixel comes back bitwise
//! (NaN payloads, signed zeros and denormals included): the encoder is
//! one pass with no verify pass, and the payload is a pure function of
//! the pixel bits. A tile keeps its raw `f64` pixels where this form is
//! not smaller or cannot address it (a side over 65,535 px, more than
//! 65,536 distinct values). Buffers are exact-size boxed slices, so
//! [`TilePayload::bytes`] is the heap a payload holds. No locks here.

use std::collections::BTreeMap;
use std::mem::size_of;

use crate::raster::{GridSpec, HeatRaster};

/// Fixed per-entry bookkeeping charged by the tile cache on top of the
/// payload bytes: key, LRU stamp, map slot, `Arc` counts.
pub const ENTRY_OVERHEAD_BYTES: usize = 128;

/// A distinct row is stored as runs when they average at least this
/// many pixels. Measured, not tuned: stitching 240 `pan_zoom` frames on
/// a 2-core VM, runs alone nearly doubled the stitch p95 of short-run
/// (overview) frames (3.47 → 6.26 ms); with this rule it stayed at
/// 3.52 ms and the total stitch time fell 26%.
const MIN_RUN_PX: usize = 16;
// A row of `n` runs takes `2n` cells: above 2 px a run, `2n` stays
// below the width, so a row's length tells runs from codes.
const _: () = assert!(MIN_RUN_PX > 2);

/// A tile raster in its compact row-deduplicated form, or as raw `f64`
/// pixels where that form is not smaller.
///
/// Construct via [`TilePayload::encode`] (or the [`From`]`<HeatRaster>`
/// impl). Every reader returns the source raster's bits.
#[derive(Debug, Clone)]
pub struct TilePayload {
    spec: GridSpec,
    form: Form,
}

#[derive(Debug, Clone)]
enum Form {
    /// Raw `f64` pixels, row-major.
    Raw(Box<[f64]>),
    Rows(Rows),
}

/// The compact form; see the module docs.
#[derive(Debug, Clone)]
struct Rows {
    /// The distinct pixel values, sorted by bit pattern.
    palette: Box<[f64]>,
    /// For each row, the distinct row it shows: the row above's entry
    /// if the row repeats it, else the next one.
    row_of: Box<[u16]>,
    /// Distinct row `d` is `cells[starts[d]..starts[d + 1]]`.
    starts: Box<[u32]>,
    /// The distinct rows back to back: `width` codes, or `n` run ends
    /// (exclusive, ascending) followed by their `n` codes.
    cells: Box<[u16]>,
}

/// One stored row, ready to decode.
enum Row<'a> {
    Raw(&'a [f64]),
    Codes { palette: &'a [f64], codes: &'a [u16] },
    Runs { palette: &'a [f64], ends: &'a [u16], codes: &'a [u16] },
}

impl TilePayload {
    /// Encodes a raster: the compact form when it is smaller than the
    /// raw pixels, else the raw pixels.
    ///
    /// `integral_hint` (from `InfluenceMeasure::integral_influence`)
    /// does not change the encoding, which is a pure function of the
    /// pixel bits; callers may pass either value.
    pub fn encode(raster: HeatRaster, integral_hint: bool) -> TilePayload {
        let _ = integral_hint;
        let spec = raster.spec;
        let form = match Rows::encode(raster.values(), spec.width) {
            Some(rows) => Form::Rows(rows),
            None => Form::Raw(raster.into_values().into_boxed_slice()),
        };
        TilePayload { spec, form }
    }

    /// Grid geometry of the encoded tile.
    #[inline]
    pub fn spec(&self) -> GridSpec {
        self.spec
    }

    /// Whether the payload holds the compact row form, as opposed to
    /// the raw `f64` pixels.
    #[inline]
    pub fn quantized(&self) -> bool {
        matches!(self.form, Form::Rows(_))
    }

    /// Bytes this payload occupies in the cache: the heap its buffers
    /// hold plus [`ENTRY_OVERHEAD_BYTES`] of per-entry bookkeeping. All
    /// tile-size accounting (insertion budgets, eviction, shard
    /// occupancy) routes through here.
    pub fn bytes(&self) -> usize {
        let heap = match &self.form {
            Form::Raw(px) => px.len() * size_of::<f64>(),
            Form::Rows(r) => {
                compact_bytes(r.palette.len(), r.row_of.len(), r.starts.len(), r.cells.len())
            }
        };
        heap + ENTRY_OVERHEAD_BYTES
    }

    /// Decoded value at `(col, row)` — bitwise the source raster's (a
    /// binary search on run rows).
    pub fn get(&self, col: usize, row: usize) -> f64 {
        let mut px = [0.0];
        self.read_row_segment(row, col, &mut px);
        px[0]
    }

    /// Whether row `row` is stored as a repeat of row `row − 1`, so a
    /// reader that has just produced row `row − 1` may copy it instead
    /// of decoding. Always false for row 0 and for raw payloads.
    #[inline]
    pub fn row_repeats(&self, row: usize) -> bool {
        match &self.form {
            Form::Rows(r) => row > 0 && r.row_of[row] == r.row_of[row - 1],
            Form::Raw(_) => false,
        }
    }

    /// Appends the decoded pixels of row `row`, columns
    /// `col..col + len`, onto `out` — the stitching primitive.
    pub fn append_row_segment(&self, row: usize, col: usize, len: usize, out: &mut Vec<f64>) {
        assert!(col + len <= self.spec.width, "row segment out of bounds");
        match self.row(row) {
            Row::Raw(px) => out.extend_from_slice(&px[col..col + len]),
            Row::Codes { palette, codes } => {
                out.extend(codes[col..col + len].iter().map(|&c| palette[usize::from(c)]));
            }
            Row::Runs { palette, ends, codes } => {
                for (code, n) in run_pieces(ends, codes, col, len) {
                    out.resize(out.len() + n, palette[usize::from(code)]);
                }
            }
        }
    }

    /// Decodes the row segment starting at `col` into a destination
    /// slice (the blit primitive used by previews and mipmap patches).
    pub fn read_row_segment(&self, row: usize, col: usize, dst: &mut [f64]) {
        let len = dst.len();
        assert!(col + len <= self.spec.width, "row segment out of bounds");
        match self.row(row) {
            Row::Raw(px) => dst.copy_from_slice(&px[col..col + len]),
            Row::Codes { palette, codes } => {
                for (d, &c) in dst.iter_mut().zip(&codes[col..col + len]) {
                    *d = palette[usize::from(c)];
                }
            }
            Row::Runs { palette, ends, codes } => {
                let mut at = 0;
                for (code, n) in run_pieces(ends, codes, col, len) {
                    dst[at..at + n].fill(palette[usize::from(code)]);
                    at += n;
                }
            }
        }
    }

    /// Decodes the whole payload back into a raster (bitwise the
    /// original), copying each repeated row from the one above.
    pub fn to_raster(&self) -> HeatRaster {
        let w = self.spec.width;
        let mut values = Vec::with_capacity(w * self.spec.height);
        for row in 0..self.spec.height {
            if self.row_repeats(row) {
                values.extend_from_within(values.len() - w..);
            } else {
                self.append_row_segment(row, 0, w, &mut values);
            }
        }
        HeatRaster::from_values(self.spec, values)
    }

    /// Stored row `row`.
    fn row(&self, row: usize) -> Row<'_> {
        let w = self.spec.width;
        match &self.form {
            Form::Raw(px) => Row::Raw(&px[row * w..(row + 1) * w]),
            Form::Rows(r) => {
                let d = usize::from(r.row_of[row]);
                let cells = &r.cells[r.starts[d] as usize..r.starts[d + 1] as usize];
                if cells.len() == w {
                    Row::Codes { palette: &r.palette, codes: cells }
                } else {
                    let (ends, codes) = cells.split_at(cells.len() / 2);
                    Row::Runs { palette: &r.palette, ends, codes }
                }
            }
        }
    }
}

impl From<HeatRaster> for TilePayload {
    /// Encodes the raster — lets render closures keep returning plain
    /// rasters.
    fn from(raster: HeatRaster) -> TilePayload {
        TilePayload::encode(raster, false)
    }
}

/// Heap bytes of a compact payload with buffers of these lengths
/// (`f64` palette, `u16` row index and cells, `u32` starts).
fn compact_bytes(palette: usize, rows: usize, starts: usize, cells: usize) -> usize {
    8 * palette + 2 * (rows + cells) + 4 * starts
}

/// The pieces of a run row over columns `col..col + len`, as
/// `(code, pixels)`; the first run is found by binary search.
fn run_pieces<'a>(
    ends: &'a [u16],
    codes: &'a [u16],
    col: usize,
    len: usize,
) -> impl Iterator<Item = (u16, usize)> + 'a {
    let stop = col + len;
    let first = ends.partition_point(|&e| usize::from(e) <= col);
    let mut at = col;
    ends[first..].iter().zip(&codes[first..]).map_while(move |(&end, &code)| {
        (at < stop).then(|| {
            let next = usize::from(end).min(stop);
            let n = next - at;
            at = next;
            (code, n)
        })
    })
}

impl Rows {
    /// The compact form of `values` (row-major, `width` pixels a row),
    /// or `None` when it would not be smaller than the raw pixels or
    /// cannot address them. One pass: each row is compared with the
    /// row above, and each distinct row is cut into runs.
    fn encode(values: &[f64], width: usize) -> Option<Rows> {
        let (height, raw_bytes) = (values.len() / width, std::mem::size_of_val(values));
        // Run ends and row indices are `u16`.
        u16::try_from(width.max(height)).ok()?;
        // Value bits → code (first-seen order) behind a direct-mapped
        // cache of recent values, and the current row's codes.
        let (mut code_of, mut recent, mut row_codes) =
            (BTreeMap::new(), [None::<(u64, u16)>; 256], vec![0u16; width]);
        let mut row_of: Vec<u16> = Vec::with_capacity(height);
        let (mut starts, mut cells, mut runs) = (vec![0u32], Vec::new(), Vec::new());
        let mut above: &[f64] = &[];
        for row in values.chunks_exact(width) {
            if row.iter().map(|v| v.to_bits()).eq(above.iter().map(|v| v.to_bits())) {
                row_of.push(row_of[row_of.len() - 1]);
                continue;
            }
            row_of.push(u16::try_from(starts.len() - 1).expect("distinct rows ≤ u16::MAX"));
            runs.clear();
            let mut start = 0;
            while start < width {
                let bits = row[start].to_bits();
                let end =
                    start + 1 + row[start + 1..].iter().take_while(|v| v.to_bits() == bits).count();
                let slot = (bits.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as usize;
                let code = match recent[slot] {
                    Some((b, code)) if b == bits => code,
                    _ => {
                        // Wraps past 65,536 values; the tile goes raw below.
                        let next = code_of.len() as u16;
                        recent[slot].insert((bits, *code_of.entry(bits).or_insert(next))).1
                    }
                };
                row_codes[start..end].fill(code);
                runs.push((u16::try_from(end).expect("width ≤ u16::MAX"), code));
                start = end;
            }
            if width >= MIN_RUN_PX * runs.len() {
                cells.extend(runs.iter().map(|&(end, _)| end));
                cells.extend(runs.iter().map(|&(_, code)| code));
            } else {
                cells.extend_from_slice(&row_codes);
            }
            starts.push(u32::try_from(cells.len()).ok()?);
            // Buffers only grow, so the compact form can no longer undercut
            // the raw pixels; after the last distinct row this is its size.
            let bytes = compact_bytes(code_of.len(), height, starts.len(), cells.len());
            if bytes >= raw_bytes || code_of.len() > 1 << 16 {
                return None;
            }
            above = row;
        }
        // Renumber codes from first-seen order to palette (bit) order.
        let mut rank = vec![0u16; code_of.len()];
        for (r, &c) in code_of.values().enumerate() {
            rank[usize::from(c)] = r as u16;
        }
        let palette = code_of.keys().map(|&bits| f64::from_bits(bits)).collect();
        for span in starts.windows(2) {
            let row = &mut cells[span[0] as usize..span[1] as usize];
            let codes_at = if row.len() == width { 0 } else { row.len() / 2 };
            for c in &mut row[codes_at..] {
                *c = rank[usize::from(*c)];
            }
        }
        Some(Rows {
            palette,
            row_of: row_of.into_boxed_slice(),
            starts: starts.into_boxed_slice(),
            cells: cells.into_boxed_slice(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnnhm_geom::Rect;

    fn raster_of(w: usize, h: usize, f: impl Fn(usize, usize) -> f64) -> HeatRaster {
        let spec = GridSpec::new(w, h, Rect::new(0.0, 1.0, 0.0, 1.0));
        let mut values = Vec::with_capacity(w * h);
        for row in 0..h {
            for col in 0..w {
                values.push(f(col, row));
            }
        }
        HeatRaster::from_values(spec, values)
    }

    fn rows(p: &TilePayload) -> &Rows {
        match &p.form {
            Form::Rows(r) => r,
            Form::Raw(_) => panic!("expected the compact form"),
        }
    }

    fn assert_roundtrip(payload: &TilePayload, src: &HeatRaster) {
        let back = payload.to_raster();
        assert_eq!(back.spec, src.spec);
        for row in 0..src.spec.height {
            for col in 0..src.spec.width {
                let want = src.get(col, row).to_bits();
                assert_eq!(back.get(col, row).to_bits(), want, "to_raster ({col},{row})");
                assert_eq!(payload.get(col, row).to_bits(), want, "get ({col},{row})");
            }
        }
    }

    #[test]
    fn rows_repeat_and_runs_follow_the_16_px_rule() {
        // Rows 0–1: four 16-px runs (stored as runs); rows 2–3: eight
        // 8-px runs (too short: one code per pixel); row 4 back to the
        // first pattern, which is not the row above, so a new entry.
        let r = raster_of(64, 5, |c, row| match row {
            0 | 1 | 4 => (c / 16) as f64,
            _ => (c / 8) as f64 + 0.5,
        });
        let p = TilePayload::encode(r.clone(), false);
        let form = rows(&p);
        assert_eq!(&*form.row_of, &[0, 0, 1, 1, 2]);
        assert_eq!(&*form.starts, &[0, 8, 72, 80], "runs row: 4 ends + 4 codes");
        let repeats: Vec<bool> = (0..5).map(|row| p.row_repeats(row)).collect();
        assert_eq!(repeats, [false, true, false, true, false]);
        assert_roundtrip(&p, &r);
    }

    #[test]
    fn palette_preserves_nan_and_signed_zero_bits() {
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let pool = [3.0, -0.0, nan, 0.0, f64::MIN_POSITIVE / 4.0, -2.5];
        let r = raster_of(24, 6, |c, row| pool[(c / 4 + row) % pool.len()]);
        let p = TilePayload::encode(r.clone(), false);
        let bits: Vec<u64> = rows(&p).palette.iter().map(|v| v.to_bits()).collect();
        let mut sorted: Vec<u64> = pool.iter().map(|v| v.to_bits()).collect();
        sorted.sort_unstable();
        assert_eq!(bits, sorted, "palette: every distinct value once, by bits");
        assert_roundtrip(&p, &r);
    }

    #[test]
    fn payloads_are_a_function_of_the_pixel_bits() {
        let r = raster_of(40, 9, |c, row| ((c / 5 + row / 3) % 4) as f64 - 0.5);
        let p = TilePayload::encode(r.clone(), false);
        let q = TilePayload::encode(r, true);
        assert_eq!(format!("{:?}", p.form), format!("{:?}", q.form), "hint changed the payload");
    }

    #[test]
    fn fractional_small_value_sets_take_the_palette_form() {
        let r = raster_of(32, 32, |c, row| 0.25 * ((c + 2 * row) % 7) as f64 + 0.125);
        let p = TilePayload::encode(r.clone(), false);
        assert_eq!(rows(&p).palette.len(), 7);
        assert_roundtrip(&p, &r);
    }

    #[test]
    fn wide_integer_range_falls_back_to_palette_or_exact() {
        // Alternating 0 and 10⁶: one-pixel runs, so code rows; every
        // row repeats row 0.
        let r = raster_of(32, 32, |c, _| if c % 2 == 0 { 0.0 } else { 1.0e6 });
        let p = TilePayload::encode(r.clone(), true);
        assert_eq!(rows(&p).cells.len(), 32);
        assert!((1..32).all(|row| p.row_repeats(row)));
        assert_roundtrip(&p, &r);
    }

    #[test]
    fn bytes_accounting_matches_payload_width() {
        // One 32-px run per row, every row a repeat of row 0: palette
        // 1 value, 4 row entries, 2 starts, 2 cells (one end, one code).
        let p = TilePayload::encode(raster_of(32, 4, |_, _| 1.5), false);
        assert!(p.quantized());
        assert_eq!(p.bytes(), 8 + 4 * 2 + 2 * 4 + 2 * 2 + ENTRY_OVERHEAD_BYTES);
        let form = rows(&p);
        assert_eq!(
            (form.palette.len(), form.row_of.len(), form.starts.len(), form.cells.len()),
            (1, 4, 2, 2)
        );
    }

    #[test]
    fn high_entropy_tiles_stay_exact() {
        let r = raster_of(48, 48, |c, row| ((row * 48 + c) as f64).sqrt() + 0.1);
        let p = TilePayload::encode(r.clone(), false);
        assert!(!p.quantized());
        assert_eq!(p.bytes(), 48 * 48 * 8 + ENTRY_OVERHEAD_BYTES);
        assert!((0..48).all(|row| !p.row_repeats(row)));
        assert_roundtrip(&p, &r);
    }

    #[test]
    fn row_segment_readers_agree_with_get() {
        // Rows 0 and 2: 20-px runs; row 1: one-pixel runs (code row).
        let r = raster_of(80, 3, |c, row| if row == 1 { (c % 3) as f64 } else { (c / 20) as f64 });
        let p = TilePayload::encode(r.clone(), false);
        for row in 0..3 {
            for (col, len) in [(0, 80), (5, 30), (19, 2), (21, 58), (79, 1), (40, 0)] {
                let mut out = vec![-1.0];
                p.append_row_segment(row, col, len, &mut out);
                let mut blit = vec![0.0; len];
                p.read_row_segment(row, col, &mut blit);
                assert_eq!(out.len(), len + 1);
                for i in 0..len {
                    let want = r.get(col + i, row).to_bits();
                    assert_eq!(p.get(col + i, row).to_bits(), want, "get ({},{row})", col + i);
                    assert_eq!(out[i + 1].to_bits(), want, "append ({},{row})", col + i);
                    assert_eq!(blit[i].to_bits(), want, "read ({},{row})", col + i);
                }
            }
        }
    }

    #[test]
    fn from_impl_encodes_without_hint() {
        let r = raster_of(16, 16, |c, _| (c % 3) as f64);
        let p: TilePayload = r.clone().into();
        assert!(p.quantized());
        assert_roundtrip(&p, &r);
    }
}
