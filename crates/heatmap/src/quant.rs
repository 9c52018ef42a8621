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
//! One builder makes the form: it takes each row as its runs `(end,
//! bits)` or as a copy of an earlier row, keeps the runs of the
//! distinct rows, and at the end writes the four buffers once, at
//! their exact sizes. The single-band tile renders of
//! [`crate::scanline`] feed it straight from the sweep, so a tile miss
//! never holds a dense tile; [`TilePayload::encode`] feeds it the runs
//! of a dense raster's rows. Both make the same bytes, because the form
//! is a pure function of the pixel bits.
//!
//! Decoding returns the stored bits, so every pixel comes back bitwise
//! (NaN payloads, signed zeros and denormals included). A tile keeps
//! its raw `f64` pixels where this form is not smaller or cannot
//! address it (a side over 65,535 px, more than 65,536 distinct
//! values). Buffers are exact-size boxed slices, so
//! [`TilePayload::bytes`] is the heap a payload holds. No locks here.

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

/// Slots of the builder's value table at the start of a tile.
const MIN_SLOTS: usize = 64;

/// A tile raster in its compact row-deduplicated form, or as raw `f64`
/// pixels where that form is not smaller.
///
/// Construct via [`TilePayload::encode`] (or the [`From`]`<HeatRaster>`
/// impl), or render one straight from the scanline
/// ([`crate::scanline::rasterize_squares_payload`]). Every reader
/// returns the source raster's bits. Equality is bitwise: same grid,
/// same form, same stored bits.
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
        let w = spec.width;
        let mut rows = RowsBuilder::new(spec);
        let values = raster.values();
        for (r, row) in values.chunks_exact(w).enumerate() {
            if !rows.compact() {
                // The pixels are at hand: keep them rather than have
                // the builder copy them.
                break;
            }
            if r > 0 && bits_eq(row, &values[(r - 1) * w..r * w]) {
                rows.copy_row(r - 1);
                continue;
            }
            let mut start = 0;
            while start < w {
                let bits = row[start].to_bits();
                let end =
                    start + 1 + row[start + 1..].iter().take_while(|v| v.to_bits() == bits).count();
                rows.run(end, bits);
                start = end;
            }
        }
        if rows.compact() {
            rows.finish()
        } else {
            TilePayload { spec, form: Form::Raw(raster.into_values().into()) }
        }
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

impl PartialEq for TilePayload {
    /// Bitwise: the same grid and form with the same stored bits, so a
    /// NaN pixel equals itself and `-0.0` differs from `0.0`.
    fn eq(&self, other: &TilePayload) -> bool {
        self.spec == other.spec
            && match (&self.form, &other.form) {
                (Form::Raw(a), Form::Raw(b)) => bits_eq(a, b),
                (Form::Rows(a), Form::Rows(b)) => {
                    bits_eq(&a.palette, &b.palette)
                        && a.row_of == b.row_of
                        && a.starts == b.starts
                        && a.cells == b.cells
                }
                _ => false,
            }
    }
}

impl Eq for TilePayload {}

/// Whether two pixel slices hold the same bits.
fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
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

/// Home slot of value bits in a table of `mask + 1` slots.
#[inline]
fn slot_of(bits: u64, mask: usize) -> usize {
    ((bits ^ (bits >> 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & mask
}

/// Builds a [`TilePayload`] row by row, bottom row first; see the
/// module docs. Each row arrives as its runs ([`RowsBuilder::run`],
/// left to right; adjacent runs of equal bits merge) or as a copy of
/// an earlier row ([`RowsBuilder::copy_row`]). A row equal to the row
/// above shares its entry however it arrived.
///
/// Once the compact form can no longer be smaller than the raw pixels
/// (the form only grows row by row), the rows so far are expanded into
/// raw pixels and later rows are written there.
pub(crate) struct RowsBuilder {
    spec: GridSpec,
    /// The runs of the distinct rows so far, back to back, then those
    /// of the row being built: `(end, code)`, where a code numbers the
    /// values in first-seen order.
    runs: Vec<(u32, u32)>,
    /// Distinct row `d` is `runs[row_runs[d]..row_runs[d + 1]]`; the
    /// row being built starts at the last entry.
    row_runs: Vec<u32>,
    /// The distinct row each finished row shows.
    row_of: Vec<u32>,
    /// Value bits by code.
    seen: Vec<u64>,
    /// Open-addressing table over `seen`: code + 1, 0 for a free slot.
    slots: Vec<u32>,
    /// The row being built and its next column.
    row: usize,
    col: usize,
    /// Cells the distinct rows so far take in the compact form.
    cells: usize,
    /// Whether the compact form still can be smaller than the raw one.
    compact: bool,
    /// The raw pixels, once expanded.
    raw: Option<Box<[f64]>>,
}

impl RowsBuilder {
    /// An empty builder for a `spec` tile.
    pub(crate) fn new(spec: GridSpec) -> RowsBuilder {
        // Run ends and row indices are `u16`.
        let compact = u16::try_from(spec.width.max(spec.height)).is_ok();
        RowsBuilder {
            spec,
            runs: Vec::new(),
            row_runs: vec![0],
            row_of: Vec::new(),
            seen: Vec::new(),
            slots: vec![0; MIN_SLOTS],
            row: 0,
            col: 0,
            cells: 0,
            compact,
            raw: None,
        }
    }

    /// The code of the value with bits `bits`, numbering it if new.
    ///
    /// Not a `HashMap<u64, u32>`: with `entry(bits).or_insert(..)`,
    /// std's hasher or a folded-multiply one, the `tile_payload`
    /// bench's scanline-built tiles took longer on a 2-core VM (median
    /// per tile, zoom 4: count 222 → 297–306 µs, weighted 797 →
    /// 925–928 µs; zoom 2: count 1,422 → 1,681–1,737 µs).
    #[inline]
    fn code_of(&mut self, bits: u64) -> u32 {
        let mask = self.slots.len() - 1;
        let mut i = slot_of(bits, mask);
        loop {
            match self.slots[i] {
                0 => break,
                c if self.seen[c as usize - 1] == bits => return c - 1,
                _ => i = (i + 1) & mask,
            }
        }
        let code = self.seen.len() as u32;
        self.seen.push(bits);
        self.slots[i] = code + 1;
        if 2 * self.seen.len() > self.slots.len() {
            // Keep the load at most one half: rehash into twice the slots.
            let mask = 2 * self.slots.len() - 1;
            self.slots.clear();
            self.slots.resize(mask + 1, 0);
            for (c, &b) in self.seen.iter().enumerate() {
                let mut i = slot_of(b, mask);
                while self.slots[i] != 0 {
                    i = (i + 1) & mask;
                }
                self.slots[i] = c as u32 + 1;
            }
        }
        code
    }

    /// Pixels per row.
    #[inline]
    pub(crate) fn width(&self) -> usize {
        self.spec.width
    }

    /// Whether the compact form can still be smaller than the raw one.
    pub(crate) fn compact(&self) -> bool {
        self.compact
    }

    /// The current row's pixels from its next column up to `end`
    /// (exclusive) hold the value with bits `bits`. The run ending at
    /// the width completes the row.
    #[inline]
    pub(crate) fn run(&mut self, end: usize, bits: u64) {
        debug_assert!(self.col < end && end <= self.spec.width, "runs must advance");
        if self.compact {
            let (n, row_start) = (self.runs.len(), self.row_runs[self.row_runs.len() - 1] as usize);
            if n > row_start && self.seen[self.runs[n - 1].1 as usize] == bits {
                self.runs[n - 1].0 = end as u32;
            } else {
                let code = self.code_of(bits);
                self.runs.push((end as u32, code));
            }
        } else {
            let at = self.row * self.spec.width;
            let col = self.col;
            self.pixels()[at + col..at + end].fill(f64::from_bits(bits));
        }
        self.col = end;
        if end == self.spec.width {
            self.end_row();
        }
    }

    /// The next row is bitwise row `src`, an earlier row.
    pub(crate) fn copy_row(&mut self, src: usize) {
        debug_assert!(self.col == 0 && src < self.row, "copies start a row from an earlier one");
        if !self.compact {
            let w = self.spec.width;
            let at = self.row * w;
            self.pixels().copy_within(src * w..src * w + w, at);
            self.row += 1;
        } else if src + 1 == self.row {
            self.row_of.push(self.row_of[src]);
            self.row += 1;
        } else {
            let d = self.row_of[src] as usize;
            let span = self.row_runs[d] as usize..self.row_runs[d + 1] as usize;
            self.runs.extend_from_within(span);
            self.end_row();
        }
    }

    /// Files the finished row: an entry shared with the row above when
    /// its runs are that row's, else a new distinct row.
    fn end_row(&mut self) {
        self.row += 1;
        self.col = 0;
        if !self.compact {
            return;
        }
        let d = self.row_runs.len() - 1;
        let start = self.row_runs[d] as usize;
        // Runs are maximal, so equal pixels have equal runs.
        if d > 0 && self.runs[self.row_runs[d - 1] as usize..start] == self.runs[start..] {
            self.runs.truncate(start);
            self.row_of.push(d as u32 - 1);
            return;
        }
        let (w, n) = (self.spec.width, self.runs.len() - start);
        self.cells += if w >= MIN_RUN_PX * n { 2 * n } else { w };
        self.row_of.push(d as u32);
        self.row_runs.push(self.runs.len() as u32);
        let values = self.seen.len();
        let compact_size = compact_bytes(values, self.spec.height, d + 2, self.cells);
        let raw_size = self.spec.width * self.spec.height * size_of::<f64>();
        // Codes are `u16`, row starts `u32`.
        self.compact =
            compact_size < raw_size && values <= 1 << 16 && u32::try_from(self.cells).is_ok();
    }

    /// The raw pixels, expanding the rows finished so far on first use.
    fn pixels(&mut self) -> &mut [f64] {
        let (w, h) = (self.spec.width, self.spec.height);
        let (runs, row_runs, seen) = (&self.runs, &self.row_runs, &self.seen);
        let row_of = &self.row_of;
        self.raw.get_or_insert_with(|| {
            let mut px = vec![0.0; w * h].into_boxed_slice();
            for (r, &d) in row_of.iter().enumerate() {
                let mut at = r * w;
                for &(end, code) in &runs[row_runs[d as usize] as usize..] {
                    let to = r * w + end as usize;
                    px[at..to].fill(f64::from_bits(seen[code as usize]));
                    at = to;
                    if end as usize == w {
                        break;
                    }
                }
            }
            px
        })
    }

    /// The payload of the finished rows (every row of the grid).
    pub(crate) fn finish(mut self) -> TilePayload {
        debug_assert!(self.row == self.spec.height && self.col == 0, "every row finished");
        let spec = self.spec;
        if !self.compact {
            self.pixels();
            let px = self.raw.take().expect("raw pixels just expanded");
            return TilePayload { spec, form: Form::Raw(px) };
        }
        // Palette order is bit order: rank each code by its bits.
        let mut order: Vec<(u64, u32)> =
            self.seen.iter().enumerate().map(|(c, &bits)| (bits, c as u32)).collect();
        order.sort_unstable();
        let mut rank = vec![0u16; order.len()];
        for (i, &(_, c)) in order.iter().enumerate() {
            rank[c as usize] = i as u16;
        }
        let w = spec.width;
        let (mut starts, mut cells) =
            (Vec::with_capacity(self.row_runs.len()), Vec::with_capacity(self.cells));
        starts.push(0u32);
        for span in self.row_runs.windows(2) {
            let runs = &self.runs[span[0] as usize..span[1] as usize];
            if w >= MIN_RUN_PX * runs.len() {
                cells.extend(runs.iter().map(|&(end, _)| end as u16));
                cells.extend(runs.iter().map(|&(_, code)| rank[code as usize]));
            } else {
                for &(end, code) in runs {
                    let at = starts[starts.len() - 1] as usize;
                    cells.resize(at + end as usize, rank[code as usize]);
                }
            }
            starts.push(cells.len() as u32);
        }
        debug_assert_eq!(cells.len(), self.cells);
        let rows = Rows {
            palette: order.iter().map(|&(bits, _)| f64::from_bits(bits)).collect(),
            row_of: self.row_of.iter().map(|&d| d as u16).collect(),
            starts: starts.into_boxed_slice(),
            cells: cells.into_boxed_slice(),
        };
        TilePayload { spec, form: Form::Rows(rows) }
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

    /// Feeds rows to a builder, bottom row first: each row as its
    /// `(end, value)` runs, or `None` to copy the row above. Checks
    /// that `encode` of the decoded raster makes the same payload.
    fn build(w: usize, rows: &[Option<&[(usize, f64)]>]) -> TilePayload {
        let spec = GridSpec::new(w, rows.len(), Rect::new(0.0, 1.0, 0.0, 1.0));
        let mut b = RowsBuilder::new(spec);
        for (r, row) in rows.iter().enumerate() {
            match row {
                None => b.copy_row(r - 1),
                Some(runs) => runs.iter().for_each(|&(end, v)| b.run(end, v.to_bits())),
            }
        }
        let p = b.finish();
        let dense = p.to_raster();
        assert_eq!(TilePayload::encode(dense.clone(), false), p, "builder ≠ encode");
        assert_roundtrip(&p, &dense);
        p
    }

    #[test]
    fn a_row_equal_only_to_the_row_two_above_gets_its_own_entry() {
        let (a, b): (&[_], &[_]) = (&[(16, 1.0), (32, 2.0)], &[(32, 3.0)]);
        let p = build(32, &[Some(a), Some(b), Some(a), None]);
        assert_eq!(&*rows(&p).row_of, &[0, 1, 2, 2]);
        assert_eq!(rows(&p).starts.len(), 4, "three distinct rows");
    }

    #[test]
    fn a_recomputed_row_equal_to_the_row_above_shares_its_entry() {
        // The second row arrives as runs (its shapes changed), but its
        // pixels are the first row's.
        let a: &[_] = &[(20, 5.0), (32, 6.0)];
        let p = build(32, &[Some(a), Some(a), Some(&[(20, 5.0), (32, 7.0)])]);
        assert_eq!(&*rows(&p).row_of, &[0, 0, 1]);
        assert!(p.row_repeats(1) && !p.row_repeats(2));
    }

    #[test]
    fn adjacent_runs_of_equal_bits_merge() {
        // An enter and a leave in one column: the sweep hands over two
        // pieces of one value. Equal values of other bits stay apart.
        let p = build(48, &[Some(&[(10, 1.0), (20, 1.0), (30, 0.0), (48, -0.0)])]);
        let form = rows(&p);
        assert_eq!(&*form.cells, &[20, 30, 48, 1, 0, 2], "ends, then codes by bit order");
        let bits: Vec<u64> = form.palette.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, [0.0f64.to_bits(), 1.0f64.to_bits(), (-0.0f64).to_bits()]);
    }

    #[test]
    fn runs_need_16_px_each_on_average() {
        // Three runs over exactly 48 px: stored as runs. Over 47 px:
        // one code per pixel.
        let p = build(48, &[Some(&[(16, 1.0), (32, 2.0), (48, 3.0)])]);
        assert_eq!(rows(&p).cells.len(), 6);
        let p = build(47, &[Some(&[(16, 1.0), (32, 2.0), (47, 3.0)])]);
        assert_eq!(rows(&p).cells.len(), 47);
        assert_eq!(&rows(&p).cells[14..18], &[0, 0, 1, 1]);
    }

    #[test]
    fn tiles_the_form_cannot_address_or_beat_stay_raw() {
        // 65,536 distinct values fit the `u16` codes, 65,537 do not,
        // though the compact form would be half the raw size.
        for (values, compact) in [(65_536usize, true), (65_537, false)] {
            let r = raster_of(512, 512, |c, row| ((row * 512 + c) % values) as f64);
            let p = TilePayload::encode(r.clone(), false);
            assert_eq!(p.quantized(), compact, "{values} distinct values");
            assert_roundtrip(&p, &r);
            let runs: Vec<Vec<(usize, f64)>> =
                (0..512).map(|row| (0..512).map(|c| (c + 1, r.get(c, row))).collect()).collect();
            let fed: Vec<Option<&[(usize, f64)]>> = runs.iter().map(|v| Some(&v[..])).collect();
            assert_eq!(build(512, &fed), p);
        }
        // A 65,536 px side cannot be addressed by `u16` run ends.
        for (w, compact) in [(65_535usize, true), (65_536, false)] {
            let p = build(w, &[Some(&[(w / 2, 1.0), (w, 2.0)]), None]);
            assert_eq!(p.quantized(), compact, "{w} px side");
        }
        // A 7 px row of four values takes 8·4 + 2·(1 + 7) + 4·2 = 56 B
        // compact, the raw size: raw. Three values take 48 B: compact.
        let p = build(7, &[Some(&[(1, 1.0), (2, 2.0), (3, 3.0), (7, 4.0)])]);
        assert!(!p.quantized());
        assert_eq!(p.bytes(), 56 + ENTRY_OVERHEAD_BYTES);
        let p = build(7, &[Some(&[(1, 1.0), (2, 2.0), (7, 3.0)])]);
        assert!(p.quantized());
        assert_eq!(p.bytes(), 48 + ENTRY_OVERHEAD_BYTES);
    }

    #[test]
    fn built_payloads_keep_nan_payloads_and_signed_zeros() {
        let nan = f64::from_bits(0x7ff4_0000_0000_0001);
        let row: &[_] = &[(16, nan), (32, -0.0), (48, 0.0), (64, -nan)];
        let p = build(64, &[Some(row), Some(&[(32, 0.0), (64, nan)]), None]);
        let bits: Vec<u64> = rows(&p).palette.iter().map(|v| v.to_bits()).collect();
        let mut want: Vec<u64> = [nan, -0.0, 0.0, -nan].iter().map(|v| v.to_bits()).collect();
        want.sort_unstable();
        assert_eq!(bits, want);
        assert_eq!(p.get(20, 0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(p.get(63, 2).to_bits(), nan.to_bits());
    }

    #[test]
    fn from_impl_encodes_without_hint() {
        let r = raster_of(16, 16, |c, _| (c % 3) as f64);
        let p: TilePayload = r.clone().into();
        assert!(p.quantized());
        assert_roundtrip(&p, &r);
    }
}
