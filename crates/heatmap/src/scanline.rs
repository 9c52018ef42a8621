//! Scanline rasterization with incremental RNN-set maintenance.
//!
//! The per-pixel exact rasterizer (`compute::rasterize_squares_oracle`)
//! answers an independent point-enclosure query per pixel center:
//! `O(P · (log n + α))` for `P` pixels with *zero* coherence between a
//! pixel and its neighbour, even though adjacent pixel centers almost
//! always have identical RNN sets. This module exploits that coherence:
//!
//! 1. **Row events.** For each pixel row, every NN-shape that can touch
//!    the row contributes one contiguous *span* of covered pixel
//!    columns (squares intersect a horizontal line in an interval; so
//!    do disks — a chord — and rotated L1 diamonds). Span endpoints
//!    become *enter*/*leave* events. Axis-aligned squares — the L∞
//!    workhorse — have row-independent spans, computed exactly **once
//!    per shape**; disks and rotated squares compute a fresh span per
//!    row.
//! 2. **Incremental sweep.** The row is swept left to right once, its
//!    events ordered by a counting sort on the column (events are
//!    packed into `u64`s; comparison sorting is the fallback for sparse
//!    rows). The active RNN set changes only at events, so the
//!    influence measure is updated via [`IncrementalMeasure::add`] /
//!    [`remove`] and evaluated once per *run* of equal-valued pixels,
//!    not once per pixel.
//! 3. **Row batching.** Adjacent rows of a band are pushed through the
//!    same active-shape set in `ROW_BATCH`-row groups (the RT-RkNN
//!    ray-coherence idea: batch adjacent rays through one shape set).
//!    For row-invariant shapes (axis-aligned squares) every shape
//!    covering the whole batch contributes the *same* events to each
//!    row, so those events are emitted and sorted **once per batch**;
//!    each row only adds the handful of events from shapes starting or
//!    expiring inside the batch, merged into the presorted base by
//!    bulk runs. Rows whose event list is exactly the batch base are
//!    bitwise copies of each other and are filled by `memcpy`.
//! 4. **Row parallelism.** Rows are independent; contiguous row bands
//!    (one per core, shaped by `rnnhm_core::parallel::chunk_ranges`)
//!    render concurrently on scoped threads, each writing its own
//!    disjoint slice of the raster buffer.
//! 5. **Straight to a tile payload.** One band renderer serves every
//!    output: it hands each row to a row sink as pieces of one value,
//!    as a prefix sum of the additive path's difference array, or as a
//!    copy of an earlier row. The dense sink fills a raster slice; the
//!    payload sink ([`rasterize_squares_payload`],
//!    [`rasterize_disks_payload`], single band) passes the same rows
//!    to [`crate::quant`]'s builder as runs and repeats, so a tile miss
//!    never writes a dense tile nor reads one back to encode it. The
//!    additive path marks a row where no shape starts or ends as a
//!    repeat without computing it.
//!
//! The cost drops to `O(Σ_shapes rows(shape) + P)` with tiny constants
//! — per-pixel work is a plain memory fill (`slice::fill` /
//! `copy_within`, both of which lower to vectorized intrinsics), or
//! none at all for a payload's repeated rows, and per-row bookkeeping
//! for the L∞ workhorse is proportional to the shapes *changing* across
//! the batch, not all active shapes. Event scratch lives in a
//! thread-local arena reused across rows, batches, and whole tile
//! renders, so steady-state serving allocates nothing per row.
//!
//! ## Exactness
//!
//! Span endpoints are found by *trimming*: an arithmetic estimate of
//! the span (widened by `Grid::error_margin` — a base
//! `COL_MARGIN` plus the coordinate ULPs in pixel units, so
//! large-offset coordinate systems stay safe) is refined by evaluating
//! the exact
//! same containment predicate the per-pixel oracle uses (closed-rect
//! containment for squares, closed rect *then* closed disk for disks —
//! mirroring the R-tree stab plus filter) on the exact same
//! [`GridSpec::pixel_center`] coordinates. Coverage along a row is
//! convex, so trimming yields exactly the oracle's pixel set and the
//! raster is **bit-identical** to the oracle for every
//! order-insensitive exact measure (see [`IncrementalMeasure`]'s
//! contract).
//!
//! [`remove`]: IncrementalMeasure::remove

use std::ops::Range;
use std::thread;

use rnnhm_core::arrangement::{CoordSpace, DiskArrangement, SquareArrangement};
use rnnhm_core::measure::IncrementalMeasure;
use rnnhm_core::parallel::{chunk_ranges, effective_parallelism};
use rnnhm_geom::eps::EPS;
use rnnhm_geom::{Circle, Point, Rect};
use rnnhm_index::interval::Interval;

use crate::quant::{RowsBuilder, TilePayload};
use crate::raster::{GridSpec, HeatRaster};

/// Base pixels of slack added around arithmetic span estimates before
/// exact trimming; [`Grid::error_margin`] adds a coordinate-ULP term on
/// top for large-magnitude coordinates.
const COL_MARGIN: f64 = 2.0;

/// A shape that can report which pixels of a row it covers.
///
/// [`RowShape::rows`] may be conservative (a superset row range);
/// [`RowShape::span`] must be *exact* — precisely the columns whose
/// pixel centers the per-pixel oracle would count as covered.
trait RowShape: Sync {
    /// Whether [`RowShape::span`] is independent of `row`: the shape
    /// covers the same columns on every row of [`RowShape::rows`].
    /// Row-invariant shapes let the rasterizer emit and sort one event
    /// list per [`ROW_BATCH`]-row batch instead of one per row.
    const ROW_INVARIANT: bool = false;

    /// The client id whose NN-circle this is.
    fn owner(&self) -> u32;

    /// Row range (inclusive) the shape can touch, or `None` when the
    /// shape misses the grid entirely.
    fn rows(&self, grid: &Grid) -> Option<(usize, usize)>;

    /// Exact inclusive column span covered at `row` (a row within
    /// [`RowShape::rows`]), or `None` when the row is untouched.
    fn span(&self, grid: &Grid, row: usize) -> Option<(u32, u32)>;
}

/// Axis-aligned square NN-circle (L∞, identity coordinates): both the
/// row range and the column span are row-independent and precomputed
/// exactly at build time, making [`RowShape::span`] a field read.
struct AxisSquare {
    rows: (u32, u32),
    cols: (u32, u32),
    owner: u32,
}

impl AxisSquare {
    /// Builds the exact pixel footprint, or `None` when no pixel center
    /// lies inside the closed rectangle.
    ///
    /// The rectangle's x- and y-conditions are independent, so exact
    /// per-axis trims against the oracle's `contains_closed` comparisons
    /// reproduce its pixel set.
    fn build(rect: &Rect, owner: u32, grid: &Grid) -> Option<AxisSquare> {
        let (r0, r1) = grid.candidate_rows(Interval::new(rect.y_lo, rect.y_hi))?;
        let (r0, r1) = trim_range(r0, r1, |row| {
            let y = grid.y_of_row(row);
            rect.y_lo <= y && y <= rect.y_hi
        })?;
        let (c0, c1) = grid.candidate_range(Interval::new(rect.x_lo, rect.x_hi))?;
        let (c0, c1) = trim_range(c0, c1, |col| {
            let x = grid.x_of_col(col);
            rect.x_lo <= x && x <= rect.x_hi
        })?;
        Some(AxisSquare { rows: (r0 as u32, r1 as u32), cols: (c0 as u32, c1 as u32), owner })
    }
}

impl RowShape for AxisSquare {
    const ROW_INVARIANT: bool = true;

    #[inline]
    fn owner(&self) -> u32 {
        self.owner
    }

    #[inline]
    fn rows(&self, _grid: &Grid) -> Option<(usize, usize)> {
        Some((self.rows.0 as usize, self.rows.1 as usize))
    }

    #[inline]
    fn span(&self, _grid: &Grid, _row: usize) -> Option<(u32, u32)> {
        Some(self.cols)
    }
}

/// Square NN-circle in the π/4-rotated sweep frame (L1): a raster row
/// maps to a diagonal line in sweep space, so the span is computed per
/// row from two linear constraints and trimmed exactly.
struct RotSquare {
    rect: Rect,
    owner: u32,
}

impl RotSquare {
    /// The oracle's predicate: closed containment of the sweep-space
    /// image of the pixel center.
    #[inline]
    fn covers(&self, grid: &Grid, col: usize, row: usize) -> bool {
        let p = CoordSpace::Rotated45.to_sweep(grid.center(col, row));
        self.rect.contains_closed(p)
    }
}

impl RowShape for RotSquare {
    #[inline]
    fn owner(&self) -> u32 {
        self.owner
    }

    fn rows(&self, grid: &Grid) -> Option<(usize, usize)> {
        // Preimage of the sweep square is a diamond; bound it by the
        // unrotated corners.
        let r = CoordSpace::Rotated45.rect_to_original(self.rect);
        grid.candidate_rows(Interval::new(r.y_lo, r.y_hi))
    }

    fn span(&self, grid: &Grid, row: usize) -> Option<(u32, u32)> {
        // The row maps to the diagonal sweep-space line
        //   x' = C·(X − y),  y' = C·(X + y)   (C = 1/√2)
        // parameterized by the input-space abscissa X. Each rect
        // constraint is an interval in X.
        const C: f64 = std::f64::consts::FRAC_1_SQRT_2;
        let y = grid.y_of_row(row);
        let from_x = Interval::new(self.rect.x_lo / C + y, self.rect.x_hi / C + y);
        let from_y = Interval::new(self.rect.y_lo / C - y, self.rect.y_hi / C - y);
        let iv = from_x.intersect(&from_y)?;
        let (lo, hi) = grid.candidate_range(iv)?;
        let (lo, hi) = trim_range(lo, hi, |col| self.covers(grid, col, row))?;
        Some((lo as u32, hi as u32))
    }
}

/// Disk NN-circle (L2). Coverage mirrors the oracle's two-stage test:
/// bounding-box stab, then closed-disk membership.
struct DiskShape {
    disk: Circle,
    bbox: Rect,
    owner: u32,
}

impl DiskShape {
    #[inline]
    fn covers(&self, grid: &Grid, col: usize, row: usize) -> bool {
        let p = grid.center(col, row);
        self.bbox.contains_closed(p) && self.disk.contains_closed(p)
    }
}

impl RowShape for DiskShape {
    #[inline]
    fn owner(&self) -> u32 {
        self.owner
    }

    fn rows(&self, grid: &Grid) -> Option<(usize, usize)> {
        grid.candidate_rows(Interval::new(self.bbox.y_lo, self.bbox.y_hi))
    }

    fn span(&self, grid: &Grid, row: usize) -> Option<(u32, u32)> {
        let y = grid.y_of_row(row);
        // Bounding-box y test, exactly as the R-tree stab prunes.
        if !(self.bbox.y_lo <= y && y <= self.bbox.y_hi) {
            return None;
        }
        // Chord of the (EPS-padded, matching contains_closed) disk.
        let dy = y - self.disk.c.y;
        let under = self.disk.r * self.disk.r + EPS - dy * dy;
        if under < 0.0 {
            return None;
        }
        let dx = under.sqrt();
        let iv = Interval::new(self.disk.c.x - dx, self.disk.c.x + dx)
            .intersect(&Interval::new(self.bbox.x_lo, self.bbox.x_hi))?;
        let (lo, hi) = grid.candidate_range(iv)?;
        let (lo, hi) = trim_range(lo, hi, |col| self.covers(grid, col, row))?;
        Some((lo as u32, hi as u32))
    }
}

/// Grid arithmetic shared by the workers. Coordinate formulas
/// replicate [`GridSpec::pixel_center`] operation for operation, so
/// per-axis predicates see the oracle's bit-identical values.
struct Grid {
    spec: GridSpec,
}

impl Grid {
    /// x-coordinate of the column's center — bitwise identical to
    /// [`GridSpec::pixel_center`]'s x.
    #[inline]
    fn x_of_col(&self, col: usize) -> f64 {
        let ext = self.spec.extent;
        ext.x_lo + (col as f64 + 0.5) * (ext.width() / self.spec.width as f64)
    }

    /// y-coordinate of the row's center — bitwise identical to
    /// [`GridSpec::pixel_center`]'s y.
    #[inline]
    fn y_of_row(&self, row: usize) -> f64 {
        let ext = self.spec.extent;
        ext.y_lo + (row as f64 + 0.5) * (ext.height() / self.spec.height as f64)
    }

    /// The pixel's center.
    #[inline]
    fn center(&self, col: usize, row: usize) -> Point {
        self.spec.pixel_center(col, row)
    }

    /// Slack (in pixels) covering the floating-point error of mapping
    /// the continuous interval `iv` onto a `cells`-pixel axis starting
    /// at `origin` with extent `extent`: a fixed [`COL_MARGIN`] plus
    /// the coordinate ULPs expressed in pixel units.
    ///
    /// The ULP term matters when coordinates are large relative to the
    /// extent (e.g. projected meters with a 10⁶–10¹⁵ offset): there a
    /// single rounding step can span many pixels, and a fixed margin
    /// would let the candidate range miss covered pixels. A huge slack
    /// only costs trim iterations, never correctness.
    fn error_margin(iv: Interval, origin: f64, extent: f64, cells: f64) -> f64 {
        let magnitude = iv.lo.abs().max(iv.hi.abs()).max(origin.abs());
        let pixel = extent / cells;
        COL_MARGIN + 8.0 * f64::EPSILON * magnitude / pixel
    }

    /// Conservative pixel-column range whose centers might lie in the
    /// continuous interval `iv`, widened by [`Grid::error_margin`] and
    /// clamped to the grid.
    fn candidate_range(&self, iv: Interval) -> Option<(usize, usize)> {
        let ext = self.spec.extent;
        let w = self.spec.width as f64;
        let margin = Self::error_margin(iv, ext.x_lo, ext.width(), w);
        let to_grid = |x: f64| (x - ext.x_lo) / ext.width() * w - 0.5;
        let lo = (to_grid(iv.lo) - margin).ceil();
        let hi = (to_grid(iv.hi) + margin).floor();
        let last = (self.spec.width - 1) as f64;
        if hi < 0.0 || lo > last || lo.is_nan() || hi.is_nan() {
            return None;
        }
        Some((lo.max(0.0) as usize, hi.min(last) as usize))
    }

    /// Conservative pixel-row range for the continuous y-interval
    /// `iv`, widened by [`Grid::error_margin`] and clamped to the grid.
    fn candidate_rows(&self, iv: Interval) -> Option<(usize, usize)> {
        let ext = self.spec.extent;
        let h = self.spec.height as f64;
        let margin = Self::error_margin(iv, ext.y_lo, ext.height(), h);
        let to_grid = |y: f64| (y - ext.y_lo) / ext.height() * h - 0.5;
        let lo = (to_grid(iv.lo) - margin).ceil();
        let hi = (to_grid(iv.hi) + margin).floor();
        let last = (self.spec.height - 1) as f64;
        if hi < 0.0 || lo > last || lo.is_nan() || hi.is_nan() {
            return None;
        }
        Some((lo.max(0.0) as usize, hi.min(last) as usize))
    }
}

/// Shrinks a conservative inclusive index range to exactly the indices
/// satisfying `pred`. The satisfying set must be contiguous (coverage
/// along an axis is convex), so trimming both ends is exact.
fn trim_range(
    mut lo: usize,
    mut hi: usize,
    pred: impl Fn(usize) -> bool,
) -> Option<(usize, usize)> {
    while !pred(lo) {
        if lo == hi {
            return None;
        }
        lo += 1;
    }
    while hi > lo && !pred(hi) {
        hi -= 1;
    }
    Some((lo, hi))
}

/// Events are packed into `u64`s ordered by column:
/// `col << 33 | enter << 32 | owner`.
#[inline]
fn pack_event(col: u32, enter: bool, owner: u32) -> u64 {
    ((col as u64) << 33) | ((enter as u64) << 32) | owner as u64
}

#[inline]
fn event_col(e: u64) -> usize {
    (e >> 33) as usize
}

#[inline]
fn event_is_enter(e: u64) -> bool {
    e & (1 << 32) != 0
}

#[inline]
fn event_owner(e: u64) -> u32 {
    e as u32
}

/// Rows a band worker pushes through one classified active-shape set
/// (the RT-RkNN coherence batch). Small enough that shapes starting or
/// expiring inside the batch stay a short "extras" list; large enough
/// that the per-batch active-set scan and base sort amortize.
const ROW_BATCH: usize = 8;

/// How many [`RowScratch`] sets a thread parks for reuse; fetch worker
/// threads render tiles one after another and only ever need one.
const ARENA_CAP: usize = 4;

std::thread_local! {
    /// Per-thread arena of event scratch buffers. A band worker
    /// acquires a scratch at the start of a render and parks it again
    /// at the end, so consecutive tile renders on a fetch worker (or
    /// on the caller's thread for single-band tiles) reuse the grown
    /// event/histogram allocations instead of reallocating per tile.
    static SCRATCH_ARENA: std::cell::RefCell<Vec<RowScratch>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Scratch buffers a band worker reuses across rows and batches — and,
/// through [`SCRATCH_ARENA`], across whole renders.
struct RowScratch {
    /// Unsorted event staging buffer.
    raw: Vec<u64>,
    /// Batch-stable events (shapes covering every row of the batch),
    /// sorted; valid for one batch.
    base: Vec<u64>,
    /// The current row's extra events, sorted.
    extras: Vec<u64>,
    /// `base` and `extras` merged in packed order for sweeping.
    merged: Vec<u64>,
    /// Indices of shapes active in the batch but not batch-stable.
    partial: Vec<u32>,
    /// Counting-sort histogram, length `width + 2` (leave events can
    /// sit one past the last column).
    counts: Vec<u32>,
    /// Difference array for the additive fast path, length `width + 1`
    /// (a span leaving at the last column writes one past it).
    diff: Vec<f64>,
}

impl RowScratch {
    /// Pops a parked scratch from the thread's arena (or builds a
    /// fresh one) and sizes its histogram for `width` columns.
    fn acquire(width: usize) -> RowScratch {
        let mut s = SCRATCH_ARENA.with(|a| a.borrow_mut().pop()).unwrap_or(RowScratch {
            raw: Vec::new(),
            base: Vec::new(),
            extras: Vec::new(),
            merged: Vec::new(),
            partial: Vec::new(),
            counts: Vec::new(),
            diff: Vec::new(),
        });
        s.counts.clear();
        s.counts.resize(width + 2, 0);
        s.diff.clear();
        s.diff.resize(width + 1, 0.0);
        s
    }

    /// Parks the scratch for the thread's next render.
    fn release(self) {
        SCRATCH_ARENA.with(|a| {
            let mut a = a.borrow_mut();
            if a.len() < ARENA_CAP {
                a.push(self);
            }
        });
    }
}

/// Orders `raw` by column into `dst`: counting sort when the row is
/// dense, comparison sort when sparse (the packed layout makes the
/// `u64` order the column order; enter/leave order within one column is
/// immaterial to the swept set). `counts` is the width+2 histogram.
fn sort_events(counts: &mut [u32], raw: &[u64], dst: &mut Vec<u64>) {
    dst.clear();
    dst.extend_from_slice(raw);
    if raw.len() * 8 < counts.len() {
        dst.sort_unstable();
        return;
    }
    counts.fill(0);
    for &e in raw {
        counts[event_col(e)] += 1;
    }
    let mut acc = 0u32;
    for c in counts.iter_mut() {
        let n = *c;
        *c = acc;
        acc += n;
    }
    for &e in raw {
        let slot = &mut counts[event_col(e)];
        dst[*slot as usize] = e;
        *slot += 1;
    }
}

/// Merges two column-sorted event lists into `out`, copying runs of
/// `base` in bulk between consecutive extras (`extras` is short — the
/// shapes changing within a batch — so the merge is a couple of
/// `memcpy`-style runs rather than a full re-sort of every event).
fn merge_events(base: &[u64], extras: &[u64], out: &mut Vec<u64>) {
    out.clear();
    out.reserve(base.len() + extras.len());
    let mut b = 0usize;
    for &e in extras {
        let run = base[b..].partition_point(|&x| x <= e);
        out.extend_from_slice(&base[b..b + run]);
        b += run;
        out.push(e);
    }
    out.extend_from_slice(&base[b..]);
}

/// Where a band renderer puts its rows, which it produces in order.
/// Each row arrives whole: as a copy of an earlier row of the band, as
/// a prefix sum of the additive path's difference array, or as
/// left-to-right pieces of one value that end at the width.
trait RowOut {
    /// Row `row` is bitwise the earlier row `src`.
    fn copy_row(&mut self, src: usize, row: usize);

    /// Row `row` is the running sum of `background` and `diff`'s first
    /// `width` entries, added in column order.
    fn prefix_row(&mut self, row: usize, background: f64, diff: &[f64]);

    /// Columns `cols` of row `row` hold `v`.
    fn fill(&mut self, row: usize, cols: Range<usize>, v: f64);
}

/// The rows of one band as dense pixels: `slice` holds rows
/// `first..`, `width` pixels each.
struct DenseRows<'a> {
    slice: &'a mut [f64],
    first: usize,
    width: usize,
}

impl RowOut for DenseRows<'_> {
    #[inline]
    fn copy_row(&mut self, src: usize, row: usize) {
        let (w, src) = (self.width, (src - self.first) * self.width);
        self.slice.copy_within(src..src + w, (row - self.first) * w);
    }

    fn prefix_row(&mut self, row: usize, background: f64, diff: &[f64]) {
        let at = (row - self.first) * self.width;
        let mut acc = background;
        for (out, &d) in self.slice[at..at + self.width].iter_mut().zip(diff) {
            acc += d;
            *out = acc;
        }
    }

    #[inline]
    fn fill(&mut self, row: usize, cols: Range<usize>, v: f64) {
        let at = (row - self.first) * self.width;
        self.slice[at + cols.start..at + cols.end].fill(v);
    }
}

/// The rows of a whole tile as runs, straight into its payload.
impl RowOut for RowsBuilder {
    #[inline]
    fn copy_row(&mut self, src: usize, _row: usize) {
        RowsBuilder::copy_row(self, src);
    }

    fn prefix_row(&mut self, _row: usize, background: f64, diff: &[f64]) {
        let width = self.width();
        let mut acc = background + diff[0];
        let mut bits = acc.to_bits();
        for (col, &d) in diff[1..width].iter().enumerate() {
            acc += d;
            if acc.to_bits() != bits {
                self.run(col + 1, bits);
                bits = acc.to_bits();
            }
        }
        self.run(width, bits);
    }

    #[inline]
    fn fill(&mut self, _row: usize, cols: Range<usize>, v: f64) {
        self.run(cols.end, v.to_bits());
    }
}

/// Sweeps row `row`: hands `out` the row piece by piece, applying
/// enter/leave events and asking the measure for the value once per
/// piece.
///
/// The events must be column-sorted balanced enter/leave pairs; the
/// state is returned to its initial (empty) value by the trailing
/// leave events, letting the worker reuse it across rows.
fn sweep_row<M: IncrementalMeasure, O: RowOut>(
    measure: &M,
    state: &mut M::State,
    events: &[u64],
    row: usize,
    width: usize,
    out: &mut O,
) {
    let mut cur = 0usize;
    let mut i = 0usize;
    while i < events.len() {
        let col = event_col(events[i]);
        if col > cur {
            out.fill(row, cur..col, measure.current(state));
            cur = col;
        }
        while i < events.len() && event_col(events[i]) == col {
            let e = events[i];
            if event_is_enter(e) {
                measure.add(state, event_owner(e));
            } else {
                measure.remove(state, event_owner(e));
            }
            i += 1;
        }
    }
    if cur < width {
        out.fill(row, cur..width, measure.current(state));
    }
}

/// A CSR index of shapes by row: the shapes of row `r` are
/// `ids[off[r]..off[r + 1]]` (one flat array plus row offsets, not a
/// Vec per row — a tile render makes zero per-row allocations).
struct RowIndex {
    off: Vec<u32>,
    ids: Vec<u32>,
}

impl RowIndex {
    /// Files every shape `i` under `row_of(i)`, if any, in id order.
    fn new(h: usize, n: usize, row_of: impl Fn(usize) -> Option<usize>) -> RowIndex {
        let mut off: Vec<u32> = vec![0; h + 1];
        for r in (0..n).filter_map(&row_of) {
            off[r + 1] += 1;
        }
        for r in 0..h {
            off[r + 1] += off[r];
        }
        let mut ids: Vec<u32> = vec![0; off[h] as usize];
        let mut cursor: Vec<u32> = off[..h].to_vec();
        for i in 0..n {
            if let Some(r) = row_of(i) {
                ids[cursor[r] as usize] = i as u32;
                cursor[r] += 1;
            }
        }
        RowIndex { off, ids }
    }

    #[inline]
    fn at(&self, row: usize) -> &[u32] {
        &self.ids[self.off[row] as usize..self.off[row + 1] as usize]
    }
}

/// What every band of one render shares: the shapes, their row ranges
/// and the shapes bucketed by the row they start on.
struct Plan<'a, S, M> {
    shapes: &'a [S],
    measure: &'a M,
    grid: &'a Grid,
    /// The (possibly conservative) row range of each shape, with an
    /// inverted sentinel for shapes missing the grid.
    row_range: Vec<(u32, u32)>,
    /// Shapes by the first row they can touch.
    starts: RowIndex,
    /// The additive fast path's inputs, when it applies.
    additive: Option<Additive>,
}

/// Additive fast path: row-invariant shapes (precomputed constant
/// spans) under a measure that is an exact order-independent sum of
/// per-member deltas (see `IncrementalMeasure::additive_delta`) need no
/// events and no sorting at all. Each band maintains one 1-D
/// difference array across its rows — a shape adds `±delta` at its
/// span edges when it starts and the negation when it expires — and
/// every row is a prefix sum. Per-row cost is `O(changed shapes) +
/// O(width)`; rows with no membership change are bitwise copies of the
/// previous row.
struct Additive {
    deltas: Vec<f64>,
    /// Shapes by the row they stop contributing on (`r1 + 1`); shapes
    /// ending on the last row never need removal within any band.
    ends: RowIndex,
    /// The measure's empty-set value.
    background: f64,
}

impl<'a, S: RowShape, M: IncrementalMeasure + Sync> Plan<'a, S, M> {
    fn new(shapes: &'a [S], measure: &'a M, grid: &'a Grid) -> Plan<'a, S, M> {
        let h = grid.spec.height;
        let row_range: Vec<(u32, u32)> = shapes
            .iter()
            .map(|s| s.rows(grid).map_or((1, 0), |(r0, r1)| (r0 as u32, r1 as u32)))
            .collect();
        let live = |i: usize| row_range[i].0 <= row_range[i].1;
        let starts = RowIndex::new(h, shapes.len(), |i| live(i).then_some(row_range[i].0 as usize));
        // (An empty shape list would collect vacuously to `Some` for any
        // measure — but e.g. the weighted measure's empty-sum identity
        // is `-0.0`, which `acc += 0.0` would flip to `+0.0` — so the
        // path also requires a shape whose measure actually opted in.)
        let deltas: Option<Vec<f64>> = if S::ROW_INVARIANT && !shapes.is_empty() {
            shapes.iter().map(|s| measure.additive_delta(s.owner())).collect()
        } else {
            None
        };
        let additive = deltas.map(|deltas| Additive {
            deltas,
            ends: RowIndex::new(h, shapes.len(), |i| {
                let end = row_range[i].1 as usize + 1;
                (live(i) && end < h).then_some(end)
            }),
            background: measure.current(&measure.new_state()),
        });
        Plan { shapes, measure, grid, row_range, starts, additive }
    }

    /// Shapes that started above `band` and still cover its first row.
    fn active_at(&self, band: &Range<usize>) -> impl Iterator<Item = usize> + '_ {
        let start = band.start;
        self.row_range
            .iter()
            .enumerate()
            .filter(move |&(_, &(r0, r1))| (r0 as usize) < start && start <= r1 as usize)
            .map(|(i, _)| i)
    }

    /// Renders rows `band` into `out`.
    fn render_band<O: RowOut>(&self, band: Range<usize>, scratch: &mut RowScratch, out: &mut O) {
        match &self.additive {
            Some(add) => self.additive_band(add, band, &mut scratch.diff, out),
            None => self.event_band(band, scratch, out),
        }
    }

    /// The additive fast path over one band; see [`Additive`].
    fn additive_band<O: RowOut>(
        &self,
        add: &Additive,
        band: Range<usize>,
        diff: &mut [f64],
        out: &mut O,
    ) {
        let apply = |diff: &mut [f64], i: usize, sign: f64| {
            if let Some((lo, hi)) = self.shapes[i].span(self.grid, 0) {
                let d = sign * add.deltas[i];
                diff[lo as usize] += d;
                diff[hi as usize + 1] -= d;
            }
        };
        for i in self.active_at(&band) {
            apply(diff, i, 1.0);
        }
        for row in band.clone() {
            let starting = self.starts.at(row);
            let ending: &[u32] = if row > band.start { add.ends.at(row) } else { &[] };
            for &i in starting {
                apply(diff, i as usize, 1.0);
            }
            for &i in ending {
                apply(diff, i as usize, -1.0);
            }
            if row > band.start && starting.is_empty() && ending.is_empty() {
                out.copy_row(row - 1, row);
            } else {
                out.prefix_row(row, add.background, diff);
            }
        }
    }

    /// The event sweep over one band, in [`ROW_BATCH`]-row batches.
    fn event_band<O: RowOut>(&self, band: Range<usize>, scratch: &mut RowScratch, out: &mut O) {
        let (shapes, grid, w) = (self.shapes, self.grid, self.grid.spec.width);
        let mut active: Vec<u32> = self.active_at(&band).map(|i| i as u32).collect();
        let mut state = self.measure.new_state();
        let mut row = band.start;
        while row < band.end {
            let batch_end = (row + ROW_BATCH).min(band.end);
            for r in row..batch_end {
                active.extend_from_slice(self.starts.at(r));
            }
            // Classify the active set once per batch: shapes covering
            // every batch row with a row-invariant span go into the
            // presorted `base` event list; the rest — shapes starting
            // or expiring mid-batch, and all row-varying shapes — are
            // `partial` and re-emit per row. Shapes gone before `row`
            // retire here (swap_remove), once per batch.
            scratch.raw.clear();
            scratch.partial.clear();
            let mut k = 0;
            while k < active.len() {
                let i = active[k] as usize;
                let (r0, r1) = self.row_range[i];
                if (r1 as usize) < row {
                    active.swap_remove(k);
                    continue;
                }
                if S::ROW_INVARIANT && r0 as usize <= row && r1 as usize >= batch_end - 1 {
                    if let Some((lo, hi)) = shapes[i].span(grid, row) {
                        let owner = shapes[i].owner();
                        scratch.raw.push(pack_event(lo, true, owner));
                        scratch.raw.push(pack_event(hi + 1, false, owner));
                    }
                } else {
                    scratch.partial.push(active[k]);
                }
                k += 1;
            }
            sort_events(&mut scratch.counts, &scratch.raw, &mut scratch.base);
            // A row already swept with exactly the base events: any
            // later base-only row of this batch is its bitwise copy.
            let mut base_row: Option<usize> = None;
            for r in row..batch_end {
                scratch.raw.clear();
                for &pi in &scratch.partial {
                    let i = pi as usize;
                    let (r0, r1) = self.row_range[i];
                    if (r0 as usize) <= r && r <= r1 as usize {
                        if let Some((lo, hi)) = shapes[i].span(grid, r) {
                            let owner = shapes[i].owner();
                            scratch.raw.push(pack_event(lo, true, owner));
                            scratch.raw.push(pack_event(hi + 1, false, owner));
                        }
                    }
                }
                if scratch.raw.is_empty() {
                    if let Some(src) = base_row {
                        out.copy_row(src, r);
                    } else {
                        sweep_row(self.measure, &mut state, &scratch.base, r, w, out);
                        base_row = Some(r);
                    }
                } else {
                    sort_events(&mut scratch.counts, &scratch.raw, &mut scratch.extras);
                    let events: &[u64] = if scratch.base.is_empty() {
                        &scratch.extras
                    } else {
                        merge_events(&scratch.base, &scratch.extras, &mut scratch.merged);
                        &scratch.merged
                    };
                    sweep_row(self.measure, &mut state, events, r, w, out);
                }
            }
            row = batch_end;
        }
    }
}

/// Renders `shapes` onto `grid` with `n_bands` row bands, returning
/// the row-major values.
fn rasterize_scanline<S: RowShape, M: IncrementalMeasure + Sync>(
    shapes: &[S],
    measure: &M,
    grid: &Grid,
    n_bands: usize,
) -> Vec<f64> {
    let (w, h) = (grid.spec.width, grid.spec.height);
    let mut values = vec![0.0f64; w * h];
    let plan = Plan::new(shapes, measure, grid);
    let bands = chunk_ranges(h, n_bands);
    // Hand each band worker its disjoint slice of rows.
    let mut slices: Vec<&mut [f64]> = Vec::with_capacity(bands.len());
    let mut rest: &mut [f64] = &mut values;
    for band in &bands {
        let (head, tail) = rest.split_at_mut(band.len() * w);
        slices.push(head);
        rest = tail;
    }
    run_bands(&bands, slices, |band: Range<usize>, slice: &mut [f64]| {
        let mut scratch = RowScratch::acquire(w);
        let mut out = DenseRows { slice, first: band.start, width: w };
        plan.render_band(band, &mut scratch, &mut out);
        scratch.release();
    });
    values
}

/// Renders `shapes` onto `grid` in one band, straight into a tile
/// payload: rows go to a [`RowsBuilder`] as runs, and rows the sweep
/// knows to repeat as copies, so no dense tile is ever written.
fn scanline_payload<S: RowShape, M: IncrementalMeasure + Sync>(
    shapes: &[S],
    measure: &M,
    grid: &Grid,
) -> TilePayload {
    let plan = Plan::new(shapes, measure, grid);
    let mut scratch = RowScratch::acquire(grid.spec.width);
    let mut rows = RowsBuilder::new(grid.spec);
    plan.render_band(0..grid.spec.height, &mut scratch, &mut rows);
    scratch.release();
    rows.finish()
}

/// Runs one band renderer per slice: inline for a single band, scoped
/// threads otherwise (each worker owns a disjoint slice of the raster).
fn run_bands<F: Fn(Range<usize>, &mut [f64]) + Sync>(
    bands: &[Range<usize>],
    slices: Vec<&mut [f64]>,
    render_band: F,
) {
    if slices.len() <= 1 {
        if let Some(slice) = slices.into_iter().next() {
            render_band(bands[0].clone(), slice);
        }
    } else {
        thread::scope(|scope| {
            for (band, slice) in bands.iter().cloned().zip(slices) {
                scope.spawn(|| render_band(band, slice));
            }
        });
    }
}

/// Rows below which an extra worker thread is not worth its spawn
/// cost: bands are clamped so each holds at least this many rows.
const MIN_ROWS_PER_BAND: usize = 32;

/// Worker count for an `h`-row raster on this machine; see
/// [`band_count`].
fn default_bands(h: usize) -> usize {
    band_count(h, effective_parallelism())
}

/// Worker count for an `h`-row raster on `cores` cores: one band per
/// core, but never a band smaller than [`MIN_ROWS_PER_BAND`] rows
/// (tiny rasters run single-threaded — thread spawn would dominate the
/// fill), and always at least one.
fn band_count(h: usize, cores: usize) -> usize {
    cores.min(h / MIN_ROWS_PER_BAND).max(1)
}

/// The shapes of a square arrangement on one grid: L∞ squares as
/// exact pixel footprints, or L1 squares in the rotated sweep frame.
enum SquareShapes {
    Axis(Vec<AxisSquare>),
    Rotated(Vec<RotSquare>),
}

impl SquareShapes {
    fn of(arr: &SquareArrangement, grid: &Grid) -> SquareShapes {
        let owned = arr.squares.iter().zip(&arr.owners);
        match arr.space {
            CoordSpace::Identity => SquareShapes::Axis(
                owned.filter_map(|(rect, &owner)| AxisSquare::build(rect, owner, grid)).collect(),
            ),
            CoordSpace::Rotated45 => SquareShapes::Rotated(
                owned.map(|(&rect, &owner)| RotSquare { rect, owner }).collect(),
            ),
        }
    }
}

/// The disks of an arrangement (L2).
fn disk_shapes(arr: &DiskArrangement) -> Vec<DiskShape> {
    arr.disks
        .iter()
        .zip(&arr.owners)
        .map(|(&disk, &owner)| DiskShape { disk, bbox: disk.bbox(), owner })
        .collect()
}

/// Scanline rasterization of a square arrangement (L∞ or rotated L1),
/// row-parallel across all cores. Default path behind
/// [`crate::compute::rasterize_squares`].
pub fn rasterize_squares_scanline<M: IncrementalMeasure + Sync>(
    arr: &SquareArrangement,
    measure: &M,
    spec: GridSpec,
) -> HeatRaster {
    rasterize_squares_scanline_bands(arr, measure, spec, default_bands(spec.height))
}

/// [`rasterize_squares_scanline`] with an explicit band count (tests
/// use this to exercise the multi-band path on any machine).
#[doc(hidden)]
pub fn rasterize_squares_scanline_bands<M: IncrementalMeasure + Sync>(
    arr: &SquareArrangement,
    measure: &M,
    spec: GridSpec,
    n_bands: usize,
) -> HeatRaster {
    let grid = Grid { spec };
    let values = match SquareShapes::of(arr, &grid) {
        SquareShapes::Axis(shapes) => rasterize_scanline(&shapes, measure, &grid, n_bands),
        SquareShapes::Rotated(shapes) => rasterize_scanline(&shapes, measure, &grid, n_bands),
    };
    HeatRaster::from_values(spec, values)
}

/// A single-band scanline render of a square arrangement straight into
/// a tile payload — the tile-miss path. Bitwise the payload
/// [`TilePayload::encode`] makes of
/// [`rasterize_squares_scanline_bands`]`(arr, measure, spec, 1)`, but
/// no dense raster is written: each row goes to the payload as its
/// runs, or as a copy where the sweep knows it repeats.
pub fn rasterize_squares_payload<M: IncrementalMeasure + Sync>(
    arr: &SquareArrangement,
    measure: &M,
    spec: GridSpec,
) -> TilePayload {
    let grid = Grid { spec };
    match SquareShapes::of(arr, &grid) {
        SquareShapes::Axis(shapes) => scanline_payload(&shapes, measure, &grid),
        SquareShapes::Rotated(shapes) => scanline_payload(&shapes, measure, &grid),
    }
}

/// Scanline rasterization of a disk arrangement (L2), row-parallel
/// across all cores. Default path behind
/// [`crate::compute::rasterize_disks`].
pub fn rasterize_disks_scanline<M: IncrementalMeasure + Sync>(
    arr: &DiskArrangement,
    measure: &M,
    spec: GridSpec,
) -> HeatRaster {
    rasterize_disks_scanline_bands(arr, measure, spec, default_bands(spec.height))
}

/// [`rasterize_disks_scanline`] with an explicit band count.
#[doc(hidden)]
pub fn rasterize_disks_scanline_bands<M: IncrementalMeasure + Sync>(
    arr: &DiskArrangement,
    measure: &M,
    spec: GridSpec,
    n_bands: usize,
) -> HeatRaster {
    let values = rasterize_scanline(&disk_shapes(arr), measure, &Grid { spec }, n_bands);
    HeatRaster::from_values(spec, values)
}

/// [`rasterize_squares_payload`] for a disk arrangement (L2).
pub fn rasterize_disks_payload<M: IncrementalMeasure + Sync>(
    arr: &DiskArrangement,
    measure: &M,
    spec: GridSpec,
) -> TilePayload {
    scanline_payload(&disk_shapes(arr), measure, &Grid { spec })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::{rasterize_disks_oracle, rasterize_squares_oracle};
    use rnnhm_core::arrangement::CoordSpace;
    use rnnhm_core::measure::{
        CapacityMeasure, ConnectivityMeasure, CountMeasure, ExactFallback, WeightedMeasure,
    };

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

    fn pseudo(n: usize, seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed.wrapping_add(n as u64);
        move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        }
    }

    fn pseudo_squares(n: usize, seed: u64) -> Vec<Rect> {
        let mut next = pseudo(n, seed);
        (0..n)
            .map(|_| {
                Rect::centered(Point::new(next() * 8.0 + 1.0, next() * 8.0 + 1.0), 0.2 + next())
            })
            .collect()
    }

    fn assert_rasters_identical(a: &HeatRaster, b: &HeatRaster) {
        assert_eq!(a.spec, b.spec);
        for row in 0..a.spec.height {
            for col in 0..a.spec.width {
                assert!(
                    a.get(col, row).to_bits() == b.get(col, row).to_bits(),
                    "pixel ({col},{row}): scanline {} vs oracle {}",
                    a.get(col, row),
                    b.get(col, row)
                );
            }
        }
    }

    #[test]
    fn squares_match_oracle_all_band_counts() {
        let arr = arr_from_squares(pseudo_squares(60, 9));
        let spec = GridSpec::new(73, 51, Rect::new(0.0, 10.0, 0.0, 10.0));
        let oracle = rasterize_squares_oracle(&arr, &CountMeasure, spec);
        for bands in [1, 2, 3, 7, 51, 200] {
            let scan = rasterize_squares_scanline_bands(&arr, &CountMeasure, spec, bands);
            assert_rasters_identical(&scan, &oracle);
        }
    }

    #[test]
    fn disks_match_oracle() {
        let mut next = pseudo(40, 3);
        let disks: Vec<Circle> = (0..40)
            .map(|_| Circle::new(Point::new(next() * 8.0 + 1.0, next() * 8.0 + 1.0), 0.2 + next()))
            .collect();
        let owners = (0..disks.len() as u32).collect();
        let n = disks.len();
        let arr = DiskArrangement { disks, owners, n_clients: n, dropped: 0, k: 1 };
        let spec = GridSpec::new(64, 80, Rect::new(0.0, 10.0, 0.0, 10.0));
        let oracle = rasterize_disks_oracle(&arr, &CountMeasure, spec);
        for bands in [1, 4] {
            let scan = rasterize_disks_scanline_bands(&arr, &CountMeasure, spec, bands);
            assert_rasters_identical(&scan, &oracle);
        }
    }

    #[test]
    fn rotated_l1_squares_match_oracle() {
        let mut arr = arr_from_squares(pseudo_squares(50, 12));
        arr.space = CoordSpace::Rotated45;
        let spec = GridSpec::new(48, 48, Rect::new(-2.0, 12.0, -2.0, 12.0));
        let oracle = rasterize_squares_oracle(&arr, &CountMeasure, spec);
        for bands in [1, 5] {
            let scan = rasterize_squares_scanline_bands(&arr, &CountMeasure, spec, bands);
            assert_rasters_identical(&scan, &oracle);
        }
    }

    #[test]
    fn all_measures_match_oracle() {
        let arr = arr_from_squares(pseudo_squares(30, 77));
        let n = arr.n_clients;
        let spec = GridSpec::new(40, 40, Rect::new(0.0, 10.0, 0.0, 10.0));

        // Dyadic weights: exact f64 sums in any order.
        let weighted = WeightedMeasure::new((0..n).map(|i| (i % 9) as f64 * 0.25).collect());
        let capacity =
            CapacityMeasure::new((0..n as u32).map(|i| i % 4).collect(), vec![2, 1, 3, 2], 2);
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|a| (a, (a + 1) % n as u32)).collect();
        let connectivity = ConnectivityMeasure::from_edges(n, &edges);

        assert_rasters_identical(
            &rasterize_squares_scanline_bands(&arr, &weighted, spec, 3),
            &rasterize_squares_oracle(&arr, &weighted, spec),
        );
        assert_rasters_identical(
            &rasterize_squares_scanline_bands(&arr, &capacity, spec, 3),
            &rasterize_squares_oracle(&arr, &capacity, spec),
        );
        assert_rasters_identical(
            &rasterize_squares_scanline_bands(&arr, &connectivity, spec, 3),
            &rasterize_squares_oracle(&arr, &connectivity, spec),
        );
        assert_rasters_identical(
            &rasterize_squares_scanline_bands(&arr, &ExactFallback(CountMeasure), spec, 3),
            &rasterize_squares_oracle(&arr, &ExactFallback(CountMeasure), spec),
        );
    }

    #[test]
    fn empty_arrangement_fills_background() {
        let arr = arr_from_squares(Vec::new());
        let spec = GridSpec::new(16, 16, Rect::new(0.0, 1.0, 0.0, 1.0));
        // Capacity's empty-set influence is non-zero (the base total):
        // the background fill must ask the measure, not assume 0.
        let capacity = CapacityMeasure::new(vec![0, 0, 1], vec![1, 5], 2);
        let scan = rasterize_squares_scanline_bands(&arr, &capacity, spec, 2);
        let oracle = rasterize_squares_oracle(&arr, &capacity, spec);
        assert_rasters_identical(&scan, &oracle);
        assert_eq!(scan.get(0, 0), 2.0);
    }

    #[test]
    fn shapes_off_grid_and_degenerate_rows() {
        // A square fully above the grid, one fully right of it, one
        // covering a single pixel, and one degenerate (zero-height) —
        // rows with zero active spans must still fill the background.
        let arr = arr_from_squares(vec![
            Rect::new(0.0, 1.0, 100.0, 101.0),
            Rect::new(100.0, 101.0, 0.0, 1.0),
            Rect::new(4.9, 5.1, 4.9, 5.1),
            Rect::new(2.0, 3.0, 7.0, 7.0),
        ]);
        let spec = GridSpec::new(32, 32, Rect::new(0.0, 10.0, 0.0, 10.0));
        let oracle = rasterize_squares_oracle(&arr, &CountMeasure, spec);
        for bands in [1, 4] {
            let scan = rasterize_squares_scanline_bands(&arr, &CountMeasure, spec, bands);
            assert_rasters_identical(&scan, &oracle);
        }
    }

    #[test]
    fn large_coordinate_offsets_stay_bit_identical() {
        // Coordinates with a huge absolute offset (e.g. projected
        // meters): the ULP of a pixel-center x can span many pixel
        // widths, so a fixed candidate margin would drop covered
        // pixels. Grid::error_margin must absorb the quantization.
        // (Regression: at 1e15 a 2-pixel margin lost ~1/3 of coverage.)
        for offset in [1e9, 1e12, 1e15] {
            let arr = arr_from_squares(vec![
                Rect::new(offset + 0.4, offset + 0.6, 0.0, 1.0),
                Rect::new(offset + 0.1, offset + 0.9, 0.2, 0.8),
            ]);
            let spec = GridSpec::new(1024, 8, Rect::new(offset, offset + 1.0, 0.0, 1.0));
            let oracle = rasterize_squares_oracle(&arr, &CountMeasure, spec);
            for bands in [1, 3] {
                let scan = rasterize_squares_scanline_bands(&arr, &CountMeasure, spec, bands);
                assert_rasters_identical(&scan, &oracle);
            }
            assert!(oracle.sum() > 0.0, "offset {offset}: coverage must exist");
        }
    }

    #[test]
    fn default_band_count_clamps_for_tiny_rasters() {
        assert_eq!(default_bands(1), 1);
        assert_eq!(default_bands(MIN_ROWS_PER_BAND), 1);
        // Never more bands than would leave a band under the minimum.
        for h in [1usize, 7, 33, 64, 1024] {
            let b = default_bands(h);
            assert!(b >= 1 && b <= effective_parallelism().max(1));
            assert!(h.div_ceil(b) >= MIN_ROWS_PER_BAND.min(h));
        }
    }

    #[test]
    fn band_count_clamps_at_any_core_count() {
        // (h, bands on 1, 2 and 8 cores)
        let cases = [
            (0usize, [1usize, 1, 1]),
            (1, [1, 1, 1]),
            (31, [1, 1, 1]),
            (32, [1, 1, 1]),
            (33, [1, 1, 1]),
            (63, [1, 1, 1]),
            (64, [1, 2, 2]),
            (96, [1, 2, 3]),
            (255, [1, 2, 7]),
            (256, [1, 2, 8]),
            (1024, [1, 2, 8]),
        ];
        for (h, want) in cases {
            for (cores, want) in [1, 2, 8].into_iter().zip(want) {
                let b = band_count(h, cores);
                assert_eq!(b, want, "h={h}, {cores} cores");
                // Every band keeps the minimum, unless there is only one.
                assert!(b == 1 || h / b >= MIN_ROWS_PER_BAND, "h={h}, {cores} cores");
            }
        }
    }

    #[test]
    fn boundary_pixels_share_oracle_tie_rule() {
        // A square whose edges land exactly on pixel centers: closed
        // containment must include those pixels, as the oracle does.
        // Grid 10×10 over [0,10]²: centers at 0.5, 1.5, … 9.5.
        let arr = arr_from_squares(vec![Rect::new(2.5, 6.5, 3.5, 7.5)]);
        let spec = GridSpec::new(10, 10, Rect::new(0.0, 10.0, 0.0, 10.0));
        let scan = rasterize_squares_scanline_bands(&arr, &CountMeasure, spec, 1);
        let oracle = rasterize_squares_oracle(&arr, &CountMeasure, spec);
        assert_rasters_identical(&scan, &oracle);
        // Spot-check the closed boundary: (2.5, 3.5) is a corner.
        let (c, r) = spec.locate(Point::new(2.5, 3.5)).unwrap();
        assert_eq!(scan.get(c, r), 1.0);
    }
}
