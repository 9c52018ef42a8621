//! Snapshot-isolated arrangements: immutable, cheaply shareable
//! versions of an editable RkNN instance (the serving substrate).
//!
//! What-if exploration needs an editable instance, and a *serving*
//! engine needs many concurrent readers rendering viewports while
//! editors explore divergent what-if branches of the same dataset.
//! This module is the one editor, with a storage model that makes
//! sharing it safe and cheap (`crate::edit` holds the edit
//! vocabulary):
//!
//! * [`ArrangementSnapshot`] — an **immutable** problem instance plus
//!   its NN-circle arrangement. Once committed (wrapped in an `Arc`) a
//!   snapshot never changes, so any number of threads can read it
//!   without locks and no reader ever observes a torn frame.
//! * **O(1) fork** — sharing a snapshot is an `Arc` clone. A session
//!   that wants its own edit branch starts from the same snapshot its
//!   sibling reads.
//! * **Chunk-level copy-on-write edits** — applying an edit produces a
//!   *new* snapshot. The big per-client stores (NN-candidate lists,
//!   radii, circle geometry) live in fixed-size chunks behind `Arc`s
//!   ([`CowVec`]); an edit copies only the chunks it writes, so parent
//!   and child share all unchanged storage. A local edit on a 100k
//!   client instance copies a few tens of kilobytes, not megabytes.
//!
//! A snapshot is built on the crate's one build path
//! ([`ArrangementSnapshot::build_k`]): the [`knn_assignments`] table
//! becomes its candidate lists, and the contiguous arrangement the
//! static builders make from that table is chunked into its shape
//! stores. Edits make their circles with the same constructor, so the
//! maintained geometry is **bitwise identical** to a from-scratch
//! rebuild over the current facility set at every `k`; the
//! differential proof lives in `tests/edits_match_rebuild.rs` and
//! `edit.rs`'s unit tests. A sharded snapshot is
//! `build_k(..)?.with_shards(n)`.
//!
//! Sweeps, rasterizers and queries consume contiguous
//! [`SquareArrangement`]/[`DiskArrangement`] slices; a snapshot
//! materializes that view lazily (once, cached) via
//! [`ArrangementSnapshot::arrangement`] (a fresh build comes with it),
//! while the tile-serving hot path avoids materialization entirely
//! through [`ArrangementSnapshot::restrict_to`], which filters straight
//! off the chunked storage. Point probes (`Session::influence_at`,
//! placement scoring) stab one R-tree over that view, also built once
//! on demand and shared by every reader of the snapshot. Whole-snapshot
//! region answers ([`ArrangementSnapshot::top_k`],
//! [`ArrangementSnapshot::top_placements`]) are memoized the same way:
//! each (measure, query) is swept once per snapshot, however many
//! sessions, forks and threads ask it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;

use rnnhm_geom::transform::rotate45;
use rnnhm_geom::{Circle, Metric, Point, Rect};
use rnnhm_index::{KdTree, RTree};

use crate::arrangement::{
    circle_arrangement, fnv1a_words, knn_assignments, nn_circle, CoordSpace, DiskArrangement, Mode,
    SquareArrangement,
};
use crate::crest::crest_sweep;
use crate::crest_l2::crest_l2_sweep;
use crate::edit::{ArrangementRef, CircleChange, EditError, EditOutcome, Shape};
use crate::measure::InfluenceMeasure;
use crate::parallel::{chunk_ranges, effective_parallelism};
use crate::placement::{PlacementQuery, PlacementRegion};
use crate::shard::ShardMap;
use crate::sink::{LabeledRegion, RegionSink, TopKSink};
use crate::stats::SweepStats;
use crate::BuildError;

/// Sentinel for "client has no shape in the arrangement" (zero-radius
/// NN-circle: the client coincides with a facility).
const NO_SHAPE: u32 = u32::MAX;

/// Clients per chunk for the per-client stores (radii, shape slots).
///
/// Deliberately small: an edit's touched clients are geometrically
/// local but *scattered in index order*, so large chunks would almost
/// all be written (and copied) by a modest edit. At 64 entries a chunk
/// copy is a few hundred bytes and the sharing ratio stays high; the
/// per-edit cost of cloning the chunk-pointer table is ~`n / 64`
/// refcount bumps — microseconds at n = 100k.
const CLIENT_CHUNK: usize = 64;

/// Shapes per chunk for the circle geometry and owner stores.
const SHAPE_CHUNK: usize = 64;

/// Global salt for freshly committed snapshot fingerprints: every
/// geometry-changing edit draws a new value, so two divergent edit
/// branches forked from one snapshot can never collide on a cache key
/// (a per-lineage generation counter alone would).
static SNAPSHOT_SALT: AtomicU64 = AtomicU64::new(1);

/// A chunked vector with copy-on-write chunks.
///
/// Elements live in fixed-size chunks (`chunk_len` each, except the
/// last), every chunk behind its own `Arc`. Cloning a `CowVec` copies
/// only the chunk *pointers*; writing an element copies only that
/// element's chunk (when shared). This is what makes committing an
/// edited [`ArrangementSnapshot`] cheap: all untouched chunks stay
/// physically shared with the parent snapshot — assert it with
/// [`CowVec::shared_chunks_with`].
#[derive(Clone)]
pub struct CowVec<T> {
    chunk_len: usize,
    len: usize,
    chunks: Vec<Arc<Vec<T>>>,
}

impl<T: Clone> CowVec<T> {
    /// Chunks `values` into a new `CowVec` with `chunk_len`-element
    /// chunks.
    pub fn from_vec(values: Vec<T>, chunk_len: usize) -> CowVec<T> {
        assert!(chunk_len > 0, "chunk_len must be positive");
        let len = values.len();
        let mut chunks = Vec::with_capacity(len.div_ceil(chunk_len));
        let mut values = values.into_iter();
        loop {
            let chunk: Vec<T> = values.by_ref().take(chunk_len).collect();
            if chunk.is_empty() {
                break;
            }
            chunks.push(Arc::new(chunk));
        }
        CowVec { chunk_len, len, chunks }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The element at `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &T {
        &self.chunks[i / self.chunk_len][i % self.chunk_len]
    }

    /// Overwrites the element at `i`, copying its chunk if shared.
    pub fn set(&mut self, i: usize, value: T) {
        assert!(i < self.len);
        Arc::make_mut(&mut self.chunks[i / self.chunk_len])[i % self.chunk_len] = value;
    }

    /// A borrowed window `[start, start + len)`. The window must not
    /// straddle a chunk boundary (callers align windows to chunk-
    /// divisible strides; see the candidate-list layout).
    #[inline]
    pub fn window(&self, start: usize, len: usize) -> &[T] {
        let (ci, off) = (start / self.chunk_len, start % self.chunk_len);
        debug_assert!(off + len <= self.chunk_len, "window straddles a chunk");
        &self.chunks[ci][off..off + len]
    }

    /// Mutable [`CowVec::window`], copying the chunk if shared.
    pub fn window_mut(&mut self, start: usize, len: usize) -> &mut [T] {
        let (ci, off) = (start / self.chunk_len, start % self.chunk_len);
        debug_assert!(off + len <= self.chunk_len, "window straddles a chunk");
        &mut Arc::make_mut(&mut self.chunks[ci])[off..off + len]
    }

    /// Appends an element (growing or starting the last chunk).
    pub fn push(&mut self, value: T) {
        match self.chunks.last_mut() {
            Some(last) if last.len() < self.chunk_len => Arc::make_mut(last).push(value),
            _ => self.chunks.push(Arc::new(vec![value])),
        }
        self.len += 1;
    }

    /// Removes and returns the element at `i`, moving the last element
    /// into its place (the `Vec::swap_remove` contract).
    pub fn swap_remove(&mut self, i: usize) -> T {
        assert!(i < self.len);
        let last_chunk = self.chunks.len() - 1;
        let last_value = {
            let chunk = Arc::make_mut(&mut self.chunks[last_chunk]);
            chunk.pop().expect("chunks are never empty")
        };
        if self.chunks[last_chunk].is_empty() {
            self.chunks.pop();
        }
        self.len -= 1;
        if i == self.len {
            return last_value;
        }
        let slot = &mut Arc::make_mut(&mut self.chunks[i / self.chunk_len])[i % self.chunk_len];
        std::mem::replace(slot, last_value)
    }

    /// The chunk slices in order (for zero-copy scans).
    pub fn chunk_slices(&self) -> impl Iterator<Item = &[T]> {
        self.chunks.iter().map(|c| c.as_slice())
    }

    /// Iterates all elements in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flat_map(|c| c.iter())
    }

    /// Concatenates the chunks into one contiguous vector.
    pub fn to_vec(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len);
        for chunk in &self.chunks {
            out.extend_from_slice(chunk);
        }
        out
    }

    /// How many chunk allocations `self` and `other` physically share
    /// (same `Arc`, same position), along with `self`'s chunk count —
    /// the copy-on-write effectiveness metric.
    pub fn shared_chunks_with(&self, other: &CowVec<T>) -> (usize, usize) {
        let shared =
            self.chunks.iter().zip(&other.chunks).filter(|(a, b)| Arc::ptr_eq(a, b)).count();
        (shared, self.chunks.len())
    }
}

/// How much physical storage two snapshots share; see
/// [`ArrangementSnapshot::storage_sharing`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageSharing {
    /// Chunk allocations shared between the two snapshots.
    pub shared_chunks: usize,
    /// Total chunk allocations in `self`'s stores.
    pub total_chunks: usize,
    /// Whether the (never-edited) client set is the same allocation.
    pub shares_clients: bool,
}

/// The circle geometry of a snapshot, chunked.
#[derive(Clone)]
enum ShapeStore {
    /// Square NN-circles (L∞ directly, L1 in the rotated sweep frame).
    Square { squares: CowVec<Rect>, space: CoordSpace },
    /// Disk NN-circles (L2).
    Disk { disks: CowVec<Circle> },
}

/// One memoized answer. The memo lock only finds or adds the cell; the
/// first asker computes inside it while later askers of the same key
/// wait on it, so concurrent asks compute once. A computation that
/// panics leaves the cell empty for the next asker.
type MemoCell<T> = Arc<OnceLock<Vec<T>>>;

/// The region answers memoized on one snapshot: one table per query
/// kind, keyed by (measure [`InfluenceMeasure::cache_key`], `k` or `m`).
/// Entries live as long as the snapshot; the only eviction is a
/// larger top-k replacing the smaller ones it extends.
#[derive(Default)]
struct RegionMemo {
    top_k: BTreeMap<(u64, usize), MemoCell<LabeledRegion>>,
    placements: BTreeMap<(u64, usize), MemoCell<PlacementRegion>>,
}

/// A contiguous arrangement of either circle kind: the per-tile render
/// base [`ArrangementSnapshot::restrict_to`] returns, and a snapshot's
/// full contiguous view ([`ArrangementSnapshot::arrangement`]).
pub enum RestrictedArrangement {
    /// Square NN-circles (L∞/L1).
    Square(SquareArrangement),
    /// Disk NN-circles (L2).
    Disk(DiskArrangement),
}

/// An immutable RkNN instance plus its NN-circle arrangement, with
/// chunk-level copy-on-write edits. See the module docs.
///
/// Committed snapshots are shared as `Arc<ArrangementSnapshot>`;
/// the edit methods ([`ArrangementSnapshot::insert_facility`],
/// [`ArrangementSnapshot::remove_facility`],
/// [`ArrangementSnapshot::move_facility`]) take `&self` and return a
/// *new* snapshot, leaving the receiver untouched.
pub struct ArrangementSnapshot {
    metric: Metric,
    mode: Mode,
    /// The `k` of the RkNN instance (1 = plain RNN).
    k: usize,
    /// The client set; never edited, shared by every snapshot of a
    /// dataset.
    clients: Arc<Vec<Point>>,
    /// Facility slots; removed facilities stay as dead slots so ids
    /// remain stable across edits. Small (`|F|`), cloned per edit.
    facilities: Arc<Vec<Point>>,
    alive: Arc<Vec<bool>>,
    n_alive: usize,
    /// Per client, flattened `k` at a time: its `k` nearest facility
    /// slots with distances, sorted by increasing distance. The chunk
    /// length is a multiple of `k`, so one client's window never
    /// straddles a chunk.
    cands: CowVec<(u32, f64)>,
    /// Per client: `k`-th NN distance (the k-NN circle radius).
    radii: CowVec<f64>,
    /// Per client: index of its shape in the shape store, or the
    /// no-shape sentinel for zero-radius (dropped) clients.
    shape_at: CowVec<u32>,
    shapes: ShapeStore,
    /// `owners[i]` is the client whose circle sits at shape index `i`.
    owners: CowVec<u32>,
    dropped: usize,
    base_fingerprint: u64,
    fingerprint: u64,
    generation: u64,
    /// Spatial shard map (see [`crate::shard`]), present on snapshots
    /// sharded with [`ArrangementSnapshot::with_shards`] and inherited
    /// by every edit successor. Member lists are shared; summaries are
    /// patched shard-locally in [`ArrangementSnapshot::seal`].
    shards: Option<ShardMap>,
    materialized: OnceLock<Arc<RestrictedArrangement>>,
    /// The point-stab index over `materialized`'s circles, built on
    /// the first point probe ([`ArrangementSnapshot::stab_index`]).
    stab: OnceLock<Arc<RTree>>,
    /// Whole-snapshot region answers ([`ArrangementSnapshot::top_k`],
    /// [`ArrangementSnapshot::top_placements`]), computed on first ask
    /// and shared by every reader of the snapshot and by its geometric
    /// no-op successors.
    // lint:lock-rank(36)
    region_memo: Arc<Mutex<RegionMemo>>,
}

impl ArrangementSnapshot {
    /// Builds the snapshot of an instance (`k = 1`).
    pub fn build(
        clients: Vec<Point>,
        facilities: Vec<Point>,
        metric: Metric,
        mode: Mode,
    ) -> Result<ArrangementSnapshot, BuildError> {
        ArrangementSnapshot::build_k(clients, facilities, metric, mode, 1)
    }

    /// Builds the RkNN snapshot for a configurable `k`: one
    /// [`knn_assignments`] pass, whose table becomes the candidate
    /// lists, and the same contiguous arrangement the static builders
    /// build from it (shapes in the same order), which is chunked into
    /// the shape stores and kept as the pre-warmed contiguous view.
    /// Shard the result with [`ArrangementSnapshot::with_shards`].
    pub fn build_k(
        clients: Vec<Point>,
        facilities: Vec<Point>,
        metric: Metric,
        mode: Mode,
        k: usize,
    ) -> Result<ArrangementSnapshot, BuildError> {
        let cands = knn_assignments(&clients, &facilities, metric, mode, k)?;
        let view = circle_arrangement(&clients, metric, k, &cands);
        let (shapes, owners, dropped, base_fingerprint) = match &view {
            RestrictedArrangement::Square(a) => (
                ShapeStore::Square {
                    squares: CowVec::from_vec(a.squares.clone(), SHAPE_CHUNK),
                    space: a.space,
                },
                &a.owners,
                a.dropped,
                a.fingerprint(),
            ),
            RestrictedArrangement::Disk(a) => (
                ShapeStore::Disk { disks: CowVec::from_vec(a.disks.clone(), SHAPE_CHUNK) },
                &a.owners,
                a.dropped,
                a.fingerprint(),
            ),
        };
        let mut shape_at = vec![NO_SHAPE; clients.len()];
        for (idx, &o) in owners.iter().enumerate() {
            shape_at[o as usize] = idx as u32;
        }
        let owners = CowVec::from_vec(owners.clone(), SHAPE_CHUNK);
        let radii = cands.chunks_exact(k).map(|nn| nn[k - 1].1).collect();
        let cell = OnceLock::new();
        let _ = cell.set(Arc::new(view));
        let n_alive = facilities.len();
        // Clients-per-chunk for the candidate store, sized so one COW
        // copy stays small at any k while windows never straddle a
        // chunk boundary (the chunk length is a multiple of k).
        let cand_chunk = k * (CLIENT_CHUNK / k.next_power_of_two()).max(1);
        Ok(ArrangementSnapshot {
            metric,
            mode,
            k,
            clients: Arc::new(clients),
            facilities: Arc::new(facilities),
            alive: Arc::new(vec![true; n_alive]),
            n_alive,
            cands: CowVec::from_vec(cands, cand_chunk),
            radii: CowVec::from_vec(radii, CLIENT_CHUNK),
            shape_at: CowVec::from_vec(shape_at, CLIENT_CHUNK),
            shapes,
            owners,
            dropped,
            base_fingerprint,
            // Generation 0 reproduces the historical build fingerprint
            // formula, so identical rebuilds share cache keys.
            fingerprint: fnv1a_words([0x4459, base_fingerprint, 0]),
            generation: 0,
            shards: None,
            materialized: cell,
            stab: OnceLock::new(),
            region_memo: Arc::default(),
        })
    }

    /// Attaches a [`ShardMap`] of `n_shards` vertical slabs to this
    /// snapshot, computing every shard's summary and composing the
    /// per-shard fingerprints into the snapshot fingerprint. The
    /// summaries run in contiguous shard bands, one thread per core
    /// (inline on one core), so `n_shards` never sets the thread count.
    /// Intended to be called once, on a freshly built snapshot; edits
    /// then maintain the map incrementally.
    pub fn with_shards(self, n_shards: usize) -> ArrangementSnapshot {
        self.with_shards_banded(n_shards, effective_parallelism())
    }

    /// [`ArrangementSnapshot::with_shards`] over `bands` contiguous
    /// shard bands, one thread each (inline for one band). Only the
    /// scheduling depends on `bands`: each shard's summary reads only
    /// its own members.
    fn with_shards_banded(mut self, n_shards: usize, bands: usize) -> ArrangementSnapshot {
        let xs: Vec<f64> = (0..self.clients.len()).map(|o| self.shard_x(o)).collect();
        let mut map = ShardMap::partition(&xs, n_shards);
        let summaries: Vec<(Option<Rect>, u64)> = {
            let (snap, map) = (&self, &map);
            let summarize = move |shards: std::ops::Range<usize>| -> Vec<(Option<Rect>, u64)> {
                shards.map(|s| snap.shard_summary(map.members(s))).collect()
            };
            let bands = chunk_ranges(map.n_shards(), bands);
            if bands.len() <= 1 {
                summarize(0..map.n_shards())
            } else {
                thread::scope(|scope| {
                    let handles: Vec<_> = bands
                        .into_iter()
                        .map(|band| scope.spawn(move || summarize(band)))
                        .collect();
                    handles
                        .into_iter()
                        .flat_map(|h| h.join().expect("shard summary worker"))
                        .collect()
                })
            }
        };
        for (s, (bbox, fp)) in summaries.into_iter().enumerate() {
            map.set_summary(s, bbox, fp);
        }
        self.fingerprint = map.compose_fingerprint(self.fingerprint);
        self.shards = Some(map);
        self
    }

    /// The snapshot's shard map, when sharded.
    pub fn shards(&self) -> Option<&ShardMap> {
        self.shards.as_ref()
    }

    /// The sweep-space x of client `o`'s center — the shard axis (L1
    /// circles live in the rotated frame, like their squares).
    fn shard_x(&self, o: usize) -> f64 {
        match self.metric {
            Metric::L1 => rotate45(self.clients[o]).x,
            _ => self.clients[o].x,
        }
    }

    /// The (bbox, fingerprint) summary of one shard's member circles:
    /// the union of their sweep-space bboxes and an FNV fold of each
    /// live member's owner id + current geometry, in member order.
    fn shard_summary(&self, members: &[u32]) -> (Option<Rect>, u64) {
        let mut words: Vec<u64> = Vec::with_capacity(members.len() * 5);
        let mut bbox: Option<Rect> = None;
        for &o in members {
            let idx = *self.shape_at.get(o as usize);
            if idx == NO_SHAPE {
                continue;
            }
            let rect = match &self.shapes {
                ShapeStore::Square { squares, .. } => {
                    let s = *squares.get(idx as usize);
                    words.extend([
                        o as u64,
                        s.x_lo.to_bits(),
                        s.x_hi.to_bits(),
                        s.y_lo.to_bits(),
                        s.y_hi.to_bits(),
                    ]);
                    s
                }
                ShapeStore::Disk { disks } => {
                    let d = *disks.get(idx as usize);
                    words.extend([o as u64, d.c.x.to_bits(), d.c.y.to_bits(), d.r.to_bits()]);
                    d.bbox()
                }
            };
            bbox = Some(match bbox {
                Some(b) => b.union(&rect),
                None => rect,
            });
        }
        (bbox, fnv1a_words(words))
    }

    /// The distance metric of the instance.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Bichromatic or monochromatic.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The `k` of the RkNN instance (1 = plain RNN).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The client set (never edited; shared across every snapshot of
    /// the dataset).
    pub fn clients(&self) -> &[Point] {
        &self.clients
    }

    /// Live facilities as `(id, location)`, in id order; ids are
    /// stable across edits.
    pub fn facilities(&self) -> impl Iterator<Item = (u32, Point)> + '_ {
        self.facilities
            .iter()
            .zip(self.alive.iter())
            .enumerate()
            .filter(|(_, (_, &alive))| alive)
            .map(|(i, (&p, _))| (i as u32, p))
    }

    /// Live facility locations in id order.
    pub fn facility_points(&self) -> Vec<Point> {
        self.facilities().map(|(_, p)| p).collect()
    }

    /// The location of live facility `id`.
    pub fn facility(&self, id: u32) -> Option<Point> {
        let i = id as usize;
        (i < self.facilities.len() && self.alive[i]).then(|| self.facilities[i])
    }

    /// Number of live facilities.
    pub fn n_facilities(&self) -> usize {
        self.n_alive
    }

    /// How many geometry-changing edits separate this snapshot from
    /// its build root.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The stable cache key of this snapshot's geometry. Unchanged by
    /// geometric no-op edits; globally unique (within the process)
    /// across geometry-changing edits, even on divergent branches
    /// forked from the same parent.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of NN-circles in the arrangement.
    pub fn n_circles(&self) -> usize {
        self.owners.len()
    }

    /// The materialized contiguous arrangement, built once on demand
    /// (the build-time snapshot comes pre-materialized).
    fn materialized(&self) -> &RestrictedArrangement {
        self.materialized.get_or_init(|| {
            Arc::new(match &self.shapes {
                ShapeStore::Square { squares, space } => {
                    RestrictedArrangement::Square(SquareArrangement {
                        squares: squares.to_vec(),
                        owners: self.owners.to_vec(),
                        space: *space,
                        n_clients: self.clients.len(),
                        dropped: self.dropped,
                        k: self.k,
                    })
                }
                ShapeStore::Disk { disks } => RestrictedArrangement::Disk(DiskArrangement {
                    disks: disks.to_vec(),
                    owners: self.owners.to_vec(),
                    n_clients: self.clients.len(),
                    dropped: self.dropped,
                    k: self.k,
                }),
            })
        })
    }

    /// The point-stab index over the contiguous view's circles, built
    /// once on the first probe and cached for the snapshot's lifetime:
    /// the sweep-frame squares, or the disks' bboxes. Entry ids are
    /// shape indices into [`ArrangementSnapshot::arrangement`].
    pub(crate) fn stab_index(&self) -> &RTree {
        self.stab.get_or_init(|| {
            Arc::new(match self.arrangement() {
                ArrangementRef::Square(a) => RTree::build(&a.squares),
                ArrangementRef::Disk(d) => {
                    RTree::build(&d.disks.iter().map(Circle::bbox).collect::<Vec<_>>())
                }
            })
        })
    }

    /// One full CREST (L∞, L1) or CREST-L2 sweep of the arrangement
    /// under `measure` into `sink`.
    pub fn sweep<M: InfluenceMeasure, S: RegionSink>(
        &self,
        measure: &M,
        sink: &mut S,
    ) -> SweepStats {
        match self.arrangement() {
            ArrangementRef::Square(a) => crest_sweep(a, measure, sink),
            ArrangementRef::Disk(d) => crest_l2_sweep(d, measure, sink),
        }
    }

    /// The `k` most influential regions under `measure`, deduplicated
    /// by RNN set, ties broken by first emission: exactly
    /// [`crate::postprocess::top_k`] over a full sweep's labels.
    /// `measure_key` is `measure.cache_key()`, passed in so a caller
    /// that asks often hashes the measure once.
    ///
    /// Memoized on the snapshot per (`measure_key`, `k`): the first ask
    /// runs one sweep into a [`TopKSink`] bounded by
    /// [`InfluenceMeasure::raw_upper_bound`], concurrent asks wait for
    /// it, and every later ask — from any session, fork or thread
    /// holding this snapshot — copies the answer. A held or in-flight
    /// answer for a larger `k` serves a smaller one as a prefix, and a
    /// short answer (fewer regions than its `k`, so every distinct
    /// region) serves any `k`; so the memo holds one answer per
    /// measure, for the largest `k` asked.
    pub fn top_k<M: InfluenceMeasure>(
        &self,
        measure: &M,
        measure_key: u64,
        k: usize,
    ) -> Vec<LabeledRegion> {
        let (asked, cell) = {
            let mut memo = self.region_memo.lock().unwrap_or_else(|e| e.into_inner());
            let table = &mut memo.top_k;
            let serving = table
                .range((measure_key, 0)..=(measure_key, usize::MAX))
                .find(|(&(_, asked), cell)| {
                    k <= asked || cell.get().is_some_and(|top| top.len() < asked)
                })
                .map(|(&(_, asked), cell)| (asked, cell.clone()));
            serving.unwrap_or_else(|| {
                // Every answer held for this measure is a prefix of the
                // new one, so the new one replaces them.
                table.retain(|&(key, _), cell| key != measure_key || cell.get().is_none());
                (k, table.entry((measure_key, k)).or_default().clone())
            })
        };
        // The cell's own `asked`: a waiter that takes over from a
        // panicked first asker computes what the key promises.
        let top = cell.get_or_init(|| {
            let mut sink = TopKSink::with_bound(asked, |rnn: &[u32]| measure.raw_upper_bound(rnn));
            self.sweep(measure, &mut sink);
            sink.into_top()
        });
        top[..k.min(top.len())].to_vec()
    }

    /// The `m` best regions to place a new facility under `measure`:
    /// exactly [`PlacementQuery::top_placements`], memoized on the
    /// snapshot per (`measure_key`, `m`) as [`ArrangementSnapshot::top_k`]
    /// is. `PlacementQuery` itself stays uncached, the independent
    /// reference for this memo.
    pub fn top_placements<M: InfluenceMeasure>(
        &self,
        measure: &M,
        measure_key: u64,
        m: usize,
    ) -> Vec<PlacementRegion> {
        let cell = {
            let mut memo = self.region_memo.lock().unwrap_or_else(|e| e.into_inner());
            memo.placements.entry((measure_key, m)).or_default().clone()
        };
        cell.get_or_init(|| PlacementQuery::new(self, measure).top_placements(m)).clone()
    }

    /// The arrangement view for queries, sweeps and rasterization
    /// (materialized lazily, cached for the snapshot's lifetime).
    pub fn arrangement(&self) -> ArrangementRef<'_> {
        match self.materialized() {
            RestrictedArrangement::Square(a) => ArrangementRef::Square(a),
            RestrictedArrangement::Disk(a) => ArrangementRef::Disk(a),
        }
    }

    /// The square arrangement, when the metric is L∞ or L1.
    pub fn square(&self) -> Option<&SquareArrangement> {
        match self.materialized() {
            RestrictedArrangement::Square(a) => Some(a),
            RestrictedArrangement::Disk(_) => None,
        }
    }

    /// The disk arrangement, when the metric is L2.
    pub fn disk(&self) -> Option<&DiskArrangement> {
        match self.materialized() {
            RestrictedArrangement::Square(_) => None,
            RestrictedArrangement::Disk(a) => Some(a),
        }
    }

    /// The sub-arrangement of NN-circles that can influence any point
    /// of `extent` (input-space coordinates), filtered straight off
    /// the chunked storage — the tile-serving hot path never
    /// materializes the full arrangement. Exactness contract as in
    /// [`SquareArrangement::restrict_to`].
    pub fn restrict_to(&self, extent: Rect) -> RestrictedArrangement {
        match &self.shapes {
            ShapeStore::Square { squares, space } => {
                let window = space.rect_to_sweep(extent);
                let mut out_squares = Vec::new();
                let mut out_owners = Vec::new();
                if let Some(map) = &self.shards {
                    // Shard-routed: visit only shards whose bbox meets
                    // the window, then sort the surviving shape
                    // indices — the result is the same subset in the
                    // same shape-store order as the full scan below,
                    // so rasters stay bit-identical.
                    for idx in self
                        .route_shards(map, &window, |i| squares.get(i as usize).intersects(&window))
                    {
                        out_squares.push(*squares.get(idx as usize));
                        out_owners.push(*self.owners.get(idx as usize));
                    }
                } else {
                    for (sc, oc) in squares.chunk_slices().zip(self.owners.chunk_slices()) {
                        for (s, &o) in sc.iter().zip(oc.iter()) {
                            if s.intersects(&window) {
                                out_squares.push(*s);
                                out_owners.push(o);
                            }
                        }
                    }
                }
                RestrictedArrangement::Square(SquareArrangement {
                    squares: out_squares,
                    owners: out_owners,
                    space: *space,
                    n_clients: self.clients.len(),
                    dropped: self.dropped,
                    k: self.k,
                })
            }
            ShapeStore::Disk { disks } => {
                let mut out_disks = Vec::new();
                let mut out_owners = Vec::new();
                if let Some(map) = &self.shards {
                    for idx in self.route_shards(map, &extent, |i| {
                        disks.get(i as usize).bbox().intersects(&extent)
                    }) {
                        out_disks.push(*disks.get(idx as usize));
                        out_owners.push(*self.owners.get(idx as usize));
                    }
                } else {
                    for (dc, oc) in disks.chunk_slices().zip(self.owners.chunk_slices()) {
                        for (d, &o) in dc.iter().zip(oc.iter()) {
                            if d.bbox().intersects(&extent) {
                                out_disks.push(*d);
                                out_owners.push(o);
                            }
                        }
                    }
                }
                RestrictedArrangement::Disk(DiskArrangement {
                    disks: out_disks,
                    owners: out_owners,
                    n_clients: self.clients.len(),
                    dropped: self.dropped,
                    k: self.k,
                })
            }
        }
    }

    /// The shape indices a sweep-space `window` can touch, gathered
    /// from the shards whose bbox intersects it and sorted ascending
    /// (= shape-store order, the order the unsharded scan emits).
    /// `keep` applies the same per-shape intersection test the full
    /// scan uses.
    fn route_shards(&self, map: &ShardMap, window: &Rect, keep: impl Fn(u32) -> bool) -> Vec<u32> {
        let mut idxs: Vec<u32> = Vec::new();
        for s in map.candidates(window) {
            for &o in map.members(s) {
                let idx = *self.shape_at.get(o as usize);
                if idx != NO_SHAPE && keep(idx) {
                    idxs.push(idx);
                }
            }
        }
        idxs.sort_unstable();
        idxs
    }

    /// How much physical storage this snapshot shares with `other`
    /// (chunk allocations at matching positions across the candidate,
    /// radius, shape-slot, geometry and owner stores, plus the client
    /// set) — the assertion surface for the copy-on-write contract.
    pub fn storage_sharing(&self, other: &ArrangementSnapshot) -> StorageSharing {
        let mut shared = 0;
        let mut total = 0;
        let mut tally = |(s, t): (usize, usize)| {
            shared += s;
            total += t;
        };
        tally(self.cands.shared_chunks_with(&other.cands));
        tally(self.radii.shared_chunks_with(&other.radii));
        tally(self.shape_at.shared_chunks_with(&other.shape_at));
        tally(self.owners.shared_chunks_with(&other.owners));
        match (&self.shapes, &other.shapes) {
            (ShapeStore::Square { squares: a, .. }, ShapeStore::Square { squares: b, .. }) => {
                tally(a.shared_chunks_with(b))
            }
            (ShapeStore::Disk { disks: a }, ShapeStore::Disk { disks: b }) => {
                tally(a.shared_chunks_with(b))
            }
            _ => tally((0, 0)),
        }
        StorageSharing {
            shared_chunks: shared,
            total_chunks: total,
            shares_clients: Arc::ptr_eq(&self.clients, &other.clients),
        }
    }

    /// A chunk-sharing working copy with an empty materialized cache,
    /// stab index and region memo (edits change geometry, so the
    /// parent's derived state must not leak).
    fn working_copy(&self) -> ArrangementSnapshot {
        ArrangementSnapshot {
            metric: self.metric,
            mode: self.mode,
            k: self.k,
            clients: self.clients.clone(),
            facilities: self.facilities.clone(),
            alive: self.alive.clone(),
            n_alive: self.n_alive,
            cands: self.cands.clone(),
            radii: self.radii.clone(),
            shape_at: self.shape_at.clone(),
            shapes: self.shapes.clone(),
            owners: self.owners.clone(),
            dropped: self.dropped,
            base_fingerprint: self.base_fingerprint,
            fingerprint: self.fingerprint,
            generation: self.generation,
            shards: self.shards.clone(),
            materialized: OnceLock::new(),
            stab: OnceLock::new(),
            region_memo: Arc::default(),
        }
    }

    /// Seals a working copy: geometry-changing edits get a fresh,
    /// process-unique fingerprint; geometric no-ops keep the parent's
    /// fingerprint, its materialized view and its stab index, and
    /// share its region memo (the circles are untouched). On sharded
    /// snapshots, only the shards owning a changed circle recompute
    /// their summary, and the per-shard fingerprints are re-composed
    /// around the fresh salted base.
    fn seal(&self, mut next: ArrangementSnapshot, out: &EditOutcome) -> ArrangementSnapshot {
        if out.dirty.is_empty() {
            if let Some(m) = self.materialized.get() {
                let _ = next.materialized.set(m.clone());
            }
            if let Some(t) = self.stab.get() {
                let _ = next.stab.set(t.clone());
            }
            next.region_memo = self.region_memo.clone();
        } else {
            next.generation += 1;
            let salt = SNAPSHOT_SALT.fetch_add(1, Ordering::Relaxed);
            let base = fnv1a_words([0x534e, self.base_fingerprint, salt]);
            next.fingerprint = match next.shards.take() {
                Some(mut map) => {
                    let mut dirty_shards: Vec<usize> = out
                        .changes
                        .iter()
                        .map(|ch| map.shard_of(next.shard_x(ch.owner as usize)))
                        .collect();
                    dirty_shards.sort_unstable();
                    dirty_shards.dedup();
                    for s in dirty_shards {
                        let (bbox, fp) = next.shard_summary(map.members(s));
                        map.set_summary(s, bbox, fp);
                    }
                    let fp = map.compose_fingerprint(base);
                    next.shards = Some(map);
                    fp
                }
                None => base,
            };
        }
        next
    }

    /// Validates that the instance accepts facility edits targeting
    /// point `p` (bichromatic mode, finite coordinates).
    fn check_editable(&self, p: Option<Point>) -> Result<(), EditError> {
        if self.mode != Mode::Bichromatic {
            return Err(EditError::ImmutableMode);
        }
        if let Some(p) = p {
            if !p.x.is_finite() || !p.y.is_finite() {
                return Err(EditError::NonFinitePoint);
            }
        }
        Ok(())
    }

    /// Adds a facility at `p`, returning the successor snapshot, the
    /// new facility's id and what changed. `self` is untouched. Every
    /// client strictly closer to `p` than to its current `k`-th NN
    /// admits `p` into its `k`-NN set and (usually) shrinks its circle.
    pub fn insert_facility(
        &self,
        p: Point,
    ) -> Result<(ArrangementSnapshot, u32, EditOutcome), EditError> {
        self.check_editable(Some(p))?;
        let mut next = self.working_copy();
        let slot = next.facilities.len() as u32;
        Arc::make_mut(&mut next.facilities).push(p);
        Arc::make_mut(&mut next.alive).push(true);
        next.n_alive += 1;
        // Scan phase (chunk-wise, no divisions): collect the clients
        // whose k-th NN distance the new facility beats.
        let mut stolen: Vec<(usize, f64)> = Vec::new();
        let mut base = 0usize;
        for chunk in next.radii.chunk_slices() {
            for (j, &r) in chunk.iter().enumerate() {
                let o = base + j;
                let d = self.metric.dist(&self.clients[o], &p);
                if d < r {
                    stolen.push((o, d));
                }
            }
            base += chunk.len();
        }
        let mut out = EditOutcome::default();
        for (o, d) in stolen {
            let new_r = next.admit_candidate(o, slot, d);
            next.set_radius(o, new_r, &mut out);
        }
        Ok((self.seal(next, &out), slot, out))
    }

    /// Removes facility `id`, returning the successor snapshot and
    /// what changed. `self` is untouched. Exactly the clients whose
    /// `k`-NN set contained `id` re-resolve their `k` nearest among the
    /// remaining facilities; everyone else's `k` smallest distances are
    /// provably unchanged.
    pub fn remove_facility(
        &self,
        id: u32,
    ) -> Result<(ArrangementSnapshot, EditOutcome), EditError> {
        self.check_editable(None)?;
        let i = id as usize;
        if i >= self.facilities.len() || !self.alive[i] {
            return Err(EditError::UnknownFacility);
        }
        if self.n_alive <= self.k {
            return Err(EditError::TooFewFacilities);
        }
        let mut next = self.working_copy();
        Arc::make_mut(&mut next.alive)[i] = false;
        next.n_alive -= 1;
        let (tree, slots) = next.facility_tree();
        let orphans = next.clients_serving(id);
        let mut out = EditOutcome::default();
        for o in orphans {
            let new_r = next.reresolve(o, &tree, &slots);
            next.set_radius(o, new_r, &mut out);
        }
        Ok((self.seal(next, &out), out))
    }

    /// Moves facility `id` to `to` (remove + insert fused), returning
    /// the successor snapshot and what changed. `self` is untouched.
    /// Clients with `id` in their `k`-NN set re-resolve it; every other
    /// client checks whether `id`'s new location undercuts its current
    /// `k`-th NN distance.
    pub fn move_facility(
        &self,
        id: u32,
        to: Point,
    ) -> Result<(ArrangementSnapshot, EditOutcome), EditError> {
        self.check_editable(Some(to))?;
        let i = id as usize;
        if i >= self.facilities.len() || !self.alive[i] {
            return Err(EditError::UnknownFacility);
        }
        let mut next = self.working_copy();
        Arc::make_mut(&mut next.facilities)[i] = to;
        let (tree, slots) = next.facility_tree();
        let serving = next.clients_serving(id);
        // Non-serving clients admit the moved facility when its new
        // location undercuts their current k-th NN distance.
        let mut stolen: Vec<(usize, f64)> = Vec::new();
        {
            let mut serving_it = serving.iter().copied().peekable();
            let mut base = 0usize;
            for chunk in next.radii.chunk_slices() {
                for (j, &r) in chunk.iter().enumerate() {
                    let o = base + j;
                    if serving_it.peek() == Some(&o) {
                        serving_it.next();
                        continue;
                    }
                    let d = self.metric.dist(&self.clients[o], &to);
                    if d < r {
                        stolen.push((o, d));
                    }
                }
                base += chunk.len();
            }
        }
        let mut out = EditOutcome::default();
        // Process all touched clients in ascending client order, the
        // same order the single-user editor historically used.
        let mut si = 0usize;
        let mut ti = 0usize;
        while si < serving.len() || ti < stolen.len() {
            let take_serving = match (serving.get(si), stolen.get(ti)) {
                (Some(&s), Some(&(t, _))) => s < t,
                (Some(_), None) => true,
                _ => false,
            };
            if take_serving {
                let o = serving[si];
                si += 1;
                let new_r = next.reresolve(o, &tree, &slots);
                next.set_radius(o, new_r, &mut out);
            } else {
                let (o, d) = stolen[ti];
                ti += 1;
                let new_r = next.admit_candidate(o, id, d);
                next.set_radius(o, new_r, &mut out);
            }
        }
        Ok((self.seal(next, &out), out))
    }

    /// The clients whose `k`-NN candidate set contains facility slot
    /// `id`, in ascending order (a chunk-wise scan of the candidate
    /// store).
    fn clients_serving(&self, id: u32) -> Vec<usize> {
        let k = self.k;
        let mut serving = Vec::new();
        let mut base = 0usize;
        for chunk in self.cands.chunk_slices() {
            debug_assert_eq!(chunk.len() % k, 0, "chunks hold whole candidate windows");
            for (w, window) in chunk.chunks_exact(k).enumerate() {
                if window.iter().any(|&(f, _)| f == id) {
                    serving.push(base + w);
                }
            }
            base += chunk.len() / k;
        }
        serving
    }

    /// Inserts `(id, d)` into client `o`'s candidate list (`id` must
    /// not already be a candidate and `d` must beat the current `k`-th
    /// distance strictly), evicting the old `k`-th. Returns the new
    /// `k`-th distance.
    fn admit_candidate(&mut self, o: usize, id: u32, d: f64) -> f64 {
        let slice = self.cands.window_mut(o * self.k, self.k);
        debug_assert!(d < slice[slice.len() - 1].1);
        let pos = slice.partition_point(|&(_, cd)| cd <= d);
        for j in (pos + 1..slice.len()).rev() {
            slice[j] = slice[j - 1];
        }
        slice[pos] = (id, d);
        slice[slice.len() - 1].1
    }

    /// Re-resolves client `o`'s full `k`-NN set from `tree` (a kd-tree
    /// over the live facilities, with `slots` mapping compacted
    /// indices back to slot ids). Returns the new `k`-th distance.
    fn reresolve(&mut self, o: usize, tree: &KdTree, slots: &[u32]) -> f64 {
        let nn = tree.k_nearest(&self.clients[o], self.metric, self.k);
        debug_assert_eq!(nn.len(), self.k, "n_alive >= k is an edit invariant");
        let window = self.cands.window_mut(o * self.k, self.k);
        for (j, (ci, d)) in nn.into_iter().enumerate() {
            window[j] = (slots[ci as usize], d);
        }
        window[self.k - 1].1
    }

    /// A kd-tree over the live facilities plus the compacted-index →
    /// slot-id mapping.
    fn facility_tree(&self) -> (KdTree, Vec<u32>) {
        let mut pts = Vec::with_capacity(self.n_alive);
        let mut slots = Vec::with_capacity(self.n_alive);
        for (id, p) in self.facilities() {
            pts.push(p);
            slots.push(id);
        }
        (KdTree::build(&pts), slots)
    }

    /// Records client `o`'s new `k`-th NN distance and updates the
    /// chunked geometry, the dirty region and the change list —
    /// identical logic to the historical in-place editor, expressed
    /// over copy-on-write chunks.
    fn set_radius(&mut self, o: usize, new_r: f64, out: &mut EditOutcome) {
        let old_r = *self.radii.get(o);
        if new_r.to_bits() == old_r.to_bits() {
            return;
        }
        self.radii.set(o, new_r);
        out.dirty.push(Rect::centered(self.clients[o], old_r.max(new_r)));
        let old_shape = nn_circle(self.metric, self.clients[o], old_r);
        let new_shape = nn_circle(self.metric, self.clients[o], new_r);
        out.changes.push(CircleChange { owner: o as u32, old: old_shape, new: new_shape });

        let idx = *self.shape_at.get(o);
        match (idx == NO_SHAPE, new_shape) {
            (false, Some(shape)) => match (&mut self.shapes, shape) {
                (ShapeStore::Square { squares, .. }, Shape::Square(s)) => {
                    squares.set(idx as usize, s)
                }
                (ShapeStore::Disk { disks }, Shape::Disk(d)) => disks.set(idx as usize, d),
                _ => unreachable!("shape kind matches the metric"),
            },
            (false, None) => {
                // The client now coincides with a facility: drop its
                // (empty-interior) circle via swap-remove.
                let idx = idx as usize;
                match &mut self.shapes {
                    ShapeStore::Square { squares, .. } => {
                        squares.swap_remove(idx);
                    }
                    ShapeStore::Disk { disks } => {
                        disks.swap_remove(idx);
                    }
                }
                self.owners.swap_remove(idx);
                self.dropped += 1;
                if idx < self.owners.len() {
                    let moved = *self.owners.get(idx);
                    self.shape_at.set(moved as usize, idx as u32);
                }
                self.shape_at.set(o, NO_SHAPE);
            }
            (true, Some(shape)) => {
                // A previously dropped client regains a circle.
                match (&mut self.shapes, shape) {
                    (ShapeStore::Square { squares, .. }, Shape::Square(s)) => squares.push(s),
                    (ShapeStore::Disk { disks }, Shape::Disk(d)) => disks.push(d),
                    _ => unreachable!("shape kind matches the metric"),
                }
                self.owners.push(o as u32);
                self.dropped -= 1;
                self.shape_at.set(o, (self.owners.len() - 1) as u32);
            }
            (true, None) => unreachable!("a radius change implies at least one non-zero radius"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_points(n: usize, seed: u64, span: f64) -> Vec<Point> {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        (0..n).map(|_| Point::new(next() * span, next() * span)).collect()
    }

    #[test]
    fn cowvec_basic_ops_and_sharing() {
        let mut v = CowVec::from_vec((0..2500u32).collect(), 1024);
        assert_eq!(v.len(), 2500);
        assert_eq!(*v.get(0), 0);
        assert_eq!(*v.get(2499), 2499);
        assert_eq!(v.to_vec(), (0..2500).collect::<Vec<_>>());

        let parent = v.clone();
        assert_eq!(v.shared_chunks_with(&parent), (3, 3), "clone shares every chunk");
        v.set(5, 999);
        assert_eq!(*v.get(5), 999);
        assert_eq!(*parent.get(5), 5, "parent untouched");
        assert_eq!(v.shared_chunks_with(&parent), (2, 3), "one chunk copied on write");

        // Window access within one chunk.
        assert_eq!(v.window(1024, 4), &[1024, 1025, 1026, 1027]);
        v.window_mut(1024, 2).copy_from_slice(&[7, 8]);
        assert_eq!(v.window(1024, 2), &[7, 8]);
        assert_eq!(v.shared_chunks_with(&parent), (1, 3));
    }

    #[test]
    fn cowvec_push_and_swap_remove_match_vec() {
        let mut cow = CowVec::from_vec(Vec::<u32>::new(), 4);
        let mut reference: Vec<u32> = Vec::new();
        let mut state = 99u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        for step in 0..500 {
            if reference.is_empty() || next() % 3 != 0 {
                let v = (step * 7) as u32;
                cow.push(v);
                reference.push(v);
            } else {
                let i = (next() as usize) % reference.len();
                assert_eq!(cow.swap_remove(i), reference.swap_remove(i), "step {step}");
            }
            assert_eq!(cow.len(), reference.len(), "step {step}");
        }
        assert_eq!(cow.to_vec(), reference);
    }

    #[test]
    fn snapshot_edits_share_untouched_chunks() {
        let clients = pseudo_points(20_000, 3, 100.0);
        let facs = pseudo_points(256, 5, 100.0);
        let snap =
            ArrangementSnapshot::build(clients, facs, Metric::Linf, Mode::Bichromatic).unwrap();
        // A local edit in one corner touches few chunks.
        let (next, _, out) = snap.insert_facility(Point::new(1.0, 1.0)).unwrap();
        assert!(!out.dirty.is_empty(), "a corner insert steals some clients");
        let sharing = next.storage_sharing(&snap);
        assert!(sharing.shares_clients, "the client set is never copied");
        assert!(
            sharing.shared_chunks * 4 > sharing.total_chunks * 3,
            "a local edit must keep most chunks shared: {sharing:?}"
        );
        assert_ne!(next.fingerprint(), snap.fingerprint());
        assert_eq!(next.generation(), snap.generation() + 1);
    }

    #[test]
    fn divergent_branches_get_distinct_fingerprints() {
        let clients = pseudo_points(200, 7, 10.0);
        let facs = pseudo_points(8, 9, 10.0);
        let snap =
            ArrangementSnapshot::build(clients, facs, Metric::L2, Mode::Bichromatic).unwrap();
        let (a, _, _) = snap.insert_facility(Point::new(2.0, 2.0)).unwrap();
        let (b, _, _) = snap.insert_facility(Point::new(8.0, 8.0)).unwrap();
        // Same parent, same generation — but never the same cache key.
        assert_eq!(a.generation(), b.generation());
        assert_ne!(a.fingerprint(), b.fingerprint(), "branches must not collide");
        assert_ne!(a.fingerprint(), snap.fingerprint());
        assert_ne!(b.fingerprint(), snap.fingerprint());
    }

    #[test]
    fn noop_edit_keeps_fingerprint_and_materialized_view() {
        let clients = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        let facs = vec![Point::new(0.25, 0.0), Point::new(0.75, 0.0)];
        let snap =
            ArrangementSnapshot::build(clients, facs, Metric::Linf, Mode::Bichromatic).unwrap();
        let arr_before = snap.square().unwrap() as *const SquareArrangement;
        let (next, _, out) = snap.insert_facility(Point::new(500.0, 500.0)).unwrap();
        assert!(out.dirty.is_empty());
        assert_eq!(next.fingerprint(), snap.fingerprint());
        assert_eq!(next.generation(), snap.generation());
        assert_eq!(next.n_facilities(), 3, "the facility still joined the set");
        // The materialized view is carried over, not rebuilt.
        assert_eq!(next.square().unwrap() as *const SquareArrangement, arr_before);
    }

    #[test]
    fn stab_index_is_lazy_shared_and_carried() {
        use crate::measure::CountMeasure;
        use crate::placement::PlacementQuery;

        let clients = pseudo_points(300, 23, 10.0);
        let facs = pseudo_points(8, 29, 10.0);
        let probes = pseudo_points(40, 31, 10.0);
        for metric in Metric::ALL {
            let root = Arc::new(
                ArrangementSnapshot::build(
                    clients.clone(),
                    facs.clone(),
                    metric,
                    Mode::Bichromatic,
                )
                .unwrap(),
            );
            assert!(root.stab.get().is_none(), "{metric:?}: build_k leaves the index unbuilt");
            let probe = |s: &ArrangementSnapshot| {
                let query = PlacementQuery::new(s, &CountMeasure);
                for &p in &probes {
                    query.influence_of(p);
                }
                Arc::as_ptr(s.stab.get().expect("a probe builds the index"))
            };
            let built = probe(&root);
            assert_eq!(probe(&root), built, "{metric:?}: repeated probes reuse one index");
            let fork = Arc::clone(&root);
            assert_eq!(probe(&fork), built, "{metric:?}: a fork shares it");

            let (noop, _, out) = root.insert_facility(Point::new(500.0, 500.0)).unwrap();
            assert!(out.dirty.is_empty(), "{metric:?}: a far insert is a geometric no-op");
            let carried = noop.stab.get().expect("a no-op edit carries the index");
            assert_eq!(Arc::as_ptr(carried), built, "{metric:?}: carried, not rebuilt");

            let (moved, out) = root.move_facility(0, Point::new(5.0, 5.0)).unwrap();
            assert!(!out.dirty.is_empty(), "{metric:?}: the move changes circles");
            assert!(moved.stab.get().is_none(), "{metric:?}: a geometry edit starts without one");
            assert_ne!(probe(&moved), built, "{metric:?}: its first probe builds its own");
            // The successor's index covers the successor's circles.
            let (rects, space) = match moved.arrangement() {
                ArrangementRef::Square(a) => (a.squares.clone(), a.space),
                ArrangementRef::Disk(d) => {
                    (d.disks.iter().map(Circle::bbox).collect(), CoordSpace::Identity)
                }
            };
            let tree = moved.stab_index();
            assert_eq!(tree.len(), moved.n_circles(), "{metric:?}");
            for &p in &probes {
                let q = space.to_sweep(p);
                let mut got = tree.stab_vec(q);
                got.sort_unstable();
                let want: Vec<u32> = (0..rects.len() as u32)
                    .filter(|&i| rects[i as usize].contains_closed(q))
                    .collect();
                assert_eq!(got, want, "{metric:?}: stab at {p:?}");
            }
        }
    }

    #[test]
    fn top_k_memo_keeps_one_answer_per_measure() {
        use crate::measure::{CountMeasure, WeightedMeasure};

        let clients = pseudo_points(300, 37, 10.0);
        let snap = ArrangementSnapshot::build(
            clients.clone(),
            pseudo_points(8, 41, 10.0),
            Metric::Linf,
            Mode::Bichromatic,
        )
        .unwrap();
        let weighted = WeightedMeasure::new((0..clients.len()).map(|i| 1.0 + i as f64).collect());
        let keys = [CountMeasure.cache_key(), weighted.cache_key()];
        for k in [2, 6, 4, 9, 1] {
            snap.top_k(&CountMeasure, keys[0], k);
            snap.top_k(&weighted, keys[1], k);
        }
        let memo = snap.region_memo.lock().unwrap();
        let held: Vec<(u64, usize)> = memo.top_k.keys().copied().collect();
        let mut want = vec![(keys[0], 9), (keys[1], 9)];
        want.sort_unstable();
        assert_eq!(held, want, "the largest k asked per measure serves every smaller k");
    }

    #[test]
    fn restrict_to_matches_materialized_restrict() {
        let clients = pseudo_points(500, 11, 10.0);
        let facs = pseudo_points(10, 13, 10.0);
        for metric in Metric::ALL {
            let snap = ArrangementSnapshot::build(
                clients.clone(),
                facs.clone(),
                metric,
                Mode::Bichromatic,
            )
            .unwrap();
            let extent = Rect::new(2.0, 5.0, 3.0, 7.0);
            match (snap.restrict_to(extent), snap.arrangement()) {
                (RestrictedArrangement::Square(sub), ArrangementRef::Square(full)) => {
                    let expect = full.restrict_to(extent);
                    assert_eq!(sub.fingerprint(), expect.fingerprint(), "{metric:?}");
                }
                (RestrictedArrangement::Disk(sub), ArrangementRef::Disk(full)) => {
                    let expect = full.restrict_to(extent);
                    assert_eq!(sub.fingerprint(), expect.fingerprint());
                }
                _ => panic!("restriction kind must match the metric"),
            }
        }
    }

    #[test]
    fn shard_summaries_are_the_same_at_every_band_count() {
        let mut clients = pseudo_points(400, 17, 10.0);
        let facs = pseudo_points(9, 19, 10.0);
        // A client on a facility has no circle, so its shard skips it.
        clients.push(facs[4]);
        for metric in Metric::ALL {
            let build = || {
                ArrangementSnapshot::build(clients.clone(), facs.clone(), metric, Mode::Bichromatic)
                    .unwrap()
            };
            let summaries = |s: &ArrangementSnapshot| {
                let map = s.shards().expect("sharded");
                let bits: Vec<Option<[u64; 4]>> = (0..map.n_shards())
                    .map(|i| {
                        map.bbox(i).map(|b| [b.x_lo, b.x_hi, b.y_lo, b.y_hi].map(f64::to_bits))
                    })
                    .collect();
                (bits, map.fingerprints().to_vec(), s.fingerprint())
            };
            let one = build().with_shards_banded(7, 1);
            assert_eq!(one.shards().unwrap().n_shards(), 7);
            for bands in [2usize, 8] {
                let banded = build().with_shards_banded(7, bands);
                assert_eq!(summaries(&banded), summaries(&one), "{metric:?} at {bands} bands");
            }
        }
    }
}
