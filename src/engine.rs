//! The concurrent exploration engine: snapshot-isolated sessions over
//! one shared dataset and tile cache.
//!
//! The paper's scenario — analysts panning, zooming and probing
//! what-if edits — becomes a *serving* problem at scale: many
//! concurrent users exploring one facility dataset, some of them down
//! divergent edit branches. [`ExplorationEngine`] is that substrate:
//!
//! * the engine owns the dataset's **root snapshot**
//!   (`rnnhm_core::snapshot::ArrangementSnapshot`), the tile-pyramid
//!   geometry, and one **shared, sharded, single-flight**
//!   [`TileCache`];
//! * a [`Session`] is one user's view: an `Arc` of some committed
//!   snapshot plus a private label list computed on demand. Top-k and
//!   placement answers are memoized on the snapshot itself, so all
//!   the sessions, forks and threads on one snapshot sweep each
//!   question once. [`Session::fork`] is `O(1)` — no circles or
//!   candidate lists are copied — and every read path ([`Session::viewport`],
//!   [`Session::influence_at`], [`Session::top_k`], …) takes `&self`,
//!   so any number of threads can serve frames from clones or
//!   references of sessions concurrently;
//! * edits ([`Session::add_facility`] /
//!   [`Session::remove_facility`] / [`Session::move_facility`])
//!   commit a **new** snapshot (chunk-level copy-on-write against the
//!   parent) whose region answers start empty, and never disturb
//!   other sessions: committed snapshots are immutable forever, so a
//!   reader mid-frame on the old snapshot finishes on exactly the
//!   geometry it started with — no torn frames, by construction
//!   (stress-tested in `tests/concurrent_serving.rs`);
//! * cache isolation is automatic: snapshot fingerprints key every
//!   tile, and an edit *propagates* the clean tiles of its parent to
//!   the new fingerprint — moving them when the session was the
//!   snapshot's sole user, aliasing (shared `Arc` payloads) when
//!   forks still serve the parent — so both branches stay warm
//!   everywhere outside the edit's dirty region.
//!
//! [`crate::HeatMapBuilder::build`] returns a single session of an
//! engine whose handle is dropped, so exclusive-session edit
//! propagation applies.
//!
//! ```
//! use rnn_heatmap::prelude::*;
//! use rnn_heatmap::HeatMapBuilder;
//!
//! let clients = vec![Point::new(0.0, 0.0), Point::new(2.0, 1.0), Point::new(1.0, 3.0)];
//! let engine = HeatMapBuilder::bichromatic(clients, vec![Point::new(1.0, 1.0)])
//!     .build_engine(CountMeasure)
//!     .expect("non-empty input");
//!
//! // Two analysts explore divergent what-if branches of one dataset.
//! let mut alice = engine.session();
//! let mut bob = alice.fork(); // O(1): same snapshot, shared cache
//! alice.add_facility(Point::new(0.2, 0.2)).unwrap();
//! bob.add_facility(Point::new(1.8, 0.9)).unwrap();
//! assert_ne!(alice.fingerprint(), bob.fingerprint(), "branches are isolated");
//!
//! // Each sees only their own edit.
//! assert_eq!(alice.n_facilities(), 2);
//! assert_eq!(bob.n_facilities(), 2);
//! let frame_a = alice.viewport(Rect::new(0.0, 2.0, 0.0, 3.0), 32, 32);
//! let frame_b = bob.viewport(Rect::new(0.0, 2.0, 0.0, 3.0), 32, 32);
//! assert_ne!(frame_a.values(), frame_b.values());
//! ```

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Instant;

use rnnhm_core::arrangement::fnv1a_words;
use rnnhm_core::edit::{ArrangementRef, DirtyRegion, EditError, EditOutcome};
use rnnhm_core::measure::{IncrementalMeasure, InfluenceMeasure};
use rnnhm_core::placement::{
    GreedyStep, PlacementConstraints, PlacementQuery, PlacementRegion, Relocation,
};
use rnnhm_core::postprocess::threshold;
use rnnhm_core::sink::{CollectSink, LabeledRegion};
use rnnhm_core::snapshot::{ArrangementSnapshot, RestrictedArrangement};
use rnnhm_core::stats::SweepStats;
use rnnhm_geom::{Point, Rect};
use rnnhm_heatmap::compute::{rasterize_disks, rasterize_squares};
use rnnhm_heatmap::mipmap::HeatMipmap;
use rnnhm_heatmap::quant::TilePayload;
use rnnhm_heatmap::raster::{GridSpec, HeatRaster};
use rnnhm_heatmap::scanline::{rasterize_disks_scanline_bands, rasterize_squares_scanline_bands};
use rnnhm_heatmap::tiles::{CacheStats, Preview, TileCache, TileId, TileScheme};

/// Registry prune cadence: dead snapshot weak-refs are swept every
/// this many registrations.
const REGISTRY_PRUNE_EVERY: usize = 64;

/// Fingerprint discriminant for the approximate (LoD) tile namespace:
/// approximate tiles share the exact tiles' cache but must never be
/// confused with them, so their measure key is salted with this word
/// and the exact-zoom threshold.
const LOD_KEY_SEED: u64 = 0x4c4f44; // "LOD"

/// One snapshot's level-of-detail state: a ready pyramid, or a recipe
/// for deriving one lazily from an ancestor's.
///
/// Edits cannot patch a pyramid eagerly — patching renders base tiles,
/// which needs the `IncrementalMeasure + Sync` rasterizer bound, while
/// edits are available to every measure. So [`Session::finish_edit`]
/// only *records lineage* (ancestor pyramid + accumulated dirty
/// region), and the first coarse-tile request on the new snapshot
/// resolves it: re-render the dirty-touched base tiles, re-average
/// upward. Chained edits merge their dirty regions against the same
/// ancestor — every touched base tile is re-rendered from the *current*
/// snapshot, so the patched pyramid is bitwise a fresh build. The
/// merged region is a [`DirtyRegion`], which coalesces overlapping
/// rects and collapses to its bounding box past its cap, so the recipe
/// stays small however long the edit chain.
enum LodState {
    /// Pyramid built (or patched) for this snapshot.
    Ready(Arc<HeatMipmap>),
    /// Derive by patching `ancestor` over `dirty` on first use.
    Patch {
        /// The last materialized pyramid on this edit branch.
        ancestor: Arc<HeatMipmap>,
        /// Union of the dirty regions of every edit since `ancestor`.
        dirty: DirtyRegion,
    },
}

/// The state shared by an engine and all of its sessions.
struct EngineShared<M> {
    measure: M,
    measure_key: u64,
    tile_px: usize,
    /// The tile-pyramid geometry, created on first tile use (render,
    /// preview, or scheme query) from the bbox of the snapshot in
    /// play *at that moment* — matching the historical lazy tile
    /// store, so edits applied before the first viewport (e.g. a
    /// removal growing circles past the build-time bbox) still get a
    /// world that covers them. Fixed forever once set: every cached
    /// tile's geometry depends on it.
    scheme: OnceLock<TileScheme>,
    cache: TileCache,
    /// LoD threshold: when `Some(ze)`, tiles at `zoom < ze` are served
    /// *approximately* from a mipmap pyramid whose base is the exact
    /// zoom-`ze` rendering (see [`HeatMipmap`]); tiles at `zoom >= ze`
    /// stay on the exact path, bit-identical to an engine without LoD.
    /// `None` disables the pyramid entirely (the default).
    lod_exact_zoom: Option<u8>,
    /// Per-snapshot LoD state, keyed by snapshot fingerprint.
    // lint:lock-rank(32)
    lod: Mutex<HashMap<u64, LodState>>,
    /// Every committed snapshot of this engine's lineage, weakly held
    /// (sessions keep snapshots alive; dropped branches are pruned),
    /// plus the registration count driving the prune cadence.
    // lint:lock-rank(34)
    registry: Mutex<(Vec<Weak<ArrangementSnapshot>>, usize)>,
}

impl<M> EngineShared<M> {
    fn register(&self, snap: &Arc<ArrangementSnapshot>) {
        let live = {
            let mut guard = self.registry.lock().unwrap_or_else(|e| e.into_inner());
            let (registry, count) = &mut *guard;
            registry.push(Arc::downgrade(snap));
            *count += 1;
            if !(*count).is_multiple_of(REGISTRY_PRUNE_EVERY) {
                return;
            }
            live_fingerprints(registry)
        };
        self.prune_lod(&live);
    }

    /// Sweeps dead weak refs out of the registry, and the LoD state of
    /// the snapshots they held, and reports the registry's post-sweep
    /// occupancy.
    fn prune_registry(&self) -> RegistryStats {
        let (stats, live) = {
            let mut guard = self.registry.lock().unwrap_or_else(|e| e.into_inner());
            let (registry, count) = &mut *guard;
            let live = live_fingerprints(registry);
            let n = registry.len();
            (RegistryStats { entries: n, live: n, registered: *count }, live)
        };
        self.prune_lod(&live);
        stats
    }

    /// Drops the LoD state of every fingerprint outside `live` (sorted):
    /// a pyramid outlives its snapshot otherwise. Called with the
    /// registry lock released, since the two locks never nest. An edit
    /// racing the prune may lose its new entry; its next coarse tile
    /// then builds the pyramid cold, bitwise the same.
    fn prune_lod(&self, live: &[u64]) {
        if self.lod_exact_zoom.is_none() {
            return;
        }
        let mut lod = self.lod.lock().unwrap_or_else(|e| e.into_inner());
        lod.retain(|fp, _| live.binary_search(fp).is_ok());
    }

    /// The tile scheme, created on first use over `snap`'s extent.
    fn scheme(&self, snap: &ArrangementSnapshot) -> &TileScheme {
        self.scheme.get_or_init(|| TileScheme::for_extent(input_bbox(snap), self.tile_px))
    }

    /// The exact-zoom threshold clamped to the scheme's depth, or
    /// `None` when LoD is off.
    fn effective_exact_zoom(&self, scheme: &TileScheme) -> Option<u8> {
        self.lod_exact_zoom.map(|ze| ze.min(scheme.max_zoom()))
    }

    /// The cache measure-key namespace for approximate tiles.
    fn approx_measure_key(&self, ze: u8) -> u64 {
        fnv1a_words([LOD_KEY_SEED, self.measure_key, ze as u64])
    }
}

/// Sweeps dead weak refs out of `registry` and returns the snapshots
/// still alive, oldest first.
fn live_snapshots(registry: &mut Vec<Weak<ArrangementSnapshot>>) -> Vec<Arc<ArrangementSnapshot>> {
    let mut live = Vec::with_capacity(registry.len());
    registry.retain(|w| match w.upgrade() {
        Some(snap) => {
            live.push(snap);
            true
        }
        None => false,
    });
    live
}

/// [`live_snapshots`]' fingerprints, sorted and deduplicated (a
/// geometric no-op edit keeps its parent's fingerprint).
fn live_fingerprints(registry: &mut Vec<Weak<ArrangementSnapshot>>) -> Vec<u64> {
    let mut live: Vec<u64> = live_snapshots(registry).iter().map(|s| s.fingerprint()).collect();
    live.sort_unstable();
    live.dedup();
    live
}

/// Occupancy of an engine's snapshot registry (see
/// [`ExplorationEngine::registry_stats`]). The registry holds every
/// committed snapshot *weakly*: `registered` counts lifetime commits,
/// `entries` the weak slots currently held, and `live` the snapshots
/// still reachable through some session, pinned `Arc`, or the engine
/// itself. `entries > live` measures garbage awaiting a sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegistryStats {
    /// Weak slots currently held (live snapshots plus not-yet-swept
    /// dead entries).
    pub entries: usize,
    /// Entries whose snapshot is still alive.
    pub live: usize,
    /// Snapshots registered over the engine's lifetime.
    pub registered: usize,
}

/// Every label of one full sweep of a session's snapshot, and that
/// sweep's statistics: computed on first use, reset by an edit.
type LabelList = Option<(Vec<LabeledRegion>, SweepStats)>;

/// A concurrent exploration engine over one dataset: the root
/// snapshot, the tile pyramid, and the shared sharded tile cache. See
/// the module docs.
///
/// The engine hands out [`Session`]s; it keeps the root snapshot
/// alive, so root-forked sessions propagate their edits by *aliasing*
/// (the root's warm tiles are never stolen). Dropping the engine —
/// as [`crate::HeatMapBuilder::build`] does for its single session —
/// releases that hold.
pub struct ExplorationEngine<M: InfluenceMeasure> {
    shared: Arc<EngineShared<M>>,
    root: Arc<ArrangementSnapshot>,
}

impl<M: InfluenceMeasure> ExplorationEngine<M> {
    /// Assembles an engine from a built snapshot (used by
    /// [`crate::HeatMapBuilder::build_engine`]).
    pub(crate) fn assemble(
        snapshot: ArrangementSnapshot,
        measure: M,
        tile_px: usize,
        tile_cache_bytes: usize,
        lod_exact_zoom: Option<u8>,
    ) -> ExplorationEngine<M> {
        let root = Arc::new(snapshot);
        let shared = Arc::new(EngineShared {
            measure_key: measure.cache_key(),
            measure,
            tile_px,
            scheme: OnceLock::new(),
            cache: TileCache::new(tile_cache_bytes),
            lod_exact_zoom,
            lod: Mutex::new(HashMap::new()),
            registry: Mutex::new((Vec::new(), 0)),
        });
        shared.register(&root);
        ExplorationEngine { shared, root }
    }

    /// A new session on the engine's root snapshot. Opening a session
    /// also sweeps dead weak refs from the snapshot registry, so a
    /// serving loop that keeps opening and dropping sessions holds the
    /// registry at its live size instead of growing it until the next
    /// periodic prune.
    pub fn session(&self) -> Session<M> {
        self.shared.prune_registry();
        self.session_at(self.root.clone())
    }

    /// A new session on an arbitrary committed snapshot of this
    /// engine's lineage (e.g. one taken from [`Session::snapshot`] or
    /// [`ExplorationEngine::snapshots`]) — snapshot "time travel".
    pub fn session_at(&self, snapshot: Arc<ArrangementSnapshot>) -> Session<M> {
        Session { shared: self.shared.clone(), snap: snapshot, regions: Mutex::new(None) }
    }

    /// Consumes the engine into a session on the root snapshot,
    /// releasing the engine's hold on the root (the single-user mode
    /// [`crate::HeatMapBuilder::build`] returns).
    pub fn into_session(self) -> Session<M> {
        Session { shared: self.shared, snap: self.root, regions: Mutex::new(None) }
    }

    /// The dataset's root snapshot.
    pub fn root_snapshot(&self) -> &Arc<ArrangementSnapshot> {
        &self.root
    }

    /// Every committed snapshot of this engine still alive (held by at
    /// least one session or the engine itself), oldest first. Dead
    /// weak refs encountered along the way are pruned in the same
    /// pass.
    pub fn snapshots(&self) -> Vec<Arc<ArrangementSnapshot>> {
        let mut guard = self.shared.registry.lock().unwrap_or_else(|e| e.into_inner());
        live_snapshots(&mut guard.0)
    }

    /// Explicitly sweeps dead weak refs from the snapshot registry and
    /// returns its post-sweep occupancy. [`ExplorationEngine::session`]
    /// and [`ExplorationEngine::snapshots`] already prune as they go
    /// (and commits prune periodically); `gc()` is for idle-time
    /// housekeeping — e.g. a server's session reaper sweeping after it
    /// drops expired sessions.
    pub fn gc(&self) -> RegistryStats {
        self.shared.prune_registry()
    }

    /// Snapshot-registry occupancy, *without* sweeping (the dead-entry
    /// backlog is visible as `entries - live`).
    pub fn registry_stats(&self) -> RegistryStats {
        let guard = self.shared.registry.lock().unwrap_or_else(|e| e.into_inner());
        let live = guard.0.iter().filter(|w| w.strong_count() > 0).count();
        RegistryStats { entries: guard.0.len(), live, registered: guard.1 }
    }

    /// The tile-pyramid geometry every session serves viewports
    /// through (created from the root snapshot's extent if no session
    /// has rendered yet).
    pub fn tile_scheme(&self) -> &TileScheme {
        self.shared.scheme(&self.root)
    }

    /// Aggregate statistics of the shared tile cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// The influence measure the engine serves.
    pub fn measure(&self) -> &M {
        &self.shared.measure
    }

    /// The LoD exact-zoom threshold the engine was assembled with
    /// (`None` = every tile exact).
    pub fn lod_exact_zoom(&self) -> Option<u8> {
        self.shared.lod_exact_zoom
    }
}

/// Bounding box of a snapshot's arrangement in *input-space*
/// coordinates (L1 arrangements live in a rotated sweep frame; their
/// bbox is mapped back).
fn input_bbox(snap: &ArrangementSnapshot) -> Rect {
    let fallback = Rect::new(0.0, 1.0, 0.0, 1.0);
    match snap.arrangement() {
        ArrangementRef::Square(arr) => {
            arr.bbox().map_or(fallback, |bb| arr.space.rect_to_original(bb))
        }
        ArrangementRef::Disk(arr) => arr.bbox().unwrap_or(fallback),
    }
}

/// One user's view of an [`ExplorationEngine`]: a committed snapshot
/// plus a private label list, sharing the engine's tile cache. The
/// label list ([`Session::regions`], [`Session::at_least`]) is swept on
/// demand and reset by every edit. [`Session::top_k`] and
/// [`Session::top_placements`] read through the snapshot's memo of
/// region answers instead: the first ask on a snapshot sweeps, and
/// every later ask of it — from this session, a fork, or any session
/// of an engine with the same measure — copies that answer.
///
/// All read paths take `&self` and are safe to call from many threads
/// at once (`Session` is `Send + Sync`); edits take `&mut self` and
/// replace the session's snapshot without affecting anyone else.
pub struct Session<M: InfluenceMeasure> {
    shared: Arc<EngineShared<M>>,
    snap: Arc<ArrangementSnapshot>,
    // lint:lock-rank(30)
    regions: Mutex<LabelList>,
}

impl<M: InfluenceMeasure> Session<M> {
    /// Forks the session: an independent session on the *same*
    /// snapshot — `O(1)`, nothing is copied. The fork's future edits
    /// are invisible to `self` and vice versa; until either edits,
    /// both serve (and warm) the same cached tiles.
    pub fn fork(&self) -> Session<M> {
        Session { shared: self.shared.clone(), snap: self.snap.clone(), regions: Mutex::new(None) }
    }

    /// The session's current committed snapshot (immutable; clone the
    /// `Arc` to pin it across future edits).
    pub fn snapshot(&self) -> &Arc<ArrangementSnapshot> {
        &self.snap
    }

    /// The snapshot's cache fingerprint (the tile-key component that
    /// isolates this session's rendered tiles from other branches).
    pub fn fingerprint(&self) -> u64 {
        self.snap.fingerprint()
    }

    /// The tile-pyramid geometry this session serves viewports
    /// through (shared by every session of the engine; created from
    /// this session's snapshot extent if no session has used it yet).
    pub fn tile_scheme(&self) -> &TileScheme {
        self.shared.scheme(&self.snap)
    }

    /// Aggregate statistics of the engine's shared tile cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// The influence measure the engine serves.
    pub fn measure(&self) -> &M {
        &self.shared.measure
    }

    /// The LoD exact-zoom threshold (`None` = every tile exact). The
    /// serving layer uses this to label responses: tiles at
    /// `zoom < lod_exact_zoom()` are approximate.
    pub fn lod_exact_zoom(&self) -> Option<u8> {
        self.shared.lod_exact_zoom
    }

    /// Runs `f` over the snapshot's label list and sweep statistics,
    /// sweeping on first use.
    fn with_list<R>(&self, f: impl FnOnce(&[LabeledRegion], SweepStats) -> R) -> R {
        let mut held = self.regions.lock().unwrap_or_else(|e| e.into_inner());
        let (list, stats) = held.get_or_insert_with(|| {
            let mut sink = CollectSink::default();
            let stats = self.snap.sweep(&self.shared.measure, &mut sink);
            (sink.regions, stats)
        });
        f(list, *stats)
    }

    /// All labeled regions of the snapshot, from one full sweep run on
    /// first use. One region may carry several labels (CREST relabels
    /// a region a bounded number of times — Lemma 3).
    ///
    /// This *clones* the full list (each label owns its RNN vector);
    /// for read-only access at scale use [`Session::with_regions`], or
    /// [`Session::top_k`] / [`Session::at_least`], which only copy what
    /// they return.
    pub fn regions(&self) -> Vec<LabeledRegion> {
        self.with_list(|list, _| list.to_vec())
    }

    /// Runs `f` over the labeled regions *in place* — no cloning —
    /// computing them on first use. The region lock is held for the
    /// duration of `f`; don't call other region accessors or edit
    /// operations from inside it.
    pub fn with_regions<R>(&self, f: impl FnOnce(&[LabeledRegion]) -> R) -> R {
        self.with_list(|list, _| f(list))
    }

    /// Statistics of the sweep that produced [`Session::regions`].
    pub fn stats(&self) -> SweepStats {
        self.with_list(|_, stats| stats)
    }

    /// The `k` most influential regions, deduplicated by RNN set, ties
    /// broken by first emission — exactly
    /// [`rnnhm_core::postprocess::top_k`] over [`Session::regions`].
    ///
    /// Reads through the snapshot's region-answer memo
    /// ([`ArrangementSnapshot::top_k`]): the first ask of a `k` on a
    /// snapshot runs one sweep into a bounded
    /// [`rnnhm_core::sink::TopKSink`] (no label list is built), and
    /// every later ask from any session, fork or thread on that
    /// snapshot copies it. The largest `k` asked serves every smaller
    /// `k` as a prefix. Concurrent first asks of one `k` sweep once;
    /// the others wait for that sweep.
    pub fn top_k(&self, k: usize) -> Vec<LabeledRegion> {
        self.snap.top_k(&self.shared.measure, self.shared.measure_key, k)
    }

    /// The single most influential region.
    pub fn max_region(&self) -> Option<LabeledRegion> {
        self.top_k(1).into_iter().next()
    }

    /// Regions with influence at or above `min_influence`.
    pub fn at_least(&self, min_influence: f64) -> Vec<LabeledRegion> {
        self.with_list(|list, _| threshold(list, min_influence))
    }

    /// The RNN set (sorted) and influence of an arbitrary location
    /// (input-space coordinates, closed containment): what a facility
    /// placed there would capture, bit for bit
    /// [`PlacementQuery::influence_of`]. One stab of the snapshot's
    /// point-enclosure index: the first probe on a snapshot builds it
    /// (an STR R-tree over every NN-circle), and every later probe,
    /// fork and session on that snapshot reuses it. A geometric no-op
    /// edit keeps it; a geometry-changing edit starts without one.
    pub fn influence_at(&self, q: Point) -> (Vec<u32>, f64) {
        PlacementQuery::new(&self.snap, &self.shared.measure).influence_of(q)
    }

    /// Maps a labeled region's representative point back to input-space
    /// coordinates (L1 maps live in a rotated sweep frame).
    pub fn region_center(&self, region: &LabeledRegion) -> Point {
        match self.snap.arrangement() {
            ArrangementRef::Square(arr) => arr.space.to_original(region.rect.center()),
            ArrangementRef::Disk(_) => region.rect.center(),
        }
    }

    /// Number of NN-circles in the session's arrangement.
    pub fn n_circles(&self) -> usize {
        self.snap.n_circles()
    }

    /// Live facilities as `(id, location)`; ids are stable across
    /// edits.
    pub fn facilities(&self) -> Vec<(u32, Point)> {
        self.snap.facilities().collect()
    }

    /// Number of live facilities (0 for monochromatic maps).
    pub fn n_facilities(&self) -> usize {
        self.snap.n_facilities()
    }

    /// How many geometry-changing edits separate this session's
    /// snapshot from the dataset root.
    pub fn generation(&self) -> u64 {
        self.snap.generation()
    }

    /// The `k` of the RkNN influence model (1 = plain RNN).
    pub fn k(&self) -> usize {
        self.snap.k()
    }

    /// An *instant* coarse image of the viewport, built purely from
    /// already-cached tiles; never renders and never waits on another
    /// session's in-flight renders. `Preview::resolved` reports the
    /// fraction of pixels already exact (0.0 on a fully cold cache,
    /// with the raster filled by the measure's empty-set influence).
    pub fn viewport_preview(&self, rect: Rect, px_w: usize, px_h: usize) -> Preview {
        let scheme = self.shared.scheme(&self.snap);
        let view = scheme.viewport(rect, px_w, px_h);
        view.preview(
            scheme,
            &self.shared.cache,
            self.snap.fingerprint(),
            self.shared.measure_key,
            self.shared.measure.influence(&[]),
        )
    }

    // ---- facility placement ----------------------------------------------

    /// The `m` best regions to place a hypothetical new facility
    /// (MaxBRkNN top-m), most influential first, each carrying its
    /// input-space geometry for overlay rendering: exactly
    /// [`PlacementQuery::top_placements`]. A pure function of the
    /// snapshot fingerprint and the measure, so it reads through the
    /// snapshot's region-answer memo
    /// ([`ArrangementSnapshot::top_placements`]): the first ask of an
    /// `m` on a snapshot sweeps (concurrent first asks wait for that
    /// one sweep), and every later ask from any session or fork on
    /// that snapshot copies the answer.
    pub fn top_placements(&self, m: usize) -> Vec<PlacementRegion> {
        self.snap.top_placements(&self.shared.measure, self.shared.measure_key, m)
    }

    /// Where should facility `facility` move? Evaluates a tentative
    /// incremental removal plus the best re-insertion; the session's
    /// own snapshot is untouched (commit with
    /// [`Session::move_facility`] if the gain convinces).
    pub fn best_relocation(&self, facility: u32) -> Result<Relocation, EditError> {
        PlacementQuery::new(&self.snap, &self.shared.measure).best_relocation(facility)
    }

    /// Greedily places up to `count` new facilities, committing each
    /// accepted candidate through the session's edit path (so cached
    /// tiles propagate incrementally). Stops early when no candidate
    /// satisfies `constraints`.
    pub fn greedy_place(
        &mut self,
        count: usize,
        constraints: &PlacementConstraints,
    ) -> Result<Vec<GreedyStep>, EditError> {
        let mut steps: Vec<GreedyStep> = Vec::new();
        for _ in 0..count {
            let best = PlacementQuery::new(&self.snap, &self.shared.measure)
                .top_placements_in(1, constraints)
                .into_iter()
                .next();
            let Some(best) = best else { break };
            let (facility, _dirty) = self.add_facility(best.point)?;
            steps.push(GreedyStep { facility, chosen: best });
        }
        Ok(steps)
    }

    // ---- what-if editing -------------------------------------------------

    /// Adds a facility at `p`, committing a new snapshot for this
    /// session only. Returns the facility's id and the dirty region
    /// (everything outside it provably kept its influence).
    pub fn add_facility(&mut self, p: Point) -> Result<(u32, DirtyRegion), EditError> {
        let (next, id, outcome) = self.snap.insert_facility(p)?;
        self.finish_edit(next, &outcome);
        Ok((id, outcome.dirty))
    }

    /// Removes facility `id`; its clients re-resolve their NN. See
    /// [`Session::add_facility`] for the commit semantics.
    pub fn remove_facility(&mut self, id: u32) -> Result<DirtyRegion, EditError> {
        let (next, outcome) = self.snap.remove_facility(id)?;
        self.finish_edit(next, &outcome);
        Ok(outcome.dirty)
    }

    /// Moves facility `id` to `to` (remove + insert in one pass). See
    /// [`Session::add_facility`] for the commit semantics.
    pub fn move_facility(&mut self, id: u32, to: Point) -> Result<DirtyRegion, EditError> {
        let (next, outcome) = self.snap.move_facility(id, to)?;
        self.finish_edit(next, &outcome);
        Ok(outcome.dirty)
    }

    /// Commits an edit's successor snapshot and propagates derived
    /// state: the session's label list resets (the successor's region
    /// memo starts empty too, so the next region query re-sweeps), and
    /// the shared tile cache carries the parent's clean tiles over to
    /// the new fingerprint — *moving* them when this session was the
    /// old snapshot's sole user, *aliasing* them (old entries stay,
    /// for the forks still serving the parent) otherwise. A geometric
    /// no-op keeps the fingerprint, the tiles, the label list and the
    /// snapshot's region memo.
    fn finish_edit(&mut self, next: ArrangementSnapshot, outcome: &EditOutcome) {
        let next = Arc::new(next);
        self.shared.register(&next);
        let old = std::mem::replace(&mut self.snap, next);
        if outcome.dirty.is_empty() {
            // Geometric no-op: same fingerprint, same tiles, same
            // regions — only the facility bookkeeping changed.
            return;
        }
        *self.regions.get_mut().unwrap_or_else(|e| e.into_inner()) = None;
        // Tiles only exist once some session initialized the tile
        // scheme; before that there is nothing to propagate (and the
        // scheme stays free to snap to a later, post-edit extent).
        let Some(scheme) = self.shared.scheme.get() else {
            return;
        };
        // `old` is the only strong ref left iff no other session, fork
        // or engine handle still serves the parent snapshot.
        let exclusive = Arc::strong_count(&old) == 1;
        if exclusive {
            self.shared.cache.invalidate_region(
                old.fingerprint(),
                self.snap.fingerprint(),
                scheme,
                &outcome.dirty,
            );
        } else {
            self.shared.cache.alias_region(
                old.fingerprint(),
                self.snap.fingerprint(),
                scheme,
                &outcome.dirty,
            );
        }
        self.propagate_lod(&old, outcome, exclusive);
    }

    /// Carries the parent snapshot's LoD pyramid over an edit as a
    /// *lazy patch recipe* (see [`LodState`]): the ancestor pyramid
    /// plus the accumulated dirty region. The actual re-rendering
    /// happens on the next coarse-tile request. When this session was
    /// the parent's sole user, the parent's entry is dropped.
    fn propagate_lod(
        &self,
        old: &Arc<ArrangementSnapshot>,
        outcome: &EditOutcome,
        exclusive: bool,
    ) {
        if self.shared.lod_exact_zoom.is_none() {
            return;
        }
        let mut lod = self.shared.lod.lock().unwrap_or_else(|e| e.into_inner());
        let parent = match lod.get(&old.fingerprint()) {
            Some(LodState::Ready(m)) => Some((m.clone(), DirtyRegion::new())),
            Some(LodState::Patch { ancestor, dirty }) => Some((ancestor.clone(), dirty.clone())),
            None => None,
        };
        if exclusive {
            lod.remove(&old.fingerprint());
        }
        let Some((ancestor, mut dirty)) = parent else {
            return;
        };
        dirty.merge(&outcome.dirty);
        lod.insert(self.snap.fingerprint(), LodState::Patch { ancestor, dirty });
    }
}

/// The outcome of a deadline-bounded viewport render
/// ([`Session::viewport_deadline`]): either the exact frame, or — when
/// the budget ran out with covering tiles still unrendered — a coarse
/// cache-only [`Preview`] in its place. The serving layer maps this to
/// "exact response" vs "degraded response + `resolved` header".
pub enum ViewportFrame {
    /// Every covering tile rendered (or was already cached) within the
    /// deadline; the raster is bit-identical to an undeadlined
    /// [`Session::viewport`] of the same request.
    Exact(HeatRaster),
    /// The deadline expired first. The preview is built purely from
    /// already-cached tiles (coarse parents where the exact tile is
    /// missing), with [`Preview::resolved`] reporting the exact-pixel
    /// fraction. Tiles that *did* render before the deadline stayed
    /// cached, so retries converge toward `Exact`.
    Degraded(Preview),
    /// The viewport resolved to a zoom coarser than the engine's LoD
    /// exact-zoom threshold and was served from the mipmap pyramid:
    /// every pixel lies within the closed min/max envelope of the
    /// exact base pixels it summarizes, and `error_bound` is the
    /// largest measured `max − min` across the covering tiles. Unlike
    /// [`ViewportFrame::Degraded`], this is a *complete, intentional*
    /// answer — it must be labeled approximate (no strong validator),
    /// never retried toward exactness at this zoom.
    Approx {
        /// The stitched approximate raster.
        raster: HeatRaster,
        /// Largest measured per-pixel deviation across the tiles.
        error_bound: f64,
    },
}

/// One tile plus its exact/approximate labeling — the LoD-aware tile
/// endpoint's response ([`Session::tile_lod`]).
pub struct TileFrame {
    /// The tile's pixels.
    pub raster: Arc<HeatRaster>,
    /// Whether the tile came from the mipmap pyramid (zoom coarser
    /// than the LoD threshold). Approximate tiles must not carry a
    /// strong validator in HTTP responses.
    pub approx: bool,
    /// Measured worst-case deviation from the exact base pixels
    /// (0.0 for exact tiles).
    pub error_bound: f64,
}

/// A snapshot restriction plus a renderer, the per-tile render base.
struct RestrictedBase<'a, M> {
    arrangement: RestrictedArrangement,
    measure: &'a M,
}

impl<M: IncrementalMeasure + Sync> RestrictedBase<'_, M> {
    /// Restricts to the tile's extent and renders it single-band
    /// (viewports parallelize *across* tiles, not within them).
    fn render(&self, spec: GridSpec) -> HeatRaster {
        match &self.arrangement {
            RestrictedArrangement::Square(arr) => {
                let sub = arr.restrict_to(spec.extent);
                rasterize_squares_scanline_bands(&sub, self.measure, spec, 1)
            }
            RestrictedArrangement::Disk(arr) => {
                let sub = arr.restrict_to(spec.extent);
                rasterize_disks_scanline_bands(&sub, self.measure, spec, 1)
            }
        }
    }

    /// [`RestrictedBase::render`] followed by payload encoding into
    /// the compact row form (or raw pixels where that is not smaller).
    /// The encoding is lossless by construction.
    fn render_payload(&self, spec: GridSpec) -> TilePayload {
        TilePayload::encode(self.render(spec), self.measure.integral_influence())
    }
}

impl<M: IncrementalMeasure + Sync> Session<M> {
    /// Renders the heat map exactly over `spec` (input-space extent)
    /// with the row-parallel scanline rasterizer. Measures without a
    /// native [`IncrementalMeasure`] implementation render through
    /// [`rnnhm_core::measure::ExactFallback`].
    pub fn raster(&self, spec: GridSpec) -> HeatRaster {
        match self.snap.arrangement() {
            ArrangementRef::Square(arr) => rasterize_squares(arr, &self.shared.measure, spec),
            ArrangementRef::Disk(arr) => rasterize_disks(arr, &self.shared.measure, spec),
        }
    }

    /// Renders one tile batch through the shared cache
    /// (render-on-miss, single-flight across sessions). The render
    /// base restricts the snapshot's chunked geometry to the union of
    /// the missing tiles — the full arrangement is never materialized
    /// on this path.
    fn fetch_tiles(&self, ids: &[TileId]) -> Vec<std::sync::Arc<TilePayload>> {
        // Capture only what the render closures need (`&M` and the
        // snapshot), so `M: Sync` suffices — the closures never take
        // ownership of the engine state.
        let snap: &ArrangementSnapshot = &self.snap;
        let measure = &self.shared.measure;
        self.shared.cache.fetch_restricted(
            snap.fingerprint(),
            self.shared.measure_key,
            self.shared.scheme(snap),
            ids,
            |extent| RestrictedBase { arrangement: snap.restrict_to(extent), measure },
            |base, _, spec| base.render_payload(spec),
        )
    }

    /// The session's LoD pyramid for its current snapshot, resolving
    /// lazily: a ready pyramid is returned as-is; a pending patch
    /// recipe (recorded by an edit) re-renders the dirty-touched base
    /// tiles and re-averages upward; a cold miss builds the full
    /// pyramid. Only called when the engine has LoD enabled.
    fn mipmap(&self, scheme: &TileScheme, ze: u8) -> Arc<HeatMipmap> {
        let fp = self.snap.fingerprint();
        let pending = {
            let lod = self.shared.lod.lock().unwrap_or_else(|e| e.into_inner());
            match lod.get(&fp) {
                Some(LodState::Ready(m)) => return m.clone(),
                Some(LodState::Patch { ancestor, dirty }) => {
                    Some((ancestor.clone(), dirty.clone()))
                }
                None => None,
            }
        };
        // Build or patch outside the lock — both render base tiles,
        // and a concurrent session must not block on that. A racing
        // duplicate build is wasted work, never wrong (deterministic
        // renders), and first-insert wins below.
        let snap: &ArrangementSnapshot = &self.snap;
        let measure = &self.shared.measure;
        let render = |_id: TileId, spec: GridSpec| {
            RestrictedBase { arrangement: snap.restrict_to(spec.extent), measure }.render(spec)
        };
        let built = match pending {
            Some((ancestor, dirty)) => {
                let mut patched = (*ancestor).clone();
                patched.patch(scheme, dirty.rects(), render);
                Arc::new(patched)
            }
            None => Arc::new(HeatMipmap::build(scheme, ze, render)),
        };
        let mut lod = self.shared.lod.lock().unwrap_or_else(|e| e.into_inner());
        match lod.entry(fp) {
            std::collections::hash_map::Entry::Occupied(mut e) => match e.get() {
                LodState::Ready(m) => m.clone(),
                LodState::Patch { .. } => {
                    e.insert(LodState::Ready(built.clone()));
                    built
                }
            },
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(LodState::Ready(built.clone()));
                built
            }
        }
    }

    /// Fetches approximate (mipmap-served) tiles through the shared
    /// cache under the LoD measure-key namespace, so single-flight
    /// dedup, LRU accounting and edit propagation all apply to
    /// approximate tiles exactly as they do to exact ones.
    fn fetch_tiles_approx(
        &self,
        scheme: &TileScheme,
        ze: u8,
        ids: &[TileId],
    ) -> (Vec<Arc<TilePayload>>, f64) {
        let mip = self.mipmap(scheme, ze);
        let tiles = self.shared.cache.fetch(
            self.snap.fingerprint(),
            self.shared.approx_measure_key(ze),
            scheme,
            ids,
            |id, _spec| mip.tile(scheme, id),
        );
        let error_bound = ids.iter().map(|&id| mip.tile_error_bound(id)).fold(0.0f64, f64::max);
        (tiles, error_bound)
    }

    /// Renders the viewport `rect` at (at least) `px_w × px_h` pixels
    /// through the shared tile pyramid: resolves the zoom level,
    /// fetches the covering tiles — cache hits (including tiles warmed
    /// by *other* sessions on the same snapshot) are reused bitwise,
    /// misses render single-flight — and stitches them into one
    /// raster.
    ///
    /// The result is **bit-identical** to a one-shot
    /// [`Session::raster`] of the returned spec; caching and
    /// concurrency never change pixels (see
    /// `tests/concurrent_serving.rs`). This path is always exact —
    /// LoD-aware callers wanting cheap coarse zooms use
    /// [`Session::viewport_frame`].
    pub fn viewport(&self, rect: Rect, px_w: usize, px_h: usize) -> HeatRaster {
        let scheme = self.shared.scheme(&self.snap);
        let view = scheme.viewport(rect, px_w, px_h);
        let tiles = self.fetch_tiles(view.tiles());
        view.stitch(scheme, &tiles)
    }

    /// The LoD-aware viewport: resolves like [`Session::viewport`],
    /// but when the resolved zoom is coarser than the engine's
    /// exact-zoom threshold the frame is served from the mipmap
    /// pyramid as a labeled [`ViewportFrame::Approx`] — O(tile_px²)
    /// per tile regardless of dataset size. At or below the
    /// threshold (or with LoD disabled) this is exactly
    /// [`ViewportFrame::Exact`] of [`Session::viewport`].
    pub fn viewport_frame(&self, rect: Rect, px_w: usize, px_h: usize) -> ViewportFrame {
        let scheme = self.shared.scheme(&self.snap);
        let view = scheme.viewport(rect, px_w, px_h);
        if let Some(ze) = self.shared.effective_exact_zoom(scheme) {
            if view.zoom < ze {
                let (tiles, error_bound) = self.fetch_tiles_approx(scheme, ze, view.tiles());
                return ViewportFrame::Approx { raster: view.stitch(scheme, &tiles), error_bound };
            }
        }
        let tiles = self.fetch_tiles(view.tiles());
        ViewportFrame::Exact(view.stitch(scheme, &tiles))
    }

    /// [`Session::viewport`] under a wall-clock budget: renders
    /// missing tiles only while `deadline` has not passed, and if any
    /// covering tile is still unrendered at the deadline, **degrades**
    /// to a cache-only preview instead of blocking — the
    /// admission-to-degradation pipeline the HTTP server serves
    /// viewports through. Partial work is kept (rendered tiles stay
    /// cached), so repeated degraded requests resolve progressively
    /// more of the frame.
    pub fn viewport_deadline(
        &self,
        rect: Rect,
        px_w: usize,
        px_h: usize,
        deadline: Instant,
    ) -> ViewportFrame {
        let scheme = self.shared.scheme(&self.snap);
        let view = scheme.viewport(rect, px_w, px_h);
        if let Some(ze) = self.shared.effective_exact_zoom(scheme) {
            if view.zoom < ze {
                // Above the exact-zoom threshold the answer comes from
                // the pyramid: per-tile work is a blit, far below any
                // sane deadline, so the budget is not consulted. (The
                // one-time pyramid build on a cold snapshot can exceed
                // it; that cost amortizes over every later coarse
                // frame, exactly like a cold cache fill.)
                let (tiles, error_bound) = self.fetch_tiles_approx(scheme, ze, view.tiles());
                return ViewportFrame::Approx { raster: view.stitch(scheme, &tiles), error_bound };
            }
        }
        let snap: &ArrangementSnapshot = &self.snap;
        let measure = &self.shared.measure;
        let tiles = self.shared.cache.fetch_restricted_deadline(
            snap.fingerprint(),
            self.shared.measure_key,
            scheme,
            view.tiles(),
            deadline,
            |extent| RestrictedBase { arrangement: snap.restrict_to(extent), measure },
            |base, _, spec| base.render_payload(spec),
        );
        match tiles {
            Some(tiles) => ViewportFrame::Exact(view.stitch(scheme, &tiles)),
            None => ViewportFrame::Degraded(view.preview(
                scheme,
                &self.shared.cache,
                snap.fingerprint(),
                self.shared.measure_key,
                measure.influence(&[]),
            )),
        }
    }

    /// Renders (or fetches) one tile of the session's pyramid through
    /// the shared cache — the HTTP tile endpoint. `id` must address a
    /// tile of [`Session::tile_scheme`] (`zoom ≤ max_zoom`, `tx, ty <
    /// n_tiles(zoom)`); out-of-range ids are a caller bug (the server
    /// validates before calling).
    pub fn tile(&self, id: TileId) -> Arc<HeatRaster> {
        let payload = self.fetch_tiles(&[id]).pop().expect("one tile in, one raster out");
        Arc::new(payload.to_raster())
    }

    /// The LoD-aware tile endpoint: tiles at a zoom coarser than the
    /// engine's exact-zoom threshold come from the mipmap pyramid and
    /// are labeled approximate (with their measured error bound);
    /// everything else is [`Session::tile`], exact and bit-stable.
    pub fn tile_lod(&self, id: TileId) -> TileFrame {
        let scheme = self.shared.scheme(&self.snap);
        if let Some(ze) = self.shared.effective_exact_zoom(scheme) {
            if id.zoom < ze {
                let (tiles, error_bound) = self.fetch_tiles_approx(scheme, ze, &[id]);
                let tile = tiles.into_iter().next().expect("one tile in, one raster out");
                return TileFrame { raster: Arc::new(tile.to_raster()), approx: true, error_bound };
            }
        }
        TileFrame { raster: self.tile(id), approx: false, error_bound: 0.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HeatMapBuilder;
    use rnnhm_core::measure::CountMeasure;

    /// A dropped branch takes its LoD pyramid with it: both registry
    /// prunes (the periodic one in `register` and `gc()`) drop every
    /// `lod` entry whose fingerprint no live snapshot has.
    #[test]
    fn lod_entries_die_with_their_snapshots() {
        let span = Rect::new(0.0, 10.0, 0.0, 10.0);
        let (clients, facilities) =
            (rnnhm_data::uniform(350, span, 11), rnnhm_data::uniform(45, span, 13));
        let engine = HeatMapBuilder::bichromatic(clients, facilities)
            .metric(rnnhm_geom::Metric::Linf)
            .tile_px(16)
            .lod_exact_zoom(2)
            .build_engine(CountMeasure)
            .expect("valid instance");
        let coarse = TileId { zoom: 0, tx: 0, ty: 0 };
        let root = engine.session();
        assert!(root.tile_lod(coarse).approx, "zoom 0 is served from the pyramid");
        let lod_fps = || engine.shared.lod.lock().unwrap().keys().copied().collect::<Vec<u64>>();
        // Five forks each edit, serve a coarse tile and die.
        let dead_forks = |seed: u64| -> Vec<u64> {
            rnnhm_data::uniform(5, span, seed)
                .into_iter()
                .map(|site| {
                    let mut fork = root.fork();
                    fork.add_facility(site).expect("bichromatic");
                    assert!(fork.tile_lod(coarse).approx);
                    fork.fingerprint()
                })
                .collect()
        };

        let dead = dead_forks(17);
        assert_eq!(lod_fps().len(), 6, "the root's pyramid plus five dead forks'");
        // Commit past the prune cadence on one editor: the periodic
        // prune in `register` drops the dead forks' pyramids.
        let mut editor = root.fork();
        for i in 0..REGISTRY_PRUNE_EVERY {
            editor.add_facility(Point::new(5.0 + 0.01 * i as f64, 5.0)).expect("bichromatic");
        }
        let held = lod_fps();
        assert!(dead.iter().all(|fp| !held.contains(fp)), "periodic prune left {held:?}");

        let dead = dead_forks(19);
        assert!(dead.iter().all(|fp| lod_fps().contains(fp)));
        drop(editor);
        let stats = engine.gc();
        assert_eq!(stats.live, 1, "only the root is alive: {stats:?}");
        assert_eq!(lod_fps(), vec![root.fingerprint()], "gc() keeps only the root's pyramid");
    }
}
