//! High-level API: build an RNN heat map in one expression, explore it,
//! and edit it interactively.
//!
//! The low-level crates expose the paper's machinery (arrangements,
//! sweeps, sinks); this module wraps the common path — *points in,
//! explorable heat map out* — for downstream users:
//!
//! ```
//! use rnn_heatmap::HeatMapBuilder;
//! use rnn_heatmap::prelude::*;
//!
//! let clients = vec![Point::new(0.0, 0.0), Point::new(2.0, 1.0), Point::new(1.0, 3.0)];
//! let facilities = vec![Point::new(1.0, 1.0)];
//! let map = HeatMapBuilder::bichromatic(clients, facilities)
//!     .metric(Metric::L2)
//!     .build(CountMeasure)
//!     .expect("non-empty input");
//!
//! let best = map.max_region().expect("some region exists");
//! assert!(best.influence >= 1.0);
//! // Scoring the winning region's own witness point reproduces its label.
//! let (rnn, influence) = map.influence_at(map.region_center(&best));
//! assert_eq!(influence, best.influence);
//! assert_eq!(rnn.len(), best.rnn.len());
//! ```
//!
//! ## What-if editing
//!
//! Bichromatic maps stay *live* under facility edits
//! ([`Session::add_facility`] / [`Session::remove_facility`] /
//! [`Session::move_facility`]): each edit commits a successor snapshot
//! (`rnnhm_core::snapshot`), cached viewport tiles outside the returned
//! [`DirtyRegion`](rnnhm_core::edit::DirtyRegion) survive the edit, and
//! region answers reset: the next region query re-sweeps the edited
//! arrangement (top-k straight into a bounded sink). See
//! `examples/what_if.rs` for a walkthrough.
//!
//! ```
//! use rnn_heatmap::HeatMapBuilder;
//! use rnn_heatmap::prelude::*;
//!
//! let clients = vec![Point::new(0.0, 0.0), Point::new(2.0, 1.0), Point::new(1.0, 3.0)];
//! let mut map = HeatMapBuilder::bichromatic(clients, vec![Point::new(1.0, 1.0)])
//!     .build(CountMeasure)
//!     .expect("non-empty input");
//! // What if we open a store at (0.2, 0.2)? The client at the origin
//! // defects to it; only that neighborhood is dirtied.
//! let (id, dirty) = map.add_facility(Point::new(0.2, 0.2)).unwrap();
//! assert!(!dirty.is_empty());
//! assert_eq!(map.influence_at(Point::new(0.2, 0.2)).1, 1.0);
//! // Undo: removing it restores the original influence field.
//! map.remove_facility(id).unwrap();
//! assert_eq!(map.n_facilities(), 1);
//! ```
//!
//! ## Concurrent sessions
//!
//! [`HeatMapBuilder::build`] returns one user's heat map: a [`Session`]
//! of an [`ExplorationEngine`] whose handle is dropped. To serve many
//! analysts (shared warm tiles, `O(1)` forks, divergent what-if
//! branches, lock-free snapshot reads), build the engine directly with
//! [`HeatMapBuilder::build_engine`]; see `crate::engine` and
//! `examples/concurrent_sessions.rs`.

use rnnhm_core::measure::InfluenceMeasure;
use rnnhm_core::snapshot::ArrangementSnapshot;
use rnnhm_core::{BuildError, Mode};
use rnnhm_geom::{Metric, Point};

use crate::engine::{ExplorationEngine, Session};

/// Default byte budget of a heat map's tile cache (64 MiB — about
/// 4,700 of `pan_zoom`'s ~14 KB count tiles, spread over the cache's
/// hash shards).
const DEFAULT_TILE_CACHE_BYTES: usize = 64 << 20;

/// Default tile edge in pixels (the web-map convention).
const DEFAULT_TILE_PX: usize = 256;

/// Configures and builds a [`Session`] (one user) or an
/// [`ExplorationEngine`] (many concurrent sessions).
#[derive(Debug, Clone)]
pub struct HeatMapBuilder {
    clients: Vec<Point>,
    facilities: Vec<Point>,
    metric: Metric,
    mode: Mode,
    k: usize,
    tile_px: usize,
    tile_cache_bytes: usize,
    shards: Option<usize>,
    lod_exact_zoom: Option<u8>,
}

impl HeatMapBuilder {
    /// Clients and facilities are distinct sets (the common case).
    pub fn bichromatic(clients: Vec<Point>, facilities: Vec<Point>) -> Self {
        HeatMapBuilder {
            clients,
            facilities,
            metric: Metric::L2,
            mode: Mode::Bichromatic,
            k: 1,
            tile_px: DEFAULT_TILE_PX,
            tile_cache_bytes: DEFAULT_TILE_CACHE_BYTES,
            shards: None,
            lod_exact_zoom: None,
        }
    }

    /// One point set; every point's NN excludes itself (paper §VII-A).
    /// Monochromatic maps have no facility set, so they reject the
    /// what-if edit operations.
    pub fn monochromatic(points: Vec<Point>) -> Self {
        HeatMapBuilder {
            facilities: Vec::new(),
            mode: Mode::Monochromatic,
            ..Self::bichromatic(points, Vec::new())
        }
    }

    /// Distance metric (default: L2).
    pub fn metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// The `k` of the RkNN influence model (default 1, plain RNN): a
    /// client is influenced by a facility placed at `q` iff `q` would
    /// be among its `k` nearest facilities, so every NN-circle radius
    /// becomes the distance to the client's `k`-th nearest facility.
    ///
    /// Validated by [`HeatMapBuilder::build`]: `k = 0` fails with
    /// [`BuildError::ZeroK`], and a `k` exceeding the facility count
    /// (bichromatic) or the point count minus one (monochromatic) fails
    /// with [`BuildError::KTooLarge`].
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Tile edge in pixels for the viewport tile pyramid (default 256).
    ///
    /// # Panics
    /// Panics immediately unless `tile_px` is a power of two ≥ 8 —
    /// here, at the configuration site, rather than on the first
    /// (possibly much later) viewport call.
    pub fn tile_px(mut self, tile_px: usize) -> Self {
        assert!(tile_px.is_power_of_two() && tile_px >= 8, "tile_px must be a power of two >= 8");
        self.tile_px = tile_px;
        self
    }

    /// Byte budget of the heat map's tile cache (default 64 MiB).
    pub fn tile_cache_bytes(mut self, bytes: usize) -> Self {
        self.tile_cache_bytes = bytes;
        self
    }

    /// Partitions the arrangement into `n` vertical shards (default:
    /// unsharded). Shards build their summaries independently (and in
    /// parallel on multi-core hosts), edits re-summarize only the
    /// shards their dirty region touches, and viewport tile renders
    /// route to the shards overlapping the window — per-tile cost
    /// becomes O(shard), the enabler for millions-of-points datasets.
    /// Every rendered pixel stays **bit-identical** to the unsharded
    /// engine; only the snapshot fingerprint differs (it composes the
    /// per-shard fingerprints).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn shards(mut self, n: usize) -> Self {
        assert!(n > 0, "shard count must be positive");
        self.shards = Some(n);
        self
    }

    /// Serves tiles at `zoom < ze` *approximately* from a
    /// level-of-detail mipmap pyramid (default: off, every tile
    /// exact). The pyramid's base is the exact zoom-`ze` rendering;
    /// coarser tiles are 2×2 averages carrying a measured error bound
    /// and are labeled approximate end to end (engine frames, HTTP
    /// headers). Tiles at `zoom >= ze` are untouched — bit-identical
    /// to an engine without LoD. See `rnnhm_heatmap::mipmap`.
    pub fn lod_exact_zoom(mut self, ze: u8) -> Self {
        self.lod_exact_zoom = Some(ze);
        self
    }

    /// Builds the NN-circle arrangement (kept editable) under `measure`
    /// as a single-user [`Session`]. The engine handle is dropped, so
    /// the session is its snapshots' sole user and edits *move* clean
    /// cached tiles to the new fingerprint (nobody else could be
    /// reading them).
    ///
    /// Region labeling (the CREST sweep) is *lazy*: it runs on the
    /// first call to [`Session::regions`] / [`Session::top_k`] /
    /// [`Session::max_region`] / [`Session::at_least`] /
    /// [`Session::stats`], so maps built purely for rendering or
    /// editing never pay for it.
    pub fn build<M: InfluenceMeasure>(self, measure: M) -> Result<Session<M>, BuildError> {
        Ok(self.build_engine(measure)?.into_session())
    }

    /// Builds a concurrent [`ExplorationEngine`] under `measure`: one
    /// shared dataset + tile cache, any number of snapshot-isolated
    /// [`Session`]s forked from it. See `crate::engine`.
    pub fn build_engine<M: InfluenceMeasure>(
        self,
        measure: M,
    ) -> Result<ExplorationEngine<M>, BuildError> {
        let snapshot = ArrangementSnapshot::build_k(
            self.clients,
            self.facilities,
            self.metric,
            self.mode,
            self.k,
        )?;
        let snapshot = match self.shards {
            Some(n) => snapshot.with_shards(n),
            None => snapshot,
        };
        Ok(ExplorationEngine::assemble(
            snapshot,
            measure,
            self.tile_px,
            self.tile_cache_bytes,
            self.lod_exact_zoom,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnnhm_core::edit::EditError;
    use rnnhm_core::measure::CountMeasure;
    use rnnhm_geom::Rect;
    use rnnhm_heatmap::raster::GridSpec;

    fn toy() -> (Vec<Point>, Vec<Point>) {
        (
            vec![
                Point::new(0.0, 0.0),
                Point::new(2.0, 1.0),
                Point::new(1.0, 3.0),
                Point::new(4.0, 4.0),
            ],
            vec![Point::new(1.0, 1.0)],
        )
    }

    #[test]
    fn build_and_explore_all_metrics() {
        let (clients, facilities) = toy();
        for metric in Metric::ALL {
            let map = HeatMapBuilder::bichromatic(clients.clone(), facilities.clone())
                .metric(metric)
                .build(CountMeasure)
                .unwrap();
            assert!(map.stats().labels > 0, "{metric:?}");
            let best = map.max_region().unwrap();
            assert!(best.influence >= 1.0);
            // The most influential region's witness scores its own label.
            let at = map.influence_at(map.region_center(&best));
            assert_eq!(at.1, best.influence, "{metric:?}");
            // Thresholding at the max returns regions at the max.
            let top = map.at_least(best.influence);
            assert!(!top.is_empty());
            assert!(top.iter().all(|r| r.influence == best.influence));
        }
    }

    #[test]
    fn monochromatic_build() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.5),
            Point::new(5.0, 5.0),
        ];
        let mut map =
            HeatMapBuilder::monochromatic(pts).metric(Metric::Linf).build(CountMeasure).unwrap();
        assert!(map.n_circles() > 0);
        assert!(map.max_region().is_some());
        assert_eq!(map.n_facilities(), 0);
        assert_eq!(
            map.add_facility(Point::new(0.5, 0.5)).unwrap_err(),
            EditError::ImmutableMode,
            "monochromatic maps have no editable facilities"
        );
    }

    #[test]
    fn raster_respects_extent() {
        let (clients, facilities) = toy();
        let map = HeatMapBuilder::bichromatic(clients, facilities)
            .metric(Metric::L1)
            .build(CountMeasure)
            .unwrap();
        let spec = GridSpec::new(32, 32, Rect::new(-1.0, 5.0, -1.0, 5.0));
        let raster = map.raster(spec);
        let (lo, hi) = raster.min_max();
        assert!(lo >= 0.0);
        assert!(hi >= 1.0, "some pixel must see influence");
    }

    #[test]
    fn viewport_matches_one_shot_raster_and_caches() {
        let (clients, facilities) = toy();
        for metric in Metric::ALL {
            let map = HeatMapBuilder::bichromatic(clients.clone(), facilities.clone())
                .metric(metric)
                .tile_px(16)
                .build(CountMeasure)
                .unwrap();
            let rect = Rect::new(0.5, 3.5, 0.2, 3.8);
            let stitched = map.viewport(rect, 50, 60);
            assert!(stitched.spec.extent.contains_rect(&rect), "{metric:?}");
            assert!(stitched.spec.width >= 50 && stitched.spec.height >= 60);
            // Bit-identity with a one-shot render of the same spec.
            let one_shot = map.raster(stitched.spec);
            for (a, b) in stitched.values().iter().zip(one_shot.values()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{metric:?}");
            }
            // A repeat of the same viewport is served from the cache.
            let cold = map.cache_stats();
            assert_eq!(cold.hits, 0);
            assert!(cold.misses > 0 && cold.entries > 0);
            let again = map.viewport(rect, 50, 60);
            assert_eq!(again.values(), stitched.values());
            let warm = map.cache_stats();
            assert_eq!(warm.misses, cold.misses, "no new renders on a warm pan");
            assert_eq!(warm.hits as usize, cold.entries);
        }
    }

    #[test]
    fn preview_becomes_exact_after_render() {
        let (clients, facilities) = toy();
        let map = HeatMapBuilder::bichromatic(clients, facilities)
            .tile_px(16)
            .build(CountMeasure)
            .unwrap();
        let rect = Rect::new(0.0, 4.0, 0.0, 4.0);
        // Nothing cached yet: the preview is instant but unresolved —
        // `resolved == 0.0` and a well-formed raster entirely at the
        // measure's empty-set influence (0 for the count measure).
        let before = map.viewport_preview(rect, 40, 40);
        assert_eq!(before.resolved, 0.0);
        assert_eq!(
            before.raster.values().len(),
            before.raster.spec.width * before.raster.spec.height
        );
        assert!(before.raster.values().iter().all(|&v| v == 0.0), "cold preview is zeroed");
        let exact = map.viewport(rect, 40, 40);
        let after = map.viewport_preview(rect, 40, 40);
        assert_eq!(after.resolved, 1.0, "all tiles cached now");
        assert_eq!(after.raster.values(), exact.values());
    }

    #[test]
    fn empty_input_errors() {
        let err = match HeatMapBuilder::bichromatic(vec![], vec![Point::new(0.0, 0.0)])
            .build(CountMeasure)
        {
            Err(e) => e,
            Ok(_) => panic!("empty client set must fail"),
        };
        assert_eq!(err, BuildError::NoClients);
    }

    #[test]
    fn edits_update_queries_and_errors_are_reported() {
        let (clients, facilities) = toy();
        let mut map = HeatMapBuilder::bichromatic(clients, facilities)
            .metric(Metric::Linf)
            .build(CountMeasure)
            .unwrap();
        // A facility on top of a far client serves exactly that client.
        let before = map.influence_at(Point::new(4.0, 4.0)).1;
        assert!(before >= 1.0);
        let (id, dirty) = map.add_facility(Point::new(4.0, 4.0)).unwrap();
        assert!(!dirty.is_empty());
        assert_eq!(map.n_facilities(), 2);
        assert_eq!(
            map.influence_at(Point::new(4.0, 4.0)).1,
            0.0,
            "the client now sits on its facility: zero NN-circle"
        );
        assert_eq!(map.remove_facility(99).unwrap_err(), EditError::UnknownFacility);
        map.remove_facility(id).unwrap();
        assert_eq!(map.influence_at(Point::new(4.0, 4.0)).1, before, "edit undone exactly");
        let last = map.facilities()[0].0;
        assert_eq!(map.remove_facility(last).unwrap_err(), EditError::TooFewFacilities);
    }

    #[test]
    fn k_is_validated_and_flows_through() {
        let (clients, facilities) = toy(); // 4 clients, 1 facility
        assert_eq!(
            HeatMapBuilder::bichromatic(clients.clone(), facilities.clone())
                .k(0)
                .build(CountMeasure)
                .err(),
            Some(BuildError::ZeroK)
        );
        assert_eq!(
            HeatMapBuilder::bichromatic(clients.clone(), facilities.clone())
                .k(2)
                .build(CountMeasure)
                .err(),
            Some(BuildError::KTooLarge { k: 2, available: 1 })
        );
        // Monochromatic: k up to n - 1.
        assert_eq!(
            HeatMapBuilder::monochromatic(clients.clone()).k(4).build(CountMeasure).err(),
            Some(BuildError::KTooLarge { k: 4, available: 3 })
        );
        let mono = HeatMapBuilder::monochromatic(clients.clone()).k(3).build(CountMeasure).unwrap();
        assert_eq!(mono.k(), 3);
        assert!(mono.max_region().is_some());
        // A valid bichromatic k = 2 map: circles reach the 2nd NN, so
        // influence at any client is at least as high as at k = 1.
        let mut facs2 = facilities.clone();
        facs2.push(Point::new(3.0, 3.0));
        let k1 = HeatMapBuilder::bichromatic(clients.clone(), facs2.clone())
            .metric(Metric::Linf)
            .build(CountMeasure)
            .unwrap();
        let k2 = HeatMapBuilder::bichromatic(clients, facs2)
            .metric(Metric::Linf)
            .k(2)
            .build(CountMeasure)
            .unwrap();
        assert_eq!(k2.k(), 2);
        for q in [Point::new(0.0, 0.0), Point::new(2.0, 1.0), Point::new(1.0, 3.0)] {
            assert!(k2.influence_at(q).1 >= k1.influence_at(q).1, "k-NN circles nest at {q:?}");
        }
    }

    #[test]
    fn non_finite_facade_inputs_are_rejected() {
        let (clients, facilities) = toy();
        let bad = Point { x: f64::NAN, y: 1.0 };
        let mut with_bad_fac = facilities.clone();
        with_bad_fac.push(bad);
        assert_eq!(
            HeatMapBuilder::bichromatic(clients.clone(), with_bad_fac).build(CountMeasure).err(),
            Some(BuildError::NonFiniteFacility(1))
        );
        let mut with_bad_client = clients.clone();
        with_bad_client.insert(0, Point { x: 0.0, y: f64::NEG_INFINITY });
        assert_eq!(
            HeatMapBuilder::bichromatic(with_bad_client, facilities.clone())
                .build(CountMeasure)
                .err(),
            Some(BuildError::NonFiniteClient(0))
        );
        // Edit targets are validated too, and a rejected edit is a
        // complete no-op.
        let mut map = HeatMapBuilder::bichromatic(clients, facilities).build(CountMeasure).unwrap();
        assert_eq!(map.add_facility(bad).unwrap_err(), EditError::NonFinitePoint);
        assert_eq!(map.move_facility(0, bad).unwrap_err(), EditError::NonFinitePoint);
        assert_eq!(map.n_facilities(), 1);
        assert_eq!(map.generation(), 0);
    }

    #[test]
    fn regions_stay_correct_across_edits() {
        // Regions computed *before* an edit must not leak past it: the
        // edit resets them, and the answers after it agree with a fresh
        // rebuild.
        let (clients, facilities) = toy();
        for metric in Metric::ALL {
            let mut map = HeatMapBuilder::bichromatic(clients.clone(), facilities.clone())
                .metric(metric)
                .build(CountMeasure)
                .unwrap();
            let _ = map.regions(); // force the lazy sweep before editing
            let (id, _) = map.add_facility(Point::new(3.0, 3.0)).unwrap();
            map.move_facility(id, Point::new(0.5, 2.5)).unwrap();
            let rebuilt = HeatMapBuilder::bichromatic(
                map.snapshot().clients().to_vec(),
                map.snapshot().facility_points(),
            )
            .metric(metric)
            .build(CountMeasure)
            .unwrap();
            let ours = map.max_region().expect("regions exist");
            let theirs = rebuilt.max_region().expect("regions exist");
            assert_eq!(ours.influence, theirs.influence, "{metric:?}: max influence diverged");
            // Every top label must score its own witness point
            // (degenerate "special rectangles" have no interior point
            // to witness — the paper's zero-height strips — so skip
            // them, as the windowed-sweep tests do).
            for r in map.top_k(10) {
                if r.rect.width() < 1e-9 || r.rect.height() < 1e-9 {
                    continue;
                }
                let (_, influence) = map.influence_at(map.region_center(&r));
                assert_eq!(influence, r.influence, "{metric:?}: stale label {r:?}");
            }
        }
    }

    #[test]
    fn edits_keep_viewports_live_and_warm() {
        let (mut clients, mut facilities) = toy();
        // A far-away neighborhood with its own facility, so near edits
        // cannot change its clients' NN distances.
        clients.push(Point::new(20.0, 20.0));
        facilities.push(Point::new(20.0, 20.5));
        let mut map = HeatMapBuilder::bichromatic(clients, facilities)
            .metric(Metric::Linf)
            .tile_px(8)
            .build(CountMeasure)
            .unwrap();
        let near = Rect::new(0.0, 4.5, 0.0, 4.5);
        let far = Rect::new(18.0, 22.0, 18.0, 22.0);
        let _ = map.viewport(near, 32, 32);
        let _ = map.viewport(far, 32, 32);
        let warm = map.cache_stats();

        // Edit inside the near viewport.
        let (_, dirty) = map.add_facility(Point::new(2.0, 2.0)).unwrap();
        assert!(dirty.rects().iter().all(|r| r.x_hi < 18.0), "edit is local to the near area");
        let stats = map.cache_stats();
        assert!(stats.invalidations > 0, "some near tiles must be invalidated");

        // The far viewport re-renders nothing: all its tiles were
        // re-keyed to the new fingerprint, not dropped.
        let misses_before = map.cache_stats().misses;
        let _ = map.viewport(far, 32, 32);
        assert_eq!(map.cache_stats().misses, misses_before, "far viewport fully warm");

        // The near viewport re-renders exactly the dirty tiles, and the
        // result is bit-identical to an uncached render of its spec.
        let view = map.tile_scheme().viewport(near, 32, 32);
        let expected_rerenders = view
            .tiles()
            .iter()
            .filter(|&&t| dirty.intersects(&map.tile_scheme().tile_extent(t)))
            .count();
        let frame = map.viewport(near, 32, 32);
        let rerenders = (map.cache_stats().misses - misses_before) as usize;
        assert_eq!(rerenders, expected_rerenders, "exactly the dirty tiles re-render");
        let one_shot = map.raster(frame.spec);
        for (a, b) in frame.values().iter().zip(one_shot.values()) {
            assert_eq!(a.to_bits(), b.to_bits(), "edited viewport must stay exact");
        }
        let _ = warm;
    }
}
