//! Property test: a viewport stitched from pyramid tiles is
//! bit-identical to a one-shot `raster()` of the same `GridSpec`
//! (ISSUE 2 acceptance).
//!
//! Random square and disk arrangements are explored through random
//! viewports — including viewports straddling tile boundaries and
//! hanging off the world extent — and every stitched pixel is compared
//! against a one-shot scanline render of the stitched raster's own
//! spec with `f64::to_bits` equality. The warm path is exercised too:
//! a second, overlapping viewport must reuse cached tiles *and* stay
//! bit-identical, proving caching never changes pixels.

use std::sync::Arc;

use proptest::prelude::*;
use rnn_heatmap::prelude::*;
use rnn_heatmap::HeatMapBuilder;
use rnnhm_core::arrangement::CoordSpace;
use rnnhm_geom::Circle;
use rnnhm_heatmap::scanline::{rasterize_disks_scanline_bands, rasterize_squares_scanline_bands};
use rnnhm_heatmap::tiles::{TileCache, TileScheme};

fn assert_bit_identical(stitched: &HeatRaster, one_shot: &HeatRaster, what: &str) {
    assert_eq!(stitched.spec, one_shot.spec, "{what}: stitched spec must be renderable one-shot");
    for row in 0..stitched.spec.height {
        for col in 0..stitched.spec.width {
            assert!(
                stitched.get(col, row).to_bits() == one_shot.get(col, row).to_bits(),
                "{what}: pixel ({col},{row}): stitched {} vs one-shot {}",
                stitched.get(col, row),
                one_shot.get(col, row)
            );
        }
    }
}

/// Squares on a coarse quarter-integer grid over [-0.5, 10.5]², sizes
/// down to zero, so edges frequently align with pixel centers and tile
/// boundaries.
fn squares_strategy(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Rect>> {
    prop::collection::vec((0u32..44, 0u32..44, 0u32..16, 0u32..16), n).prop_map(|v| {
        v.into_iter()
            .map(|(x, y, w, h)| {
                let (x, y) = (x as f64 / 4.0 - 0.5, y as f64 / 4.0 - 0.5);
                Rect::new(x, x + w as f64 / 4.0, y, y + h as f64 / 4.0)
            })
            .collect()
    })
}

fn disks_strategy(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Circle>> {
    prop::collection::vec((0u32..44, 0u32..44, 1u32..9), n).prop_map(|v| {
        v.into_iter()
            .map(|(x, y, r)| {
                Circle::new(Point::new(x as f64 / 4.0 - 0.5, y as f64 / 4.0 - 0.5), r as f64 / 4.0)
            })
            .collect()
    })
}

fn square_arrangement_of(squares: Vec<Rect>, space: CoordSpace) -> SquareArrangement {
    let owners = (0..squares.len() as u32).collect();
    let n = squares.len();
    SquareArrangement { squares, owners, space, n_clients: n.max(1), dropped: 0, k: 1 }
}

/// Viewports drawn to straddle interesting places: tile interiors,
/// tile boundaries, the world edge and beyond it.
fn viewport_strategy() -> impl Strategy<Value = (Rect, usize, usize)> {
    (-40i32..60, -40i32..60, 1u32..50, 1u32..50, 8usize..90, 8usize..90).prop_map(
        |(x, y, w, h, px_w, px_h)| {
            let (x, y) = (x as f64 / 4.0, y as f64 / 4.0);
            (Rect::new(x, x + w as f64 / 4.0, y, y + h as f64 / 4.0), px_w, px_h)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn stitched_squares_match_one_shot(
        squares in squares_strategy(0..35),
        view in viewport_strategy(),
        tile_px_pow in 3u32..6, // tiles of 8..32 px: many boundaries
    ) {
        let (rect, px_w, px_h) = view;
        let arr = square_arrangement_of(squares, CoordSpace::Identity);
        let scheme = TileScheme::for_extent(
            arr.bbox().unwrap_or(Rect::new(0.0, 10.0, 0.0, 10.0)),
            1 << tile_px_pow,
        );
        let cache = TileCache::new(64 << 20);
        let measure = CountMeasure;
        let view = scheme.viewport(rect, px_w, px_h);
        // Tiles render the *restricted* sub-arrangement, as production
        // does — this property-tests the filter's exactness contract.
        let stitched = view.render(&scheme, &cache, arr.fingerprint(), measure.cache_key(),
            |_, spec: GridSpec| {
                let sub = arr.restrict_to(spec.extent);
                rasterize_squares_scanline_bands(&sub, &measure, spec, 1)
            });
        let one_shot = rasterize_squares_scanline_bands(&arr, &measure, stitched.spec, 1);
        assert_bit_identical(&stitched, &one_shot, "squares");
    }

    #[test]
    fn stitched_disks_match_one_shot_and_warm_pans_stay_exact(
        disks in disks_strategy(0..30),
        view in viewport_strategy(),
        pan_px in 0i32..40,
    ) {
        let (rect, px_w, px_h) = view;
        let owners = (0..disks.len() as u32).collect();
        let n = disks.len().max(1);
        let arr = DiskArrangement { disks, owners, n_clients: n, dropped: 0, k: 1 };
        let scheme = TileScheme::for_extent(
            arr.bbox().unwrap_or(Rect::new(0.0, 10.0, 0.0, 10.0)),
            16,
        );
        let cache = TileCache::new(64 << 20);
        let measure = WeightedMeasure::new((0..n).map(|i| (i % 7) as f64 * 0.5).collect());
        let render = |_, spec: GridSpec| {
            let sub = arr.restrict_to(spec.extent);
            rasterize_disks_scanline_bands(&sub, &measure, spec, 1)
        };
        let keys = (arr.fingerprint(), measure.cache_key());

        let view = scheme.viewport(rect, px_w, px_h);
        let stitched = view.render(&scheme, &cache, keys.0, keys.1, render);
        let one_shot = rasterize_disks_scanline_bands(&arr, &measure, stitched.spec, 1);
        assert_bit_identical(&stitched, &one_shot, "disks cold");

        // Pan: an overlapping viewport served partly from the cache
        // must be just as exact as a cold render of its own spec.
        let shift = pan_px as f64 * 0.1;
        let panned = Rect::new(rect.x_lo + shift, rect.x_hi + shift, rect.y_lo, rect.y_hi);
        let view2 = scheme.viewport(panned, px_w, px_h);
        let hits_before = cache.stats().hits;
        let stitched2 = view2.render(&scheme, &cache, keys.0, keys.1, render);
        let one_shot2 = rasterize_disks_scanline_bands(&arr, &measure, stitched2.spec, 1);
        assert_bit_identical(&stitched2, &one_shot2, "disks warm");
        if view2.tiles().iter().any(|t| view.tiles().contains(t)) {
            prop_assert!(cache.stats().hits > hits_before, "overlap must hit the cache");
        }
    }

    #[test]
    fn facade_viewport_matches_raster_for_all_metrics(
        pts in prop::collection::vec((0u32..40, 0u32..40), 3..30),
        view in viewport_strategy(),
    ) {
        let (rect, px_w, px_h) = view;
        // End-to-end through HeatMapBuilder: real NN-circles, every
        // metric (L1 exercises the rotated-frame path), tiles vs the
        // public one-shot raster() of the stitched spec.
        let points: Vec<Point> =
            pts.iter().map(|&(x, y)| Point::new(x as f64 / 4.0, y as f64 / 4.0)).collect();
        let (clients, facilities) = points.split_at(points.len() - 1);
        for metric in Metric::ALL {
            let map = match HeatMapBuilder::bichromatic(clients.to_vec(), facilities.to_vec())
                .metric(metric)
                .tile_px(16)
                .build(CountMeasure)
            {
                Ok(m) => m,
                Err(_) => continue, // e.g. every client coincides with the facility
            };
            let stitched = map.viewport(rect, px_w, px_h);
            let one_shot = map.raster(stitched.spec);
            assert_bit_identical(&stitched, &one_shot, "facade");
        }
    }
}

#[test]
fn viewport_straddling_world_corner_is_exact() {
    // A viewport hanging off the world's south-west corner: the window
    // clamps to the world and must still match the one-shot render.
    let squares = vec![
        Rect::new(0.0, 2.0, 0.0, 2.0),
        Rect::new(1.5, 4.0, 0.5, 3.0),
        Rect::new(0.0, 9.0, 0.0, 9.0),
    ];
    let arr = square_arrangement_of(squares, CoordSpace::Identity);
    let scheme = TileScheme::for_extent(arr.bbox().unwrap(), 16);
    let cache = TileCache::new(16 << 20);
    let view = scheme.viewport(Rect::new(-30.0, 1.0, -30.0, 1.0), 64, 64);
    let stitched =
        view.render(&scheme, &cache, arr.fingerprint(), CountMeasure.cache_key(), |_, spec| {
            rasterize_squares_scanline_bands(&arr, &CountMeasure, spec, 1)
        });
    assert!(scheme.world().contains_rect(&stitched.spec.extent));
    let one_shot = rasterize_squares_scanline_bands(&arr, &CountMeasure, stitched.spec, 1);
    assert_bit_identical(&stitched, &one_shot, "world corner");
}

#[test]
fn tile_aligned_viewport_reuses_whole_tiles() {
    // A viewport exactly one tile wide/high, then the neighbouring
    // tile: disjoint but tile-aligned — the second render must not
    // re-render the first tile, and a re-render of the first viewport
    // must be served entirely from the cache (zero new misses).
    let squares = vec![Rect::new(0.5, 7.5, 0.5, 7.5), Rect::new(2.0, 3.0, 2.0, 3.0)];
    let arr = square_arrangement_of(squares, CoordSpace::Identity);
    let scheme = TileScheme::for_extent(arr.bbox().unwrap(), 16);
    let cache = TileCache::new(16 << 20);
    let render = |_, spec| rasterize_squares_scanline_bands(&arr, &CountMeasure, spec, 1);
    let keys = (arr.fingerprint(), CountMeasure.cache_key());
    let world = scheme.world();
    let zoom1_tile = world.width() / 2.0;
    let tile0 = Rect::new(world.x_lo, world.x_lo + zoom1_tile, world.y_lo, world.y_lo + zoom1_tile);

    let v0 = scheme.viewport(tile0, 16, 16);
    let r0 = v0.render(&scheme, &cache, keys.0, keys.1, render);
    let misses_after_first = cache.stats().misses;
    let r0_again = v0.render(&scheme, &cache, keys.0, keys.1, render);
    assert_eq!(cache.stats().misses, misses_after_first, "warm repeat renders nothing");
    for (a, b) in r0.values().iter().zip(r0_again.values()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }

    // Sanity: the cached tile is the same Arc, not a re-render.
    let id = v0.tiles()[0];
    let first: Arc<rnnhm_heatmap::quant::TilePayload> = cache
        .peek(rnnhm_heatmap::tiles::TileKey {
            arrangement: keys.0,
            measure: keys.1,
            scheme: scheme.fingerprint(),
            tile: id,
        })
        .expect("tile cached");
    let fetched = cache.fetch(keys.0, keys.1, &scheme, &[id], render);
    assert!(Arc::ptr_eq(&first, &fetched[0]));
}

/// An exploration at realistic density (10,000 uniform clients, 625
/// facilities, a 256² viewport of 64 px tiles) through the facade: a
/// cold frame, a quarter-width jump, then a 16-step drag across one
/// viewport width. Every frame equals the one-shot raster of its spec,
/// the drag reuses cached tiles, and every cached count tile takes the
/// compact form.
#[test]
fn dense_pan_stays_exact_and_reuses_compact_tiles() {
    const DRAG_STEPS: usize = 16;
    const TILE_PX: usize = 64;
    let data = Dataset::uniform(21_250, 42);
    let (clients, facilities) = sample_clients_facilities(&data.points, 10_000, 625, 42 ^ 0x5eed);
    let map = HeatMapBuilder::bichromatic(clients, facilities)
        .metric(Metric::Linf)
        .tile_px(TILE_PX)
        .build(CountMeasure)
        .expect("non-empty instance");
    let frame = |rect: Rect| {
        let stitched = map.viewport(rect, 256, 256);
        assert_bit_identical(&stitched, &map.raster(stitched.spec), "dense pan");
    };
    let side = 0.4;
    let shift = |r: Rect, dx: f64| Rect::new(r.x_lo + dx, r.x_hi + dx, r.y_lo, r.y_hi);
    let mut rect = Rect::new(0.05, 0.05 + side, 0.1, 0.1 + side);
    frame(rect);
    rect = shift(rect, side / 4.0);
    frame(rect);
    let tiles_per_view = map.tile_scheme().viewport(rect, 256, 256).tiles().len();
    let misses_before_drag = map.cache_stats().misses;
    for _ in 0..DRAG_STEPS {
        rect = shift(rect, side / DRAG_STEPS as f64);
        frame(rect);
    }

    let stats = map.cache_stats();
    assert!(
        stats.misses - misses_before_drag < (DRAG_STEPS * tiles_per_view) as u64,
        "drag frames must reuse cached tiles: {stats:?}"
    );
    assert_eq!(stats.bytes_exact, 0, "count tiles must all take the compact form");
    assert!(stats.bytes_quantized > 0, "the cache must hold compact payloads");
    let raw = (TILE_PX * TILE_PX * 8) as f64;
    let mean = stats.bytes as f64 / stats.entries as f64;
    assert!(mean < raw / 2.0, "compact tiles must at least halve raw f64 ({mean} vs {raw})");
}
