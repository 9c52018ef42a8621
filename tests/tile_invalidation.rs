//! Tile-cache invalidation under what-if edits (ISSUE 3 satellites):
//! an edit must evict *exactly* the cached tiles intersecting its
//! `DirtyRegion` — verified against hit/miss/eviction/invalidation
//! stats before and after — and a viewport far from the edit must stay
//! fully warm (zero re-renders), because clean tiles are re-keyed to
//! the edited arrangement's fingerprint rather than orphaned.

use rnn_heatmap::prelude::*;
use rnn_heatmap::HeatMapBuilder;

/// Two well-separated city clusters, each with its own facility, so
/// edits in one cluster cannot change NN distances in the other.
fn two_cities() -> (Vec<Point>, Vec<Point>) {
    let mut state = 77u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 11) as f64) / ((1u64 << 53) as f64)
    };
    let mut clients = Vec::new();
    for _ in 0..40 {
        clients.push(Point::new(next() * 5.0, next() * 5.0)); // west city
        clients.push(Point::new(50.0 + next() * 5.0, 50.0 + next() * 5.0)); // east city
    }
    let facilities = vec![Point::new(2.5, 2.5), Point::new(52.5, 52.5)];
    (clients, facilities)
}

#[test]
fn edits_evict_exactly_dirty_tiles_and_keep_far_viewports_warm() {
    let (clients, facilities) = two_cities();
    let mut map = HeatMapBuilder::bichromatic(clients, facilities)
        .metric(Metric::Linf)
        .tile_px(16)
        .build(CountMeasure)
        .unwrap();
    let west = Rect::new(-1.0, 6.0, -1.0, 6.0);
    let east = Rect::new(49.0, 56.0, 49.0, 56.0);
    let west_frame = map.viewport(west, 64, 64);
    let _ = map.viewport(east, 64, 64);
    let warm = map.cache_stats();
    assert_eq!(warm.invalidations, 0);
    assert!(warm.entries > 0);

    // Edit inside the west city.
    let (_, dirty) = map.add_facility(Point::new(1.0, 1.0)).unwrap();
    assert!(!dirty.is_empty());
    let after_edit = map.cache_stats();

    // Exactly the cached tiles intersecting the dirty region are gone.
    let scheme = map.tile_scheme().clone();
    let count_dirty = |rect: Rect| {
        scheme
            .viewport(rect, 64, 64)
            .tiles()
            .iter()
            .filter(|&&t| dirty.intersects(&scheme.tile_extent(t)))
            .count()
    };
    let dirty_west = count_dirty(west);
    let dirty_east = count_dirty(east);
    assert!(dirty_west > 0, "an edit inside the west viewport must dirty some of its tiles");
    assert_eq!(dirty_east, 0, "a west edit must not touch east tiles");
    assert_eq!(
        after_edit.invalidations, dirty_west as u64,
        "invalidations = exactly the cached tiles intersecting the dirty region"
    );
    assert_eq!(
        after_edit.entries,
        warm.entries - dirty_west,
        "only invalidated entries leave the cache"
    );
    assert_eq!(after_edit.evictions, warm.evictions, "invalidation is not LRU eviction");

    // The east viewport is fully warm across the edit: zero misses,
    // zero renders — its tiles were re-keyed, not dropped. Previews
    // see them too.
    let east_preview = map.viewport_preview(east, 64, 64);
    assert_eq!(east_preview.resolved, 1.0, "far preview fully resolved after the edit");
    let before = map.cache_stats().misses;
    let _ = map.viewport(east, 64, 64);
    assert_eq!(map.cache_stats().misses, before, "far viewport re-renders nothing");

    // The west viewport re-renders exactly its dirty tiles and comes
    // back bit-identical to an uncached render of the same spec.
    let before = map.cache_stats().misses;
    let frame = map.viewport(west, 64, 64);
    let rerendered = (map.cache_stats().misses - before) as usize;
    assert_eq!(rerendered, dirty_west, "re-renders = invalidated tiles, nothing more");
    let one_shot = map.raster(frame.spec);
    for (a, b) in frame.values().iter().zip(one_shot.values()) {
        assert_eq!(a.to_bits(), b.to_bits(), "edited west viewport must be exact");
    }
    assert_ne!(frame.values(), west_frame.values(), "the edit visibly changed the west heat map");
}

#[test]
fn noop_edit_invalidates_nothing() {
    let (clients, facilities) = two_cities();
    let mut map = HeatMapBuilder::bichromatic(clients, facilities)
        .metric(Metric::Linf)
        .tile_px(16)
        .build(CountMeasure)
        .unwrap();
    let west = Rect::new(-1.0, 6.0, -1.0, 6.0);
    let _ = map.viewport(west, 64, 64);
    let warm = map.cache_stats();
    let gen = map.generation();
    // A facility in empty wilderness steals no client.
    let (_, dirty) = map.add_facility(Point::new(-400.0, -400.0)).unwrap();
    assert!(dirty.is_empty());
    assert_eq!(map.generation(), gen, "no geometry change, no generation bump");
    let stats = map.cache_stats();
    assert_eq!(stats.invalidations, 0);
    assert_eq!(stats.entries, warm.entries);
    let before = stats.misses;
    let _ = map.viewport(west, 64, 64);
    assert_eq!(map.cache_stats().misses, before, "everything still warm");
}

#[test]
fn successive_edits_keep_cache_consistent() {
    // Several edits in a row, interleaved with viewport renders: the
    // cache key chain (fingerprint generation bumps) must never serve
    // a stale tile — every frame stays bit-identical to one-shot.
    let (clients, facilities) = two_cities();
    let mut map = HeatMapBuilder::bichromatic(clients, facilities)
        .metric(Metric::L2)
        .tile_px(16)
        .build(CountMeasure)
        .unwrap();
    let west = Rect::new(-1.0, 6.0, -1.0, 6.0);
    let mut ids = Vec::new();
    for step in 0..4 {
        let p = Point::new(0.5 + step as f64, 4.0 - step as f64);
        let (id, _) = map.add_facility(p).unwrap();
        ids.push(id);
        let frame = map.viewport(west, 48, 48);
        let one_shot = map.raster(frame.spec);
        for (a, b) in frame.values().iter().zip(one_shot.values()) {
            assert_eq!(a.to_bits(), b.to_bits(), "step {step}");
        }
    }
    for id in ids {
        map.remove_facility(id).unwrap();
        let frame = map.viewport(west, 48, 48);
        let one_shot = map.raster(frame.spec);
        for (a, b) in frame.values().iter().zip(one_shot.values()) {
            assert_eq!(a.to_bits(), b.to_bits(), "removal of {id}");
        }
    }
    assert!(map.cache_stats().invalidations > 0);
    assert!(map.cache_stats().hits > 0, "pans across edits still reuse clean tiles");
}
