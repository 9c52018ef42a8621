//! Threaded stress test of the snapshot-isolated exploration engine
//! (ISSUE 5): reader threads hammer `viewport` / `influence_at` /
//! `top_k` on committed snapshots while an editor thread commits a
//! script of edits on a fork of the same dataset.
//!
//! The invariant under test: **every served frame is bit-identical to
//! a one-shot render of *some* committed snapshot** — concurrency,
//! the shared sharded cache, single-flight, and edit propagation never
//! produce a torn or cross-contaminated frame. Each reader pins the
//! exact snapshot it rendered from (an `Arc` clone), so the check is
//! exact, not probabilistic.

mod common;

use std::sync::{Arc, Barrier, Mutex};

use common::{placement_bits, region_bits, Counted};
use rnn_heatmap::prelude::*;
use rnn_heatmap::{ExplorationEngine, HeatMapBuilder, Session};

/// Deterministic uniform points on the span (the library's own
/// generator — `rnnhm_data::gen::uniform` — reused instead of a
/// hand-rolled PRNG).
fn pseudo_points(n: usize, seed: u64, span: f64) -> Vec<Point> {
    rnn_heatmap::data::uniform(n, Rect::new(0.0, span, 0.0, span), seed)
}

/// The engine, its session handles, and the tile cache must all be
/// shareable across threads — the serving contract, checked at
/// compile time.
#[test]
fn engine_types_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ExplorationEngine<CountMeasure>>();
    assert_send_sync::<Session<CountMeasure>>();
    assert_send_sync::<TileCache>();
    assert_send_sync::<Arc<ArrangementSnapshot>>();
    assert_send_sync::<ExplorationEngine<WeightedMeasure>>();
    assert_send_sync::<Session<WeightedMeasure>>();
}

#[test]
fn concurrent_edits_never_tear_served_frames() {
    const EDITS: usize = 14;
    const READERS: usize = 3;
    const FRAMES_PER_READER: usize = 20;

    // Keep the NN-circles small relative to the world (many
    // facilities): region *counts* grow with circle overlap density,
    // and the readers run full region sweeps on fresh sessions.
    let clients = pseudo_points(800, 11, 1.0);
    let facilities = pseudo_points(80, 13, 1.0);
    let engine = HeatMapBuilder::bichromatic(clients, facilities)
        .metric(Metric::Linf)
        .tile_px(16)
        .build_engine(CountMeasure)
        .expect("non-empty input");

    // Committed snapshots, strongly held so readers can time-travel
    // to any version; index 0 is the dataset root.
    let published: Arc<Mutex<Vec<Arc<ArrangementSnapshot>>>> =
        Arc::new(Mutex::new(vec![engine.root_snapshot().clone()]));

    // Viewports the readers rotate through (overlapping, straddling
    // tile boundaries, one zoomed in).
    let rects = [
        Rect::new(0.05, 0.55, 0.05, 0.55),
        Rect::new(0.3, 0.9, 0.2, 0.8),
        Rect::new(0.42, 0.58, 0.42, 0.58),
        Rect::new(0.0, 1.0, 0.0, 1.0),
    ];

    std::thread::scope(|scope| {
        // Editor: commits a script of adds/moves/removes on a fork,
        // publishing every committed snapshot.
        {
            let published = published.clone();
            let mut editor = engine.session();
            scope.spawn(move || {
                let mut added: Vec<u32> = Vec::new();
                let sites = pseudo_points(EDITS, 17, 1.0);
                for (step, &site) in sites.iter().enumerate() {
                    match step % 3 {
                        0 => {
                            let (id, _) = editor.add_facility(site).expect("bichromatic");
                            added.push(id);
                        }
                        1 => {
                            if let Some(&id) = added.last() {
                                editor.move_facility(id, site).expect("live id");
                            }
                        }
                        _ => {
                            if added.len() > 1 {
                                let id = added.remove(0);
                                editor.remove_facility(id).expect("live id");
                            }
                        }
                    }
                    // Exercise the editor's own read paths mid-script.
                    let _ = editor.influence_at(site);
                    published.lock().unwrap().push(editor.snapshot().clone());
                    // Let readers interleave with a fresh version.
                    std::thread::yield_now();
                }
            });
        }

        // Readers: render whatever version is current (or an older
        // one), and verify bit-identity against a one-shot render of
        // that exact snapshot.
        for reader in 0..READERS {
            let published = published.clone();
            let engine = &engine;
            scope.spawn(move || {
                for i in 0..FRAMES_PER_READER {
                    let snap = {
                        let list = published.lock().unwrap();
                        // Mostly the newest version, sometimes an old
                        // one (time travel must serve stale snapshots
                        // exactly, not approximately).
                        let idx =
                            if i % 5 == 0 { (reader * 7 + i) % list.len() } else { list.len() - 1 };
                        list[idx].clone()
                    };
                    let session = engine.session_at(snap.clone());
                    let rect = rects[(reader + i) % rects.len()];
                    let frame = session.viewport(rect, 48, 48);
                    let one_shot = session.raster(frame.spec);
                    for (a, b) in frame.values().iter().zip(one_shot.values()) {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "reader {reader} frame {i}: served frame diverged from its \
                             snapshot's one-shot render (generation {})",
                            snap.generation()
                        );
                    }
                    // The query paths must agree with the snapshot too.
                    let (rnn, influence) = session.influence_at(rect.center());
                    assert!(influence >= 0.0);
                    assert!(rnn.len() <= 800);
                    // Region sweeps are the expensive read path; a few
                    // per reader suffice to race them against edits.
                    if i % 8 == 0 {
                        let top = session.top_k(3);
                        assert!(!top.is_empty(), "a non-empty arrangement has regions");
                        let best = &top[0];
                        let (_, at_best) = session.influence_at(session.region_center(best));
                        // The witness scores at least... exactly its label
                        // (skip degenerate zero-area strips).
                        if best.rect.width() > 1e-9 && best.rect.height() > 1e-9 {
                            assert_eq!(at_best, best.influence, "reader {reader} frame {i}");
                        }
                    }
                }
            });
        }
    });

    // The editor committed every edit; the shared cache served
    // overlapping reads across versions.
    let stats = engine.cache_stats();
    assert!(stats.hits > 0, "concurrent readers must share warm tiles: {stats:?}");
    let published = published.lock().unwrap();
    assert!(published.len() > EDITS / 2, "the editor published its commits");
    // All published versions remain alive and addressable (skipped
    // edit steps publish the same snapshot twice — dedup by pointer).
    let mut ptrs: Vec<*const ArrangementSnapshot> = published.iter().map(Arc::as_ptr).collect();
    ptrs.sort();
    ptrs.dedup();
    assert!(engine.snapshots().len() >= ptrs.len());
}

#[test]
fn forked_branches_stay_isolated_under_concurrent_edits() {
    // Two sessions fork the same snapshot and edit divergently from
    // two threads; afterwards each branch's frame must match a
    // single-user map built from that branch's facility set.
    let clients = pseudo_points(1_200, 23, 1.0);
    let facilities = pseudo_points(24, 29, 1.0);
    let engine = HeatMapBuilder::bichromatic(clients.clone(), facilities)
        .metric(Metric::L2)
        .tile_px(16)
        .build_engine(CountMeasure)
        .expect("non-empty input");
    let rect = Rect::new(0.1, 0.9, 0.1, 0.9);
    // Warm the ancestor tiles so both branches start from a shared
    // warm cache.
    let root_session = engine.session();
    let _ = root_session.viewport(rect, 64, 64);

    let sites_a = pseudo_points(5, 31, 1.0);
    let sites_b = pseudo_points(5, 37, 1.0);
    let (frame_a, facs_a, frame_b, facs_b) = std::thread::scope(|scope| {
        let spawn_branch = |sites: Vec<Point>| {
            let mut session = root_session.fork();
            scope.spawn(move || {
                for &site in &sites {
                    session.add_facility(site).expect("bichromatic");
                    let _ = session.viewport(rect, 64, 64);
                }
                let frame = session.viewport(rect, 64, 64);
                let facs: Vec<Point> = session.facilities().into_iter().map(|(_, p)| p).collect();
                (frame, facs)
            })
        };
        let a = spawn_branch(sites_a.clone());
        let b = spawn_branch(sites_b.clone());
        let (frame_a, facs_a) = a.join().expect("branch a");
        let (frame_b, facs_b) = b.join().expect("branch b");
        (frame_a, facs_a, frame_b, facs_b)
    });

    for (frame, facs) in [(&frame_a, facs_a), (&frame_b, facs_b)] {
        let rebuilt = HeatMapBuilder::bichromatic(clients.clone(), facs)
            .metric(Metric::L2)
            .build(CountMeasure)
            .expect("non-empty");
        let one_shot = rebuilt.raster(frame.spec);
        for (a, b) in frame.values().iter().zip(one_shot.values()) {
            assert_eq!(a.to_bits(), b.to_bits(), "branch frame diverged from a clean rebuild");
        }
    }
    // The branches really diverged.
    assert_ne!(frame_a.values(), frame_b.values());
    // The root session still serves the unedited dataset, fully warm.
    let misses_before = engine.cache_stats().misses;
    let root_frame = root_session.viewport(rect, 64, 64);
    assert_eq!(
        engine.cache_stats().misses,
        misses_before,
        "the ancestor snapshot's tiles survive both branches' edits"
    );
    let root_one_shot = root_session.raster(root_frame.spec);
    for (a, b) in root_frame.values().iter().zip(root_one_shot.values()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn cold_herd_renders_each_tile_once() {
    // Four forks of one session, released together by a barrier,
    // request the same cold viewport over a dense instance (10,000
    // clients, 625 facilities). Single-flight lets exactly one caller
    // render each tile: every tile is inserted once, and every other
    // miss is answered with that render.
    const FORKS: usize = 4;
    let data = Dataset::uniform(21_250, 42);
    let (clients, facilities) = sample_clients_facilities(&data.points, 10_000, 625, 42 ^ 0x5eed);
    let engine = HeatMapBuilder::bichromatic(clients, facilities)
        .metric(Metric::Linf)
        .tile_px(64)
        .build_engine(CountMeasure)
        .expect("non-empty input");
    let rect = Rect::new(0.2, 0.7, 0.2, 0.7);
    let root = engine.session();
    let barrier = Barrier::new(FORKS);
    let frames: Vec<HeatRaster> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..FORKS)
            .map(|_| {
                let fork = root.fork();
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    fork.viewport(rect, 384, 384)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("herd thread")).collect()
    });

    let one_shot = root.raster(frames[0].spec);
    for frame in &frames {
        assert_eq!(frame.spec, one_shot.spec);
        for (a, b) in frame.values().iter().zip(one_shot.values()) {
            assert_eq!(a.to_bits(), b.to_bits(), "a herd frame diverged from the one-shot render");
        }
    }
    let stats = engine.cache_stats();
    let tiles = root.tile_scheme().viewport(rect, 384, 384).tiles().len() as u64;
    assert_eq!(stats.insertions, tiles, "every tile renders exactly once: {stats:?}");
    assert_eq!(
        stats.misses,
        stats.insertions + stats.single_flight_dedups,
        "every miss either rendered or reused a concurrent render: {stats:?}"
    );
}

#[test]
fn cold_herd_computes_each_region_answer_once() {
    for threads in [1, 2, 8] {
        region_answer_herd(threads);
    }
}

/// `threads` forks of one cold snapshot, released together by a
/// barrier, each ask `top_placements(3)` and `top_k(5)`. The snapshot's
/// region memo lets exactly one of them compute each answer while the
/// others wait for it: the herd's `influence` calls total those of one
/// uncached computation, and every thread gets the same bits.
fn region_answer_herd(threads: usize) {
    let engine =
        HeatMapBuilder::bichromatic(pseudo_points(1_500, 47, 1.0), pseudo_points(60, 53, 1.0))
            .metric(Metric::Linf)
            .build_engine(Counted::new(CountMeasure))
            .expect("non-empty input");
    let measure = engine.measure();
    let snap = engine.root_snapshot();
    let placements = PlacementQuery::new(snap, measure).top_placements(3);
    let mut sink = TopKSink::with_bound(5, |rnn: &[u32]| measure.raw_upper_bound(rnn));
    snap.sweep(measure, &mut sink);
    let top = sink.into_top();
    let uncached = measure.calls();
    measure.reset();

    let root = engine.session();
    let barrier = Barrier::new(threads);
    let answers: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let fork = root.fork();
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    (fork.top_placements(3), fork.top_k(5))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("herd thread")).collect()
    });
    assert_eq!(measure.calls(), uncached, "{threads} threads: each answer is computed once");
    for (p, t) in &answers {
        assert_eq!(placement_bits(p), placement_bits(&placements), "{threads} threads");
        assert_eq!(region_bits(t), region_bits(&top), "{threads} threads");
    }
}
