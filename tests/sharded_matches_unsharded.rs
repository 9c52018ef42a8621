//! Differential suite for the sharded arrangement build: a sharded
//! snapshot must be **bit-identical** to the unsharded one everywhere
//! it can be observed — restricted sub-arrangements, viewport rasters,
//! top-k regions, placement argmaxes — at every shard count, for every
//! metric, before and after edits. Sharding is a *routing* and
//! *summary* layer; it must never change a pixel.

use rnn_heatmap::prelude::*;
use rnn_heatmap::HeatMapBuilder;

const SHARD_COUNTS: [usize; 3] = [1, 2, 7];

fn pseudo_points(n: usize, seed: u64, span: f64) -> Vec<Point> {
    rnn_heatmap::data::uniform(n, Rect::new(0.0, span, 0.0, span), seed)
}

fn build_snapshot(metric: Metric, k: usize, shards: Option<usize>) -> ArrangementSnapshot {
    let clients = pseudo_points(300, 41, 10.0);
    let facilities = pseudo_points(40, 43, 10.0);
    let snap = ArrangementSnapshot::build_k(clients, facilities, metric, Mode::Bichromatic, k)
        .expect("valid instance");
    match shards {
        Some(n) => snap.with_shards(n),
        None => snap,
    }
}

/// The observable content of a restriction, for exact comparison.
fn restricted_signature(r: &RestrictedArrangement) -> Vec<(u32, [u64; 4])> {
    match r {
        RestrictedArrangement::Square(arr) => arr
            .squares
            .iter()
            .zip(&arr.owners)
            .map(|(s, &o)| {
                (o, [s.x_lo.to_bits(), s.x_hi.to_bits(), s.y_lo.to_bits(), s.y_hi.to_bits()])
            })
            .collect(),
        RestrictedArrangement::Disk(arr) => arr
            .disks
            .iter()
            .zip(&arr.owners)
            .map(|(d, &o)| (o, [d.c.x.to_bits(), d.c.y.to_bits(), d.r.to_bits(), 0]))
            .collect(),
    }
}

#[test]
fn restrictions_are_bit_identical_across_shard_counts() {
    let windows = [
        Rect::new(0.0, 10.0, 0.0, 10.0),
        Rect::new(2.0, 4.5, 1.0, 9.0),
        Rect::new(7.9, 8.0, 0.1, 0.2),
        Rect::new(-5.0, -1.0, -5.0, -1.0), // off-data window
    ];
    for metric in [Metric::L2, Metric::Linf, Metric::L1] {
        for k in [1usize, 4] {
            let plain = build_snapshot(metric, k, None);
            for n_shards in SHARD_COUNTS {
                let sharded = build_snapshot(metric, k, Some(n_shards));
                assert!(sharded.shards().is_some(), "shard map must be present");
                for w in windows {
                    assert_eq!(
                        restricted_signature(&plain.restrict_to(w)),
                        restricted_signature(&sharded.restrict_to(w)),
                        "{metric:?} k={k} shards={n_shards} window {w:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn sharded_fingerprint_is_deterministic_and_distinct() {
    let a = build_snapshot(Metric::Linf, 1, Some(4));
    let b = build_snapshot(Metric::Linf, 1, Some(4));
    assert_eq!(a.fingerprint(), b.fingerprint(), "same build must fingerprint identically");
    let plain = build_snapshot(Metric::Linf, 1, None);
    assert_ne!(
        a.fingerprint(),
        plain.fingerprint(),
        "sharded snapshots compose per-shard fingerprints into a distinct lineage"
    );
}

fn build_engine(shards: Option<usize>) -> rnn_heatmap::ExplorationEngine<CountMeasure> {
    let clients = pseudo_points(400, 7, 10.0);
    let facilities = pseudo_points(50, 9, 10.0);
    let mut b = HeatMapBuilder::bichromatic(clients, facilities).metric(Metric::Linf).tile_px(16);
    if let Some(n) = shards {
        b = b.shards(n);
    }
    b.build_engine(CountMeasure).expect("valid instance")
}

#[test]
fn viewports_and_queries_match_unsharded_engine() {
    let plain = build_engine(None);
    let base = plain.session();
    let views = [
        Rect::new(0.0, 10.0, 0.0, 10.0),
        Rect::new(3.0, 5.0, 3.0, 5.0),
        Rect::new(0.1, 0.9, 9.0, 9.9),
    ];
    for n_shards in SHARD_COUNTS {
        let sharded = build_engine(Some(n_shards));
        let s = sharded.session();
        for v in views {
            let a = base.viewport(v, 64, 64);
            let b = s.viewport(v, 64, 64);
            assert_eq!(a.values(), b.values(), "viewport {v:?} differs at {n_shards} shards");
        }
        // Region post-processing and the placement argmax see the same
        // arrangement.
        let tk_a = base.top_k(5);
        let tk_b = s.top_k(5);
        assert_eq!(tk_a.len(), tk_b.len());
        for (x, y) in tk_a.iter().zip(&tk_b) {
            assert_eq!(x.influence, y.influence, "{n_shards} shards");
        }
        let p_a = base.top_placements(3);
        let p_b = s.top_placements(3);
        assert_eq!(p_a.len(), p_b.len());
        for (x, y) in p_a.iter().zip(&p_b) {
            assert_eq!(x.influence, y.influence, "{n_shards} shards");
            assert_eq!(x.point, y.point, "{n_shards} shards");
        }
    }
}

#[test]
fn edits_keep_sharded_and_unsharded_rasters_identical() {
    let view = Rect::new(0.0, 10.0, 0.0, 10.0);
    for n_shards in SHARD_COUNTS {
        let plain = build_engine(None);
        let sharded = build_engine(Some(n_shards));
        let mut a = plain.session();
        let mut b = sharded.session();
        // Scripted edit sequence: add (new circles shrink), move
        // (dirty two disjoint areas), remove (circles grow back).
        let (fa, da) = a.add_facility(Point::new(2.2, 7.1)).expect("add");
        let (fb, db) = b.add_facility(Point::new(2.2, 7.1)).expect("add");
        assert_eq!(da.rects(), db.rects(), "dirty regions diverge at {n_shards} shards");
        let fr_a = a.viewport(view, 64, 64);
        let fr_b = b.viewport(view, 64, 64);
        assert_eq!(fr_a.values(), fr_b.values(), "post-add raster differs at {n_shards} shards");

        a.move_facility(fa, Point::new(8.5, 1.5)).expect("move");
        b.move_facility(fb, Point::new(8.5, 1.5)).expect("move");
        let fr_a = a.viewport(view, 64, 64);
        let fr_b = b.viewport(view, 64, 64);
        assert_eq!(fr_a.values(), fr_b.values(), "post-move raster differs at {n_shards} shards");

        a.remove_facility(fa).expect("remove");
        b.remove_facility(fb).expect("remove");
        let fr_a = a.viewport(view, 64, 64);
        let fr_b = b.viewport(view, 64, 64);
        assert_eq!(fr_a.values(), fr_b.values(), "post-remove raster differs at {n_shards} shards");

        // The shard summaries themselves must be consistent after the
        // edit churn: rebuilding the same geometry from scratch at the
        // same shard count reproduces the restriction content.
        let snap_b = b.snapshot();
        for w in [Rect::new(1.0, 9.0, 1.0, 9.0), Rect::new(8.0, 8.4, 1.2, 1.8)] {
            assert_eq!(
                restricted_signature(&a.snapshot().restrict_to(w)),
                restricted_signature(&snap_b.restrict_to(w)),
                "post-edit restriction differs at {n_shards} shards"
            );
        }
    }
}

#[test]
fn monochromatic_and_l1_sharded_builds_match() {
    // L1 shards along the *rotated* sweep axis; monochromatic mode has
    // no facility set. Both exercise shard_x edge cases.
    let points = pseudo_points(200, 77, 6.0);
    let plain = ArrangementSnapshot::build_k(
        points.clone(),
        Vec::new(),
        Metric::L1,
        Mode::Monochromatic,
        2,
    )
    .expect("valid instance");
    for n_shards in SHARD_COUNTS {
        let sharded = ArrangementSnapshot::build_k(
            points.clone(),
            Vec::new(),
            Metric::L1,
            Mode::Monochromatic,
            2,
        )
        .expect("valid instance")
        .with_shards(n_shards);
        for w in [Rect::new(0.0, 6.0, 0.0, 6.0), Rect::new(2.0, 3.0, 2.5, 4.0)] {
            assert_eq!(
                restricted_signature(&plain.restrict_to(w)),
                restricted_signature(&sharded.restrict_to(w)),
                "L1 mono restriction differs at {n_shards} shards"
            );
        }
    }
}
