//! Placement answers against naive references over the same sweep.
//!
//! * `top_placements_match_collect_reference`: `top_placements_in(m, c)`
//!   equals a reference built from a `CollectSink` over the same
//!   count-probe sweep. The reference applies the window filter, sorts
//!   each RNN set, keeps each set's first occurrence (upgrading a
//!   zero-area representative to the first later one with area), ranks
//!   by the measure's influence of the sorted set with ties going to
//!   the earlier first occurrence, and adds the exterior candidate to
//!   unconstrained queries that saw no empty set. Every metric, k ∈ {1,
//!   2}, count, non-dyadic weighted and capacity, m ∈ {1, 3, all}, with
//!   and without a window and an influence floor.
//! * `influence_at_matches_influence_of`: `Session::influence_at`
//!   returns the sorted RNN set and the measure of that sorted set, bit
//!   for bit what `PlacementQuery::influence_of` returns at the same
//!   point *and* what an independent closed-containment scan over the
//!   snapshot's circles gives (both point paths stab one index, so the
//!   scan is the reference). Probes: every `top_placements(10)` point,
//!   random points, and the corners and edge midpoints of circles'
//!   sweep-frame squares or disk bboxes, where closed containment
//!   decides. Every metric, k ∈ {1, 2}, unsharded and on 2 and 7
//!   shards, before and after an add, a move, a remove and a geometric
//!   no-op add, and on an idle fork after its sibling's edits.

use proptest::prelude::*;
use rnn_heatmap::geom::Circle;
use rnn_heatmap::prelude::*;
use rnn_heatmap::HeatMapBuilder;

/// Points on a coarse quarter-integer grid: degenerate alignments and
/// zero-area representatives are common.
fn points_strategy(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec((0u32..40, 0u32..40), n).prop_map(|v| {
        v.into_iter().map(|(x, y)| Point::new(x as f64 / 4.0, y as f64 / 4.0)).collect()
    })
}

/// The input-space point a sweep-space rectangle represents.
fn representative(arr: ArrangementRef<'_>, rect: Rect) -> Point {
    match arr {
        ArrangementRef::Square(a) => a.space.to_original(rect.center()),
        ArrangementRef::Disk(_) => rect.center(),
    }
}

/// A unit rectangle beyond every NN circle: the exterior candidate.
fn exterior(arr: ArrangementRef<'_>) -> Rect {
    let bb = match arr {
        ArrangementRef::Square(a) => a.bbox(),
        ArrangementRef::Disk(d) => d.bbox(),
    };
    match bb {
        Some(b) => {
            let margin = 1.0 + 0.5 * (b.width() + b.height());
            let (x, y) = (b.x_hi + margin, b.y_hi + margin);
            Rect::new(x, x + 1.0, y, y + 1.0)
        }
        None => Rect::new(0.0, 1.0, 0.0, 1.0),
    }
}

/// The naive top-m: `(rect, sorted set, influence)`, best first.
fn reference<M: InfluenceMeasure>(
    snap: &ArrangementSnapshot,
    measure: &M,
    m: usize,
    c: &PlacementConstraints,
) -> Vec<(Rect, Vec<u32>, f64)> {
    let arr = snap.arrangement();
    let mut collect = CollectSink::default();
    let mut filter = None;
    match arr {
        ArrangementRef::Square(a) => match (c.within, a.space) {
            (Some(window), CoordSpace::Identity) => {
                crest_window(a, window, &CountMeasure, &mut collect);
            }
            (within, _) => {
                filter = within;
                crest_sweep(a, &CountMeasure, &mut collect);
            }
        },
        ArrangementRef::Disk(d) => {
            filter = c.within;
            crest_l2_sweep(d, &CountMeasure, &mut collect);
        }
    }
    let mut firsts: Vec<(Rect, Vec<u32>)> = Vec::new();
    for region in collect.regions {
        if filter.is_some_and(|w| !w.contains_closed(representative(arr, region.rect))) {
            continue;
        }
        let mut set = region.rnn;
        set.sort_unstable();
        set.dedup();
        match firsts.iter_mut().find(|(_, s)| *s == set) {
            Some((rect, _)) => {
                if rect.area() <= 0.0 && region.rect.area() > 0.0 {
                    *rect = region.rect;
                }
            }
            None => firsts.push((region.rect, set)),
        }
    }
    if c.within.is_none() && !firsts.iter().any(|(_, s)| s.is_empty()) {
        firsts.push((exterior(arr), Vec::new()));
    }
    let mut ranked: Vec<(Rect, Vec<u32>, f64)> = firsts
        .into_iter()
        .map(|(rect, set)| {
            let influence = measure.influence(&set);
            (rect, set, influence)
        })
        .collect();
    // Stable: equal influences keep first-occurrence order.
    ranked.sort_by(|a, b| b.2.total_cmp(&a.2));
    ranked.truncate(m);
    if let Some(min) = c.min_influence {
        ranked.retain(|r| r.2 >= min);
    }
    ranked
}

fn check_measure<M: InfluenceMeasure>(snap: &ArrangementSnapshot, measure: &M, what: &str) {
    let query = PlacementQuery::new(snap, measure);
    let bb = snap.arrangement();
    let window = match bb {
        ArrangementRef::Square(a) => a.bbox(),
        ArrangementRef::Disk(d) => d.bbox(),
    }
    .map(|b| {
        // Window constraints are input-space rectangles; the L1 bbox is
        // in the rotated frame, so take the window around its center.
        let c = representative(bb, b);
        let r = 0.3 * (b.width() + b.height());
        Rect::new(c.x - r, c.x + 0.6 * r, c.y - 0.8 * r, c.y + r)
    });
    let unconstrained = reference(snap, measure, 1, &PlacementConstraints::none());
    let floor = unconstrained.first().map(|r| r.2);
    let variants = [
        PlacementConstraints::none(),
        PlacementConstraints { within: window, min_influence: None },
        PlacementConstraints { within: None, min_influence: floor },
        PlacementConstraints { within: window, min_influence: floor },
    ];
    for c in &variants {
        for m in [1usize, 3, usize::MAX] {
            let got = query.top_placements_in(m, c);
            let want = reference(snap, measure, m, c);
            assert_eq!(got.len(), want.len(), "{what} m={m} {c:?}: answer length");
            for (i, (g, (rect, rnn, influence))) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.rect, *rect, "{what} m={m} {c:?} #{i}: representative");
                assert_eq!(g.point, representative(bb, *rect), "{what} m={m} {c:?} #{i}: point");
                assert_eq!(g.rnn, *rnn, "{what} m={m} {c:?} #{i}: RNN set");
                assert_eq!(
                    g.influence.to_bits(),
                    influence.to_bits(),
                    "{what} m={m} {c:?} #{i}: influence"
                );
            }
        }
    }
    assert_eq!(query.best_placement(), query.top_placements(1)[0], "{what}: best = top-1");
    let (top, stats) = query.top_placements_stats(3);
    assert_eq!(top, query.top_placements(3), "{what}: stats path = plain path");
    assert!(stats.distinct_regions <= stats.evaluated, "{what}: {stats:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn top_placements_match_collect_reference(
        clients in points_strategy(8..26),
        facilities in points_strategy(4..8),
    ) {
        let n = clients.len();
        // Non-dyadic weights: a sum depends on its order in the last bit.
        let weighted =
            WeightedMeasure::new((0..n).map(|i| 0.5 + (i * 37 % 97) as f64 / 97.0).collect());
        let nf = facilities.len() as u32;
        let capacity = CapacityMeasure::new(
            (0..n as u32).map(|i| i % nf).collect(),
            (0..nf).map(|f| 1 + f % 3).collect(),
            2,
        );
        for metric in Metric::ALL {
            for k in [1usize, 2] {
                let snap = ArrangementSnapshot::build_k(
                    clients.clone(),
                    facilities.clone(),
                    metric,
                    Mode::Bichromatic,
                    k,
                )
                .expect("buildable instance");
                check_measure(&snap, &CountMeasure, &format!("{metric:?} k={k} count"));
                check_measure(&snap, &weighted, &format!("{metric:?} k={k} weighted"));
                check_measure(&snap, &capacity, &format!("{metric:?} k={k} capacity"));
            }
        }
    }
}

/// `n` points on `[0, 10]²` from a fixed LCG.
fn lcg_points(seed: u64, n: usize) -> Vec<Point> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 11) as f64) / ((1u64 << 53) as f64) * 10.0
    };
    (0..n).map(|_| Point::new(next(), next())).collect()
}

/// The closed-containment scan: the owners of every circle of `snap`
/// containing `p`, sorted, and the measure of that sorted set.
fn scan_influence<M: InfluenceMeasure>(
    snap: &ArrangementSnapshot,
    measure: &M,
    p: Point,
) -> (Vec<u32>, f64) {
    let mut rnn: Vec<u32> = match snap.arrangement() {
        ArrangementRef::Square(a) => {
            let q = a.space.to_sweep(p);
            a.squares
                .iter()
                .zip(&a.owners)
                .filter(|(s, _)| s.contains_closed(q))
                .map(|(_, &o)| o)
                .collect()
        }
        ArrangementRef::Disk(d) => d
            .disks
            .iter()
            .zip(&d.owners)
            .filter(|(c, _)| c.contains_closed(p))
            .map(|(_, &o)| o)
            .collect(),
    };
    rnn.sort_unstable();
    let influence = measure.influence(&rnn);
    (rnn, influence)
}

/// Input-space points on circle boundaries: the corners and edge
/// midpoints of every `stride`-th circle's sweep-frame square (exact
/// for L∞, mapped back from the rotated frame for L1) or disk bbox
/// (whose edge midpoints are where the disk touches it).
fn boundary_probes(snap: &ArrangementSnapshot, stride: usize) -> Vec<Point> {
    let (rects, space): (Vec<Rect>, CoordSpace) = match snap.arrangement() {
        ArrangementRef::Square(a) => (a.squares.iter().step_by(stride).copied().collect(), a.space),
        ArrangementRef::Disk(d) => {
            (d.disks.iter().step_by(stride).map(Circle::bbox).collect(), CoordSpace::Identity)
        }
    };
    rects
        .iter()
        .flat_map(|r| {
            let (xm, ym) = (0.5 * (r.x_lo + r.x_hi), 0.5 * (r.y_lo + r.y_hi));
            [
                (r.x_lo, r.y_lo),
                (r.x_hi, r.y_lo),
                (r.x_lo, r.y_hi),
                (r.x_hi, r.y_hi),
                (xm, r.y_lo),
                (xm, r.y_hi),
                (r.x_lo, ym),
                (r.x_hi, ym),
            ]
        })
        .map(|(x, y)| space.to_original(Point::new(x, y)))
        .collect()
}

/// `session.influence_at` at every probe equals the scan over the
/// session's snapshot and `PlacementQuery::influence_of` on it, by
/// bits.
fn check_probes<M: InfluenceMeasure>(session: &Session<M>, probes: &[Point], what: &str) {
    let snap = session.snapshot();
    let query = PlacementQuery::new(snap, session.measure());
    for &p in probes {
        let (rnn, influence) = session.influence_at(p);
        assert!(rnn.windows(2).all(|w| w[0] < w[1]), "{what}: sorted at {p:?}");
        let (want_rnn, want) = scan_influence(snap, session.measure(), p);
        assert_eq!(rnn, want_rnn, "{what}: RNN set vs scan at {p:?}");
        assert_eq!(influence.to_bits(), want.to_bits(), "{what}: bits vs scan at {p:?}");
        let (query_rnn, query_influence) = query.influence_of(p);
        assert_eq!(rnn, query_rnn, "{what}: RNN set vs influence_of at {p:?}");
        assert_eq!(
            influence.to_bits(),
            query_influence.to_bits(),
            "{what}: bits vs influence_of at {p:?}"
        );
    }
}

#[test]
fn influence_at_matches_influence_of() {
    const STRIDE: usize = 25;
    let clients = lcg_points(0x1a2b_3c4d, 1500);
    let facilities = lcg_points(0x5e6f_7081, 60);
    let probes = lcg_points(0x9293_a4b5, 300);
    let weights: Vec<f64> = (0..clients.len()).map(|i| 0.5 + (i * 37 % 97) as f64 / 97.0).collect();
    for metric in Metric::ALL {
        for k in [1usize, 2] {
            // Sharding leaves the contiguous view alone, so the
            // unsharded session's top placements serve all three.
            let mut tops: Vec<Point> = Vec::new();
            for shards in [None, Some(2), Some(7)] {
                let what = format!("{metric:?} k={k} shards={shards:?}");
                let mut builder = HeatMapBuilder::bichromatic(clients.clone(), facilities.clone())
                    .metric(metric)
                    .k(k);
                if let Some(n) = shards {
                    builder = builder.shards(n);
                }
                let mut session = builder
                    .build(WeightedMeasure::new(weights.clone()))
                    .expect("buildable instance");
                if shards.is_none() {
                    tops = session.top_placements(10).iter().map(|p| p.point).collect();
                    assert_eq!(tops.len(), 10);
                }
                let mut at_root = tops.clone();
                at_root.extend(&probes);
                at_root.extend(boundary_probes(session.snapshot(), STRIDE));
                check_probes(&session, &at_root, &format!("{what} root"));

                let idle = session.fork();
                let check_now = |session: &Session<WeightedMeasure>, step: &str| {
                    let mut at = probes.clone();
                    at.extend(boundary_probes(session.snapshot(), STRIDE));
                    check_probes(session, &at, &format!("{what} after {step}"));
                };
                session.add_facility(Point::new(5.0, 5.0)).expect("add");
                check_now(&session, "an add");
                session.move_facility(3, Point::new(2.5, 7.5)).expect("move");
                check_now(&session, "a move");
                session.remove_facility(10).expect("remove");
                check_now(&session, "a remove");
                let before = session.fingerprint();
                session.add_facility(Point::new(1e3, 1e3)).expect("far add");
                assert_eq!(session.fingerprint(), before, "{what}: a far add is a geometric no-op");
                check_now(&session, "a no-op add");

                assert_ne!(idle.fingerprint(), session.fingerprint(), "{what}: the sibling edited");
                check_probes(&idle, &at_root, &format!("{what} idle fork"));
            }
        }
    }
}
