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
//!   point, at every `top_placements(10)` point and at random points.

use proptest::prelude::*;
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

#[test]
fn influence_at_matches_influence_of() {
    let clients = lcg_points(0x1a2b_3c4d, 1500);
    let facilities = lcg_points(0x5e6f_7081, 60);
    let probes = lcg_points(0x9293_a4b5, 300);
    let weights: Vec<f64> = (0..clients.len()).map(|i| 0.5 + (i * 37 % 97) as f64 / 97.0).collect();
    for metric in Metric::ALL {
        for k in [1usize, 2] {
            let session = HeatMapBuilder::bichromatic(clients.clone(), facilities.clone())
                .metric(metric)
                .k(k)
                .build(WeightedMeasure::new(weights.clone()))
                .expect("buildable instance");
            let query = PlacementQuery::new(session.snapshot(), session.measure());
            let tops: Vec<Point> = session.top_placements(10).iter().map(|p| p.point).collect();
            assert_eq!(tops.len(), 10);
            for &p in tops.iter().chain(&probes) {
                let (rnn, influence) = session.influence_at(p);
                assert!(rnn.windows(2).all(|w| w[0] < w[1]), "{metric:?} k={k}: sorted at {p:?}");
                let (want_rnn, want) = query.influence_of(p);
                assert_eq!(rnn, want_rnn, "{metric:?} k={k}: RNN set at {p:?}");
                assert_eq!(influence.to_bits(), want.to_bits(), "{metric:?} k={k}: bits at {p:?}");
            }
        }
    }
}
