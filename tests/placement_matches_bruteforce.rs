//! Differential proptest suite for the MaxBRkNN placement engine
//! (ISSUE 7's headline artifact): every optimizer answer is checked
//! against an exhaustive candidate-grid oracle — a dense lattice of
//! hypothetical facility positions, each scored by a full rebuild of
//! the k-th NN radii plus brute-force closed-containment RkNN counting
//! — across all 3 metrics × 4 measures × k ∈ {1, 2, 4}:
//!
//! * the reported argmax influence equals the grid maximum exactly
//!   (the optimizer's own representative points are injected into the
//!   candidate set, so the equality is two-sided),
//! * every reported placement's representative point realizes exactly
//!   the reported RNN set and influence under the oracle,
//! * a tentative insert at any grid candidate (`evaluate_insert`)
//!   reports exactly the oracle's RNN set and influence,
//! * the reported top-m dominates every grid candidate whose region is
//!   not among the reported ones,
//! * relocation: the post-removal argmax and the current-location
//!   score both match the oracle on the facility set minus the moved
//!   facility,
//! * greedy placement matches step-by-step exhaustive grid search,
//!   re-rebuilding the oracle's radii after each committed insert,
//! * for L∞, window-constrained placement matches the grid restricted
//!   to the window.
//!
//! The lattice is offset by an irrational-ish fraction of the step so
//! candidates never land on NN-circle boundaries of the quarter-integer
//! instances (where closed point containment and open region labels
//! legitimately differ).

use proptest::prelude::*;
use rnn_heatmap::prelude::*;

/// Points on a coarse quarter-integer grid (degenerate alignments
/// common, as in the core proptest suite).
fn points_strategy(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec((0u32..40, 0u32..40), n).prop_map(|v| {
        v.into_iter().map(|(x, y)| Point::new(x as f64 / 4.0, y as f64 / 4.0)).collect()
    })
}

/// The oracle's "full rebuild": every client's k-th NN radius
/// recomputed from the raw points.
fn kth_radii(clients: &[Point], facilities: &[Point], metric: Metric, k: usize) -> Vec<f64> {
    clients
        .iter()
        .map(|o| {
            let mut ds: Vec<f64> = facilities.iter().map(|f| metric.dist(o, f)).collect();
            ds.sort_by(f64::total_cmp);
            ds[k - 1]
        })
        .collect()
}

/// Brute-force closed-containment RkNN set of candidate `q` (sorted).
/// Zero-radius NN circles have empty interior and are dropped by the
/// arrangement builder (the client can never be influenced), so the
/// oracle drops them too.
fn oracle_rnn(clients: &[Point], radii: &[f64], metric: Metric, q: Point) -> Vec<u32> {
    clients
        .iter()
        .zip(radii)
        .enumerate()
        .filter(|(_, (o, &r))| r > 0.0 && metric.dist(o, &q) <= r)
        .map(|(i, _)| i as u32)
        .collect()
}

/// The offset candidate lattice over the instance (plus one far
/// exterior point so the empty-set influence always has a witness).
fn candidate_grid(points: &[Point]) -> Vec<Point> {
    let bb = Rect::bounding(points).expect("non-empty instance");
    let pad = 1.0;
    let (x0, y0) = (bb.x_lo - pad, bb.y_lo - pad);
    let (w, h) = (bb.width() + 2.0 * pad, bb.height() + 2.0 * pad);
    const G: usize = 14;
    let mut grid = Vec::with_capacity(G * G + 1);
    for i in 0..G {
        for j in 0..G {
            grid.push(Point::new(
                x0 + (i as f64 + 0.5137) * w / G as f64,
                y0 + (j as f64 + 0.5137) * h / G as f64,
            ));
        }
    }
    grid.push(Point::new(bb.x_hi + w + 3.17, bb.y_hi + h + 3.17));
    grid
}

/// Degenerate representative rectangles (razor-thin slivers from
/// grid-aligned inputs) put the representative point within float
/// noise of a boundary, where closed-vs-open containment is ambiguous;
/// those rare cases are skipped rather than asserted.
fn degenerate(p: &PlacementRegion) -> bool {
    p.rect.width() < 1e-6 || p.rect.height() < 1e-6
}

/// Checks one (instance, metric, k, measure) combination end to end.
fn check_combo<M: InfluenceMeasure>(
    clients: &[Point],
    facilities: &[Point],
    metric: Metric,
    k: usize,
    measure: &M,
) {
    let snap = ArrangementSnapshot::build_k(
        clients.to_vec(),
        facilities.to_vec(),
        metric,
        Mode::Bichromatic,
        k,
    )
    .expect("buildable instance");
    let query = PlacementQuery::new(&snap, measure);
    const M_TOP: usize = 3;
    let (top, stats) = query.top_placements_stats(M_TOP);
    // Every label is skipped on its raw bound or scored, and only scored
    // labels are hashed; the exterior candidate is one more label when
    // the sweep emits no empty set.
    let mut labels = CollectSink::default();
    match snap.arrangement() {
        ArrangementRef::Square(a) => crest_sweep(a, &CountMeasure, &mut labels),
        ArrangementRef::Disk(d) => crest_l2_sweep(d, &CountMeasure, &mut labels),
    };
    let exterior = usize::from(labels.regions.iter().all(|r| !r.rnn.is_empty()));
    assert_eq!(stats.evaluated + stats.pruned, labels.regions.len() + exterior, "prune accounting");
    assert!(top.len() <= stats.distinct_regions && stats.distinct_regions <= stats.evaluated);
    assert!(!top.is_empty(), "unconstrained placement is total");
    if top.iter().any(degenerate) {
        return;
    }

    let radii = kth_radii(clients, facilities, metric, k);
    // Every reported placement's representative point realizes its
    // claimed RNN set and influence under the brute-force oracle.
    for p in &top {
        let rnn = oracle_rnn(clients, &radii, metric, p.point);
        assert_eq!(rnn, p.rnn, "{metric:?} k={k}: reported RNN set at {:?}", p.point);
        assert_eq!(measure.influence(&rnn), p.influence, "{metric:?} k={k}: reported influence");
    }

    // Scoring a tentative insert at any grid candidate reports the
    // candidate's RNN set and influence against the base arrangement.
    let grid = candidate_grid(&[clients, facilities].concat());
    for &q in &grid {
        let eval = query.evaluate_insert(q).expect("grid candidates are finite");
        let rnn = oracle_rnn(clients, &radii, metric, q);
        assert_eq!(eval.rnn, rnn, "{metric:?} k={k}: evaluate_insert RNN set at {q:?}");
        assert_eq!(eval.influence, measure.influence(&rnn), "{metric:?} k={k}: influence at {q:?}");
    }

    // Two-sided argmax equality: the grid (plus the injected reported
    // points) must peak exactly at the reported best.
    let mut grid_max = f64::NEG_INFINITY;
    let reported: Vec<&[u32]> = top.iter().map(|p| p.rnn.as_slice()).collect();
    let floor = top.last().expect("non-empty").influence;
    for &q in grid.iter().chain(top.iter().map(|p| &p.point)) {
        let rnn = oracle_rnn(clients, &radii, metric, q);
        let influence = measure.influence(&rnn);
        grid_max = grid_max.max(influence);
        if !reported.contains(&rnn.as_slice()) {
            // Outside the reported regions the top-m dominates; with
            // fewer distinct regions than m, every region is reported
            // and an unreported signature would be a missed region.
            assert!(
                top.len() == M_TOP && influence <= floor,
                "{metric:?} k={k}: grid candidate {q:?} (influence {influence}) beats or \
                 escapes the reported top-{M_TOP} (floor {floor})"
            );
        }
    }
    assert_eq!(top[0].influence, grid_max, "{metric:?} k={k}: argmax equals grid maximum");

    // Relocation: oracle on the facility set minus facility 0.
    if facilities.len() > k {
        let rel = query.best_relocation(0).expect("facility 0 is removable");
        if !degenerate(&rel.best) {
            let rest: Vec<Point> = facilities[1..].to_vec();
            let radii2 = kth_radii(clients, &rest, metric, k);
            let mut best = f64::NEG_INFINITY;
            for &q in grid.iter().chain([rel.best.point].iter()) {
                best = best.max(measure.influence(&oracle_rnn(clients, &radii2, metric, q)));
            }
            assert_eq!(rel.best.influence, best, "{metric:?} k={k}: relocation argmax");
            // The old location is an exact input point, so it can lie
            // *exactly on* a post-removal circle boundary; under the
            // π/4-rotated L1 frame such a tie is one ulp from going
            // either way, which is a documented boundary ambiguity,
            // not an optimizer bug. Assert exact equality only in the
            // tie-free (general-position) case.
            let tie = clients
                .iter()
                .zip(&radii2)
                .any(|(o, &r)| r > 0.0 && metric.dist(o, &rel.from) == r);
            if !tie {
                let at_old = measure.influence(&oracle_rnn(clients, &radii2, metric, rel.from));
                assert_eq!(rel.current_influence, at_old, "{metric:?} k={k}: relocation current");
                assert_eq!(rel.gain, rel.best.influence - rel.current_influence);
            }
        }
        assert_eq!(snap.n_facilities(), facilities.len(), "tentative removal undone");
    }

    // Greedy: each step's argmax must match exhaustive grid search
    // against the oracle's current facility set, rebuilt per step.
    let greedy = query.greedy_place(2, &PlacementConstraints::none()).expect("greedy");
    let mut oracle_facilities = facilities.to_vec();
    for step in &greedy.steps {
        if degenerate(&step.chosen) {
            break;
        }
        let radii_now = kth_radii(clients, &oracle_facilities, metric, k);
        let mut best = f64::NEG_INFINITY;
        for &q in grid.iter().chain([step.chosen.point].iter()) {
            best = best.max(measure.influence(&oracle_rnn(clients, &radii_now, metric, q)));
        }
        assert_eq!(step.chosen.influence, best, "{metric:?} k={k}: greedy step argmax");
        let at_chosen =
            measure.influence(&oracle_rnn(clients, &radii_now, metric, step.chosen.point));
        assert_eq!(at_chosen, step.chosen.influence, "{metric:?} k={k}: greedy step witness");
        oracle_facilities.push(step.chosen.point);
    }

    // Window-constrained placement (exact for L∞ via the windowed
    // sweep): best-in-window equals the grid restricted to the window.
    if metric == Metric::Linf {
        let bb = Rect::bounding(clients).expect("non-empty");
        let window = Rect::new(
            bb.x_lo + bb.width() * 0.25,
            bb.x_lo + bb.width() * 0.75 + 0.5,
            bb.y_lo + bb.height() * 0.25,
            bb.y_lo + bb.height() * 0.75 + 0.5,
        );
        let constraints = PlacementConstraints { within: Some(window), min_influence: None };
        let constrained = query.top_placements_in(1, &constraints);
        if let Some(best) = constrained.first() {
            if !degenerate(best) {
                assert!(window.contains_closed(best.point), "constrained point in window");
                let mut grid_best = f64::NEG_INFINITY;
                for &q in grid.iter().filter(|q| window.contains_closed(**q)) {
                    grid_best =
                        grid_best.max(measure.influence(&oracle_rnn(clients, &radii, metric, q)));
                }
                let at_best = measure.influence(&oracle_rnn(clients, &radii, metric, best.point));
                assert_eq!(at_best, best.influence, "Linf k={k}: constrained witness");
                assert!(
                    best.influence >= grid_best,
                    "Linf k={k}: constrained best {} below in-window grid max {grid_best}",
                    best.influence
                );
            }
        }
    }
}

fn check_all_measures(clients: &[Point], facilities: &[Point], metric: Metric, k: usize) {
    check_combo(clients, facilities, metric, k, &CountMeasure);

    // Dyadic weights: sums are exact in any order, so equalities stay
    // bitwise.
    let weights: Vec<f64> = (0..clients.len()).map(|i| ((i % 9) as f64) * 0.25).collect();
    check_combo(clients, facilities, metric, k, &WeightedMeasure::new(weights));

    let nf = facilities.len() as u32;
    let assigned: Vec<u32> = (0..clients.len() as u32).map(|i| i % nf).collect();
    let capacities: Vec<u32> = (0..nf).map(|f| 1 + f % 5).collect();
    check_combo(clients, facilities, metric, k, &CapacityMeasure::new(assigned, capacities, 3));

    let edges: Vec<(u32, u32)> =
        (0..clients.len() as u32).map(|i| (i, (i + 1) % clients.len() as u32)).collect();
    let connectivity = if clients.len() > 2 {
        ConnectivityMeasure::from_edges(clients.len(), &edges)
    } else {
        ConnectivityMeasure::from_edges(clients.len(), &[])
    };
    check_combo(clients, facilities, metric, k, &connectivity);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn placement_matches_bruteforce(
        clients in points_strategy(8..26),
        facilities in points_strategy(5..9),
    ) {
        for metric in Metric::ALL {
            for k in [1usize, 2, 4] {
                check_all_measures(&clients, &facilities, metric, k);
            }
        }
    }
}
