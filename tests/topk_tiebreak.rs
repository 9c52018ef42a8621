//! Regression pin for the `postprocess::top_k` tie-break contract
//! (ISSUE 7 satellite): ties are broken by *first occurrence* of the
//! RNN-set signature in emission order, and within one signature the
//! first region achieving the maximum influence is the one kept
//! (strictly-greater replacement). The placement engine replicates
//! this ordering in its pruned ranking, so the contract is pinned both
//! on a crafted label list and on a real multi-tie arrangement.
//!
//! The same contract pins the streaming [`TopKSink`] (with and without
//! a bound that skips labels) against the naive reference, fed from
//! lists and from sweeps, and `Session::top_k` (one sweep into a
//! bounded sink, memoized per snapshot) against batch `top_k` over the
//! session's label list, for every measure and metric, across edits.

use rnn_heatmap::prelude::*;
use rnn_heatmap::HeatMapBuilder;

fn region(i: usize, rnn: &[u32], influence: f64) -> LabeledRegion {
    // The rect encodes the emission index so the test can tell *which*
    // occurrence of a duplicated signature survived.
    let x = i as f64;
    LabeledRegion { rect: Rect::new(x, x + 1.0, 0.0, 1.0), rnn: rnn.to_vec(), influence }
}

fn sig(rnn: &[u32]) -> Vec<u32> {
    let mut s = rnn.to_vec();
    s.sort_unstable();
    s.dedup();
    s
}

/// The contract, spelled out naively: distinct signatures in
/// first-occurrence order, each represented by the first region
/// achieving its maximum influence, stably sorted by influence
/// descending.
fn naive_top_k(regions: &[LabeledRegion], k: usize) -> Vec<LabeledRegion> {
    let mut sigs: Vec<Vec<u32>> = Vec::new();
    let mut best: Vec<usize> = Vec::new();
    for (i, r) in regions.iter().enumerate() {
        let s = sig(&r.rnn);
        match sigs.iter().position(|t| *t == s) {
            Some(slot) => {
                if regions[best[slot]].influence < r.influence {
                    best[slot] = i;
                }
            }
            None => {
                sigs.push(s);
                best.push(i);
            }
        }
    }
    let mut picked: Vec<LabeledRegion> = best.into_iter().map(|i| regions[i].clone()).collect();
    picked.sort_by(|a, b| b.influence.partial_cmp(&a.influence).expect("finite"));
    picked.truncate(k);
    picked
}

#[test]
fn tiebreak_is_first_occurrence_order() {
    let regions = vec![
        region(0, &[7], 2.0),
        region(1, &[1, 2], 5.0),
        region(2, &[3], 5.0),
        region(3, &[2, 1], 4.0), // duplicate signature, lower: ignored
        region(4, &[4], 5.0),
        region(5, &[3], 5.0), // duplicate, equal: first occurrence kept
        region(6, &[5], 1.0),
        region(7, &[4], 6.0), // duplicate, higher: replaces the value,
                              // but the slot keeps its original rank
    ];
    let top = top_k(&regions, 10);
    let got: Vec<(Vec<u32>, f64, f64)> =
        top.iter().map(|r| (sig(&r.rnn), r.influence, r.rect.x_lo)).collect();
    assert_eq!(
        got,
        vec![
            (vec![4], 6.0, 7.0),    // unique max, taken from emission index 7
            (vec![1, 2], 5.0, 1.0), // 5.0-tie broken by first occurrence:
            (vec![3], 5.0, 2.0),    //   slot order 1 then 2, NOT sort order
            (vec![7], 2.0, 0.0),
            (vec![5], 1.0, 6.0),
        ]
    );
    // Truncation happens after the tie-break, so a k that slices
    // through the tie keeps the earliest slots.
    let top2 = top_k(&regions, 2);
    assert_eq!(sig(&top2[1].rnn), vec![1, 2]);
}

#[test]
fn matches_naive_reference_on_tie_heavy_input() {
    // Tie-heavy pseudo-random list: few influence values, few
    // signatures, many duplicates.
    let mut state = 0x5eed_u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let pool: [&[u32]; 6] = [&[0], &[1], &[0, 1], &[2], &[1, 2], &[0, 2]];
    let regions: Vec<LabeledRegion> =
        (0..200).map(|i| region(i, pool[next() % pool.len()], (next() % 3) as f64 + 1.0)).collect();
    for k in [1, 2, 4, 6, 10] {
        let got = top_k(&regions, k);
        let want = naive_top_k(&regions, k);
        assert_eq!(got.len(), want.len(), "k={k}");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(sig(&g.rnn), sig(&w.rnn), "k={k}: signature order");
            assert_eq!(g.influence.to_bits(), w.influence.to_bits(), "k={k}");
            assert_eq!(g.rect.x_lo, w.rect.x_lo, "k={k}: same surviving occurrence");
        }
    }
}

/// A real arrangement with two far-apart facility clusters whose
/// pairwise overlaps tie at influence 2 and whose singleton regions
/// tie at influence 1: `top_k` over the sweep's emission must order
/// each tie class by first emission, and the placement engine's pruned
/// ranking must reproduce that order exactly.
#[test]
fn arrangement_ties_order_by_emission_and_placement_agrees() {
    let clients = vec![
        Point::new(1.0, 0.0),   // A: circle [0,2]x[-1,1]
        Point::new(0.0, 1.0),   // B: circle [-1,1]x[0,2], overlaps A
        Point::new(101.0, 0.0), // C: mirrored cluster at x=100
        Point::new(100.0, 1.0), // D
    ];
    let facilities = vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)];
    let arr = build_square_arrangement_k(&clients, &facilities, Metric::Linf, Mode::Bichromatic, 1)
        .expect("buildable");
    let mut sink = CollectSink::default();
    crest_sweep(&arr, &CountMeasure, &mut sink);

    // First-occurrence order of the distinct signatures, as emitted.
    let mut emitted: Vec<Vec<u32>> = Vec::new();
    for r in &sink.regions {
        let s = sig(&r.rnn);
        if !emitted.contains(&s) {
            emitted.push(s);
        }
    }
    assert_eq!(emitted.len(), 6, "4 singleton + 2 pairwise-overlap regions");

    let top = top_k(&sink.regions, 6);
    assert_eq!(top[0].influence, 2.0);
    assert_eq!(top[1].influence, 2.0);
    let pairs: Vec<Vec<u32>> = emitted.iter().filter(|s| s.len() == 2).cloned().collect();
    let singles: Vec<Vec<u32>> = emitted.iter().filter(|s| s.len() == 1).cloned().collect();
    let got: Vec<Vec<u32>> = top.iter().map(|r| sig(&r.rnn)).collect();
    assert_eq!(&got[..2], &pairs[..], "influence-2 tie follows emission order");
    assert_eq!(&got[2..], &singles[..], "influence-1 tie follows emission order");

    // The placement engine ranks the same regions through its pruned
    // bound-descending path; its order must match `top_k` exactly.
    let snap = ArrangementSnapshot::build_k(
        clients.clone(),
        facilities.clone(),
        Metric::Linf,
        Mode::Bichromatic,
        1,
    )
    .expect("buildable");
    let placements = PlacementQuery::new(&snap, &CountMeasure).top_placements(6);
    let placed: Vec<(Vec<u32>, f64)> =
        placements.iter().map(|p| (p.rnn.clone(), p.influence)).collect();
    let want: Vec<(Vec<u32>, f64)> = top.iter().map(|r| (sig(&r.rnn), r.influence)).collect();
    assert_eq!(placed, want, "placement ranking replicates top_k tie-break");
}

/// Asserts two region lists are equal element for element: rect,
/// RNN set in emission order, and influence bits.
fn assert_same_regions(got: &[LabeledRegion], want: &[LabeledRegion], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let rect_bits = |r: &Rect| [r.x_lo, r.x_hi, r.y_lo, r.y_hi].map(f64::to_bits);
        assert_eq!(rect_bits(&g.rect), rect_bits(&w.rect), "{what}: rect of #{i}");
        assert_eq!(g.rnn, w.rnn, "{what}: RNN set of #{i}");
        assert_eq!(g.influence.to_bits(), w.influence.to_bits(), "{what}: influence of #{i}");
    }
}

/// Feeds `regions` to a sink and returns its answer.
fn replay(
    regions: &[LabeledRegion],
    mut sink: TopKSink<impl Fn(&[u32]) -> f64>,
) -> Vec<LabeledRegion> {
    for r in regions {
        sink.label(r.rect, &r.rnn, r.influence);
    }
    sink.into_top()
}

/// A pseudo-random label list over a small signature pool: every
/// signature recurs many times, carries several influence values, and
/// is emitted with its members in varying order.
fn tie_heavy(seed: u64, n: usize) -> Vec<LabeledRegion> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let pool: [&[u32]; 8] = [&[0], &[1], &[0, 1], &[2], &[1, 2], &[0, 2], &[0, 1, 2], &[]];
    (0..n)
        .map(|i| {
            let mut rnn = pool[next() % pool.len()].to_vec();
            let turn = next() % rnn.len().max(1);
            rnn.rotate_left(turn);
            region(i, &rnn, (next() % 4) as f64 * 0.5 + 1.0)
        })
        .collect()
}

/// The highest influence each signature carries anywhere in `regions`:
/// the tightest bound that holds for every emission of a set.
fn tight_bound(regions: &[LabeledRegion]) -> impl Fn(&[u32]) -> f64 {
    let mut best: Vec<(Vec<u32>, f64)> = Vec::new();
    for r in regions {
        let s = sig(&r.rnn);
        match best.iter_mut().find(|(t, _)| *t == s) {
            Some((_, b)) => *b = b.max(r.influence),
            None => best.push((s, r.influence)),
        }
    }
    move |rnn: &[u32]| {
        let s = sig(rnn);
        best.iter().find(|(t, _)| *t == s).map_or(f64::INFINITY, |&(_, b)| b)
    }
}

#[test]
fn sink_matches_naive_reference_on_lists() {
    for seed in 0..20u64 {
        let regions = tie_heavy(0x7e57 + seed, 300);
        for k in [1, 2, 3, 5, 8, 100] {
            let want = naive_top_k(&regions, k);
            let what = format!("seed {seed}, k={k}");
            // `top_k` is the list replayed through the unbounded sink.
            assert_same_regions(&top_k(&regions, k), &want, &format!("{what}: unbounded"));
            assert_same_regions(
                &replay(&regions, TopKSink::with_bound(k, tight_bound(&regions))),
                &want,
                &format!("{what}: bounded sink"),
            );
        }
    }
}

/// One full sweep of the snapshot's arrangement into `sink`.
fn sweep<M: InfluenceMeasure, S: RegionSink>(
    snap: &ArrangementSnapshot,
    measure: &M,
    sink: &mut S,
) {
    match snap.arrangement() {
        ArrangementRef::Square(arr) => crest_sweep(arr, measure, sink),
        ArrangementRef::Disk(arr) => crest_l2_sweep(arr, measure, sink),
    };
}

#[test]
fn sink_matches_naive_reference_on_sweeps() {
    let mut state = 0xa11ce_u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 11) as f64) / ((1u64 << 53) as f64) * 10.0
    };
    let clients: Vec<Point> = (0..120).map(|_| Point::new(next(), next())).collect();
    let facilities: Vec<Point> = (0..9).map(|_| Point::new(next(), next())).collect();
    // Non-dyadic weights: one RNN set's influence depends on the order
    // its members are summed in.
    let weights = WeightedMeasure::new((0..120).map(|i| 0.1 + (i % 7) as f64 * 0.3).collect());
    for metric in Metric::ALL {
        let snap = ArrangementSnapshot::build(
            clients.clone(),
            facilities.clone(),
            metric,
            Mode::Bichromatic,
        )
        .expect("buildable");
        let (mut counts, mut weighted) = (CollectSink::default(), CollectSink::default());
        sweep(&snap, &CountMeasure, &mut counts);
        sweep(&snap, &weights, &mut weighted);
        assert!(counts.regions.len() > 50, "{metric:?}: a non-trivial arrangement");
        for k in [0, 1, 4, 10] {
            let what = format!("{metric:?}, k={k}");
            let mut c = TopKSink::with_bound(k, |rnn: &[u32]| CountMeasure.raw_upper_bound(rnn));
            sweep(&snap, &CountMeasure, &mut c);
            let want = naive_top_k(&counts.regions, k);
            assert_same_regions(&c.into_top(), &want, &format!("{what}: count"));
            let mut w = TopKSink::new(k);
            sweep(&snap, &weights, &mut w);
            let want = naive_top_k(&weighted.regions, k);
            assert_same_regions(&w.into_top(), &want, &format!("{what}: weighted"));
        }
    }
}

#[test]
fn k_zero_is_an_empty_answer() {
    let regions = tie_heavy(5, 50);
    assert!(top_k(&regions, 0).is_empty());
    assert!(replay(&regions, TopKSink::with_bound(0, |_: &[u32]| 0.0)).is_empty());
    let clients = vec![Point::new(1.0, 0.0), Point::new(0.0, 1.0)];
    let map = HeatMapBuilder::bichromatic(clients, vec![Point::new(0.0, 0.0)])
        .build(CountMeasure)
        .expect("buildable");
    assert!(map.top_k(0).is_empty());
    assert_eq!(map.top_k(1).len(), 1, "a zero-k answer does not stick");
}

/// `Session::top_k` streams one sweep into a bounded sink; it must
/// equal batch `top_k` over the session's full label list for every
/// measure and metric, before and after edits, and through the memo.
#[test]
fn session_top_k_equals_batch_top_k_for_every_measure_and_metric() {
    let mut state = 0xb0b_u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 11) as f64) / ((1u64 << 53) as f64) * 10.0
    };
    let clients: Vec<Point> = (0..60).map(|_| Point::new(next(), next())).collect();
    let facilities: Vec<Point> = (0..5).map(|_| Point::new(next(), next())).collect();
    let edits: Vec<Point> = (0..3).map(|_| Point::new(next(), next())).collect();
    let n = clients.len();
    let weighted = WeightedMeasure::new((0..n).map(|i| 0.1 + (i % 5) as f64 * 0.7).collect());
    let capacity =
        CapacityMeasure::new((0..n as u32).map(|i| i % 5).collect(), vec![2, 4, 1, 3, 5], 3);
    let edges: Vec<(u32, u32)> =
        (0..n as u32).flat_map(|a| [(a, (a + 1) % n as u32), (a, (a + 4) % n as u32)]).collect();
    let connectivity = ConnectivityMeasure::from_edges(n, &edges);
    for metric in Metric::ALL {
        check_session_top_k(&clients, &facilities, &edits, metric, CountMeasure, "count");
        check_session_top_k(&clients, &facilities, &edits, metric, weighted.clone(), "weighted");
        check_session_top_k(&clients, &facilities, &edits, metric, capacity.clone(), "capacity");
        check_session_top_k(
            &clients,
            &facilities,
            &edits,
            metric,
            connectivity.clone(),
            "connectivity",
        );
    }
}

fn check_session_top_k<M: InfluenceMeasure>(
    clients: &[Point],
    facilities: &[Point],
    edits: &[Point],
    metric: Metric,
    measure: M,
    name: &str,
) {
    let engine = HeatMapBuilder::bichromatic(clients.to_vec(), facilities.to_vec())
        .metric(metric)
        .build_engine(measure)
        .expect("buildable");
    let mut session = engine.session();
    for step in 0..=edits.len() {
        let what = format!("{name}/{metric:?}/after {step} edits");
        // Ask top-k first, so it sweeps rather than reading a held list;
        // then widen (a new sweep) and narrow (a prefix of the memo).
        let fresh = session.top_k(4);
        let wide = session.top_k(12);
        let narrow = session.top_k(2);
        let max = session.max_region();
        let all = session.regions();
        assert_same_regions(&fresh, &top_k(&all, 4), &format!("{what}: k=4"));
        assert_same_regions(&wide, &top_k(&all, 12), &format!("{what}: k=12"));
        assert_same_regions(&narrow, &top_k(&all, 2), &format!("{what}: k=2 from the memo"));
        assert_same_regions(&max.into_iter().collect::<Vec<_>>(), &top_k(&all, 1), &what);
        if let Some(&p) = edits.get(step) {
            session.add_facility(p).expect("bichromatic map accepts adds");
        }
    }
}
