//! Property-based tests (proptest) over the core invariants:
//!
//! * every CREST label matches the brute-force oracle at its witness,
//! * CREST never labels more than CREST-A, and at least one label per
//!   distinct non-empty RNN set is produced,
//! * the L1 reduction is exact: RNN sets computed in the rotated frame
//!   equal direct L1 point queries,
//! * exact tilings (BA vs CREST-A) agree in area per signature,
//! * interval merging is sound and complete.

use proptest::prelude::*;
use rnn_heatmap::prelude::*;
use rnnhm_core::baseline::baseline_sweep;
use rnnhm_core::oracle::{
    area_by_signature, assert_area_maps_equal, rnn_at_points, rnn_at_square, signature,
};
use rnnhm_index::interval::{merge_intervals, Interval};

/// Strategy: a set of client/facility points on a coarse grid (snapping
/// to quarter-integers makes degenerate alignments — shared sides, equal
/// coordinates — *common* rather than rare, which is exactly what we
/// want to stress).
fn points_strategy(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec((0u32..40, 0u32..40), n).prop_map(|v| {
        v.into_iter().map(|(x, y)| Point::new(x as f64 / 4.0, y as f64 / 4.0)).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn crest_labels_match_oracle(
        clients in points_strategy(1..40),
        facilities in points_strategy(1..6),
    ) {
        let arr = build_square_arrangement(
            &clients, &facilities, Metric::Linf, Mode::Bichromatic).unwrap();
        let mut sink = CollectSink::default();
        crest_sweep(&arr, &CountMeasure, &mut sink);
        for r in &sink.regions {
            // Grid-snapped inputs make genuinely degenerate (zero-area)
            // pairs possible; they carry no open region.
            if r.rect.width() <= 0.0 || r.rect.height() <= 0.0 {
                continue;
            }
            let center = r.rect.center();
            prop_assert_eq!(
                signature(&r.rnn),
                rnn_at_square(&arr, center),
                "label at {:?}", center
            );
        }
    }

    #[test]
    fn crest_is_no_worse_than_crest_a_and_covers_all_sets(
        clients in points_strategy(1..30),
        facilities in points_strategy(1..5),
    ) {
        let arr = build_square_arrangement(
            &clients, &facilities, Metric::Linf, Mode::Bichromatic).unwrap();
        let mut crest = CollectSink::default();
        let s1 = crest_sweep(&arr, &CountMeasure, &mut crest);
        let mut full = CollectSink::default();
        let s2 = crest_a_sweep(&arr, &CountMeasure, &mut full);
        prop_assert!(s1.labels <= s2.labels);
        let mut a: Vec<Vec<u32>> = crest.regions.iter().map(|r| signature(&r.rnn)).collect();
        let mut b: Vec<Vec<u32>> = full.regions.iter().map(|r| signature(&r.rnn)).collect();
        a.sort(); a.dedup(); a.retain(|s| !s.is_empty());
        b.sort(); b.dedup(); b.retain(|s| !s.is_empty());
        prop_assert_eq!(a, b);
    }

    #[test]
    fn l1_rotation_reduction_is_exact(
        clients in points_strategy(1..25),
        facilities in points_strategy(1..5),
        qx in 0u32..160, qy in 0u32..160,
    ) {
        let arr = build_square_arrangement(
            &clients, &facilities, Metric::L1, Mode::Bichromatic).unwrap();
        let q = Point::new(qx as f64 / 16.0, qy as f64 / 16.0);
        // Direct L1 definition vs containment in the rotated squares.
        let direct = rnn_at_points(&clients, &facilities, Metric::L1, q);
        let rotated = rnn_at_square(&arr, arr.space.to_sweep(q));
        // Points exactly on an NN-circle boundary differ between open
        // containment and the strict `<` definition only on a measure-zero
        // set; skip those.
        let ambiguous = clients.iter().enumerate().any(|(i, o)| {
            let d_q = Metric::L1.dist(o, &q);
            let d_nn = facilities.iter()
                .map(|f| Metric::L1.dist(o, f))
                .fold(f64::INFINITY, f64::min);
            (d_q - d_nn).abs() < 1e-9 && i < clients.len()
        });
        if !ambiguous {
            prop_assert_eq!(direct, rotated, "query {:?}", q);
        }
    }

    #[test]
    fn ba_and_crest_a_areas_agree(
        clients in points_strategy(1..20),
        facilities in points_strategy(1..4),
    ) {
        let arr = build_square_arrangement(
            &clients, &facilities, Metric::Linf, Mode::Bichromatic).unwrap();
        let mut ba = CollectSink::default();
        baseline_sweep(&arr, &CountMeasure, &mut ba);
        let mut ca = CollectSink::default();
        crest_a_sweep(&arr, &CountMeasure, &mut ca);
        assert_area_maps_equal(
            &area_by_signature(&ba.regions),
            &area_by_signature(&ca.regions),
            1e-9,
        );
    }

    #[test]
    fn interval_merge_is_sound_and_complete(
        raw in prop::collection::vec((0i32..100, 0i32..20), 0..20),
        probe in 0i32..120,
    ) {
        let input: Vec<Interval> = raw.iter()
            .map(|&(lo, len)| Interval::new(lo as f64, (lo + len) as f64))
            .collect();
        let mut merged = input.clone();
        merge_intervals(&mut merged);
        // Disjoint and sorted.
        for w in merged.windows(2) {
            prop_assert!(w[0].hi < w[1].lo, "merged intervals overlap or touch");
        }
        // Coverage-equivalent: any probe point is covered by the merged
        // set iff it was covered by some input interval.
        let p = probe as f64;
        let in_input = input.iter().any(|iv| iv.contains(p));
        let in_merged = merged.iter().any(|iv| iv.contains(p));
        prop_assert_eq!(in_input, in_merged);
    }

    #[test]
    fn element_distinctness_reduction(values in prop::collection::vec(2i64..40, 1..25)) {
        // §VI-C: from reals a_1..a_n build squares with diagonal corners
        // (a_1, a_1)–(a_i, a_i); the Region Coloring output has exactly
        // d distinct RNN sets (including the exterior's empty set), where
        // d is the number of distinct values — so an RC algorithm decides
        // element distinctness. a_1 = 0 here and generated values are ≥ 2,
        // so no square degenerates to a point.
        let a1 = 0.0f64;
        let squares: Vec<Rect> = values
            .iter()
            .map(|&v| Rect::from_corners(Point::new(a1, a1), Point::new(v as f64, v as f64)))
            .collect();
        let owners = (0..squares.len() as u32).collect();
        let n = squares.len();
        let arr = rnnhm_core::SquareArrangement {
            squares,
            owners,
            space: rnnhm_core::CoordSpace::Identity,
            n_clients: n,
            dropped: 0,
            k: 1,
        };
        let mut sink = CollectSink::default();
        crest_sweep(&arr, &CountMeasure, &mut sink);
        let mut sigs: Vec<Vec<u32>> =
            sink.regions.iter().map(|r| signature(&r.rnn)).collect();
        sigs.sort();
        sigs.dedup();
        sigs.retain(|s| !s.is_empty());
        let mut distinct = values.clone();
        distinct.sort_unstable();
        distinct.dedup();
        // d distinct values among {a_1} ∪ {a_i}: a_1 contributes the
        // exterior (empty set); every distinct a_i contributes one ring.
        prop_assert_eq!(sigs.len(), distinct.len(),
            "distinct RNN sets must count distinct inputs");
    }

    #[test]
    fn rnnset_load_roundtrip(ids in prop::collection::hash_set(0u32..500, 0..60)) {
        let mut s = rnnhm_core::RnnSet::new(500);
        let v: Vec<u32> = ids.iter().copied().collect();
        s.load(&v);
        prop_assert_eq!(s.len(), ids.len());
        for id in 0..500u32 {
            prop_assert_eq!(s.contains(id), ids.contains(&id));
        }
        let mut snap = s.members().to_vec();
        snap.sort_unstable();
        let mut expect = v.clone();
        expect.sort_unstable();
        prop_assert_eq!(snap, expect);
    }
}
