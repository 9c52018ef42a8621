//! Influence measures exercised through the full pipeline: the Fig 3
//! taxi-sharing numbers, the capacity utility against an independent
//! recomputation, and post-processing consistency.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rnn_heatmap::prelude::*;
use rnnhm_core::oracle::signature;
use rnnhm_index::KdTree;

/// The Fig 3 configuration used by the `taxi_sharing` example, with the
/// NN-circles derived from actual clients/facilities.
fn fig3() -> (Vec<Point>, Vec<Point>, ConnectivityMeasure) {
    let clients = vec![
        Point::new(4.0, 4.0), // o1
        Point::new(8.0, 4.0), // o2
        Point::new(2.0, 6.0), // o3
        Point::new(4.5, 6.5), // o4
    ];
    let facilities = vec![Point::new(2.0, 3.0), Point::new(8.0, 7.0)];
    let measure = ConnectivityMeasure::from_edges(4, &[(0, 1), (0, 3), (1, 3)]);
    (clients, facilities, measure)
}

#[test]
fn fig3_superimposition_ties_but_connectivity_separates() {
    let (clients, facilities, connectivity) = fig3();
    let arr =
        build_square_arrangement(&clients, &facilities, Metric::Linf, Mode::Bichromatic).unwrap();

    // Count measure: the two 3-overlap regions tie at heat 3.
    let mut count_sink = CollectSink::default();
    crest_sweep(&arr, &CountMeasure, &mut count_sink);
    let count_top = top_k(&count_sink.regions, 2);
    assert_eq!(count_top[0].influence, 3.0);
    assert_eq!(count_top[1].influence, 3.0);
    let sigs: Vec<Vec<u32>> = count_top.iter().map(|r| signature(&r.rnn)).collect();
    assert!(sigs.contains(&vec![0, 1, 3]), "{{o1,o2,o4}} region exists");
    assert!(sigs.contains(&vec![0, 2, 3]), "{{o1,o3,o4}} region exists");

    // Connectivity measure: only {o1,o2,o4} carries all three edges.
    let mut conn_sink = CollectSink::default();
    crest_sweep(&arr, &connectivity, &mut conn_sink);
    let conn_top = top_k(&conn_sink.regions, 2);
    assert_eq!(conn_top[0].influence, 3.0);
    assert_eq!(signature(&conn_top[0].rnn), vec![0, 1, 3]);
    assert!(conn_top[1].influence <= 1.0, "the foil region drops to heat 1");
}

/// Brute-force capacity utility: simulate the assignment after placing a
/// new facility that captures exactly `rnn`, then sum `min(cap, load)`.
fn capacity_oracle(assigned: &[u32], capacities: &[u32], new_capacity: u32, rnn: &[u32]) -> f64 {
    let mut load = vec![0u32; capacities.len()];
    for (o, &f) in assigned.iter().enumerate() {
        if !rnn.contains(&(o as u32)) {
            load[f as usize] += 1;
        }
    }
    let served: u32 = load.iter().zip(capacities).map(|(&l, &c)| l.min(c)).sum();
    served as f64 + (rnn.len() as u32).min(new_capacity) as f64
}

#[test]
fn capacity_measure_matches_brute_force_simulation() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..50 {
        let n_f = 1 + rng.random_range(0..5usize);
        let n_c = 1 + rng.random_range(0..20usize);
        let assigned: Vec<u32> = (0..n_c).map(|_| rng.random_range(0..n_f) as u32).collect();
        let capacities: Vec<u32> = (0..n_f).map(|_| rng.random_range(1..6)).collect();
        let new_capacity = rng.random_range(1..6);
        let measure = CapacityMeasure::new(assigned.clone(), capacities.clone(), new_capacity);
        // Random RNN subsets.
        for _ in 0..10 {
            let rnn: Vec<u32> = (0..n_c as u32).filter(|_| rng.random::<bool>()).collect();
            assert_eq!(
                measure.influence(&rnn),
                capacity_oracle(&assigned, &capacities, new_capacity, &rnn),
                "assigned {assigned:?} caps {capacities:?} rnn {rnn:?}"
            );
        }
    }
}

#[test]
fn capacity_measure_end_to_end_on_geometry() {
    // Full pipeline: geometry → assignment → measure → CREST; the best
    // region's influence must equal the brute-force simulation of its set.
    let mut rng = StdRng::seed_from_u64(42);
    let clients: Vec<Point> =
        (0..80).map(|_| Point::new(rng.random::<f64>() * 8.0, rng.random::<f64>() * 8.0)).collect();
    let facilities: Vec<Point> =
        (0..10).map(|_| Point::new(rng.random::<f64>() * 8.0, rng.random::<f64>() * 8.0)).collect();
    let tree = KdTree::build(&facilities);
    let assigned: Vec<u32> =
        clients.iter().map(|o| tree.nearest(o, Metric::L2).unwrap().0).collect();
    let capacities = vec![5u32; facilities.len()];
    let measure = CapacityMeasure::new(assigned.clone(), capacities.clone(), 8);

    let arr = build_disk_arrangement(&clients, &facilities, Mode::Bichromatic).unwrap();
    let (best, _) = crest_l2_max_region(&arr, &measure);
    let best = best.unwrap();
    assert_eq!(
        best.influence,
        capacity_oracle(&assigned, &capacities, 8, &best.rnn),
        "CREST-reported influence must equal the simulated utility"
    );
    assert!(best.influence >= measure.base_total(), "a new facility cannot hurt");
}

#[test]
fn weighted_measure_through_sweep() {
    let clients = vec![Point::new(1.0, 1.0), Point::new(2.0, 1.2), Point::new(8.0, 8.0)];
    let facilities = vec![Point::new(0.0, 0.0)];
    let weights = vec![2.5, 1.0, 10.0];
    let arr =
        build_square_arrangement(&clients, &facilities, Metric::Linf, Mode::Bichromatic).unwrap();
    let mut sink = CollectSink::default();
    crest_sweep(&arr, &WeightedMeasure::new(weights.clone()), &mut sink);
    for r in &sink.regions {
        let expect: f64 = r.rnn.iter().map(|&o| weights[o as usize]).sum();
        assert_eq!(r.influence, expect);
    }
}

#[test]
fn threshold_and_topk_are_consistent_with_collect() {
    let mut rng = StdRng::seed_from_u64(3);
    let clients: Vec<Point> =
        (0..60).map(|_| Point::new(rng.random::<f64>() * 5.0, rng.random::<f64>() * 5.0)).collect();
    let facilities: Vec<Point> =
        (0..6).map(|_| Point::new(rng.random::<f64>() * 5.0, rng.random::<f64>() * 5.0)).collect();
    let arr =
        build_square_arrangement(&clients, &facilities, Metric::Linf, Mode::Bichromatic).unwrap();

    let mut all = CollectSink::default();
    let mut top = TopKSink::new(3);
    let mut thresh = ThresholdSink::new(4.0);
    // One sweep into collect, then streaming sinks on separate sweeps
    // must agree with batch post-processing of the collected labels.
    crest_sweep(&arr, &CountMeasure, &mut all);
    crest_sweep(&arr, &CountMeasure, &mut top);
    crest_sweep(&arr, &CountMeasure, &mut thresh);

    let batch_top = top_k(&all.regions, 3);
    assert_eq!(top.into_top(), batch_top, "streaming and batch top-k pick the same regions");
    let batch_thresh = threshold(&all.regions, 4.0);
    assert_eq!(batch_thresh.len(), thresh.regions.len());
}
