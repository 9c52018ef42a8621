//! Differential property tests for what-if editing (ISSUE 3
//! acceptance): after *any* random script of insert / remove / move
//! facility edits, the edited map is **bit-identical** to a
//! from-scratch rebuild over the resulting facility set, along every
//! path that renders or queries it:
//!
//! * a one-shot `raster()` of a fixed spec,
//! * a `viewport()` served through the (partially invalidated,
//!   partially re-keyed) tile cache,
//! * the labeled regions and the top-k: an edit resets the session's
//!   region answers, so `regions()` (a full re-sweep) and `top_k(10)`
//!   (one sweep into a bounded sink) must equal the rebuild's element
//!   for element — rect, RNN set in emission order, influence bits.
//!
//! Covered across all three metrics (square and disk arrangements) and
//! the four paper measures; weights are dyadic rationals so every
//! measure is an order-insensitive exact computation and bit-equality
//! is the right notion of "same heat map".
//!
//! (The vendored proptest stub only supports `ident in strategy`
//! bindings — tuples are bound whole and destructured inside.)

use proptest::prelude::*;
use rnn_heatmap::prelude::*;
use rnn_heatmap::{HeatMapBuilder, Session};
use rnnhm_heatmap::scanline::rasterize_squares_scanline;

/// One edit: `(op, x, y, pick)` decoded by [`apply_script`].
type Step = (u8, u32, u32, u32);

fn assert_bits(a: &HeatRaster, b: &HeatRaster, what: &str) {
    assert_eq!(a.spec, b.spec, "{what}: spec mismatch");
    for row in 0..a.spec.height {
        for col in 0..a.spec.width {
            assert!(
                a.get(col, row).to_bits() == b.get(col, row).to_bits(),
                "{what}: pixel ({col},{row}): edited {} vs rebuilt {}",
                a.get(col, row),
                b.get(col, row)
            );
        }
    }
}

fn decode_point(x: u32, y: u32) -> Point {
    Point::new(x as f64 / 4.0 - 0.5, y as f64 / 4.0 - 0.5)
}

/// Applies the script through the facade. Skipped steps (removing the
/// last facility) must error, not panic.
fn apply_script<M: IncrementalMeasure + Sync>(map: &mut Session<M>, script: &[Step]) {
    for &(op, x, y, pick) in script {
        let p = decode_point(x, y);
        match op % 3 {
            0 => {
                map.add_facility(p).expect("bichromatic map accepts adds");
            }
            1 => {
                let facs = map.facilities();
                let id = facs[pick as usize % facs.len()].0;
                match map.remove_facility(id) {
                    Ok(_) | Err(EditError::TooFewFacilities) => {}
                    Err(e) => panic!("unexpected edit error {e}"),
                }
            }
            _ => {
                let facs = map.facilities();
                let id = facs[pick as usize % facs.len()].0;
                map.move_facility(id, p).expect("live facility moves");
            }
        }
    }
}

/// The shared differential body: build, warm every cache, edit, then
/// compare all paths against a clean rebuild.
fn run_case<M: IncrementalMeasure + Sync + Clone>(
    clients: &[Point],
    facilities: &[Point],
    metric: Metric,
    measure: M,
    script: &[Step],
    what: &str,
) {
    let mut map = match HeatMapBuilder::bichromatic(clients.to_vec(), facilities.to_vec())
        .metric(metric)
        .tile_px(16)
        .build(measure.clone())
    {
        Ok(m) => m,
        Err(_) => return, // degenerate instance (e.g. no clients)
    };
    let spec = GridSpec::new(48, 40, Rect::new(-1.0, 11.0, -1.0, 11.0));
    // Compute region answers before editing: the edits must reset them.
    let _ = map.stats();
    let _ = map.top_k(10);
    let vrect = Rect::new(0.7, 8.3, 0.9, 7.7);
    let _ = map.viewport(vrect, 40, 40); // warm the tile cache pre-edit

    apply_script(&mut map, script);

    let rebuilt = HeatMapBuilder::bichromatic(
        clients.to_vec(),
        map.facilities().into_iter().map(|(_, p)| p).collect(),
    )
    .metric(metric)
    .build(measure)
    .expect("facility set never empties");

    let fresh = rebuilt.raster(spec);
    assert_bits(&map.raster(spec), &fresh, &format!("{what}: one-shot raster"));

    let frame = map.viewport(vrect, 40, 40);
    let one_shot = rebuilt.raster(frame.spec);
    assert_bits(&frame, &one_shot, &format!("{what}: viewport through edited cache"));

    // Region answers are recomputed from the edited arrangement, whose
    // circles equal the rebuild's bit for bit: the sweeps agree label
    // for label.
    assert_same_regions(&map.regions(), &rebuilt.regions(), &format!("{what}: regions"));
    assert_same_regions(&map.top_k(10), &rebuilt.top_k(10), &format!("{what}: top_k(10)"));
}

/// Asserts two region lists are equal element for element: rect, RNN
/// set in emission order, and influence bits.
fn assert_same_regions(ours: &[LabeledRegion], theirs: &[LabeledRegion], what: &str) {
    assert_eq!(ours.len(), theirs.len(), "{what}: label count (edited vs rebuilt)");
    for (i, (a, b)) in ours.iter().zip(theirs).enumerate() {
        let bits = |r: &Rect| [r.x_lo, r.x_hi, r.y_lo, r.y_hi].map(f64::to_bits);
        assert_eq!(bits(&a.rect), bits(&b.rect), "{what}: rect of label {i}");
        assert_eq!(a.rnn, b.rnn, "{what}: RNN set of label {i}");
        assert_eq!(a.influence.to_bits(), b.influence.to_bits(), "{what}: influence of label {i}");
    }
}

/// Deduplicated (sorted RNN set, influence bits) signatures of a label
/// list, skipping empty-RNN labels.
fn signature_set(regions: &[LabeledRegion]) -> Vec<(Vec<u32>, u64)> {
    let mut out: Vec<(Vec<u32>, u64)> = Vec::new();
    for r in regions {
        if r.rnn.is_empty() {
            continue;
        }
        let mut sig = r.rnn.clone();
        sig.sort_unstable();
        let entry = (sig, r.influence.to_bits());
        if !out.contains(&entry) {
            out.push(entry);
        }
    }
    out
}

fn decode_points(raw: &[(u32, u32)]) -> Vec<Point> {
    raw.iter().map(|&(x, y)| decode_point(x, y)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn random_edit_scripts_match_rebuild_count(
        raw_clients in prop::collection::vec((0u32..44, 0u32..44), 3..18),
        raw_facs in prop::collection::vec((0u32..44, 0u32..44), 1..4),
        script in prop::collection::vec((0u8..3, 0u32..44, 0u32..44, 0u32..8), 1..10),
    ) {
        let clients = decode_points(&raw_clients);
        let facs = decode_points(&raw_facs);
        for metric in Metric::ALL {
            run_case(&clients, &facs, metric, CountMeasure, &script, "count");
        }
    }

    #[test]
    fn random_edit_scripts_match_rebuild_weighted(
        raw_clients in prop::collection::vec((0u32..44, 0u32..44), 3..18),
        raw_facs in prop::collection::vec((0u32..44, 0u32..44), 1..4),
        script in prop::collection::vec((0u8..3, 0u32..44, 0u32..44, 0u32..8), 1..10),
    ) {
        let clients = decode_points(&raw_clients);
        let facs = decode_points(&raw_facs);
        // Dyadic weights: exact sums in any order, so bit-identity is
        // the right comparison even for a float-valued measure.
        let weights: Vec<f64> = (0..clients.len()).map(|i| (i % 9) as f64 * 0.25).collect();
        for metric in Metric::ALL {
            run_case(&clients, &facs, metric, WeightedMeasure::new(weights.clone()), &script, "weighted");
        }
    }

    #[test]
    fn random_edit_scripts_match_rebuild_capacity_and_connectivity(
        raw_clients in prop::collection::vec((0u32..44, 0u32..44), 3..14),
        raw_facs in prop::collection::vec((0u32..44, 0u32..44), 1..4),
        script in prop::collection::vec((0u8..3, 0u32..44, 0u32..44, 0u32..8), 1..8),
    ) {
        let clients = decode_points(&raw_clients);
        let facs = decode_points(&raw_facs);
        let n = clients.len();
        // Measure parameters describe the *initial* assignment — they
        // are data, not live facility state, so the rebuilt map uses
        // the identical measure.
        let nf = facs.len() as u32;
        let assigned: Vec<u32> = (0..n as u32).map(|i| i % nf).collect();
        let capacities: Vec<u32> = (0..nf).map(|f| 1 + f % 4).collect();
        let capacity = CapacityMeasure::new(assigned, capacities, 2);
        let edges: Vec<(u32, u32)> =
            (0..n as u32).flat_map(|a| [(a, (a + 1) % n as u32), (a, (a + 3) % n as u32)]).collect();
        let connectivity = ConnectivityMeasure::from_edges(n, &edges);
        for metric in Metric::ALL {
            run_case(&clients, &facs, metric, capacity.clone(), &script, "capacity");
            run_case(&clients, &facs, metric, connectivity.clone(), &script, "connectivity");
        }
    }
}

/// A fixed, deterministic scenario exercising every op and every
/// measure, including drop/regrow transitions (a facility lands exactly
/// on a client, then moves away).
#[test]
fn scripted_scenario_all_measures_all_metrics() {
    let clients: Vec<Point> = (0..24)
        .map(|i| Point::new((i % 6) as f64 * 1.7 + 0.2, (i / 6) as f64 * 2.1 + 0.4))
        .collect();
    let facs = vec![Point::new(1.0, 1.0), Point::new(7.0, 6.0)];
    // add on a client (drops its circle), move that facility away
    // (regrows it), remove one, add two more, move across the map.
    let script: Vec<Step> = vec![
        (0, 6, 10, 0),  // add at (1.0, 2.0)... decoded (6/4-0.5, 10/4-0.5) = (1.0, 2.0)
        (0, 2, 2, 0),   // add at (0.0, 0.0)
        (2, 30, 30, 2), // move someone to (7.0, 7.0)
        (1, 0, 0, 1),   // remove
        (0, 14, 4, 0),  // add at (3.0, 0.5)
        (2, 2, 2, 3),   // move to (0.0, 0.0)
        (1, 0, 0, 0),   // remove
        (0, 22, 18, 0), // add at (5.0, 4.0)
    ];
    let n = clients.len();
    let weights: Vec<f64> = (0..n).map(|i| (i % 7) as f64 * 0.5).collect();
    let assigned: Vec<u32> = (0..n as u32).map(|i| i % 2).collect();
    let capacity = CapacityMeasure::new(assigned, vec![3, 5], 2);
    let edges: Vec<(u32, u32)> = (0..n as u32).map(|a| (a, (a + 5) % n as u32)).collect();
    let connectivity = ConnectivityMeasure::from_edges(n, &edges);
    for metric in Metric::ALL {
        run_case(&clients, &facs, metric, CountMeasure, &script, "scripted/count");
        run_case(
            &clients,
            &facs,
            metric,
            WeightedMeasure::new(weights.clone()),
            &script,
            "scripted/weighted",
        );
        run_case(&clients, &facs, metric, capacity.clone(), &script, "scripted/capacity");
        run_case(&clients, &facs, metric, connectivity.clone(), &script, "scripted/connectivity");
    }
}

/// After a removal, *every* RNN signature a from-scratch rebuild labels
/// must be represented in the edited map's labels. Few facilities make
/// wide NN-circles, whose labels reach far past the dirty region: a
/// region layer that patched labels inside the dirty window only would
/// lose them. The edit resets the labels and the next query re-sweeps
/// the whole arrangement, so nothing can be lost.
#[test]
fn maintained_labels_cover_every_rebuilt_signature() {
    let mut state = 0xfeed_u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 11) as f64) / ((1u64 << 53) as f64) * 10.0
    };
    let clients: Vec<Point> = (0..50).map(|_| Point::new(next(), next())).collect();
    let facs: Vec<Point> = (0..5).map(|_| Point::new(next(), next())).collect();
    for metric in [Metric::Linf, Metric::L1] {
        for remove_pick in 0..5u32 {
            let mut map = HeatMapBuilder::bichromatic(clients.clone(), facs.clone())
                .metric(metric)
                .build(CountMeasure)
                .unwrap();
            let _ = map.stats(); // compute regions before the edit resets them
            let id = map.facilities()[remove_pick as usize].0;
            map.remove_facility(id).unwrap();
            let rebuilt = HeatMapBuilder::bichromatic(
                clients.clone(),
                map.facilities().into_iter().map(|(_, p)| p).collect(),
            )
            .metric(metric)
            .build(CountMeasure)
            .unwrap();
            let ours = map.with_regions(signature_set);
            let theirs = rebuilt.with_regions(signature_set);
            for sig in &theirs {
                assert!(
                    ours.contains(sig),
                    "{metric:?}, remove {remove_pick}: rebuilt signature {sig:?} lost from the \
                     edited map's labels"
                );
            }
        }
    }
}

/// A facility placed exactly on every client of a cluster erases all
/// their circles; removing it restores the exact pre-edit heat map —
/// the strongest "undo" check, on both the one-shot raster and the
/// viewport served through the edited tile cache.
#[test]
fn add_then_remove_is_bitwise_undo() {
    let clients = vec![
        Point::new(1.0, 1.0),
        Point::new(2.0, 2.0),
        Point::new(8.0, 8.0),
        Point::new(9.0, 7.0),
    ];
    let facs = vec![Point::new(5.0, 5.0)];
    for metric in Metric::ALL {
        let mut map = HeatMapBuilder::bichromatic(clients.clone(), facs.clone())
            .metric(metric)
            .tile_px(16)
            .build(CountMeasure)
            .unwrap();
        let spec = GridSpec::new(40, 40, Rect::new(0.0, 10.0, 0.0, 10.0));
        let vrect = Rect::new(0.0, 10.0, 0.0, 10.0);
        let before = map.raster(spec);
        let first = map.viewport(vrect, 40, 40);
        let (id, _) = map.add_facility(Point::new(1.0, 1.0)).unwrap();
        // Serve the edited map, so its dirty tiles re-render before the
        // removal dirties them again.
        let _ = map.viewport(vrect, 40, 40);
        map.remove_facility(id).unwrap();
        assert_bits(&map.raster(spec), &before, "undo one-shot");
        assert_bits(&map.viewport(vrect, 40, 40), &first, "undo viewport");
        assert_eq!(map.n_facilities(), 1);
    }
}

/// A what-if script at realistic density: 10,000 uniform clients, 625
/// facilities, a 256² viewport of 64 px tiles, and 16 interleaved
/// add/move/remove edits inside it, at k ∈ {1, 4, 16}. After every
/// edit the viewport served through the edited cache equals a
/// from-scratch k-NN rebuild rendered one-shot, and the script
/// re-renders only dirtied tiles: fewer misses than re-rendering every
/// tile of the view at every step.
#[test]
fn dense_edit_script_matches_rebuild_every_step() {
    const STEPS: usize = 16;
    let data = Dataset::uniform(21_250, 42);
    let (clients, facilities) = sample_clients_facilities(&data.points, 10_000, 625, 42 ^ 0x5eed);
    let view = Rect::new(0.15, 0.85, 0.15, 0.85);
    for k in [1, 4, 16] {
        let mut map = HeatMapBuilder::bichromatic(clients.clone(), facilities.clone())
            .metric(Metric::Linf)
            .k(k)
            .tile_px(64)
            .build(CountMeasure)
            .expect("non-empty instance");
        let tiles_per_view = map.tile_scheme().viewport(view, 256, 256).tiles().len();
        drop(map.viewport(view, 256, 256)); // the cold frame
        let misses_after_cold = map.cache_stats().misses;

        let sites = rnn_heatmap::data::uniform(STEPS, Rect::new(0.2, 0.8, 0.2, 0.8), 42);
        let mut added: Vec<u32> = Vec::new();
        for (step, &p) in sites.iter().enumerate() {
            match (step % 3, added.last().copied()) {
                (1, Some(id)) => drop(map.move_facility(id, p).expect("added id is live")),
                (2, Some(id)) => {
                    added.pop();
                    map.remove_facility(id).expect("added id is live");
                }
                _ => added.push(map.add_facility(p).expect("bichromatic map accepts adds").0),
            }
            let frame = map.viewport(view, 256, 256);
            let facilities_now: Vec<Point> = map.facilities().into_iter().map(|(_, p)| p).collect();
            let rebuilt = build_square_arrangement_k(
                &clients,
                &facilities_now,
                Metric::Linf,
                Mode::Bichromatic,
                k,
            )
            .expect("the facility set never empties");
            let one_shot = rasterize_squares_scanline(&rebuilt, &CountMeasure, frame.spec);
            assert_bits(&frame, &one_shot, &format!("dense k={k}, step {step}"));
        }
        let stats = map.cache_stats();
        assert!(stats.invalidations > 0, "k={k}: edits inside the viewport must dirty tiles");
        assert!(
            stats.misses - misses_after_cold < (STEPS * tiles_per_view) as u64,
            "k={k}: warm frames must reuse clean tiles ({} misses after the cold frame, \
             {tiles_per_view} tiles per view)",
            stats.misses - misses_after_cold
        );
    }
}
