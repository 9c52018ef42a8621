//! RkNN differential suite (ISSUE 4 acceptance): for random `k` in
//! `2..=8`, heat maps built through the whole stack — kd-tree `k`-NN
//! queries, `k`-generic arrangement builders, the facade — must match a
//! **brute-force k-NN oracle** rebuild *bit for bit* along every output
//! path:
//!
//! * a one-shot `raster()` of a fixed spec,
//! * a `viewport()` served through the tile cache,
//! * the labeled regions (signature subset + top influences, the same
//!   notion `tests/edits_match_rebuild.rs` uses),
//!
//! and the same must hold **after random add/move/remove edit scripts**
//! (the incremental `k`-NN candidate-list maintenance vs a brute
//! rebuild over the post-edit facility set). The oracle sorts the full
//! per-client distance vector with `total_cmp` and takes the `k`-th
//! entry — no kd-tree, no heaps — and builds arrangements with the
//! same circle formulas the real builders use.
//!
//! A separate tie-guard proptest (the duplicate/tied-facility
//! satellite) checks the kd-tree's `k_nearest` radius against the
//! oracle on inputs full of duplicated points, for all three metrics:
//! when ties straddle the `k` cut, the *radius* must still be the
//! well-defined `k`-th smallest distance (the id set may legitimately
//! differ).
//!
//! (The vendored proptest stub only supports `ident in strategy`
//! bindings — tuples are bound whole and destructured inside.)

use proptest::prelude::*;
use rnn_heatmap::geom::transform::{l1_radius_to_linf, rotate45};
use rnn_heatmap::index::KdTree;
use rnn_heatmap::prelude::*;
use rnn_heatmap::{HeatMapBuilder, Session};
use rnnhm_core::crest::crest_sweep;
use rnnhm_core::crest_l2::crest_l2_sweep;
use rnnhm_geom::Circle;

/// One edit: `(op, x, y, pick)` — the same encoding as
/// `tests/edits_match_rebuild.rs`.
type Step = (u8, u32, u32, u32);

fn decode_point(x: u32, y: u32) -> Point {
    Point::new(x as f64 / 4.0 - 0.5, y as f64 / 4.0 - 0.5)
}

fn decode_points(raw: &[(u32, u32)]) -> Vec<Point> {
    raw.iter().map(|&(x, y)| decode_point(x, y)).collect()
}

/// Brute-force `k`-th NN distance: sort the whole distance vector,
/// take the `k`-th entry. Independent of the kd-tree by construction.
fn brute_kth_dist(o: &Point, facs: &[Point], metric: Metric, k: usize) -> f64 {
    let mut ds: Vec<f64> = facs.iter().map(|f| metric.dist(o, f)).collect();
    ds.sort_by(f64::total_cmp);
    ds[k - 1]
}

/// Builds the square k-NN-circle arrangement from brute-force radii,
/// mirroring the real builder's construction formulas and drop logic.
fn oracle_square(clients: &[Point], facs: &[Point], metric: Metric, k: usize) -> SquareArrangement {
    let mut squares = Vec::new();
    let mut owners = Vec::new();
    let mut dropped = 0usize;
    for (i, o) in clients.iter().enumerate() {
        let r = brute_kth_dist(o, facs, metric, k);
        if r <= 0.0 {
            dropped += 1;
            continue;
        }
        let (center, half) = match metric {
            Metric::Linf => (*o, r),
            Metric::L1 => (rotate45(*o), l1_radius_to_linf(r)),
            Metric::L2 => unreachable!("L2 uses the disk oracle"),
        };
        squares.push(Rect::centered(center, half));
        owners.push(i as u32);
    }
    let space = if metric == Metric::L1 { CoordSpace::Rotated45 } else { CoordSpace::Identity };
    SquareArrangement { squares, owners, space, n_clients: clients.len(), dropped, k }
}

/// Disk (L2) analog of [`oracle_square`].
fn oracle_disk(clients: &[Point], facs: &[Point], k: usize) -> DiskArrangement {
    let mut disks = Vec::new();
    let mut owners = Vec::new();
    let mut dropped = 0usize;
    for (i, o) in clients.iter().enumerate() {
        let r = brute_kth_dist(o, facs, Metric::L2, k);
        if r <= 0.0 {
            dropped += 1;
            continue;
        }
        disks.push(Circle::new(*o, r));
        owners.push(i as u32);
    }
    DiskArrangement { disks, owners, n_clients: clients.len(), dropped, k }
}

fn assert_bits(a: &HeatRaster, b: &HeatRaster, what: &str) {
    assert_eq!(a.spec, b.spec, "{what}: spec mismatch");
    for row in 0..a.spec.height {
        for col in 0..a.spec.width {
            assert!(
                a.get(col, row).to_bits() == b.get(col, row).to_bits(),
                "{what}: pixel ({col},{row}): stack {} vs oracle {}",
                a.get(col, row),
                b.get(col, row)
            );
        }
    }
}

/// Deduplicated (sorted RNN set, influence bits) signatures, skipping
/// empty-RNN labels (the uncovered face is not a region of interest).
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

/// Top-`n` influence bit patterns over distinct non-empty signatures.
fn top_influences(regions: &[LabeledRegion], n: usize) -> Vec<u64> {
    let mut vals: Vec<u64> = signature_set(regions).into_iter().map(|(_, i)| i).collect();
    vals.sort_by(|a, b| f64::from_bits(*b).total_cmp(&f64::from_bits(*a)));
    vals.dedup();
    vals.truncate(n);
    vals
}

/// Compares every output path of `map` against the brute-force oracle
/// arrangement over `facs` (the map's *current* facility set).
fn assert_matches_oracle<M: IncrementalMeasure + Sync>(
    map: &Session<M>,
    clients: &[Point],
    facs: &[Point],
    metric: Metric,
    k: usize,
    measure: &M,
    what: &str,
) {
    let spec = GridSpec::new(44, 36, Rect::new(-1.0, 11.0, -1.0, 11.0));
    let vrect = Rect::new(0.7, 8.3, 0.9, 7.7);
    let (oracle_raster, oracle_regions) = match metric {
        Metric::L2 => {
            let arr = oracle_disk(clients, facs, k);
            let mut sink = CollectSink::default();
            crest_l2_sweep(&arr, measure, &mut sink);
            (rasterize_disks(&arr, measure, spec), sink.regions)
        }
        m => {
            let arr = oracle_square(clients, facs, m, k);
            let mut sink = CollectSink::default();
            crest_sweep(&arr, measure, &mut sink);
            (rasterize_squares(&arr, measure, spec), sink.regions)
        }
    };
    assert_bits(&map.raster(spec), &oracle_raster, &format!("{what}: one-shot raster"));

    let frame = map.viewport(vrect, 40, 40);
    let oracle_frame = match metric {
        Metric::L2 => rasterize_disks(&oracle_disk(clients, facs, k), measure, frame.spec),
        m => rasterize_squares(&oracle_square(clients, facs, m, k), measure, frame.spec),
    };
    assert_bits(&frame, &oracle_frame, &format!("{what}: viewport through tile cache"));

    // Region labels: every oracle signature must be represented in the
    // map's label list (CREST may label one region more than once), and
    // the top influence values must agree bitwise.
    map.with_regions(|ours| {
        let have = signature_set(ours);
        for sig in signature_set(&oracle_regions) {
            assert!(have.contains(&sig), "{what}: oracle signature {sig:?} missing from the map");
        }
        assert_eq!(
            top_influences(ours, 5),
            top_influences(&oracle_regions, 5),
            "{what}: top influences diverged from the oracle"
        );
    });
}

/// Applies a random edit script through the facade (removals that would
/// drop below `k` facilities error and are skipped).
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

/// The shared differential body: build at `k`, compare every path to
/// the oracle, edit, compare again against an oracle over the post-edit
/// facility set.
fn run_case<M: IncrementalMeasure + Sync + Clone>(
    clients: &[Point],
    facs: &[Point],
    metric: Metric,
    k: usize,
    measure: M,
    script: &[Step],
    what: &str,
) {
    let mut map = HeatMapBuilder::bichromatic(clients.to_vec(), facs.to_vec())
        .metric(metric)
        .k(k)
        .tile_px(16)
        .build(measure.clone())
        .expect("k <= facility count by construction");
    let _ = map.stats(); // compute regions before the edits reset them
    assert_matches_oracle(&map, clients, facs, metric, k, &measure, &format!("{what}/pre-edit"));

    apply_script(&mut map, script);

    let facs_now: Vec<Point> = map.facilities().into_iter().map(|(_, p)| p).collect();
    assert!(facs_now.len() >= k, "edit guard keeps at least k facilities");
    assert_matches_oracle(
        &map,
        clients,
        &facs_now,
        metric,
        k,
        &measure,
        &format!("{what}/post-edit"),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_k_matches_oracle_count_and_weighted(
        raw_clients in prop::collection::vec((0u32..44, 0u32..44), 4..16),
        raw_facs in prop::collection::vec((0u32..44, 0u32..44), 8..12),
        k in 2usize..=8,
        script in prop::collection::vec((0u8..3, 0u32..44, 0u32..44, 0u32..8), 1..8),
    ) {
        let clients = decode_points(&raw_clients);
        let facs = decode_points(&raw_facs);
        // Dyadic weights: exact in any summation order, so bit-identity
        // is the right comparison for the float-valued measure too.
        let weights: Vec<f64> = (0..clients.len()).map(|i| (i % 9) as f64 * 0.25).collect();
        for metric in Metric::ALL {
            run_case(&clients, &facs, metric, k, CountMeasure, &script, "count");
            run_case(
                &clients,
                &facs,
                metric,
                k,
                WeightedMeasure::new(weights.clone()),
                &script,
                "weighted",
            );
        }
    }

    #[test]
    fn random_k_matches_oracle_capacity_and_connectivity(
        raw_clients in prop::collection::vec((0u32..44, 0u32..44), 4..12),
        raw_facs in prop::collection::vec((0u32..44, 0u32..44), 8..12),
        k in 2usize..=8,
        script in prop::collection::vec((0u8..3, 0u32..44, 0u32..44, 0u32..8), 1..6),
    ) {
        let clients = decode_points(&raw_clients);
        let facs = decode_points(&raw_facs);
        let n = clients.len();
        let nf = facs.len() as u32;
        let assigned: Vec<u32> = (0..n as u32).map(|i| i % nf).collect();
        let capacities: Vec<u32> = (0..nf).map(|f| 1 + f % 4).collect();
        let capacity = CapacityMeasure::new(assigned, capacities, 2);
        let edges: Vec<(u32, u32)> =
            (0..n as u32).flat_map(|a| [(a, (a + 1) % n as u32), (a, (a + 3) % n as u32)]).collect();
        let connectivity = ConnectivityMeasure::from_edges(n, &edges);
        for metric in Metric::ALL {
            run_case(&clients, &facs, metric, k, capacity.clone(), &script, "capacity");
            run_case(&clients, &facs, metric, k, connectivity.clone(), &script, "connectivity");
        }
    }

    /// Tie guard: on inputs dense with duplicated points (an 8×8 integer
    /// lattice, so facilities repeat constantly), the kd-tree's `k`-th
    /// NN distance must agree with the brute-force oracle *bitwise* for
    /// every k and metric — the radius is well-defined even when ties
    /// straddle the cut, where the id *set* legitimately is not.
    #[test]
    fn kth_radius_well_defined_under_duplicates(
        raw_facs in prop::collection::vec((0u32..8, 0u32..8), 2..24),
        raw_queries in prop::collection::vec((0u32..8, 0u32..8), 1..12),
    ) {
        let facs: Vec<Point> =
            raw_facs.iter().map(|&(x, y)| Point::new(x as f64, y as f64)).collect();
        let queries: Vec<Point> =
            raw_queries.iter().map(|&(x, y)| Point::new(x as f64, y as f64)).collect();
        let tree = KdTree::build(&facs);
        for metric in Metric::ALL {
            for q in &queries {
                for k in 1..=facs.len() {
                    let got = tree.k_nearest(q, metric, k);
                    prop_assert_eq!(got.len(), k);
                    let kd_radius = got[k - 1].1;
                    let brute = brute_kth_dist(q, &facs, metric, k);
                    prop_assert_eq!(
                        kd_radius.to_bits(),
                        brute.to_bits(),
                        "metric {:?} k {}: kd {} vs brute {}",
                        metric,
                        k,
                        kd_radius,
                        brute
                    );
                    // Distances within the set are sorted ascending.
                    for w in got.windows(2) {
                        prop_assert!(w[0].1 <= w[1].1);
                    }
                }
            }
        }
    }
}

/// The same tie guard through the arrangement builders: duplicated
/// clients *and* facilities, radii checked against the oracle bitwise.
#[test]
fn duplicate_heavy_arrangements_match_oracle() {
    // A 4×4 lattice visited twice: every point duplicated.
    let pts: Vec<Point> =
        (0..32).map(|i| Point::new((i % 4) as f64 * 2.0, ((i / 4) % 4) as f64 * 2.0)).collect();
    let clients: Vec<Point> = pts.iter().take(20).copied().collect();
    let facs: Vec<Point> = pts.iter().skip(8).take(12).copied().collect();
    for k in [1usize, 2, 3, 7, 12] {
        for metric in Metric::ALL {
            let spec = GridSpec::new(32, 32, Rect::new(-1.0, 9.0, -1.0, 9.0));
            let map = HeatMapBuilder::bichromatic(clients.clone(), facs.clone())
                .metric(metric)
                .k(k)
                .build(CountMeasure)
                .unwrap();
            let oracle = match metric {
                Metric::L2 => {
                    rasterize_disks(&oracle_disk(&clients, &facs, k), &CountMeasure, spec)
                }
                m => rasterize_squares(&oracle_square(&clients, &facs, m, k), &CountMeasure, spec),
            };
            assert_bits(&map.raster(spec), &oracle, &format!("duplicates {metric:?} k={k}"));
        }
    }
}
