//! Property test: a tile payload the scanline writes directly
//! (`rasterize_squares_payload`, `rasterize_disks_payload`, the engine's
//! tile-miss path) is byte for byte the payload `TilePayload::encode`
//! makes of the dense single-band scanline raster of the same tile.
//!
//! `TilePayload`'s `==` is bitwise and field by field: the same form,
//! and for the compact form the same palette bits, row index, row
//! starts and cells; for the raw form the same pixel bits. Equal pixels
//! alone would not catch a payload that decodes right but is laid out
//! differently (a missed repeat row, a palette out of bit order, runs
//! where codes belong), which would change the cache's byte accounting
//! and so its evictions.
//!
//! Covered: the count, weighted (non-dyadic weights; its empty set is
//! `-0.0`), capacity and connectivity measures and
//! `ExactFallback(CountMeasure)`, under L∞, L1 and L2; grids with sides
//! below 16 px and non-square grids; random shapes (degenerate ones
//! included), real NN-circle arrangements, dense k-NN tiles, and a
//! high-entropy weighted tile that must stay raw.

use proptest::prelude::*;
use rnn_heatmap::prelude::*;
use rnnhm_core::arrangement::CoordSpace;
use rnnhm_core::measure::ExactFallback;
use rnnhm_geom::Circle;
use rnnhm_heatmap::quant::TilePayload;
use rnnhm_heatmap::scanline::{
    rasterize_disks_payload, rasterize_disks_scanline_bands, rasterize_squares_payload,
    rasterize_squares_scanline_bands,
};

/// A square (L∞ or rotated L1) or disk (L2) arrangement.
enum Arr {
    Squares(SquareArrangement),
    Disks(DiskArrangement),
}

impl Arr {
    fn n_clients(&self) -> usize {
        match self {
            Arr::Squares(a) => a.n_clients,
            Arr::Disks(a) => a.n_clients,
        }
    }

    /// The direct payload and the dense single-band raster of `spec`.
    fn render<M: IncrementalMeasure + Sync>(
        &self,
        measure: &M,
        spec: GridSpec,
    ) -> (TilePayload, HeatRaster) {
        match self {
            Arr::Squares(a) => (
                rasterize_squares_payload(a, measure, spec),
                rasterize_squares_scanline_bands(a, measure, spec, 1),
            ),
            Arr::Disks(a) => (
                rasterize_disks_payload(a, measure, spec),
                rasterize_disks_scanline_bands(a, measure, spec, 1),
            ),
        }
    }
}

/// Non-dyadic weights: a sum's last bit depends on its order.
fn weights(n: usize) -> Vec<f64> {
    (0..n).map(|i| 0.5 + (i * 37 % 97) as f64 / 97.0).collect()
}

/// The direct payload of `measure` equals `encode` of the dense raster,
/// and decodes to the dense raster's bits. Returns the payload.
fn check<M: IncrementalMeasure + Sync>(
    arr: &Arr,
    measure: &M,
    spec: GridSpec,
    what: &str,
) -> TilePayload {
    let (direct, dense) = arr.render(measure, spec);
    let encoded = TilePayload::encode(dense.clone(), measure.integral_influence());
    assert!(
        direct == encoded,
        "{what} on {}×{}: direct payload (compact: {}, {} B) ≠ encode (compact: {}, {} B)",
        spec.width,
        spec.height,
        direct.quantized(),
        direct.bytes(),
        encoded.quantized(),
        encoded.bytes(),
    );
    let back = direct.to_raster();
    let same = back.values().iter().zip(dense.values()).all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(same, "{what}: direct payload decodes to other pixels");
    direct
}

/// [`check`] under every measure.
fn check_all_measures(arr: &Arr, spec: GridSpec) {
    let n = arr.n_clients().max(1);
    check(arr, &CountMeasure, spec, "count");
    check(arr, &WeightedMeasure::new(weights(n)), spec, "weighted");
    let capacity = CapacityMeasure::new((0..n as u32).map(|i| i % 3).collect(), vec![2, 1, 3], 2);
    check(arr, &capacity, spec, "capacity");
    let edges: Vec<(u32, u32)> =
        (0..n as u32).map(|a| (a, (a + 1) % n as u32)).filter(|(a, b)| a != b).collect();
    check(arr, &ConnectivityMeasure::from_edges(n, &edges), spec, "connectivity");
    check(arr, &ExactFallback(CountMeasure), spec, "exact-fallback");
}

fn squares_of(squares: Vec<Rect>, space: CoordSpace) -> Arr {
    let owners = (0..squares.len() as u32).collect();
    let n = squares.len();
    Arr::Squares(SquareArrangement {
        squares,
        owners,
        space,
        n_clients: n.max(1),
        dropped: 0,
        k: 1,
    })
}

fn disks_of(disks: Vec<Circle>) -> Arr {
    let owners = (0..disks.len() as u32).collect();
    let n = disks.len().max(1);
    Arr::Disks(DiskArrangement { disks, owners, n_clients: n, dropped: 0, k: 1 })
}

/// Squares on a quarter-integer lattice over [0, 10]², sizes down to
/// zero, so edges on pixel centers and equal neighbouring rows are
/// common.
fn squares_strategy(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Rect>> {
    prop::collection::vec((0u32..44, 0u32..44, 0u32..16, 0u32..16), n).prop_map(|v| {
        v.into_iter()
            .map(|(x, y, w, h)| {
                let (x, y) = (x as f64 / 4.0 - 0.5, y as f64 / 4.0 - 0.5);
                Rect::new(x, x + w as f64 / 4.0, y, y + h as f64 / 4.0)
            })
            .collect()
    })
}

/// Disks on the same lattice, radius 0.25–2.25.
fn disks_strategy(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Circle>> {
    prop::collection::vec((0u32..44, 0u32..44, 1u32..9), n).prop_map(|v| {
        v.into_iter()
            .map(|(x, y, r)| {
                Circle::new(Point::new(x as f64 / 4.0 - 0.5, y as f64 / 4.0 - 0.5), r as f64 / 4.0)
            })
            .collect()
    })
}

/// A grid over [-1, 11]² with sides from 1 to 39 px, so sides below
/// 16 px and non-square grids are common.
fn spec_of(w: usize, h: usize) -> GridSpec {
    GridSpec::new(w, h, Rect::new(-1.0, 11.0, -1.0, 11.0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn square_payloads_match_encode(
        squares in squares_strategy(0..40),
        w in 1usize..40,
        h in 1usize..40,
    ) {
        check_all_measures(&squares_of(squares.clone(), CoordSpace::Identity), spec_of(w, h));
        check_all_measures(&squares_of(squares, CoordSpace::Rotated45), spec_of(w, h));
    }

    #[test]
    fn disk_payloads_match_encode(disks in disks_strategy(0..35), w in 1usize..40, h in 1usize..40) {
        check_all_measures(&disks_of(disks), spec_of(w, h));
    }

    #[test]
    fn nn_circle_payloads_match_encode(
        pts in prop::collection::vec((0u32..40, 0u32..40), 2..60),
        n_fac in 1usize..6,
        w in 1usize..40,
        h in 1usize..40,
    ) {
        let points: Vec<Point> =
            pts.iter().map(|&(x, y)| Point::new(x as f64 / 4.0, y as f64 / 4.0)).collect();
        let n_fac = n_fac.min(points.len() - 1).max(1);
        let (clients, facilities) = points.split_at(points.len() - n_fac);
        let spec = spec_of(w, h);
        for metric in [Metric::Linf, Metric::L1] {
            if let Ok(arr) = build_square_arrangement(clients, facilities, metric, Mode::Bichromatic)
            {
                check_all_measures(&Arr::Squares(arr), spec);
            }
        }
        if let Ok(arr) = build_disk_arrangement(clients, facilities, Mode::Bichromatic) {
            check_all_measures(&Arr::Disks(arr), spec);
        }
    }
}

/// 256² tiles of a realistic instance, at RkNN depth 1 and 4 (deep
/// stacks): long runs, rows the sweep copies, rows that change shapes
/// but not pixels. The count tiles must be compact.
#[test]
fn dense_tiles_match_encode() {
    let data = Dataset::uniform(6_000, 7);
    let (clients, facilities) = sample_clients_facilities(&data.points, 4_000, 250, 7);
    let full = GridSpec::new(256, 256, Rect::new(0.0, 1.0, 0.0, 1.0));
    let tile = GridSpec::new(256, 256, Rect::new(0.25, 0.375, 0.5, 0.625));
    let strip = GridSpec::new(200, 9, Rect::new(0.1, 0.9, 0.3, 0.34));
    for k in [1, 4] {
        let mut arrs = Vec::new();
        for metric in [Metric::Linf, Metric::L1] {
            let arr =
                build_square_arrangement_k(&clients, &facilities, metric, Mode::Bichromatic, k);
            arrs.push((metric, Arr::Squares(arr.expect("buildable"))));
        }
        let disks = build_disk_arrangement_k(&clients, &facilities, Mode::Bichromatic, k);
        arrs.push((Metric::L2, Arr::Disks(disks.expect("buildable"))));
        for (metric, arr) in &arrs {
            for spec in [full, tile, strip] {
                let what = format!("{metric:?} k={k}");
                let count = check(arr, &CountMeasure, spec, &format!("count {what}"));
                assert!(count.quantized(), "count {what}: tiles of few values are compact");
                let weighted = WeightedMeasure::new(weights(clients.len()));
                check(arr, &weighted, spec, &format!("weighted {what}"));
            }
        }
    }
}

/// Thousands of overlapping squares with non-dyadic weights give
/// nearly every pixel its own value: the compact form cannot beat the
/// raw pixels, and both paths keep them.
#[test]
fn high_entropy_weighted_tile_stays_raw() {
    let mut state = 0x0005_eed5_u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 11) as f64) / ((1u64 << 53) as f64)
    };
    let squares: Vec<Rect> = (0..2_000)
        .map(|_| Rect::centered(Point::new(next() * 10.0, next() * 10.0), 0.5 + 2.0 * next()))
        .collect();
    let arr = squares_of(squares, CoordSpace::Identity);
    let weighted = WeightedMeasure::new(weights(arr.n_clients()));
    let spec = GridSpec::new(24, 20, Rect::new(3.0, 7.0, 3.0, 7.0));
    let payload = check(&arr, &weighted, spec, "high-entropy weighted");
    assert!(!payload.quantized(), "a tile of mostly distinct values stays raw");
    assert_eq!(payload.bytes(), 24 * 20 * 8 + rnnhm_heatmap::quant::ENTRY_OVERHEAD_BYTES);
}
