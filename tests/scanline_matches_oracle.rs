//! Property test: the scanline rasterizer is bit-identical to the
//! per-pixel-stab oracle (ISSUE 1 acceptance).
//!
//! Random square and disk arrangements — including degenerate shapes
//! (zero-height squares, pixel-sized disks, shapes off the grid, rows
//! with zero active spans) — are rendered by both paths under all four
//! paper measures plus the [`ExactFallback`] adapter, and every pixel is
//! compared with `f64::to_bits` equality. Weights are dyadic rationals,
//! so weighted sums are exact in any evaluation order and bit-identity
//! is the right contract for every measure (see
//! [`rnnhm_core::measure::IncrementalMeasure`]'s documentation).

use proptest::prelude::*;
use rnn_heatmap::prelude::*;
use rnnhm_core::arrangement::CoordSpace;
use rnnhm_core::measure::ExactFallback;
use rnnhm_geom::Circle;
use rnnhm_heatmap::scanline::{rasterize_disks_scanline_bands, rasterize_squares_scanline_bands};

fn assert_bit_identical(scan: &HeatRaster, oracle: &HeatRaster, what: &str) {
    for row in 0..scan.spec.height {
        for col in 0..scan.spec.width {
            assert!(
                scan.get(col, row).to_bits() == oracle.get(col, row).to_bits(),
                "{what}: pixel ({col},{row}): scanline {} vs oracle {}",
                scan.get(col, row),
                oracle.get(col, row)
            );
        }
    }
}

/// Strategy: squares on a coarse quarter-integer grid over [0, 10]²,
/// with sizes down to zero — degenerate alignments (edges exactly on
/// pixel centers, zero-area squares, shared boundaries) are *common*.
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

/// Strategy: disks on the same coarse grid, radius 0.25–2.25.
fn disks_strategy(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Circle>> {
    prop::collection::vec((0u32..44, 0u32..44, 1u32..9), n).prop_map(|v| {
        v.into_iter()
            .map(|(x, y, r)| {
                Circle::new(Point::new(x as f64 / 4.0 - 0.5, y as f64 / 4.0 - 0.5), r as f64 / 4.0)
            })
            .collect()
    })
}

fn square_arrangement_of(squares: Vec<Rect>, space: CoordSpace) -> SquareArrangement {
    let owners = (0..squares.len() as u32).collect();
    let n = squares.len();
    SquareArrangement { squares, owners, space, n_clients: n.max(1), dropped: 0, k: 1 }
}

/// All-measure comparison for one square arrangement.
fn check_squares(arr: &SquareArrangement, spec: GridSpec, bands: usize) {
    let n = arr.n_clients;
    let count = CountMeasure;
    let weighted = WeightedMeasure::new((0..n).map(|i| (i % 11) as f64 * 0.125).collect());
    let capacity = CapacityMeasure::new((0..n as u32).map(|i| i % 3).collect(), vec![2, 1, 3], 2);
    let edges: Vec<(u32, u32)> = if n >= 2 {
        (0..n as u32).map(|a| (a, (a + 1) % n as u32)).filter(|(a, b)| a != b).collect()
    } else {
        Vec::new()
    };
    let connectivity = ConnectivityMeasure::from_edges(n, &edges);

    assert_bit_identical(
        &rasterize_squares_scanline_bands(arr, &count, spec, bands),
        &rasterize_squares_oracle(arr, &count, spec),
        "count",
    );
    assert_bit_identical(
        &rasterize_squares_scanline_bands(arr, &weighted, spec, bands),
        &rasterize_squares_oracle(arr, &weighted, spec),
        "weighted",
    );
    assert_bit_identical(
        &rasterize_squares_scanline_bands(arr, &capacity, spec, bands),
        &rasterize_squares_oracle(arr, &capacity, spec),
        "capacity",
    );
    assert_bit_identical(
        &rasterize_squares_scanline_bands(arr, &connectivity, spec, bands),
        &rasterize_squares_oracle(arr, &connectivity, spec),
        "connectivity",
    );
    assert_bit_identical(
        &rasterize_squares_scanline_bands(arr, &ExactFallback(count), spec, bands),
        &rasterize_squares_oracle(arr, &ExactFallback(count), spec),
        "exact-fallback",
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn squares_bit_identical_all_measures(
        squares in squares_strategy(0..40),
        bands in 1usize..7,
    ) {
        let arr = square_arrangement_of(squares, CoordSpace::Identity);
        let spec = GridSpec::new(57, 43, Rect::new(0.0, 10.0, 0.0, 10.0));
        check_squares(&arr, spec, bands);
    }

    #[test]
    fn rotated_squares_bit_identical(
        squares in squares_strategy(0..30),
        bands in 1usize..5,
    ) {
        // Rotated-frame squares exercise the diagonal-line span path.
        let arr = square_arrangement_of(squares, CoordSpace::Rotated45);
        let spec = GridSpec::new(41, 41, Rect::new(-8.0, 8.0, -8.0, 8.0));
        let count = CountMeasure;
        let scan = rasterize_squares_scanline_bands(&arr, &count, spec, bands);
        let oracle = rasterize_squares_oracle(&arr, &count, spec);
        assert_bit_identical(&scan, &oracle, "rotated count");
    }

    #[test]
    fn disks_bit_identical(
        disks in disks_strategy(0..35),
        bands in 1usize..6,
    ) {
        let owners = (0..disks.len() as u32).collect();
        let n = disks.len().max(1);
        let arr = DiskArrangement { disks, owners, n_clients: n, dropped: 0, k: 1 };
        let spec = GridSpec::new(49, 61, Rect::new(0.0, 10.0, 0.0, 10.0));
        let count = CountMeasure;
        let weighted =
            WeightedMeasure::new((0..n).map(|i| (i % 7) as f64 * 0.5).collect());
        assert_bit_identical(
            &rasterize_disks_scanline_bands(&arr, &count, spec, bands),
            &rasterize_disks_oracle(&arr, &count, spec),
            "disk count",
        );
        assert_bit_identical(
            &rasterize_disks_scanline_bands(&arr, &weighted, spec, bands),
            &rasterize_disks_oracle(&arr, &weighted, spec),
            "disk weighted",
        );
    }

    #[test]
    fn real_nn_circle_arrangements_bit_identical(
        pts in prop::collection::vec((0u32..40, 0u32..40), 2..60),
        n_fac in 1usize..6,
        bands in 1usize..5,
    ) {
        // End-to-end: NN-circles from actual client/facility sets, in
        // both square metrics, including empty degenerate rows above
        // and below the populated area.
        let points: Vec<Point> =
            pts.iter().map(|&(x, y)| Point::new(x as f64 / 4.0, y as f64 / 4.0)).collect();
        let n_fac = n_fac.min(points.len() - 1).max(1);
        let (clients, facilities) = points.split_at(points.len() - n_fac);
        for metric in [Metric::Linf, Metric::L1] {
            if let Ok(arr) =
                build_square_arrangement(clients, facilities, metric, Mode::Bichromatic)
            {
                let spec = GridSpec::new(37, 53, Rect::new(-2.0, 12.0, -2.0, 12.0));
                let count = CountMeasure;
                let scan = rasterize_squares_scanline_bands(&arr, &count, spec, bands);
                let oracle = rasterize_squares_oracle(&arr, &count, spec);
                assert_bit_identical(&scan, &oracle, "nn-circles");
            }
        }
    }
}

#[test]
fn degenerate_rows_with_zero_active_spans() {
    // Shapes confined to a narrow horizontal stripe: most raster rows
    // have *no* active spans and must still fill the empty-set value —
    // including a measure whose empty-set influence is non-zero.
    let squares = vec![
        Rect::new(1.0, 3.0, 5.0, 5.2),
        Rect::new(2.0, 6.0, 5.1, 5.3),
        Rect::new(7.0, 7.4, 5.0, 5.0), // zero height
    ];
    let arr = square_arrangement_of(squares, CoordSpace::Identity);
    let spec = GridSpec::new(64, 64, Rect::new(0.0, 10.0, 0.0, 10.0));
    let capacity = CapacityMeasure::new(vec![0, 1, 0], vec![1, 2], 5);
    for bands in [1, 3, 64] {
        let scan = rasterize_squares_scanline_bands(&arr, &capacity, spec, bands);
        let oracle = rasterize_squares_oracle(&arr, &capacity, spec);
        assert_bit_identical(&scan, &oracle, "degenerate rows");
    }
}

#[test]
fn everything_off_grid() {
    let squares = vec![Rect::new(100.0, 101.0, 100.0, 101.0)];
    let arr = square_arrangement_of(squares, CoordSpace::Identity);
    let spec = GridSpec::new(8, 8, Rect::new(0.0, 1.0, 0.0, 1.0));
    let scan = rasterize_squares_scanline_bands(&arr, &CountMeasure, spec, 2);
    let oracle = rasterize_squares_oracle(&arr, &CountMeasure, spec);
    assert_bit_identical(&scan, &oracle, "off grid");
    assert_eq!(scan.sum(), 0.0);
}

/// Realistic overlap: 10,000 uniform clients against 625 facilities
/// (the property tests above stop near 60 shapes), at RkNN depth
/// k ∈ {1, 4, 16}, where the k-NN squares stack dozens deep, rendered
/// at 256² in 1, 2 and 8 row bands.
#[test]
fn dense_knn_arrangements_bit_identical() {
    let data = Dataset::uniform(21_250, 42);
    let (clients, facilities) = sample_clients_facilities(&data.points, 10_000, 625, 42 ^ 0x5eed);
    let spec = GridSpec::new(256, 256, Rect::new(0.0, 1.0, 0.0, 1.0));
    for k in [1, 4, 16] {
        let arr =
            build_square_arrangement_k(&clients, &facilities, Metric::Linf, Mode::Bichromatic, k)
                .expect("625 facilities offer k neighbors");
        let oracle = rasterize_squares_oracle(&arr, &CountMeasure, spec);
        for bands in [1, 2, 8] {
            let scan = rasterize_squares_scanline_bands(&arr, &CountMeasure, spec, bands);
            assert_bit_identical(&scan, &oracle, &format!("dense k={k}, {bands} bands"));
        }
    }
}
