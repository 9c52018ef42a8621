//! Rendering pipeline integration: scanline vs per-pixel oracle
//! rasters on real NN-circle arrangements, the rotated L1 path,
//! determinism of PPM output, and raster ops.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rnn_heatmap::prelude::*;
use rnnhm_core::oracle::rnn_at_points;
use rnnhm_heatmap::ops::{diff, max_pixel};
use rnnhm_heatmap::render::ascii_art;
use rnnhm_heatmap::write_pgm;

fn workload(seed: u64) -> (Vec<Point>, Vec<Point>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pt = || Point::new(rng.random::<f64>() * 10.0, rng.random::<f64>() * 10.0);
    ((0..80).map(|_| pt()).collect(), (0..8).map(|_| pt()).collect())
}

#[test]
fn fast_and_exact_rasters_agree_on_nn_circles() {
    let (clients, facilities) = workload(1);
    let arr =
        build_square_arrangement(&clients, &facilities, Metric::Linf, Mode::Bichromatic).unwrap();
    let spec = GridSpec::new(80, 60, Rect::new(0.0, 10.0, 0.0, 10.0));
    let exact = rasterize_squares_oracle(&arr, &CountMeasure, spec);
    let fast = rasterize_squares(&arr, &CountMeasure, spec);
    for row in 0..spec.height {
        for col in 0..spec.width {
            assert_eq!(exact.get(col, row), fast.get(col, row), "pixel ({col},{row})");
        }
    }
}

#[test]
fn l1_raster_answers_in_input_space() {
    // The L1 arrangement lives in a rotated frame; the raster API takes
    // input-space extents and must agree with the direct L1 definition
    // at every pixel center.
    let (clients, facilities) = workload(2);
    let arr =
        build_square_arrangement(&clients, &facilities, Metric::L1, Mode::Bichromatic).unwrap();
    let spec = GridSpec::new(40, 40, Rect::new(0.0, 10.0, 0.0, 10.0));
    let raster = rasterize_squares(&arr, &CountMeasure, spec);
    for row in 0..spec.height {
        for col in 0..spec.width {
            let q = spec.pixel_center(col, row);
            let expect = rnn_at_points(&clients, &facilities, Metric::L1, q).len() as f64;
            assert_eq!(raster.get(col, row), expect, "pixel center {q:?}");
        }
    }
}

#[test]
fn renders_are_deterministic() {
    let (clients, facilities) = workload(3);
    let arr =
        build_square_arrangement(&clients, &facilities, Metric::Linf, Mode::Bichromatic).unwrap();
    let spec = GridSpec::new(64, 64, Rect::new(0.0, 10.0, 0.0, 10.0));
    let raster = rasterize_squares(&arr, &CountMeasure, spec);
    let mut ppm1 = Vec::new();
    let mut ppm2 = Vec::new();
    rnnhm_heatmap::write_ppm(&mut ppm1, &raster, ColorRamp::Heat).unwrap();
    rnnhm_heatmap::write_ppm(&mut ppm2, &raster, ColorRamp::Heat).unwrap();
    assert_eq!(ppm1, ppm2);
    assert!(ppm1.starts_with(b"P6\n64 64\n255\n"));
    let mut pgm = Vec::new();
    write_pgm(&mut pgm, &raster).unwrap();
    assert_eq!(pgm.len(), "P5\n64 64\n255\n".len() + 64 * 64);
    let art = ascii_art(&raster);
    assert_eq!(art.lines().count(), 64);
}

#[test]
fn placing_a_facility_at_the_peak_cools_the_map() {
    // Exploration loop: find the hottest pixel, open a facility there,
    // re-render — the new map's value at that spot must drop to zero
    // (the new facility sits on it, so no client's NN-circle contains it
    // strictly… its own clients now have zero-radius circles).
    let (clients, mut facilities) = workload(4);
    let arr =
        build_square_arrangement(&clients, &facilities, Metric::Linf, Mode::Bichromatic).unwrap();
    let spec = GridSpec::new(50, 50, Rect::new(0.0, 10.0, 0.0, 10.0));
    let before = rasterize_squares(&arr, &CountMeasure, spec);
    let (pc, pr, peak) = max_pixel(&before);
    assert!(peak > 0.0, "some influence must exist");

    let new_facility = spec.pixel_center(pc, pr);
    facilities.push(new_facility);
    let arr2 =
        build_square_arrangement(&clients, &facilities, Metric::Linf, Mode::Bichromatic).unwrap();
    let after = rasterize_squares(&arr2, &CountMeasure, spec);
    // Under the strict RNN definition no client is now *strictly* closer
    // to the peak than to its facility set (the new facility sits there).
    assert!(
        rnn_at_points(&clients, &facilities, Metric::Linf, new_facility).is_empty(),
        "no client strictly prefers the occupied peak"
    );
    // The raster uses closed containment, where clients captured by the
    // new facility keep the peak on their (shrunken) circle boundary —
    // the paper's `≤` tie rule — so the pixel can stay warm but must not
    // heat up.
    assert!(after.get(pc, pr) <= peak);

    // The difference map is non-negative everywhere: adding a facility
    // can only shrink NN-circles, never grow them.
    let d = diff(&before, &after);
    for row in 0..spec.height {
        for col in 0..spec.width {
            assert!(d.get(col, row) >= 0.0, "influence grew at ({col},{row})");
        }
    }
}

#[test]
fn window_and_raster_agree_on_hotspots() {
    // The windowed CREST sweep and the rasterizer must see the same
    // maximum influence inside a viewport (raster at pixel granularity).
    let (clients, facilities) = workload(5);
    let arr =
        build_square_arrangement(&clients, &facilities, Metric::Linf, Mode::Bichromatic).unwrap();
    let window = Rect::new(2.0, 8.0, 2.0, 8.0);
    let mut max_sink = MaxSink::default();
    crest_window(&arr, window, &CountMeasure, &mut max_sink);
    let best = max_sink.best.expect("non-empty window").influence;

    let spec = GridSpec::new(240, 240, window);
    let raster = rasterize_squares(&arr, &CountMeasure, spec);
    let (_, _, raster_peak) = max_pixel(&raster);
    // The raster samples pixel centers, so it can only miss very thin
    // regions; at this resolution the peaks must agree exactly.
    assert_eq!(best, raster_peak);
}
