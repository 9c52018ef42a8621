//! Property tests for tile payloads (`rnnhm_heatmap::quant`):
//!
//! * any raster decodes **bitwise** equal to its source through every
//!   reader — `to_raster`, `get`, `read_row_segment` and
//!   `append_row_segment` — including segments that start and end
//!   mid-run. Pixels come from pools of arbitrary bit patterns (NaN
//!   payloads, ±0.0, denormals, integers) laid out as long runs, short
//!   runs and repeated rows;
//! * the compact form is chosen exactly when it is smaller than the raw
//!   pixels, checked against an independent size model of the form, so
//!   `bytes()` never exceeds the raw size plus `ENTRY_OVERHEAD_BYTES`;
//! * rasters the compact form cannot address or cannot beat — wider
//!   than 65,535 px, more than 65,536 distinct values, one value per
//!   pixel — keep their raw pixels.

use std::collections::BTreeSet;

use proptest::prelude::*;
use rnnhm_geom::Rect;
use rnnhm_heatmap::quant::{TilePayload, ENTRY_OVERHEAD_BYTES};
use rnnhm_heatmap::raster::{GridSpec, HeatRaster};

fn raster_of(w: usize, h: usize, values: Vec<f64>) -> HeatRaster {
    HeatRaster::from_values(GridSpec::new(w, h, Rect::new(0.0, 1.0, 0.0, 1.0)), values)
}

fn bits(r: &HeatRaster, col: usize, row: usize) -> u64 {
    r.get(col, row).to_bits()
}

/// Checks every reader against `original`, bit for bit: whole rows and
/// `segments` (`(col, len)`, clipped to the row) through both segment
/// readers, every pixel through `get` and `to_raster`.
fn assert_roundtrip(payload: &TilePayload, original: &HeatRaster, segments: &[(usize, usize)]) {
    let (w, h) = (original.spec.width, original.spec.height);
    let back = payload.to_raster();
    assert_eq!(back.spec, original.spec, "spec must survive");
    for row in 0..h {
        for col in 0..w {
            let want = bits(original, col, row);
            assert_eq!(bits(&back, col, row), want, "to_raster diverged at ({col},{row})");
            assert_eq!(payload.get(col, row).to_bits(), want, "get diverged at ({col},{row})");
        }
        let fixed = [(0, w), (1, w.saturating_sub(2)), (w / 3, w / 2), (w - 1, 1), (w / 2, 0)];
        for &(a, b) in fixed.iter().chain(segments) {
            let col = a % w;
            let len = b % (w - col + 1);
            let mut appended = vec![f64::NAN];
            payload.append_row_segment(row, col, len, &mut appended);
            assert_eq!(appended.len(), len + 1, "append must add exactly the segment");
            let mut read = vec![0.0; len];
            payload.read_row_segment(row, col, &mut read);
            for i in 0..len {
                let want = bits(original, col + i, row);
                assert_eq!(appended[i + 1].to_bits(), want, "append ({},{row})", col + i);
                assert_eq!(read[i].to_bits(), want, "read ({},{row})", col + i);
            }
        }
    }
}

/// Heap bytes of the compact form of `r` as the format defines it, or
/// `None` where it cannot address `r`: 8 B per distinct value, 2 B per
/// row index entry, 4 B per row start (distinct rows + 1), and per
/// distinct row 4 B per run when its runs average at least 16 px, else
/// 2 B per pixel. A row is distinct unless it repeats the row above.
fn compact_model(r: &HeatRaster) -> Option<usize> {
    let (w, h) = (r.spec.width, r.spec.height);
    let palette: BTreeSet<u64> = r.values().iter().map(|v| v.to_bits()).collect();
    if w > 65_535 || h > 65_535 || palette.len() > 65_536 {
        return None;
    }
    let (mut distinct_rows, mut cells) = (0, 0);
    for row in 0..h {
        if row > 0 && (0..w).all(|c| bits(r, c, row) == bits(r, c, row - 1)) {
            continue;
        }
        distinct_rows += 1;
        let runs = 1 + (1..w).filter(|&c| bits(r, c, row) != bits(r, c - 1, row)).count();
        cells += if w >= 16 * runs { 2 * runs } else { w };
    }
    Some(8 * palette.len() + 2 * h + 4 * (distinct_rows + 1) + 2 * cells)
}

/// The compact form is chosen exactly when the model says it is smaller
/// than the raw pixels, and `bytes()` is that form's size.
fn assert_form(payload: &TilePayload, r: &HeatRaster) {
    let raw = 8 * r.values().len();
    match compact_model(r) {
        Some(compact) if compact < raw => {
            assert!(payload.quantized(), "compact ({compact} B) beats raw ({raw} B)");
            assert_eq!(payload.bytes(), compact + ENTRY_OVERHEAD_BYTES);
        }
        _ => {
            assert!(!payload.quantized(), "compact form cannot beat raw ({raw} B)");
            assert_eq!(payload.bytes(), raw + ENTRY_OVERHEAD_BYTES);
        }
    }
    assert!(payload.bytes() <= raw + ENTRY_OVERHEAD_BYTES);
}

/// A pixel value from an arbitrary bit pattern, by class: raw bits,
/// NaN with a payload, ±0.0, a denormal, a small integer.
fn pool_value(bits: u64, class: u8) -> f64 {
    const MANTISSA: u64 = (1 << 52) - 1;
    let sign = bits & (1 << 63);
    match class {
        0 => f64::from_bits(bits),
        1 => f64::from_bits(sign | 0x7ff0_0000_0000_0000 | (bits & MANTISSA).max(1)),
        2 => f64::from_bits(sign),
        3 => f64::from_bits(sign | (bits & MANTISSA).max(1)),
        _ => (bits % 100) as f64,
    }
}

/// Lays out a `w`-wide raster row by row: row kind 0 repeats the row
/// above, any other kind is fresh runs of the row's run length, each
/// run's value the next pick from `pool`.
fn layout(w: usize, rows: &[(u8, usize)], pool: &[f64], picks: &[usize]) -> HeatRaster {
    let mut values: Vec<f64> = Vec::with_capacity(w * rows.len());
    let mut next = picks.iter().cycle();
    for (i, &(kind, run)) in rows.iter().enumerate() {
        if kind == 0 && i > 0 {
            values.extend_from_within(values.len() - w..);
            continue;
        }
        let mut col = 0;
        while col < w {
            let v = pool[next.next().expect("picks are non-empty") % pool.len()];
            let n = run.min(w - col);
            values.resize(values.len() + n, v);
            col += n;
        }
    }
    raster_of(w, rows.len(), values)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_rasters_roundtrip_bitwise_in_any_form(
        w in 1usize..80,
        rows in prop::collection::vec(
            (0u8..3, prop_oneof![1usize..4, 4usize..20, 16usize..90]),
            1..24,
        ),
        raw_pool in prop::collection::vec((0u64..u64::MAX, 0u8..5), 1..40),
        picks in prop::collection::vec(0usize..1000, 1..64),
        segments in prop::collection::vec((0usize..1000, 0usize..1000), 0..6),
    ) {
        let pool: Vec<f64> =
            raw_pool.iter().map(|&(bits, class)| pool_value(bits, class)).collect();
        let r = layout(w, &rows, &pool, &picks);
        let payload = TilePayload::encode(r.clone(), false);
        assert_form(&payload, &r);
        assert_roundtrip(&payload, &r, &segments);
    }

    #[test]
    fn integral_rasters_take_the_smaller_form_and_roundtrip_bitwise(
        dims in (1usize..40, 1usize..20),
        offset in 0u32..1_000_000,
        raw in prop::collection::vec(0u32..60_000, 1..800),
        hint_raw in 0u8..2,
    ) {
        // High-entropy integer tiles: the compact form wins only where
        // the model says so, and the hint never changes the choice.
        let (w, h) = dims;
        let values: Vec<f64> =
            (0..w * h).map(|i| (offset + raw[i % raw.len()]) as f64).collect();
        let r = raster_of(w, h, values);
        let payload = TilePayload::encode(r.clone(), hint_raw == 1);
        assert_form(&payload, &r);
        assert_roundtrip(&payload, &r, &[]);
    }
}

#[test]
fn rasters_the_compact_form_cannot_address_or_beat_stay_raw() {
    // Wider than a `u16` run end can name.
    let wide = raster_of(65_536, 2, vec![2.5; 2 * 65_536]);
    // More distinct values than `u16` codes can name, although codes
    // would be smaller than raw: 512 rows of 140 fresh runs each.
    let (w, h) = (512, 512);
    let many =
        raster_of(w, h, (0..w * h).map(|i| (i / w * 140 + i % w * 140 / w) as f64).collect());
    // One value per pixel: the palette alone matches the raw size.
    let dense = raster_of(48, 48, (0..48 * 48).map(|i| (i as f64).sqrt() + 0.1).collect());
    for (what, r) in [("wide", wide), ("many values", many), ("high entropy", dense)] {
        let payload = TilePayload::encode(r.clone(), false);
        assert!(!payload.quantized(), "{what}: must take the raw fallback");
        assert_form(&payload, &r);
        assert_eq!(payload.to_raster().values(), r.values(), "{what}: raw round trip");
    }
}
