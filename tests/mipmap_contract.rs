//! The LoD error contract, observed through the engine facade: tiles
//! at or above the exact-zoom threshold are bit-identical to a no-LoD
//! engine's tiles, coarser tiles stay inside the closed min/max
//! envelope of the exact base pixels they summarize, and the reported
//! error bound is the measured worst case — before *and* after edits.

use rnn_heatmap::prelude::*;
use rnn_heatmap::{ExplorationEngine, HeatMapBuilder};

const TILE_PX: usize = 16;
const ZE: u8 = 2;

fn pseudo_points(n: usize, seed: u64, span: f64) -> Vec<Point> {
    rnn_heatmap::data::uniform(n, Rect::new(0.0, span, 0.0, span), seed)
}

/// The instance every test explores; `shards` splits the arrangement
/// into that many vertical slabs.
fn build(lod: bool, shards: Option<usize>) -> ExplorationEngine<CountMeasure> {
    let clients = pseudo_points(350, 11, 10.0);
    let facilities = pseudo_points(45, 13, 10.0);
    let mut b =
        HeatMapBuilder::bichromatic(clients, facilities).metric(Metric::Linf).tile_px(TILE_PX);
    if lod {
        b = b.lod_exact_zoom(ZE);
    }
    if let Some(n) = shards {
        b = b.shards(n);
    }
    b.build_engine(CountMeasure).expect("valid instance")
}

/// The exact zoom-`ZE` mosaic as one raster: `side × side` tiles of
/// `TILE_PX` px, stitched row-major with row 0 at the bottom.
fn base_mosaic(session: &Session<CountMeasure>) -> (Vec<f64>, usize) {
    let side = 1usize << ZE;
    let px = side * TILE_PX;
    let mut out = vec![0.0; px * px];
    for ty in 0..side {
        for tx in 0..side {
            let tile = session.tile(TileId { zoom: ZE, tx: tx as u32, ty: ty as u32 });
            for r in 0..TILE_PX {
                let dst = (ty * TILE_PX + r) * px + tx * TILE_PX;
                let src = r * TILE_PX;
                out[dst..dst + TILE_PX].copy_from_slice(&tile.values()[src..src + TILE_PX]);
            }
        }
    }
    (out, px)
}

/// Checks one coarse tile against the base mosaic: every pixel within
/// the closed `[min, max]` of the base block it summarizes, and the
/// reported bound covers the largest measured block spread.
fn assert_containment(
    frame: &rnn_heatmap::TileFrame,
    id: TileId,
    mosaic: &[f64],
    mosaic_px: usize,
) {
    assert!(frame.approx, "zoom {} below threshold must be approximate", id.zoom);
    let scale = 1usize << (ZE - id.zoom); // base pixels per coarse pixel side
    let mut worst = 0.0f64;
    for r in 0..TILE_PX {
        for c in 0..TILE_PX {
            let v = frame.raster.values()[r * TILE_PX + c];
            let base_c0 = (id.tx as usize * TILE_PX + c) * scale;
            let base_r0 = (id.ty as usize * TILE_PX + r) * scale;
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for br in base_r0..base_r0 + scale {
                for bc in base_c0..base_c0 + scale {
                    let b = mosaic[br * mosaic_px + bc];
                    lo = lo.min(b);
                    hi = hi.max(b);
                }
            }
            assert!(
                (lo..=hi).contains(&v),
                "coarse pixel ({c},{r}) of {id:?} = {v} escapes base envelope [{lo}, {hi}]"
            );
            worst = worst.max(hi - lo);
        }
    }
    assert!(
        frame.error_bound >= worst,
        "reported bound {} under-states measured spread {worst}",
        frame.error_bound
    );
}

#[test]
fn exact_zoom_tiles_are_bit_identical_to_a_no_lod_engine() {
    let plain = build(false, None);
    let lod = build(true, None);
    let a = plain.session();
    let b = lod.session();
    assert_eq!(b.lod_exact_zoom(), Some(ZE));
    for zoom in ZE..=(ZE + 2) {
        let side = 1u32 << zoom;
        for ty in [0, side - 1] {
            for tx in [0, side / 2] {
                let id = TileId { zoom, tx, ty };
                let exact = a.tile(id);
                let frame = b.tile_lod(id);
                assert!(!frame.approx, "{id:?} at/above threshold must be exact");
                assert_eq!(frame.error_bound, 0.0);
                assert_eq!(exact.values(), frame.raster.values(), "{id:?}");
            }
        }
    }
}

#[test]
fn coarse_tiles_stay_inside_the_base_envelope() {
    let lod = build(true, None);
    let s = lod.session();
    let (mosaic, px) = base_mosaic(&s);
    for zoom in 0..ZE {
        let side = 1u32 << zoom;
        for ty in 0..side {
            for tx in 0..side {
                let id = TileId { zoom, tx, ty };
                let frame = s.tile_lod(id);
                assert_containment(&frame, id, &mosaic, px);
            }
        }
    }
}

#[test]
fn coarse_viewports_are_labeled_approximate_and_bounded() {
    // Also on a 4-shard engine: the pyramid and the exact fallback must
    // not depend on how the arrangement is sliced into slabs.
    for shards in [None, Some(4)] {
        let lod = build(true, shards);
        let s = lod.session();
        let world = s.tile_scheme().world();
        // A world-sized request at one tile's worth of pixels resolves to
        // zoom 0 — below the threshold.
        match s.viewport_frame(world, TILE_PX, TILE_PX) {
            ViewportFrame::Approx { raster, error_bound } => {
                assert_eq!(raster.spec.width, TILE_PX);
                assert!(error_bound.is_finite() && error_bound >= 0.0);
            }
            other => panic!("expected an approximate frame, got {}", frame_name(&other)),
        }
        // Zooming in past the threshold must fall back to the exact path
        // and match the no-LoD engine bitwise.
        let plain = build(false, None);
        let q = Rect::new(2.0, 4.0, 5.0, 7.0);
        match s.viewport_frame(q, 128, 128) {
            ViewportFrame::Exact(raster) => {
                assert_eq!(raster.values(), plain.session().viewport(q, 128, 128).values());
            }
            other => panic!("expected an exact frame, got {}", frame_name(&other)),
        }
    }
}

fn frame_name(f: &ViewportFrame) -> &'static str {
    match f {
        ViewportFrame::Exact(_) => "Exact",
        ViewportFrame::Degraded(_) => "Degraded",
        ViewportFrame::Approx { .. } => "Approx",
    }
}

#[test]
fn the_contract_survives_edits() {
    // Also on a 4-shard engine, whose edits re-seal only the slabs
    // they touch.
    for shards in [None, Some(4)] {
        let plain = build(false, None);
        let lod = build(true, shards);
        let mut a = plain.session();
        let mut b = lod.session();

        // Warm the pyramid first so the edit exercises the patch path, not
        // a cold build.
        let _ = b.tile_lod(TileId { zoom: 0, tx: 0, ty: 0 });

        let (fa, _) = a.add_facility(Point::new(3.3, 6.6)).expect("add");
        let (fb, _) = b.add_facility(Point::new(3.3, 6.6)).expect("add");
        a.move_facility(fa, Point::new(7.7, 2.2)).expect("move");
        b.move_facility(fb, Point::new(7.7, 2.2)).expect("move");

        // Exact tiles agree bitwise after the same edit script.
        for (tx, ty) in [(0, 0), (1, 2), (3, 3)] {
            let id = TileId { zoom: ZE, tx, ty };
            let frame = b.tile_lod(id);
            assert!(!frame.approx);
            assert_eq!(a.tile(id).values(), frame.raster.values(), "{id:?} after edits");
        }

        // Coarse tiles re-satisfy containment against the *post-edit* base.
        let (mosaic, px) = base_mosaic(&b);
        for zoom in 0..ZE {
            let side = 1u32 << zoom;
            for ty in 0..side {
                for tx in 0..side {
                    let id = TileId { zoom, tx, ty };
                    let frame = b.tile_lod(id);
                    assert_containment(&frame, id, &mosaic, px);
                }
            }
        }
    }
}

#[test]
fn lazy_patch_equals_cold_rebuild_bitwise() {
    // Two LoD engines, same edit: one patches a warm pyramid, the
    // other builds cold after the edit. Their coarse tiles must be
    // bitwise identical — patching is not allowed to drift.
    let warm = build(true, None);
    let cold = build(true, None);
    let mut w = warm.session();
    let mut c = cold.session();
    let _ = w.tile_lod(TileId { zoom: 0, tx: 0, ty: 0 }); // warm pyramid
    let (fw, _) = w.add_facility(Point::new(5.1, 5.2)).expect("add");
    let (fc, _) = c.add_facility(Point::new(5.1, 5.2)).expect("add");
    w.remove_facility(fw).ok();
    c.remove_facility(fc).ok();
    for zoom in 0..ZE {
        let side = 1u32 << zoom;
        for ty in 0..side {
            for tx in 0..side {
                let id = TileId { zoom, tx, ty };
                let pw = w.tile_lod(id);
                let pc = c.tile_lod(id);
                assert_eq!(pw.raster.values(), pc.raster.values(), "{id:?} patched vs cold");
                assert_eq!(pw.error_bound, pc.error_bound, "{id:?} bounds");
            }
        }
    }
}

#[test]
fn chained_patch_past_the_dirty_cap_equals_cold_rebuild_bitwise() {
    // 45 edits spread over the world land on one warm pyramid before
    // any coarse tile is asked for, so the pending dirty rects
    // outgrow their 32-rect cap and collapse at least once. The
    // patched pyramid must still equal a cold build of the same script
    // bit for bit, error bounds included.
    let warm = build(true, None);
    let cold = build(true, None);
    let mut w = warm.session();
    let mut c = cold.session();
    // Warm one pyramid, and pin the cold engine's tile scheme to the
    // same pre-edit extent without building its pyramid.
    let _ = w.tile_lod(TileId { zoom: 0, tx: 0, ty: 0 });
    let _ = c.tile_scheme();
    let mut pushed = 0;
    for (i, p) in pseudo_points(30, 17, 10.0).into_iter().enumerate() {
        let (fw, dirty) = w.add_facility(p).expect("add");
        let (fc, _) = c.add_facility(p).expect("add");
        pushed += dirty.rects().len();
        if i % 2 == 1 {
            pushed += w.remove_facility(fw).expect("remove").rects().len();
            c.remove_facility(fc).expect("remove");
        }
    }
    assert!(pushed > 32, "the script must push more dirty rects than the cap ({pushed})");
    assert_eq!(w.tile_scheme().fingerprint(), c.tile_scheme().fingerprint());
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for zoom in 0..ZE {
        let side = 1u32 << zoom;
        for ty in 0..side {
            for tx in 0..side {
                let id = TileId { zoom, tx, ty };
                let pw = w.tile_lod(id);
                let pc = c.tile_lod(id);
                assert!(pw.approx && pc.approx, "{id:?} must be approximate");
                assert_eq!(bits(pw.raster.values()), bits(pc.raster.values()), "{id:?}");
                assert_eq!(pw.error_bound.to_bits(), pc.error_bound.to_bits(), "{id:?} bound");
            }
        }
    }
}
