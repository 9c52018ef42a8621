//! City-scale heat map — the reproduction of paper Figs 1 and 15.
//!
//! ```text
//! cargo run --release --example city_heatmap [nyc|la] [output.ppm]
//! ```
//!
//! Samples 20,000 clients and 6,000 facilities from the synthetic city
//! POI set (the paper's setup for the showcase maps: "the number of
//! clients is usually larger than the number of facilities"), measures
//! influence by RNN-set size, and writes a PPM heat map. Dark regions on
//! water/mountain voids stay cold, clusters glow — the geographic
//! correlation the paper points out.

use std::fs::File;

use rnn_heatmap::prelude::*;
use rnnhm_data::{la, nyc};
use rnnhm_heatmap::quant::TilePayload;
use rnnhm_heatmap::write_ppm;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let city = args.first().map(String::as_str).unwrap_or("nyc");
    let default_out = format!("heatmap_{city}.ppm");
    let out = args.get(1).map(String::as_str).unwrap_or(&default_out);

    let points = match city {
        "nyc" => nyc(),
        "la" => la(),
        other => {
            eprintln!("unknown city `{other}` (expected nyc|la)");
            std::process::exit(2);
        }
    };
    println!("{city}: {} POIs", points.len());

    let (clients, facilities) = sample_clients_facilities(&points, 20_000, 6_000, 1);
    let arr = build_square_arrangement(&clients, &facilities, Metric::Linf, Mode::Bichromatic)
        .expect("non-empty city");
    println!("built {} NN-circles ({} dropped as zero-radius)", arr.len(), arr.dropped);

    // Exact scanline rasterization (row-parallel, any measure).
    let extent = Rect::bounding(&points).expect("non-empty");
    let spec = GridSpec::new(900, 900, extent);
    let start = rnnhm_core::clock::now();
    let raster = rasterize_squares(&arr, &CountMeasure, spec);
    let scanline_ms = start.elapsed().as_secs_f64() * 1e3;
    let (lo, hi) = raster.min_max();
    println!("heat range: [{lo}, {hi}]");
    println!("rasterized exactly in {scanline_ms:.1} ms");

    let mut f = File::create(out).expect("create output file");
    write_ppm(&mut f, &raster, ColorRamp::Heat).expect("write ppm");
    println!("wrote {out}");

    // What this frame would cost to *cache*: the tile layer stores it
    // as deduplicated rows of runs or palette codes (bit-exact round
    // trip) instead of raw f64.
    let raw_bytes = std::mem::size_of_val(raster.values());
    let payload = TilePayload::encode(raster.clone(), CountMeasure.integral_influence());
    println!(
        "cached form: {} ({} bytes vs {} raw, {:.1}x smaller)",
        if payload.quantized() { "quantized" } else { "exact f64" },
        payload.bytes(),
        raw_bytes,
        raw_bytes as f64 / payload.bytes() as f64,
    );

    // And the exploration the heat map is for: where are the most
    // influential spots, and how influential are they?
    let mut top = TopKSink::new(5);
    let stats = crest_sweep(&arr, &CountMeasure, &mut top);
    println!(
        "CREST labeled {} regions over {} events (max |RNN| = {})",
        stats.labels, stats.events, stats.max_rnn
    );
    println!("top regions:");
    for (i, r) in top.into_top().iter().enumerate() {
        let c = r.rect.center();
        println!("  #{}: influence {:.0} near ({:.4}, {:.4})", i + 1, r.influence, c.x, c.y);
    }
}
