//! Interactive-style exploration: replay a pan/zoom camera path
//! through the tile-pyramid viewport API and watch the cache work.
//!
//! ```text
//! cargo run --release --example pan_zoom
//! ```
//!
//! The paper positions RNN heat maps as a tool an analyst *explores*:
//! pan across the city, zoom into a hot area, compare candidate sites.
//! Each frame below is one camera position; the viewport layer fetches
//! the covering tiles (rendering only the cache misses), stitches them,
//! and — before the exact tiles are in — can serve an instant coarse
//! preview from parent tiles.

use rnn_heatmap::prelude::*;
use rnn_heatmap::HeatMapBuilder;
use rnnhm_heatmap::render::ascii_art;

fn main() {
    // A skewed synthetic city on the unit square: clustered clients,
    // a few existing facilities.
    let data = Dataset::zipfian(4_256, 42);
    let (clients, facilities) = sample_clients_facilities(&data.points, 4_000, 256, 42);
    let map = HeatMapBuilder::bichromatic(clients, facilities)
        .metric(Metric::Linf)
        .build(CountMeasure)
        .expect("non-empty input");
    let world = map.tile_scheme().world();
    println!(
        "heat map over {} NN-circles; tile world [{:.2}, {:.2}] x [{:.2}, {:.2}]\n",
        map.n_circles(),
        world.x_lo,
        world.x_hi,
        world.y_lo,
        world.y_hi
    );

    // Camera path: wide establishing shot, a pan to the east, then two
    // zoom steps into the hottest quarter, then back out (all cached).
    let full = Rect::new(0.0, 1.0, 0.0, 1.0);
    let path: &[(&str, Rect)] = &[
        ("establishing shot", full),
        ("pan east", Rect::new(0.25, 1.0, 0.0, 0.75)),
        ("zoom: north-east", Rect::new(0.5, 1.0, 0.25, 0.75)),
        ("zoom: tight", Rect::new(0.6, 0.85, 0.35, 0.6)),
        ("zoom back out", full),
    ];

    let (px_w, px_h) = (512, 512);
    for (label, rect) in path {
        // Instant coarse preview from whatever is already cached …
        let preview = map.viewport_preview(*rect, px_w, px_h);
        // … then the exact frame (cache misses render in parallel).
        let start = rnnhm_core::clock::now();
        let frame = map.viewport(*rect, px_w, px_h);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let stats = map.cache_stats();
        let (_, hottest) = frame.min_max();
        println!(
            "{label:>20}: {}x{} px in {ms:6.1} ms | preview {:3.0}% resolved | \
             cache {} tiles / {:.1} MiB, {} hits, {} misses, {} invalidations | \
             peak influence {hottest:.0}",
            frame.spec.width,
            frame.spec.height,
            preview.resolved * 100.0,
            stats.entries,
            stats.bytes as f64 / (1 << 20) as f64,
            stats.hits,
            stats.misses,
            stats.invalidations,
        );
    }

    // Shard + single-flight accounting of the whole camera path.
    let st = map.cache_stats();
    let occupancy: Vec<String> = st.shards.iter().map(|s| s.entries.to_string()).collect();
    println!(
        "\ncache: high water {:.1} MiB | per-shard occupancy [{}] | \
         single-flight: {} waits, {} dedups",
        st.bytes_high_water as f64 / (1 << 20) as f64,
        occupancy.join(" "),
        st.single_flight_waits,
        st.single_flight_dedups,
    );
    // Count tiles cache as compact row payloads (bit-exact; see
    // rnnhm_heatmap::quant), a small fraction of their raw f64 size.
    println!(
        "payloads: {:.1} MiB quantized / {:.1} MiB exact ({:.0}% of cached bytes compact)",
        st.bytes_quantized as f64 / (1 << 20) as f64,
        st.bytes_exact as f64 / (1 << 20) as f64,
        if st.bytes > 0 { 100.0 * st.bytes_quantized as f64 / st.bytes as f64 } else { 0.0 },
    );

    // Show the final (cached) frame as terminal art.
    let last = map.viewport(path[path.len() - 1].1, 64, 24);
    println!("\nfinal frame (darker glyph = more influence):\n{}", ascii_art(&last));
}
