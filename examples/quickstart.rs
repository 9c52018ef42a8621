//! Quickstart: the README's code block, runnable.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Build an RNN heat map in one expression with the high-level API,
//! find the most influential region, score a candidate site, and
//! render the map.

use rnn_heatmap::prelude::*;
use rnn_heatmap::HeatMapBuilder;
use rnnhm_heatmap::render::ascii_art;

fn main() {
    // Clients (e.g. customers) and facilities (e.g. existing stores).
    let clients = vec![Point::new(0.0, 0.0), Point::new(2.0, 1.0), Point::new(1.0, 3.0)];
    let facilities = vec![Point::new(1.0, 1.0)];
    let map = HeatMapBuilder::bichromatic(clients, facilities)
        .metric(Metric::L2)
        .build(CountMeasure)
        .expect("non-empty input");

    // The single most influential region and its RNN set.
    let best = map.max_region().expect("some region exists");
    let at = map.region_center(&best);
    println!(
        "best region: influence {:.0} at ({:.2}, {:.2}) serving clients {:?}",
        best.influence, at.x, at.y, best.rnn
    );

    // Score an arbitrary candidate site.
    let (rnn, influence) = map.influence_at(Point::new(0.5, 0.5));
    println!("candidate (0.5, 0.5): influence {influence:.0}, RNN set {rnn:?}");

    // Render the full heat map over a chosen extent.
    let raster = map.raster(GridSpec::new(512, 512, Rect::new(-1.0, 3.0, -1.0, 4.0)));
    let (lo, hi) = raster.min_max();
    println!("rendered 512x512 raster, influence range [{lo:.0}, {hi:.0}]");

    // Interactive exploration: tiled, cached viewport rendering.
    let view = Rect::new(-1.0, 3.0, -1.0, 4.0);
    let frame = map.viewport(view, 512, 512); // renders + caches the covering tiles
    let preview = map.viewport_preview(view, 512, 512); // instant, cache-only
    assert_eq!(preview.resolved, 1.0); // the whole viewport is already cached
    let stats = map.cache_stats();
    println!(
        "viewport {}x{} px from {} cached tiles (preview {:.0}% resolved)",
        frame.spec.width,
        frame.spec.height,
        stats.entries,
        preview.resolved * 100.0
    );

    // A coarse terminal view (darker glyph = more influence).
    let small = map.raster(GridSpec::new(64, 24, Rect::new(-1.0, 3.0, -1.0, 4.0)));
    println!("{}", ascii_art(&small));
}
