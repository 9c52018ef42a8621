//! What-if editing walkthrough: add, move and remove facilities on a
//! live heat map and watch influence — and the caches — react.
//!
//! ```text
//! cargo run --release --example what_if
//! ```
//!
//! The paper frames RNN heat maps as a tool for *influence
//! exploration*: an analyst asks "what if I open a store here?" and
//! watches influence shift. Each edit below goes through the
//! incremental edit path (`rnnhm_core::edit`): only the NN-circles of
//! affected clients update, and only the cached viewport tiles
//! intersecting the returned dirty region re-render. The example
//! asserts that opening, moving and closing a facility restores the
//! first frame bit for bit.

use std::time::Instant;

use rnn_heatmap::prelude::*;
use rnn_heatmap::HeatMapBuilder;
use rnnhm_heatmap::render::ascii_art;

fn main() {
    // A skewed synthetic city on the unit square: clustered clients,
    // a few existing facilities.
    let data = Dataset::zipfian(4_256, 42);
    let (clients, facilities) = sample_clients_facilities(&data.points, 4_000, 256, 42);
    let mut map = HeatMapBuilder::bichromatic(clients, facilities)
        .metric(Metric::Linf)
        .build(CountMeasure)
        .expect("non-empty input");

    // Open a viewport over the whole city and keep its first frame.
    let view = Rect::new(0.0, 1.0, 0.0, 1.0);
    let (px_w, px_h) = (512, 512);
    let first = map.viewport(view, px_w, px_h);
    println!(
        "city heat map: {} NN-circles, {} facilities, viewport {}x{} px\n",
        map.n_circles(),
        map.n_facilities(),
        first.spec.width,
        first.spec.height
    );

    // Where would a new facility matter most? Ask the heat map.
    let best = map.max_region().expect("regions exist");
    let site = map.region_center(&best);
    println!(
        "hottest region: influence {:.0} at ({:.3}, {:.3}) — open a store there\n",
        best.influence, site.x, site.y
    );

    // Script: open at the hot spot, reconsider and move it, then give
    // up and close it. Every step reports what the edit touched.
    let mut opened = None;
    for step in 0..3 {
        let before = map.cache_stats();
        let start = rnnhm_core::clock::now();
        let (label, dirty) = match step {
            0 => {
                let (id, dirty) = map.add_facility(site).expect("bichromatic map");
                opened = Some(id);
                ("open at hot spot", dirty)
            }
            1 => {
                let id = opened.expect("opened in step 0");
                let target = Point::new(site.x * 0.5 + 0.25, site.y * 0.5 + 0.25);
                ("move halfway to center", map.move_facility(id, target).expect("live id"))
            }
            _ => {
                let id = opened.take().expect("still open");
                ("close it again", map.remove_facility(id).expect("live id"))
            }
        };
        let edited = ms(start);
        let start = rnnhm_core::clock::now();
        let frame = map.viewport(view, px_w, px_h);
        let rendered = ms(start);
        let stats = map.cache_stats();
        let dirty_area: f64 = dirty.rects().iter().map(Rect::area).sum();
        println!(
            "{label:>22}: dirty {:5.1}% of the map in {} box(es) | {} tiles invalidated, {} \
             re-rendered | edit {edited:5.1} ms, viewport {rendered:5.1} ms | peak \
             influence {:.0}",
            dirty_area * 100.0 / view.area(),
            dirty.rects().len(),
            stats.invalidations - before.invalidations,
            stats.misses - before.misses,
            frame.min_max().1,
        );
        drop(frame);
    }

    // After open + move + close, the field is exactly the original.
    let back = map.viewport(view, px_w, px_h);
    assert_eq!(back.spec, first.spec);
    assert!(
        back.values().iter().zip(first.values()).all(|(a, b)| a.to_bits() == b.to_bits()),
        "the restored viewport must equal the first frame bit for bit"
    );
    let stats = map.cache_stats();
    let occupancy: Vec<String> = stats.shards.iter().map(|s| s.entries.to_string()).collect();
    println!(
        "\nround trip: restored viewport equals the first frame bit for bit\n\
         cache over the session: {} hits, {} misses, {} invalidations, {} tiles / {:.1} MiB\n\
         (high water {:.1} MiB | per-shard occupancy [{}] | single-flight {} waits, {} dedups)",
        stats.hits,
        stats.misses,
        stats.invalidations,
        stats.entries,
        stats.bytes as f64 / (1 << 20) as f64,
        stats.bytes_high_water as f64 / (1 << 20) as f64,
        occupancy.join(" "),
        stats.single_flight_waits,
        stats.single_flight_dedups,
    );

    // Show the final (restored) frame as terminal art.
    let last = map.viewport(view, 64, 24);
    println!("\nfinal frame (darker glyph = more influence):\n{}", ascii_art(&last));
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}
