//! `pan_zoom`: one analyst panning and zooming a city map, closed loop,
//! one driver thread.
//!
//! Synthetic NYC, |O| = 100k, ratio 16, L∞, count measure, engine
//! defaults (256 px tiles, 64 MiB cache). The script is a seeded camera
//! path of 1024×1024 viewports: mostly small drags, plus zoom steps
//! between city overview and street level, jumps, and returns to
//! earlier views. Its distinct-tile working set exceeds the cache, so
//! some misses are capacity misses. It loads `tiles`, `scanline`,
//! `quant` and `snapshot::restrict_to`, and never touches `crest`,
//! `postprocess`, `placement`, edits or `serve`.
//!
//! A frame's class is decided by a count: frames whose cache-miss delta
//! is 0 are light (`op_*`), frames that rendered at least one tile are
//! heavy (`heavy_p50_ms`).

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use rnn_heatmap::core::measure::{CountMeasure, IncrementalMeasure, InfluenceMeasure};
use rnn_heatmap::core::snapshot::{ArrangementSnapshot, RestrictedArrangement};
use rnn_heatmap::core::Mode;
use rnn_heatmap::data::Dataset;
use rnn_heatmap::geom::{Metric, Point, Rect};
use rnn_heatmap::heatmap::quant::TilePayload;
use rnn_heatmap::heatmap::raster::{GridSpec, HeatRaster};
use rnn_heatmap::heatmap::scanline::rasterize_squares_scanline_bands;
use rnn_heatmap::heatmap::tiles::{TileCache, TileId, TileScheme};
use rnn_heatmap::{ExplorationEngine, HeatMapBuilder};

use crate::trace::{Tracer, ROOT};
use crate::util::{self, hash_values, ms, now, Rng};
use crate::{Args, EndToEnd, Layers, Report};

/// Clients sampled from the city.
const N_CLIENTS: usize = 100_000;
/// Screen size of every frame.
const SCREEN_PX: usize = 1024;
/// Frames per nominal second of the measured phase. At 12 s the light
/// class holds some 700–900 frames, so `op_tail_ms` is their p95 with
/// about 40 samples beyond it; 1000 or more would switch it to a p99
/// resting on barely ten.
const FRAMES_PER_SECOND: u64 = 120;
/// Deepest zoom step: a view 2^-6 of the data extent wide (street
/// level); step 0 is the whole city.
const DEEPEST: i32 = 6;
/// Every this many frames, the frame is checked bit for bit against a
/// one-shot render of its spec.
const CHECK_EVERY: usize = 64;
/// Engine builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// A camera position: center in fractions of the data extent, and a
/// zoom step (view width = extent width × 2^-step).
#[derive(Clone, Copy, Debug)]
struct Camera {
    cx: f64,
    cy: f64,
    step: i32,
}

impl Camera {
    fn clamped(mut self) -> Camera {
        self.step = self.step.clamp(0, DEEPEST);
        let half = 0.5 * 0.5f64.powi(self.step);
        self.cx = self.cx.clamp(half, 1.0 - half);
        self.cy = self.cy.clamp(half, 1.0 - half);
        self
    }

    fn rect(&self, extent: Rect) -> Rect {
        let f = 0.5f64.powi(self.step);
        let (w, h) = (extent.width() * f, extent.height() * f);
        let x = extent.x_lo + self.cx * extent.width();
        let y = extent.y_lo + self.cy * extent.height();
        Rect::new(x - 0.5 * w, x + 0.5 * w, y - 0.5 * h, y + 0.5 * h)
    }
}

/// The seeded camera path: 80% small drags (2–8% of the view), 8% zoom
/// steps, 6% jumps and 6% returns to one of the last 256 views.
fn camera_path(seed: u64, frames: usize, extent: Rect) -> Vec<Rect> {
    let mut rng = Rng::new(seed, 0x0070_616e);
    let mut cam = Camera { cx: 0.5, cy: 0.5, step: 0 };
    let mut history: Vec<Camera> = Vec::with_capacity(frames);
    let mut path = Vec::with_capacity(frames);
    for _ in 0..frames {
        history.push(cam);
        path.push(cam.rect(extent));
        let p = rng.unit();
        let view = 0.5f64.powi(cam.step);
        cam = if p < 0.80 {
            let sign = |r: &mut Rng| if r.unit() < 0.5 { -1.0 } else { 1.0 };
            let dx = sign(&mut rng) * rng.range(0.02, 0.08) * view;
            let dy = sign(&mut rng) * rng.range(0.02, 0.08) * view;
            Camera { cx: cam.cx + dx, cy: cam.cy + dy, ..cam }
        } else if p < 0.88 {
            let dir =
                if cam.step == 0 || (cam.step < DEEPEST && rng.unit() < 0.5) { 1 } else { -1 };
            Camera { step: cam.step + dir, ..cam }
        } else if p < 0.94 {
            Camera {
                cx: rng.unit(),
                cy: rng.unit(),
                step: 2 + rng.below(DEEPEST as usize - 1) as i32,
            }
        } else {
            let back = history.len().min(256);
            history[history.len() - 1 - rng.below(back)]
        }
        .clamped();
    }
    path
}

/// Inputs of one run, generated from the seed (excluded from timing).
struct Inputs {
    clients: Vec<Point>,
    facilities: Vec<Point>,
    path: Vec<Rect>,
}

fn inputs(args: &Args) -> Inputs {
    let city = Dataset::nyc();
    let (clients, facilities) = crate::sample(&city.points, N_CLIENTS, args.seed);
    let mut all = clients.clone();
    all.extend_from_slice(&facilities);
    let frames = (FRAMES_PER_SECOND * args.seconds) as usize;
    let path = camera_path(args.seed, frames, crate::extent(&all));
    Inputs { clients, facilities, path }
}

fn build(inputs: &Inputs) -> ExplorationEngine<CountMeasure> {
    HeatMapBuilder::bichromatic(inputs.clients.clone(), inputs.facilities.clone())
        .metric(Metric::Linf)
        .build_engine(CountMeasure)
        .expect("sampled city input builds")
}

/// What the untraced pass measured and what it owes the checks.
struct Untraced {
    e2e: EndToEnd,
    /// `(spec, hash)` of every `CHECK_EVERY`-th frame.
    samples: Vec<(GridSpec, u64)>,
    /// Hash of every frame when the traced replica will compare them.
    hashes: Vec<u64>,
    hits: u64,
    misses: u64,
    /// Wall time of set-up plus the measured phase (ms).
    wall_ms: f64,
    engine: ExplorationEngine<CountMeasure>,
}

fn untraced(inputs: &Inputs, reps: usize, hash_all: bool) -> Untraced {
    let t = now();
    let engine = build(inputs);
    let mut setup = vec![t.elapsed().as_secs_f64()];
    let session = engine.session();
    // Result buffers are sized up front: growing them mid-phase would
    // land allocations in the heap holes freed frames leave, and move
    // the peak resident set from run to run.
    let frames = inputs.path.len();
    let mut e2e = EndToEnd {
        setup_reps: reps,
        light_ms: Vec::with_capacity(frames),
        heavy_ms: Vec::with_capacity(frames),
        ..EndToEnd::default()
    };
    let mut samples = Vec::with_capacity(frames / CHECK_EVERY + 1);
    let mut hashes = Vec::with_capacity(inputs.path.len());
    // Hashing frames for the checks is the benchmark's own work: it is
    // kept out of every reported time.
    let mut hashing = std::time::Duration::ZERO;
    let start = now();
    for (i, rect) in inputs.path.iter().enumerate() {
        let before = session.cache_stats().misses;
        let t = now();
        let frame = session.viewport(*rect, SCREEN_PX, SCREEN_PX);
        let dt = ms(t.elapsed());
        let missed = session.cache_stats().misses - before;
        if missed == 0 {
            e2e.light_ms.push(dt);
        } else {
            e2e.heavy_ms.push(dt);
        }
        if hash_all || i % CHECK_EVERY == 0 {
            let t = now();
            let h = hash_values(frame.values());
            hashing += t.elapsed();
            if hash_all {
                hashes.push(h);
            }
            if i % CHECK_EVERY == 0 {
                samples.push((frame.spec, h));
            }
        }
    }
    let phase = start.elapsed() - hashing;
    e2e.peak_rss_mb = util::peak_rss_mb();
    // The other builds run after the measured phase, so the peak memory
    // it reports saw exactly one.
    for _ in 1..reps {
        util::release_freed_memory();
        let t = now();
        drop(build(inputs));
        setup.push(t.elapsed().as_secs_f64());
    }
    e2e.setup_s = util::median(&setup);
    e2e.ops = e2e.light_ms.len() + e2e.heavy_ms.len();
    e2e.wall_s = phase.as_secs_f64();
    let stats = session.cache_stats();
    drop(session);
    Untraced {
        e2e,
        samples,
        hashes,
        hits: stats.hits,
        misses: stats.misses,
        wall_ms: setup[0] * 1e3 + ms(phase),
        engine,
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let inputs = inputs(args);
    let mut report = Report::default();
    let base = untraced(&inputs, if args.trace { 1 } else { SETUP_REPS }, args.trace);
    report.attempted = inputs.path.len() as u64;
    // Output check, outside the timed region: sampled frames equal a
    // one-shot render of their spec bit for bit.
    let session = base.engine.session();
    let bad = base
        .samples
        .iter()
        .filter(|(spec, h)| hash_values(session.raster(*spec).values()) != *h)
        .count();
    drop(session);
    report.failed = bad as u64;
    report.correct = bad == 0;
    report.details.push(format!(
        "{{\"check\":\"frames_match_one_shot_raster\",\"sampled\":{},\"mismatched\":{bad}}}",
        base.samples.len()
    ));
    if !args.trace {
        base.e2e.report(&mut report);
        return report;
    }
    let mut layers = Layers::default();
    let replica = traced(&inputs, &base, &mut layers, &mut report);
    report.correct &= replica;
    layers.report(&mut report);
    report
}

/// Exact counts of the traced replica.
#[derive(Default)]
struct Counts {
    tiles: AtomicU64,
    circles: AtomicU64,
    bytes: AtomicU64,
    exact_bytes: AtomicU64,
}

/// The traced run: the same camera path through the public pieces
/// `Session::viewport` is built from, on a cache of the engine's
/// capacity, with a span around every call into a layer. Returns
/// whether the replica reproduced every frame bit for bit with the same
/// hit and miss counts, and the sum check held.
fn traced(inputs: &Inputs, base: &Untraced, layers: &mut Layers, report: &mut Report) -> bool {
    let capacity: usize = base.engine.cache_stats().shards.iter().map(|s| s.capacity).sum();
    let scheme: TileScheme = base.engine.tile_scheme().clone();
    let tracer = Tracer::new(true);
    let measure = CountMeasure;
    let measure_key = measure.cache_key();
    let from = tracer.now_ns();
    let snap = tracer.span("snapshot.build", ROOT, 0, |_| {
        ArrangementSnapshot::build_k(
            inputs.clients.clone(),
            inputs.facilities.clone(),
            Metric::Linf,
            Mode::Bichromatic,
            1,
        )
        .expect("sampled city input builds")
    });
    let cache = TileCache::new(capacity);
    let counts = Counts::default();
    let rendered: Mutex<HashSet<TileId>> = Mutex::new(HashSet::new());
    let rerenders = AtomicU64::new(0);
    let mut served_px = 0u64;
    let mut same_frames = true;
    for (i, rect) in inputs.path.iter().enumerate() {
        let req = i as u64 + 1;
        let op = tracer.begin("op.frame", ROOT, req);
        let view = scheme.viewport(*rect, SCREEN_PX, SCREEN_PX);
        let fetch = tracer.begin("tiles.fetch", op, req);
        let payloads = cache.fetch_restricted(
            snap.fingerprint(),
            measure_key,
            &scheme,
            view.tiles(),
            |extent| tracer.span("snapshot.restrict", fetch, req, |_| snap.restrict_to(extent)),
            |base, id, spec| {
                if !rendered.lock().expect("render log poisoned").insert(id) {
                    rerenders.fetch_add(1, Ordering::Relaxed);
                }
                render_tile_traced(&tracer, fetch, req, base, &measure, spec, &counts)
            },
        );
        tracer.end(fetch);
        let frame = tracer.span("tiles.stitch", op, req, |_| view.stitch(&scheme, &payloads));
        tracer.end(op);
        served_px += (frame.spec.width * frame.spec.height) as u64;
        let h = tracer.span("probe.hash", ROOT, req, |_| hash_values(frame.values()));
        same_frames &= h == base.hashes[i];
    }
    let to = tracer.now_ns();
    let stats = cache.stats();
    let a = tracer.attribute(from, to);
    let sums = layers.attribution(&a, base.wall_ms, report);
    let same_counts = stats.hits == base.hits && stats.misses == base.misses;
    report.details.push(format!(
        "{{\"check\":\"replica_matches_session\",\"frames_identical\":{same_frames},\
         \"hits\":[{},{}],\"misses\":[{},{}]}}",
        stats.hits, base.hits, stats.misses, base.misses
    ));
    let tiles = counts.tiles.load(Ordering::Relaxed);
    let per_tile = |v: u64| if tiles == 0 { 0.0 } else { v as f64 / tiles as f64 };
    let self_ms = |name: &str| a.names.get(name).map_or(0.0, |&ns| ns as f64 / 1e6);
    let build = tracer.durations_ms("snapshot.build");
    layers.set("snapshot.build_ms", build.first().copied().unwrap_or(0.0));
    layers.set("snapshot.restrict_ms", self_ms("snapshot.restrict"));
    layers.set("snapshot.circles_per_tile", per_tile(counts.circles.load(Ordering::Relaxed)));
    layers.set("scanline.tiles", tiles as f64);
    layers.set("scanline.ms_per_tile", util::median(&tracer.durations_ms("scanline.render")));
    layers.set("quant.encode_ms", self_ms("quant.encode"));
    layers.set("quant.bytes_per_tile", per_tile(counts.bytes.load(Ordering::Relaxed)));
    let bytes = counts.bytes.load(Ordering::Relaxed).max(1) as f64;
    layers.set("quant.exact_share", counts.exact_bytes.load(Ordering::Relaxed) as f64 / bytes);
    layers.set("tiles.hit_ratio", stats.hit_rate());
    layers.set("tiles.rerender_ratio", per_tile(rerenders.load(Ordering::Relaxed)));
    layers.set("tiles.evictions", stats.evictions as f64);
    layers.set("tiles.invalidations", stats.invalidations as f64);
    layers.set(
        "tiles.overdraw",
        (tiles * (scheme.tile_px() as u64).pow(2)) as f64 / served_px as f64,
    );
    layers.set("tiles.fetch_self_ms", self_ms("tiles.fetch"));
    layers.set("tiles.stitch_ms", self_ms("tiles.stitch"));
    layers.set("tiles.single_flight_waits", stats.single_flight_waits as f64);
    if let Err(e) = tracer.write_jsonl(&crate::trace_path("pan_zoom")) {
        report.details.push(format!("{{\"trace_file_error\":\"{e}\"}}"));
    }
    same_frames && same_counts && sums
}

/// One tile through the public pieces the engine's render base uses:
/// restrict the union base to the tile, rasterize single-band, encode.
fn render_tile_traced<M: IncrementalMeasure + Sync>(
    tracer: &Tracer,
    parent: usize,
    req: u64,
    base: &RestrictedArrangement,
    measure: &M,
    spec: GridSpec,
    counts: &Counts,
) -> TilePayload {
    let RestrictedArrangement::Square(arr) = base else {
        unreachable!("pan_zoom is an L∞ workload");
    };
    let sub = tracer.span("snapshot.restrict", parent, req, |_| arr.restrict_to(spec.extent));
    counts.circles.fetch_add(sub.squares.len() as u64, Ordering::Relaxed);
    let raster: HeatRaster = tracer.span("scanline.render", parent, req, |_| {
        rasterize_squares_scanline_bands(&sub, measure, spec, 1)
    });
    let payload = tracer.span("quant.encode", parent, req, |_| {
        TilePayload::encode(raster, measure.integral_influence())
    });
    counts.tiles.fetch_add(1, Ordering::Relaxed);
    counts.bytes.fetch_add(payload.bytes() as u64, Ordering::Relaxed);
    if !payload.quantized() {
        counts.exact_bytes.fetch_add(payload.bytes() as u64, Ordering::Relaxed);
    }
    payload
}
