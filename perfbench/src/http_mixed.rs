//! `http_mixed`: a map client and a placement client over HTTP against
//! `rnnhm_serve` in the same process, on loopback.
//!
//! Synthetic LA, |O| = 10k, ratio 16, L∞, weighted measure with seeded
//! non-integer weights (tiles mostly stay raw `f64`). Server and engine
//! run with defaults. Two client threads, one keep-alive connection
//! each:
//!
//! * the light client is a closed-loop map client: tiles, 512²
//!   viewports and `/influence` over the root and one edited fork, with
//!   a working set that fits the cache (light class, `op_*`,
//!   `ops_per_s`);
//! * the heavy client is open loop: `/placement?m=3` on a fixed
//!   schedule, each timed from when it was due (heavy class), whether
//!   or not its previous answer is in. The schedule is clocked by the
//!   light client's progress (see [`HEAVY_EVERY`]). About two thirds
//!   repeat a (fingerprint, m) pair another session already asked; the
//!   rest follow a `POST /edit` on its own session.
//!
//! It is the only workload through `serve`; compared with the others it
//! adds region queries that repeat, the raw-`f64` payload path and a
//! cache-resident working set.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

use rnn_heatmap::core::measure::WeightedMeasure;
use rnn_heatmap::core::placement::{PlacementQuery, PlacementRegion, PruneStats};
use rnn_heatmap::core::snapshot::ArrangementSnapshot;
use rnn_heatmap::data::Dataset;
use rnn_heatmap::geom::{Metric, Point, Rect};
use rnn_heatmap::heatmap::quant::TilePayload;
use rnn_heatmap::heatmap::tiles::TileId;
use rnn_heatmap::{ExplorationEngine, HeatMapBuilder};
use rnnhm_serve::{json, serve, Server, ServerConfig};

use crate::client::{Conn, Reply};
use crate::trace::{SpanId, Tracer, ROOT};
use crate::util::{self, hash_values, ms, now, Rng};
use crate::{Args, EndToEnd, Layers, Report};

/// Clients sampled from the city.
const N_CLIENTS: usize = 10_000;
/// Light (map) requests per nominal second. At 12 s that is 9600, so
/// `op_tail_ms` is their p99 with 96 samples beyond it; 10 000 or more
/// would switch it to a p99.9 resting on barely ten.
const LIGHT_PER_SECOND: u64 = 800;
/// Light requests per scheduled placement. The heavy client's schedule
/// is clocked by the light client's progress, not by the wall clock:
/// placement `i` falls due when the light client starts request
/// `(i + 1/2) × HEAVY_EVERY`. Both clients then overlap for the whole
/// phase on a fast or a slow machine, and the placement load stays
/// near half of one core (a placement costs about as much as 400 light
/// requests) whatever the machine's speed.
const HEAVY_EVERY: usize = 800;
/// Placement size asked for.
const M: usize = 3;
/// Centres of each light session's viewports, as fractions of the city
/// extent: fixed, overlapping spots in the middle of the city, so every
/// seed has the same cache-resident working set (the seed picks the
/// requests).
const VIEW_CENTRES: [(f64, f64); 3] = [(0.42, 0.45), (0.5, 0.55), (0.58, 0.47)];
/// Viewport screen size.
const VIEW_PX: usize = 512;
/// Every this many light raster responses, one is re-rendered in
/// process and compared byte for byte.
const CHECK_EVERY: usize = 50;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// One light request.
#[derive(Clone, Copy, Debug)]
enum Light {
    Tile { session: usize, tile: TileId },
    View { session: usize, rect: Rect },
    Influence { session: usize, at: Point },
}

struct Inputs {
    clients: Vec<Point>,
    facilities: Vec<Point>,
    weights: Vec<f64>,
    /// Light viewports per light session (root, fork).
    views: [Vec<Rect>; 2],
    /// Where the set-up edit puts the fork's extra facility.
    fork_edit: Point,
    /// Where the heavy session's set-up edit, then each fresh heavy
    /// request's edit, adds a facility.
    heavy_adds: Vec<Point>,
    extent: Rect,
    seed: u64,
    light_n: usize,
    heavy_n: usize,
}

fn inputs(args: &Args) -> Inputs {
    let city = Dataset::la();
    let (clients, facilities) = crate::sample(&city.points, N_CLIENTS, args.seed);
    let mut rng = Rng::new(args.seed, 0x6874_7470);
    let weights: Vec<f64> = (0..clients.len()).map(|_| rng.range(0.5, 5.0)).collect();
    let extent = crate::extent(&clients);
    let at = |rng: &mut Rng, lo: f64, hi: f64| {
        Point::new(
            extent.x_lo + rng.range(lo, hi) * extent.width(),
            extent.y_lo + rng.range(lo, hi) * extent.height(),
        )
    };
    // Viewports a quarter of the city wide.
    let views: Vec<Rect> = VIEW_CENTRES
        .iter()
        .map(|&(fx, fy)| {
            let (cx, cy) = (extent.x_lo + fx * extent.width(), extent.y_lo + fy * extent.height());
            let (w, h) = (extent.width() / 8.0, extent.height() / 8.0);
            Rect::new(cx - w, cx + w, cy - h, cy + h)
        })
        .collect();
    let views = [views.clone(), views];
    let fork_edit = at(&mut rng, 0.4, 0.6);
    let light_n = (LIGHT_PER_SECOND * args.seconds) as usize;
    let heavy_n = (light_n / HEAVY_EVERY).max(1);
    let heavy_adds = (0..=heavy_n).map(|_| at(&mut rng, 0.1, 0.9)).collect();
    Inputs {
        clients,
        facilities,
        weights,
        views,
        fork_edit,
        heavy_adds,
        extent,
        seed: args.seed,
        light_n,
        heavy_n,
    }
}

/// The light script: the warm-up pass (every tile of each session's
/// viewports, then the viewports, which are then fully cached and can
/// never degrade), then a seeded mix of 74% tiles, 6% viewports and
/// 20% influence probes. The viewports are the slowest light requests;
/// at 6% the light p99 falls in their upper sixth rather than at their
/// own extreme tail, and the light requests between two placements
/// still take about twice as long as a placement.
fn light_script(
    inputs: &Inputs,
    engine: &ExplorationEngine<WeightedMeasure>,
) -> (Vec<Light>, Vec<Light>) {
    let scheme = engine.tile_scheme();
    let mut warm = Vec::new();
    let mut tiles: [Vec<TileId>; 2] = [Vec::new(), Vec::new()];
    for (session, (views, tiles)) in inputs.views.iter().zip(tiles.iter_mut()).enumerate() {
        for &rect in views {
            for &t in scheme.viewport(rect, VIEW_PX, VIEW_PX).tiles() {
                if !tiles.contains(&t) {
                    tiles.push(t);
                }
            }
        }
        warm.extend(tiles.iter().map(|&tile| Light::Tile { session, tile }));
        warm.extend(views.iter().map(|&rect| Light::View { session, rect }));
    }
    let mut rng = Rng::new(inputs.seed, 0x6c69_6768);
    let script = (0..inputs.light_n)
        .map(|_| {
            let session = rng.below(2);
            let p = rng.unit();
            if p < 0.74 {
                Light::Tile { session, tile: tiles[session][rng.below(tiles[session].len())] }
            } else if p < 0.8 {
                Light::View { session, rect: inputs.views[session][rng.below(VIEW_CENTRES.len())] }
            } else {
                let e = inputs.extent;
                let at = Point::new(rng.range(e.x_lo, e.x_hi), rng.range(e.y_lo, e.y_hi));
                Light::Influence { session, at }
            }
        })
        .collect();
    (warm, script)
}

fn target(light: &Light, ids: &[u64; 2]) -> String {
    match *light {
        Light::Tile { session, tile } => {
            format!("/session/{}/tile/{}/{}/{}", ids[session], tile.zoom, tile.tx, tile.ty)
        }
        Light::View { session, rect } => format!(
            "/session/{}/viewport?x0={}&x1={}&y0={}&y1={}&w={VIEW_PX}&h={VIEW_PX}",
            ids[session], rect.x_lo, rect.x_hi, rect.y_lo, rect.y_hi
        ),
        Light::Influence { session, at } => {
            format!("/session/{}/influence?x={}&y={}", ids[session], at.x, at.y)
        }
    }
}

/// The `"fingerprint":"<hex>"` field of a JSON reply.
fn json_fingerprint(reply: &Reply) -> Option<u64> {
    let text = reply.text();
    let rest = &text[text.find("\"fingerprint\":\"")? + 15..];
    u64::from_str_radix(&rest[..rest.find('"')?], 16).ok()
}

fn session_id(reply: &Reply) -> Option<u64> {
    let text = reply.text();
    let rest = &text[text.find("\"session\":")? + 10..];
    rest[..rest.find(|c: char| !c.is_ascii_digit())?].parse().ok()
}

/// A running server with its sessions, ready for the measured phase.
struct Stage {
    engine: Arc<ExplorationEngine<WeightedMeasure>>,
    server: Server<WeightedMeasure>,
    light_conn: Mutex<Conn>,
    heavy_conn: Mutex<Conn>,
    /// Light sessions: root and the edited fork.
    light_ids: [u64; 2],
    /// The edited fork's snapshot, for in-process calls on it.
    fork_snapshot: Arc<ArrangementSnapshot>,
    /// The heavy client's editing session and its plain root fork.
    heavy_id: u64,
    root_fork_id: u64,
    light: Vec<Light>,
    /// `(fingerprint, m)` pairs asked so far.
    asked: Vec<u64>,
}

fn must(reply: std::io::Result<Reply>, what: &str) -> Result<Reply, String> {
    match reply {
        Ok(r) if r.ok() => Ok(r),
        Ok(r) => Err(format!("{what}: status {} ({})", r.status, r.text())),
        Err(e) => Err(format!("{what}: {e}")),
    }
}

/// Engine build, server start, sessions, one pass over the light path
/// and one placement on the root.
fn setup(inputs: &Inputs, tracer: &Tracer) -> Result<Stage, String> {
    let engine = tracer.span("snapshot.build", ROOT, 0, |_| {
        HeatMapBuilder::bichromatic(inputs.clients.clone(), inputs.facilities.clone())
            .metric(Metric::Linf)
            .build_engine(WeightedMeasure::new(inputs.weights.clone()))
            .map_err(|e| format!("build: {e:?}"))
    })?;
    let engine = Arc::new(engine);
    let server =
        serve(engine.clone(), ServerConfig::default()).map_err(|e| format!("serve: {e}"))?;
    // The connections the clients keep using in the measured phase: a
    // keep-alive connection stays on one server worker, so placements
    // always run on the same thread (and allocator arena).
    let mut conn = Conn::new(server.addr());
    let mut light_conn = Conn::new(server.addr());
    let fork =
        session_id(&must(conn.request("POST", "/session/0/fork"), "fork")?).ok_or("fork id")?;
    let p = inputs.fork_edit;
    let edit = must(
        conn.request("POST", &format!("/session/{fork}/edit?op=add&x={}&y={}", p.x, p.y)),
        "edit",
    )?;
    let fork_fp = json_fingerprint(&edit).ok_or("edit without fingerprint")?;
    let fork_snapshot = engine
        .snapshots()
        .into_iter()
        .find(|s| s.fingerprint() == fork_fp)
        .ok_or("edited fork snapshot not registered")?;
    let heavy_id =
        session_id(&must(conn.request("POST", "/session/0/fork"), "fork")?).ok_or("fork id")?;
    // Both forks make their first edit before any tile is cached, so
    // neither aliases the root's tiles: the light working set stays two
    // disjoint, cache-resident tile sets, and no alias copy can evict
    // them mid-phase.
    let p = inputs.heavy_adds[0];
    must(
        conn.request("POST", &format!("/session/{heavy_id}/edit?op=add&x={}&y={}", p.x, p.y)),
        "edit",
    )?;
    let root_fork_id =
        session_id(&must(conn.request("POST", "/session/0/fork"), "fork")?).ok_or("fork id")?;
    let light_ids = [0, fork];
    let (warm, light) = light_script(inputs, &engine);
    for l in &warm {
        must(light_conn.request("GET", &target(l, &light_ids)), "warm-up")?;
    }
    let reply = must(conn.request("GET", &format!("/session/0/placement?m={M}")), "placement")?;
    let asked = vec![reply.etag_fingerprint().ok_or("placement without ETag")?];
    Ok(Stage {
        engine,
        server,
        light_conn: Mutex::new(light_conn),
        heavy_conn: Mutex::new(conn),
        light_ids,
        fork_snapshot,
        heavy_id,
        root_fork_id,
        light,
        asked,
    })
}

/// A sampled light raster response, for the byte-for-byte check.
struct Sample {
    fingerprint: u64,
    request: Light,
    hash: u64,
}

/// A placement response, for the JSON check and the placement probe.
struct Answer {
    fingerprint: u64,
    body: String,
    span: SpanId,
}

#[derive(Default)]
struct LightOut {
    ms: Vec<f64>,
    /// Latencies by request kind: tile, viewport, influence.
    by_kind: [Vec<f64>; 3],
    wall: Duration,
    failed: u64,
    bytes: u64,
    samples: Vec<Sample>,
    overhead_ms: Vec<f64>,
}

#[derive(Default)]
struct HeavyOut {
    ms: Vec<f64>,
    late_ms: Vec<f64>,
    failed: u64,
    attempted: u64,
    answers: Vec<Answer>,
    repeats: u64,
    pinned: HashMap<u64, Arc<ArrangementSnapshot>>,
}

fn decode(body: &[u8]) -> Vec<f64> {
    body.chunks_exact(8).map(|b| f64::from_le_bytes(b.try_into().expect("8 bytes"))).collect()
}

/// The heavy client's due instants, set by the light client as it
/// reaches each placement's position in its script.
struct Pace {
    dues: Mutex<Vec<Option<Instant>>>,
    cv: Condvar,
}

impl Pace {
    fn new(n: usize) -> Pace {
        Pace { dues: Mutex::new(vec![None; n]), cv: Condvar::new() }
    }

    /// Placement `i` is due now (no-op if it already is).
    fn due(&self, i: usize) {
        let mut dues = self.dues.lock().expect("pace poisoned");
        if let Some(slot @ None) = dues.get_mut(i) {
            *slot = Some(now());
            self.cv.notify_all();
        }
    }

    /// Every placement not yet due is due now (the light script ended).
    fn finish(&self) {
        let n = self.dues.lock().expect("pace poisoned").len();
        (0..n).for_each(|i| self.due(i));
    }

    /// Blocks until placement `i` is due; returns when it fell due.
    fn wait(&self, i: usize) -> Instant {
        let mut dues = self.dues.lock().expect("pace poisoned");
        loop {
            if let Some(at) = dues[i] {
                return at;
            }
            dues = self.cv.wait(dues).expect("pace poisoned");
        }
    }
}

/// The closed-loop map client.
fn light_client(stage: &Stage, tracer: &Tracer, start: &Barrier, pace: &Pace) -> LightOut {
    let mut conn = stage.light_conn.lock().expect("light connection poisoned");
    // Sized up front, so the benchmark's own buffers never grow into
    // heap holes mid-phase (which would move the peak resident set).
    let n = stage.light.len();
    let mut out = LightOut {
        ms: Vec::with_capacity(n),
        by_kind: [Vec::with_capacity(n), Vec::with_capacity(n), Vec::with_capacity(n)],
        samples: Vec::with_capacity(n / CHECK_EVERY + 1),
        overhead_ms: Vec::with_capacity(if tracer.enabled() { n } else { 0 }),
        ..LightOut::default()
    };
    let in_process = [stage.engine.session(), stage.engine.session_at(stage.fork_snapshot.clone())];
    let mut rasters = 0usize;
    start.wait();
    let t0 = now();
    for (i, l) in stage.light.iter().enumerate() {
        if i % HEAVY_EVERY == HEAVY_EVERY / 2 {
            pace.due(i / HEAVY_EVERY);
        }
        let req = 1 + i as u64;
        let op = tracer.begin("op.light", ROOT, req);
        let span = tracer.begin("serve.request", op, req);
        let t = now();
        let reply = conn.request("GET", &target(l, &stage.light_ids));
        let dt = t.elapsed();
        tracer.end(span);
        tracer.end(op);
        out.ms.push(ms(dt));
        let kind = match l {
            Light::Tile { .. } => 0,
            Light::View { .. } => 1,
            Light::Influence { .. } => 2,
        };
        out.by_kind[kind].push(ms(dt));
        let reply = match reply {
            Ok(r) if r.ok() => r,
            _ => {
                out.failed += 1;
                continue;
            }
        };
        out.bytes += reply.body.len() as u64;
        if tracer.enabled() {
            let (name, ns) =
                tracer.span("probe.in_process", ROOT, req, |_| in_process_call(&in_process, l));
            tracer.synthetic(name, span, 0, ns);
            out.overhead_ms.push(ms(dt) - ns as f64 / 1e6);
        }
        if !matches!(l, Light::Influence { .. }) {
            rasters += 1;
            if rasters % CHECK_EVERY == 1 {
                match reply.etag_fingerprint() {
                    Some(fingerprint) => out.samples.push(Sample {
                        fingerprint,
                        request: *l,
                        hash: hash_values(&decode(&reply.body)),
                    }),
                    None => out.failed += 1,
                }
            }
        }
    }
    out.wall = t0.elapsed();
    pace.finish();
    out
}

/// The engine call a light request makes, in process and back to back
/// with it: `(layer span name, duration ns)`.
fn in_process_call(
    sessions: &[rnn_heatmap::Session<WeightedMeasure>; 2],
    light: &Light,
) -> (&'static str, u64) {
    let t = now();
    let name = match *light {
        Light::Tile { session, tile } => {
            std::hint::black_box(sessions[session].tile(tile));
            "tiles.fetch"
        }
        Light::View { session, rect } => {
            let deadline = now() + Duration::from_millis(250);
            std::hint::black_box(
                sessions[session].viewport_deadline(rect, VIEW_PX, VIEW_PX, deadline),
            );
            "tiles.fetch"
        }
        Light::Influence { session, at } => {
            std::hint::black_box(sessions[session].influence_at(at));
            "engine.influence"
        }
    };
    (name, t.elapsed().as_nanos() as u64)
}

/// The open-loop placement client.
fn heavy_client(
    stage: &Stage,
    inputs: &Inputs,
    tracer: &Tracer,
    start: &Barrier,
    pace: &Pace,
) -> HeavyOut {
    let mut conn = stage.heavy_conn.lock().expect("heavy connection poisoned");
    let mut out = HeavyOut::default();
    let mut asked: Vec<u64> = stage.asked.clone();
    let mut copy: Option<u64> = None;
    start.wait();
    for i in 0..inputs.heavy_n {
        let req = 1_000_000 + i as u64;
        // Requests that set up the next placement go out as soon as the
        // previous answer is in; they are not timed.
        let session = match i % 3 {
            0 => {
                let p = inputs.heavy_adds[i + 1];
                let target = format!("/session/{}/edit?op=add&x={}&y={}", stage.heavy_id, p.x, p.y);
                out.attempted += 1;
                if !tracer
                    .span("serve.request", ROOT, req, |_| conn.request("POST", &target))
                    .is_ok_and(|r| r.ok())
                {
                    out.failed += 1;
                }
                stage.heavy_id
            }
            1 => {
                if let Some(old) = copy.take() {
                    out.attempted += 1;
                    let del = tracer.span("serve.request", ROOT, req, |_| {
                        conn.request("DELETE", &format!("/session/{old}"))
                    });
                    if !del.is_ok_and(|r| r.ok()) {
                        out.failed += 1;
                    }
                }
                out.attempted += 1;
                let fork = tracer.span("serve.request", ROOT, req, |_| {
                    conn.request("POST", &format!("/session/{}/fork", stage.heavy_id))
                });
                match fork.ok().filter(|r| r.ok()).and_then(|r| session_id(&r)) {
                    Some(id) => {
                        copy = Some(id);
                        id
                    }
                    None => {
                        out.failed += 1;
                        stage.heavy_id
                    }
                }
            }
            _ => stage.root_fork_id,
        };
        let due = pace.wait(i);
        let sent = now();
        out.late_ms.push(ms(sent.saturating_duration_since(due)));
        let op = tracer.begin("op.heavy", ROOT, req);
        let span = tracer.begin("serve.request", op, req);
        let reply = conn.request("GET", &format!("/session/{session}/placement?m={M}"));
        tracer.end(span);
        tracer.end(op);
        out.ms.push(ms(now().saturating_duration_since(due)));
        out.attempted += 1;
        let Some(reply) = reply.ok().filter(|r| r.ok()) else {
            out.failed += 1;
            continue;
        };
        let Some(fp) = reply.etag_fingerprint() else {
            out.failed += 1;
            continue;
        };
        if asked.contains(&fp) {
            out.repeats += 1;
        } else {
            asked.push(fp);
        }
        if let std::collections::hash_map::Entry::Vacant(v) = out.pinned.entry(fp) {
            if let Some(snap) = stage.engine.snapshots().into_iter().find(|s| s.fingerprint() == fp)
            {
                v.insert(snap);
            }
        }
        out.answers.push(Answer { fingerprint: fp, body: reply.text().to_string(), span });
    }
    out
}

/// The placement JSON the server writes for `placements` (same field
/// order and number formatting).
fn placement_json(fingerprint: u64, placements: &[PlacementRegion]) -> String {
    let items: Vec<String> = placements
        .iter()
        .map(|p| {
            format!(
                "{{\"point\":[{},{}],\"bbox\":[{},{},{},{}],\"influence\":{},\"rnn_size\":{}}}",
                json::number(p.point.x),
                json::number(p.point.y),
                json::number(p.bbox.x_lo),
                json::number(p.bbox.x_hi),
                json::number(p.bbox.y_lo),
                json::number(p.bbox.y_hi),
                json::number(p.influence),
                p.rnn.len()
            )
        })
        .collect();
    format!(
        "{{\"fingerprint\":\"{fingerprint:016x}\",\"m\":{M},\"placements\":[{}]}}",
        items.join(",")
    )
}

/// The measured phase: both clients at once. Returns their results and
/// the phase's wall time.
fn phase(stage: &Stage, inputs: &Inputs, tracer: &Tracer) -> (LightOut, HeavyOut, Duration) {
    let start = Barrier::new(3);
    let pace = Pace::new(inputs.heavy_n);
    std::thread::scope(|scope| {
        let heavy = scope.spawn(|| heavy_client(stage, inputs, tracer, &start, &pace));
        let light = scope.spawn(|| light_client(stage, tracer, &start, &pace));
        start.wait();
        let t = now();
        let light = light.join().expect("light client panicked");
        let heavy = heavy.join().expect("heavy client panicked");
        (light, heavy, t.elapsed())
    })
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let inputs = inputs(args);
    let mut report = Report::default();
    let off = Tracer::new(false);
    let t = now();
    let stage = setup(&inputs, &off)?;
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    let before = stage.server.stats();
    let (light, heavy, wall) = phase(&stage, &inputs, &off);
    let mut e2e = EndToEnd {
        setup_s: setup_s[0],
        setup_reps: if args.trace { 1 } else { SETUP_REPS },
        peak_rss_mb: util::peak_rss_mb(),
        ops: light.ms.len(),
        wall_s: light.wall.as_secs_f64(),
        light_ms: light.ms.clone(),
        heavy_ms: heavy.ms.clone(),
    };
    report.attempted = light.ms.len() as u64 + heavy.attempted;
    report.failed = light.failed + heavy.failed;
    report.correct = check(&stage, &light, &heavy, &mut report).ok && report.failed == 0;
    let kinds: Vec<String> = ["tile", "viewport", "influence"]
        .iter()
        .zip(&light.by_kind)
        .map(|(k, v)| {
            let (p, t) = util::tail(v);
            format!(
                "\"{k}\":{{\"n\":{},\"p50\":{:.4},\"p{p}\":{:.4}}}",
                v.len(),
                util::median(v),
                t
            )
        })
        .collect();
    report.details.push(format!("{{\"light_by_kind_ms\":{{{}}}}}", kinds.join(",")));
    report.details.push(format!(
        "{{\"generator_late_ms\":{{\"p50\":{:.3},\"max\":{:.3}}},\"placement_repeats\":{},\
         \"placements\":{},\"server\":{}}}",
        util::median(&heavy.late_ms),
        heavy.late_ms.iter().copied().fold(0.0, f64::max),
        heavy.repeats,
        heavy.answers.len(),
        server_delta(&before, &stage.server.stats())
    ));
    if !args.trace {
        shutdown(stage);
        // The other set-ups run after the measured phase, so the peak
        // memory it reports saw exactly one.
        for _ in 1..SETUP_REPS {
            util::release_freed_memory();
            let t = now();
            let extra = setup(&inputs, &off)?;
            setup_s.push(t.elapsed().as_secs_f64());
            shutdown(extra);
        }
        e2e.setup_s = util::median(&setup_s);
        e2e.report(&mut report);
        return Ok(report);
    }
    let untraced_ms = ms(wall);
    shutdown(stage);
    util::release_freed_memory();
    // The traced window is the measured phase; set-up is traced only
    // for the build span.
    let tracer = Tracer::new(true);
    let stage = setup(&inputs, &tracer)?;
    let from = tracer.now_ns();
    let cache_before = stage.engine.cache_stats();
    let before = stage.server.stats();
    let (light, heavy, _) = phase(&stage, &inputs, &tracer);
    let to = tracer.now_ns();
    let stats = stage.engine.cache_stats();
    let server = stage.server.stats();
    let checked = check(&stage, &light, &heavy, &mut report);
    for (answer, ns) in heavy.answers.iter().zip(&checked.query_ns) {
        tracer.synthetic("placement.query", answer.span, 0, *ns);
    }
    let a = tracer.attribute(from, to);
    let mut layers = Layers::default();
    let sums = layers.attribution(&a, untraced_ms, &mut report);
    report.correct &= checked.ok && sums && light.failed + heavy.failed == 0;
    let per = |v: u64, n: u64| if n == 0 { 0.0 } else { v as f64 / n as f64 };
    let self_ms = |name: &str| a.names.get(name).map_or(0.0, |&ns| ns as f64 / 1e6);
    let hits = stats.hits - cache_before.hits;
    let misses = stats.misses - cache_before.misses;
    layers.set("snapshot.build_ms", tracer.durations_ms("snapshot.build")[0]);
    layers.set("scanline.tiles", misses as f64);
    layers.set("tiles.hit_ratio", per(hits, hits + misses));
    layers.set("tiles.evictions", (stats.evictions - cache_before.evictions) as f64);
    layers.set("tiles.invalidations", (stats.invalidations - cache_before.invalidations) as f64);
    layers.set("tiles.fetch_self_ms", self_ms("tiles.fetch"));
    layers.set(
        "tiles.single_flight_waits",
        (stats.single_flight_waits - cache_before.single_flight_waits) as f64,
    );
    let query_ms: Vec<f64> = checked.query_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    layers.set("placement.query_ms", util::median(&query_ms));
    layers.set("placement.evaluated_share", per(checked.evaluated, checked.distinct));
    layers.set("placement.repeat_share", per(heavy.repeats, heavy.answers.len() as u64));
    layers.set("serve.overhead_ms", util::median(&light.overhead_ms));
    layers.set("serve.bytes_per_response", per(light.bytes, light.ms.len() as u64));
    layers.set("serve.shed", (server.shed - before.shed) as f64);
    layers.set("serve.degraded", (server.degraded - before.degraded) as f64);
    layers.set(
        "serve.deadline_rejected",
        (server.deadline_rejected - before.deadline_rejected) as f64,
    );
    layers.set("serve.queue_high_water", server.queue_high_water as f64);
    if let Err(e) = tracer.write_jsonl(&crate::trace_path("http_mixed")) {
        report.details.push(format!("{{\"trace_file_error\":\"{e}\"}}"));
    }
    shutdown(stage);
    layers.report(&mut report);
    Ok(report)
}

fn server_delta(a: &rnnhm_serve::ServerStats, b: &rnnhm_serve::ServerStats) -> String {
    format!(
        "{{\"requests\":{},\"shed\":{},\"degraded\":{},\"deadline_rejected\":{},\"queue_high_water\":{}}}",
        b.requests - a.requests,
        b.shed - a.shed,
        b.degraded - a.degraded,
        b.deadline_rejected - a.deadline_rejected,
        b.queue_high_water
    )
}

/// Closes the client connections (so no worker waits on them), then
/// stops the server and joins its threads.
fn shutdown(stage: Stage) {
    let Stage { server, light_conn, heavy_conn, .. } = stage;
    drop((light_conn, heavy_conn));
    server.shutdown();
}

/// Output checks: sampled light raster responses equal an in-process
/// re-render, without the cache, from the snapshot their ETag names,
/// and every placement answer equals the in-process `top_placements`
/// of its snapshot.
///
/// The re-render goes through the pieces the engine renders a miss with
/// (restrict, single-band scanline, encode, stitch), not a one-shot
/// `Session::raster`: weighted sums with non-dyadic weights depend on
/// summation order, so a one-shot render may differ from a tiled one in
/// the last bit.
fn check(stage: &Stage, light: &LightOut, heavy: &HeavyOut, report: &mut Report) -> Checked {
    let snapshots: BTreeMap<u64, Arc<ArrangementSnapshot>> =
        stage.engine.snapshots().into_iter().map(|s| (s.fingerprint(), s)).collect();
    let mut raster_bad = 0usize;
    let measure = stage.engine.measure();
    let scheme = stage.engine.tile_scheme();
    for s in &light.samples {
        let ok = snapshots.get(&s.fingerprint).is_some_and(|snap| {
            let values = match s.request {
                Light::Tile { tile, .. } => {
                    crate::render_tile(snap, measure, scheme.tile_spec(tile))
                        .to_raster()
                        .values()
                        .to_vec()
                }
                Light::View { rect, .. } => {
                    let view = scheme.viewport(rect, VIEW_PX, VIEW_PX);
                    let tiles: Vec<Arc<TilePayload>> = view
                        .tiles()
                        .iter()
                        .map(|&id| {
                            Arc::new(crate::render_tile(snap, measure, scheme.tile_spec(id)))
                        })
                        .collect();
                    view.stitch(scheme, &tiles).values().to_vec()
                }
                Light::Influence { .. } => return false,
            };
            hash_values(&values) == s.hash
        });
        raster_bad += usize::from(!ok);
    }
    // One in-process query per distinct snapshot, as `(JSON, ns, stats)`.
    let mut expected: HashMap<u64, (String, u64, PruneStats)> = HashMap::new();
    let mut placement_bad = 0usize;
    let mut query_ns = Vec::with_capacity(heavy.answers.len());
    for a in &heavy.answers {
        let Some(snap) = heavy.pinned.get(&a.fingerprint) else {
            placement_bad += 1;
            query_ns.push(0);
            continue;
        };
        let (json, ns, _) = expected.entry(a.fingerprint).or_insert_with(|| {
            let t = now();
            let (placements, stats) = PlacementQuery::new(snap, measure).top_placements_stats(M);
            let ns = t.elapsed().as_nanos() as u64;
            (placement_json(a.fingerprint, &placements), ns, stats)
        });
        placement_bad += usize::from(*json != a.body);
        query_ns.push(*ns);
    }
    report.details.push(format!(
        "{{\"check\":\"http_matches_in_process\",\"rasters_sampled\":{},\"rasters_mismatched\":{raster_bad},\
         \"placements\":{},\"placements_mismatched\":{placement_bad}}}",
        light.samples.len(),
        heavy.answers.len()
    ));
    let stats = expected.values().map(|(_, _, stats)| stats);
    Checked {
        ok: raster_bad == 0 && placement_bad == 0,
        query_ns,
        evaluated: stats.clone().map(|s| s.evaluated as u64).sum(),
        distinct: stats.map(|s| s.distinct_regions as u64).sum(),
    }
}

/// The verdict of [`check`] and what its in-process placement queries
/// measured.
struct Checked {
    ok: bool,
    /// Per placement answer, how long the in-process query of its
    /// snapshot took (ns).
    query_ns: Vec<u64>,
    /// `PruneStats` summed over the distinct snapshots asked.
    evaluated: u64,
    distinct: u64,
}
