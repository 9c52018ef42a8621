//! `what_if`: what-if edits beside reads, closed loop, one driver
//! thread.
//!
//! Uniform data, |O| = 10k, ratio 16, L∞, count measure, engine
//! defaults. Four sessions forked from the root take turns. Each cycle
//! is one add, move or remove inside the session's 1024² viewport and a
//! re-render of that viewport (light class); a quarter of each fork's
//! turns also ask `Session::top_k(5)` (heavy class). It is the only workload
//! with edits, and its region queries never repeat because each follows
//! an edit. A fork's first edit carries cached tiles over by aliasing
//! (the engine still holds the root); later edits move them.

use std::collections::HashSet;

use rnn_heatmap::core::crest::crest_sweep;
use rnn_heatmap::core::edit::DirtyRegion;
use rnn_heatmap::core::measure::{CountMeasure, InfluenceMeasure};
use rnn_heatmap::core::parallel::effective_parallelism;
use rnn_heatmap::core::postprocess::top_k;
use rnn_heatmap::core::sink::{CollectSink, LabeledRegion};
use rnn_heatmap::core::snapshot::{ArrangementSnapshot, RestrictedArrangement};
use rnn_heatmap::data::Dataset;
use rnn_heatmap::geom::{Metric, Point, Rect};
use rnn_heatmap::heatmap::quant::TilePayload;
use rnn_heatmap::heatmap::scanline::rasterize_squares_scanline_bands;
use rnn_heatmap::heatmap::tiles::{TileId, TileScheme};
use rnn_heatmap::{ExplorationEngine, HeatMapBuilder, Session};

use crate::trace::{SpanId, Tracer, ROOT};
use crate::util::{self, hash_values, ms, now, Rng};
use crate::{Args, EndToEnd, Layers, Report};

/// Clients in the uniform data set.
const N_CLIENTS: usize = 10_000;
/// Concurrent what-if sessions.
const FORKS: usize = 4;
/// Screen size of every session's viewport.
const SCREEN_PX: usize = 1024;
/// Edit cycles per nominal second of the measured phase. At 12 s that
/// is 96 cycles, so `op_tail_ms` is their p75 with 24 samples beyond
/// it; 100 to 199 would switch it to a p90 resting on 10 to 19.
const CYCLES_PER_SECOND: u64 = 8;
/// One in this many of a fork's turns also asks for the top regions.
const TOPK_EVERY: usize = 4;
/// Regions asked for.
const TOP_K: usize = 5;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// One scripted edit. Targets of moves and removes are picked when the
/// cycle runs, from the facilities then inside the viewport, by a
/// seeded index.
#[derive(Clone, Copy, Debug)]
enum Edit {
    Add(Point),
    Move { pick: u64, to: Point },
    Remove { pick: u64 },
}

/// One cycle of the script.
#[derive(Clone, Copy, Debug)]
struct Cycle {
    fork: usize,
    edit: Edit,
    top_k: bool,
}

struct Inputs {
    clients: Vec<Point>,
    facilities: Vec<Point>,
    views: Vec<Rect>,
    cycles: Vec<Cycle>,
}

fn inputs(args: &Args) -> Inputs {
    let data = Dataset::uniform(2 * N_CLIENTS, args.seed);
    let (clients, facilities) = crate::sample(&data.points, N_CLIENTS, args.seed);
    let mut rng = Rng::new(args.seed, 0x7768_6174);
    // Each fork explores a quarter-width window centred in its own
    // quadrant of the unit square. The windows are fixed, so every seed
    // edits the same amount of map; the seed picks the edits.
    let views: Vec<Rect> = (0..FORKS)
        .map(|f| {
            let (x, y) = (0.125 + 0.5 * (f % 2) as f64, 0.125 + 0.5 * (f / 2) as f64);
            Rect::new(x, x + 0.25, y, y + 0.25)
        })
        .collect();
    // Each fork's turns get a fixed mix, in seeded order: a third adds,
    // a third moves, a third removes, and a quarter also ask for the
    // top regions. Only where and in which order are left to the seed,
    // so the amount of work is the same for every seed.
    let turns = (CYCLES_PER_SECOND * args.seconds) as usize / FORKS;
    let mut per_fork: Vec<Vec<Cycle>> = views
        .iter()
        .enumerate()
        .map(|(fork, v)| {
            let inside = |r: &mut Rng| Point::new(r.range(v.x_lo, v.x_hi), r.range(v.y_lo, v.y_hi));
            let mut kinds: Vec<usize> = (0..turns).map(|t| t % 3).collect();
            let mut asks: Vec<bool> = (0..turns).map(|t| t < turns / TOPK_EVERY).collect();
            shuffle(&mut kinds, &mut rng);
            shuffle(&mut asks, &mut rng);
            kinds
                .into_iter()
                .zip(asks)
                .map(|(kind, top_k)| {
                    let edit = match kind {
                        0 => Edit::Add(inside(&mut rng)),
                        1 => Edit::Move { pick: rng.next_u64(), to: inside(&mut rng) },
                        _ => Edit::Remove { pick: rng.next_u64() },
                    };
                    Cycle { fork, edit, top_k }
                })
                .collect()
        })
        .collect();
    // The forks take turns.
    let mut cycles = Vec::with_capacity(turns * FORKS);
    for _ in 0..turns {
        for fork in per_fork.iter_mut() {
            cycles.push(fork.remove(0));
        }
    }
    Inputs { clients, facilities, views, cycles }
}

/// Fisher–Yates shuffle driven by the workload's generator.
fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// The facility a move or remove targets: the `pick`-th (mod count) live
/// facility inside `view`, or `None` when the view holds none.
fn target(session: &Session<CountMeasure>, view: Rect, pick: u64) -> Option<u32> {
    let inside: Vec<u32> = session
        .facilities()
        .into_iter()
        .filter(|(_, p)| view.contains_closed(*p))
        .map(|(id, _)| id)
        .collect();
    (!inside.is_empty()).then(|| inside[(pick % inside.len() as u64) as usize])
}

/// The edit a cycle makes, resolved against the session's current
/// facilities (a move or remove with no facility in view adds instead).
#[derive(Clone, Copy, Debug)]
enum Resolved {
    Add(Point),
    Move(u32, Point),
    Remove(u32),
}

fn resolve(session: &Session<CountMeasure>, view: Rect, edit: Edit) -> Resolved {
    match edit {
        Edit::Add(p) => Resolved::Add(p),
        Edit::Move { pick, to } => match target(session, view, pick) {
            Some(id) => Resolved::Move(id, to),
            None => Resolved::Add(to),
        },
        Edit::Remove { pick } => match target(session, view, pick) {
            Some(id) if session.n_facilities() > 1 => Resolved::Remove(id),
            _ => Resolved::Add(view.center()),
        },
    }
}

fn apply(session: &mut Session<CountMeasure>, edit: Resolved) -> Option<DirtyRegion> {
    match edit {
        Resolved::Add(p) => session.add_facility(p).map(|(_, d)| d),
        Resolved::Move(id, to) => session.move_facility(id, to),
        Resolved::Remove(id) => session.remove_facility(id),
    }
    .ok()
}

/// The same edit made on a bare snapshot (the `snapshot` layer alone).
fn apply_to_snapshot(snap: &ArrangementSnapshot, edit: Resolved) {
    let _ = match edit {
        Resolved::Add(p) => snap.insert_facility(p).map(|_| ()),
        Resolved::Move(id, to) => snap.move_facility(id, to).map(|_| ()),
        Resolved::Remove(id) => snap.remove_facility(id).map(|_| ()),
    };
}

fn build(inputs: &Inputs) -> ExplorationEngine<CountMeasure> {
    HeatMapBuilder::bichromatic(inputs.clients.clone(), inputs.facilities.clone())
        .metric(Metric::Linf)
        .build_engine(CountMeasure)
        .expect("uniform input builds")
}

/// Spans and per-layer counts of a traced pass (all no-ops when the
/// tracer is disabled).
struct Probe<'a> {
    tracer: &'a Tracer,
    /// Tiles believed cached, as `(fingerprint, tile)`: renders of the
    /// engine are estimated as the viewport tiles missing here.
    known: HashSet<(u64, TileId)>,
    seen: HashSet<TileId>,
    tiles: u64,
    rerenders: u64,
    circles: u64,
    bytes: u64,
    exact_bytes: u64,
    tile_ms: Vec<f64>,
    crest_labels: u64,
    labels_in: u64,
    distinct: u64,
}

impl Probe<'_> {
    fn new(tracer: &Tracer) -> Probe<'_> {
        Probe {
            tracer,
            known: HashSet::new(),
            seen: HashSet::new(),
            tiles: 0,
            rerenders: 0,
            circles: 0,
            bytes: 0,
            exact_bytes: 0,
            tile_ms: Vec::new(),
            crest_labels: 0,
            labels_in: 0,
            distinct: 0,
        }
    }

    fn on(&self) -> bool {
        self.tracer.enabled()
    }

    /// A viewport render inside span `parent`: renders the tiles the
    /// engine is estimated to have rendered again through the public
    /// pieces (outside the timeline) and lays their restrict, scanline
    /// and encode times out as children of `parent`, divided by the
    /// render threads the engine used.
    fn viewport(
        &mut self,
        parent: SpanId,
        req: u64,
        snap: &ArrangementSnapshot,
        scheme: &TileScheme,
        view: Rect,
    ) {
        if !self.on() {
            return;
        }
        let fp = snap.fingerprint();
        let ids: Vec<TileId> = scheme
            .viewport(view, SCREEN_PX, SCREEN_PX)
            .tiles()
            .iter()
            .copied()
            .filter(|&id| !self.known.contains(&(fp, id)))
            .collect();
        if ids.is_empty() {
            return;
        }
        let measure = CountMeasure;
        let (mut restrict, mut scan, mut encode) = (0u64, 0u64, 0u64);
        self.tracer.span("probe.render", ROOT, req, |_| {
            let union = ids.iter().map(|&id| scheme.tile_extent(id)).reduce(|a, b| a.union(&b));
            let t = now();
            let base = snap.restrict_to(union.expect("non-empty tile list"));
            restrict += t.elapsed().as_nanos() as u64;
            let RestrictedArrangement::Square(arr) = &base else {
                unreachable!("what_if is an L∞ workload");
            };
            for &id in &ids {
                let spec = scheme.tile_spec(id);
                let t = now();
                let sub = arr.restrict_to(spec.extent);
                let t1 = now();
                let raster = rasterize_squares_scanline_bands(&sub, &measure, spec, 1);
                let t2 = now();
                let payload = TilePayload::encode(raster, measure.integral_influence());
                let t3 = now();
                restrict += (t1 - t).as_nanos() as u64;
                scan += (t2 - t1).as_nanos() as u64;
                encode += (t3 - t2).as_nanos() as u64;
                self.tile_ms.push(ms(t2 - t1));
                self.circles += sub.squares.len() as u64;
                self.bytes += payload.bytes() as u64;
                if !payload.quantized() {
                    self.exact_bytes += payload.bytes() as u64;
                }
                self.tiles += 1;
                if !self.seen.insert(id) {
                    self.rerenders += 1;
                }
                self.known.insert((fp, id));
            }
        });
        let workers = effective_parallelism().min(ids.len()).max(1) as u64;
        let mut offset = 0;
        for (name, ns) in
            [("snapshot.restrict", restrict), ("scanline.render", scan), ("quant.encode", encode)]
        {
            self.tracer.synthetic(name, parent, offset, ns / workers);
            offset += ns / workers;
        }
    }

    /// Carries the believed-cached tiles of `old` over to `new` outside
    /// the edit's dirty region, as the engine's alias or move does.
    fn edit(&mut self, old: u64, new: u64, dirty: &DirtyRegion, scheme: &TileScheme) {
        if !self.on() || old == new {
            return;
        }
        let carried: Vec<(u64, TileId)> = self
            .known
            .iter()
            .filter(|(fp, id)| *fp == old && !dirty.intersects(&scheme.tile_extent(*id)))
            .map(|&(_, id)| (new, id))
            .collect();
        self.known.extend(carried);
    }

    /// `postprocess::top_k` alone over the list the session ranked,
    /// laid out as a child of `parent` after `offset` ns.
    fn top_k(&mut self, parent: SpanId, req: u64, session: &Session<CountMeasure>, offset: u64) {
        if !self.on() {
            return;
        }
        let mut ns = 0;
        self.tracer.span("probe.topk", ROOT, req, |_| {
            session.with_regions(|list: &[LabeledRegion]| {
                let t = now();
                std::hint::black_box(top_k(list, TOP_K));
                ns = t.elapsed().as_nanos() as u64;
                self.labels_in += list.len() as u64;
                let mut sigs: HashSet<Vec<u32>> = HashSet::new();
                for r in list {
                    let mut s = r.rnn.clone();
                    s.sort_unstable();
                    sigs.insert(s);
                }
                self.distinct += sigs.len() as u64;
            });
        });
        self.tracer.synthetic("postprocess.topk", parent, offset, ns);
    }

    /// A full CREST sweep of `snap` alone; returns its duration (ns).
    fn crest(&mut self, req: u64, snap: &ArrangementSnapshot) -> u64 {
        if !self.on() {
            return 0;
        }
        self.tracer.span("probe.crest", ROOT, req, |_| {
            let mut sink = CollectSink::default();
            let t = now();
            crest_sweep(snap.square().expect("L∞ snapshot"), &CountMeasure, &mut sink);
            let ns = t.elapsed().as_nanos() as u64;
            self.crest_labels += sink.regions.len() as u64;
            ns
        })
    }
}

/// The engine and its four forks.
struct Forks {
    engine: ExplorationEngine<CountMeasure>,
    sessions: Vec<Session<CountMeasure>>,
}

/// Build, fork, and give each fork its first viewport and first top-k.
fn setup(inputs: &Inputs, probe: &mut Probe) -> Forks {
    let tracer = probe.tracer;
    let engine = tracer.span("snapshot.build", ROOT, 0, |_| build(inputs));
    let sessions: Vec<Session<CountMeasure>> = (0..FORKS).map(|_| engine.session()).collect();
    for (i, s) in sessions.iter().enumerate() {
        let req = i as u64 + 1;
        let span = tracer.begin("tiles.viewport", ROOT, req);
        std::hint::black_box(s.viewport(inputs.views[i], SCREEN_PX, SCREEN_PX));
        tracer.end(span);
        probe.viewport(span, req, s.snapshot(), s.tile_scheme(), inputs.views[i]);
        let crest_ns = probe.crest(req, s.snapshot());
        let span = tracer.begin("engine.topk", ROOT, req);
        std::hint::black_box(s.top_k(TOP_K));
        tracer.end(span);
        tracer.synthetic("crest.sweep", span, 0, crest_ns);
        probe.top_k(span, req, s, crest_ns);
    }
    Forks { engine, sessions }
}

/// The measured phase's results.
struct Phase {
    light_ms: Vec<f64>,
    heavy_ms: Vec<f64>,
    failed: u64,
    wall: std::time::Duration,
    last_frame: Vec<Option<(rnn_heatmap::heatmap::raster::GridSpec, u64)>>,
}

fn phase(inputs: &Inputs, forks: &mut Forks, probe: &mut Probe) -> Phase {
    let tracer = probe.tracer;
    let mut out = Phase {
        // Sized up front, so the benchmark's own buffers never grow into
        // heap holes mid-phase (which would move the peak resident set).
        light_ms: Vec::with_capacity(inputs.cycles.len()),
        heavy_ms: Vec::with_capacity(inputs.cycles.len()),
        failed: 0,
        wall: std::time::Duration::ZERO,
        last_frame: vec![None; FORKS],
    };
    let scheme = forks.engine.tile_scheme().clone();
    for (i, cycle) in inputs.cycles.iter().enumerate() {
        let req = 100 + i as u64;
        let view = inputs.views[cycle.fork];
        let session = &mut forks.sessions[cycle.fork];
        let edit = resolve(session, view, cycle.edit);
        // The same edit on the bare snapshot, timed alone before the
        // session makes it (holding no extra reference, so the session's
        // alias-or-move choice is unchanged).
        let edit_ns = if tracer.enabled() {
            tracer.span("probe.edit", ROOT, req, |_| {
                let t = now();
                apply_to_snapshot(session.snapshot(), edit);
                t.elapsed().as_nanos() as u64
            })
        } else {
            0
        };
        let old_fp = session.fingerprint();
        let t = now();
        let op = tracer.begin("op.cycle", ROOT, req);
        let e = tracer.begin("engine.edit", op, req);
        let dirty = apply(session, edit);
        tracer.end(e);
        let v = tracer.begin("tiles.viewport", op, req);
        let frame = session.viewport(view, SCREEN_PX, SCREEN_PX);
        tracer.end(v);
        tracer.end(op);
        let dt = t.elapsed();
        out.wall += dt;
        out.light_ms.push(ms(dt));
        let Some(dirty) = dirty else {
            out.failed += 1;
            continue;
        };
        if tracer.enabled() {
            tracer.synthetic("snapshot.edit", e, 0, edit_ns);
            probe.edit(old_fp, session.fingerprint(), &dirty, &scheme);
            probe.viewport(v, req, session.snapshot(), &scheme, view);
        }
        out.last_frame[cycle.fork] = Some((frame.spec, hash_values(frame.values())));
        drop(frame);
        if cycle.top_k {
            let t = now();
            let span = tracer.begin("engine.topk", ROOT, req);
            std::hint::black_box(session.top_k(TOP_K));
            tracer.end(span);
            let dt = t.elapsed();
            out.wall += dt;
            out.heavy_ms.push(ms(dt));
            probe.top_k(span, req, session, 0);
        }
    }
    out
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let inputs = inputs(args);
    let mut report = Report::default();
    let off = Tracer::new(false);
    let t = now();
    let mut forks = setup(&inputs, &mut Probe::new(&off));
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    let phase_out = phase(&inputs, &mut forks, &mut Probe::new(&off));
    let mut e2e = EndToEnd {
        setup_s: setup_s[0],
        setup_reps: if args.trace { 1 } else { SETUP_REPS },
        peak_rss_mb: util::peak_rss_mb(),
        ops: phase_out.light_ms.len(),
        wall_s: phase_out.wall.as_secs_f64(),
        light_ms: phase_out.light_ms.clone(),
        heavy_ms: phase_out.heavy_ms.clone(),
    };
    report.attempted = (phase_out.light_ms.len() + phase_out.heavy_ms.len()) as u64;
    report.failed = phase_out.failed;
    report.correct = check(&inputs, &forks, &phase_out, &mut report) && phase_out.failed == 0;
    let untraced_ms = setup_s[0] * 1e3 + ms(phase_out.wall);
    drop(forks);
    if !args.trace {
        // The other set-ups run after the measured phase, so the peak
        // memory it reports saw exactly one.
        for _ in 1..SETUP_REPS {
            util::release_freed_memory();
            let t = now();
            drop(setup(&inputs, &mut Probe::new(&off)));
            setup_s.push(t.elapsed().as_secs_f64());
        }
        e2e.setup_s = util::median(&setup_s);
        e2e.report(&mut report);
        return report;
    }
    util::release_freed_memory();
    let tracer = Tracer::new(true);
    let mut probe = Probe::new(&tracer);
    let from = tracer.now_ns();
    let mut forks = setup(&inputs, &mut probe);
    let cache_before = forks.engine.cache_stats();
    let traced = phase(&inputs, &mut forks, &mut probe);
    let to = tracer.now_ns();
    let stats = forks.engine.cache_stats();
    let a = tracer.attribute(from, to);
    let mut layers = Layers::default();
    let sums = layers.attribution(&a, untraced_ms, &mut report);
    report.correct &= sums && traced.failed == 0;
    let self_ms = |name: &str| a.names.get(name).map_or(0.0, |&ns| ns as f64 / 1e6);
    let per = |v: u64, n: u64| if n == 0 { 0.0 } else { v as f64 / n as f64 };
    layers.set("snapshot.build_ms", tracer.durations_ms("snapshot.build")[0]);
    layers.set("snapshot.restrict_ms", self_ms("snapshot.restrict"));
    layers.set("snapshot.circles_per_tile", per(probe.circles, probe.tiles));
    layers.set("snapshot.edit_ms", self_ms("snapshot.edit"));
    layers.set("scanline.tiles", probe.tiles as f64);
    layers.set("scanline.ms_per_tile", util::median(&probe.tile_ms));
    layers.set("quant.encode_ms", self_ms("quant.encode"));
    layers.set("quant.bytes_per_tile", per(probe.bytes, probe.tiles));
    layers.set("quant.exact_share", per(probe.exact_bytes, probe.bytes));
    let hits = stats.hits - cache_before.hits;
    let misses = stats.misses - cache_before.misses;
    layers.set("tiles.hit_ratio", per(hits, hits + misses));
    layers.set("tiles.rerender_ratio", per(probe.rerenders, probe.tiles));
    layers.set("tiles.evictions", stats.evictions as f64);
    layers.set("tiles.invalidations", stats.invalidations as f64);
    let served = (inputs.cycles.len() + FORKS) as u64 * (SCREEN_PX * SCREEN_PX) as u64;
    let px = (forks.engine.tile_scheme().tile_px() as u64).pow(2);
    layers.set("tiles.overdraw", per(probe.tiles * px, served));
    layers.set("tiles.fetch_self_ms", self_ms("tiles.viewport"));
    layers.set("tiles.single_flight_waits", stats.single_flight_waits as f64);
    layers.set("crest.sweep_ms", self_ms("crest.sweep"));
    layers.set("crest.labels", probe.crest_labels as f64);
    layers.set("postprocess.topk_ms", self_ms("postprocess.topk"));
    layers.set("postprocess.labels_in", probe.labels_in as f64);
    layers.set("postprocess.distinct_share", per(probe.distinct, probe.labels_in));
    layers.set("engine.edit_self_ms", self_ms("engine.edit"));
    layers.set("engine.topk_self_ms", self_ms("engine.topk"));
    report.details.push(format!(
        "{{\"counts\":{{\"tiles_rendered_estimate\":{},\"cache_misses\":{misses},\"cache_hits\":{hits},\
         \"evictions\":{},\"invalidations\":{},\"crest_labels\":{},\"labels_in\":{}}}}}",
        probe.tiles, stats.evictions, stats.invalidations, probe.crest_labels, probe.labels_in
    ));
    if let Err(e) = tracer.write_jsonl(&crate::trace_path("what_if")) {
        report.details.push(format!("{{\"trace_file_error\":\"{e}\"}}"));
    }
    layers.report(&mut report);
    report
}

/// Output check: each fork's final frame equals a one-shot render by an
/// engine built from scratch over that fork's final facility set, and
/// the top-k influences agree.
fn check(inputs: &Inputs, forks: &Forks, phase: &Phase, report: &mut Report) -> bool {
    let mut ok = true;
    for (i, session) in forks.sessions.iter().enumerate() {
        let facilities: Vec<Point> = session.facilities().into_iter().map(|(_, p)| p).collect();
        let fresh = HeatMapBuilder::bichromatic(inputs.clients.clone(), facilities)
            .metric(Metric::Linf)
            .build_engine(CountMeasure)
            .expect("edited facility set builds")
            .into_session();
        let frame_ok = match phase.last_frame[i] {
            Some((spec, h)) => hash_values(fresh.raster(spec).values()) == h,
            None => true,
        };
        let influences = |s: &Session<CountMeasure>| -> Vec<u64> {
            s.top_k(TOP_K).iter().map(|r| r.influence.to_bits()).collect()
        };
        let topk_ok = influences(session) == influences(&fresh);
        report.details.push(format!(
            "{{\"check\":\"fork_matches_rebuild\",\"fork\":{i},\"frame\":{frame_ok},\"top_k\":{topk_ok}}}"
        ));
        ok &= frame_ok && topk_ok;
    }
    ok
}
