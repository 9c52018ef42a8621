//! End-to-end and per-layer benchmark of the RNN heat-map exploration
//! stack. See `perfbench/README.md` for the workloads, metrics and the
//! rules that keep the numbers steady.

pub mod client;
pub mod http_mixed;
pub mod pan_zoom;
pub mod trace;
pub mod util;
pub mod what_if;

use rnn_heatmap::core::measure::IncrementalMeasure;
use rnn_heatmap::core::snapshot::{ArrangementSnapshot, RestrictedArrangement};
use rnn_heatmap::geom::{Point, Rect};
use rnn_heatmap::heatmap::quant::TilePayload;
use rnn_heatmap::heatmap::raster::GridSpec;
use rnn_heatmap::heatmap::scanline::rasterize_squares_scanline_bands;

/// Command-line arguments of one run.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Nominal length of the measured phase; scripts are sized from it.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().map_err(|_| "--seed is not an integer")?),
                "--seconds" => {
                    seconds = Some(value.parse().map_err(|_| "--seconds is not an integer")?)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".to_string()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds: u64 = seconds.ok_or("--seconds is required")?;
        if seconds == 0 {
            return Err("--seconds must be positive".to_string());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

/// The result of one run: the output checks, operation counts and the
/// metrics of the requested kind.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// `(name, value, unit)` in output order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable context lines (sample counts, percentiles, check
    /// results), printed before the result line.
    pub details: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

/// The six end-to-end metrics every workload reports from its untraced
/// run, with the sample counts behind them.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Median set-up wall time (s) over the run's set-up repetitions.
    pub setup_s: f64,
    /// Set-up repetitions behind `setup_s`.
    pub setup_reps: usize,
    /// Peak resident set (MiB) at the end of the measured phase.
    pub peak_rss_mb: f64,
    /// Light-class operations completed.
    pub ops: usize,
    /// Wall time (s) the light operations took.
    pub wall_s: f64,
    /// Light-class latencies (ms).
    pub light_ms: Vec<f64>,
    /// Heavy-class latencies (ms).
    pub heavy_ms: Vec<f64>,
}

impl EndToEnd {
    /// Appends the six metrics and their sample counts to `report`.
    pub fn report(&self, report: &mut Report) {
        let (tail_pct, tail_ms) = util::tail(&self.light_ms);
        report.metric("setup_s", self.setup_s, "s");
        report.metric("peak_rss_mb", self.peak_rss_mb, "MiB");
        report.metric("ops_per_s", self.ops as f64 / self.wall_s.max(1e-9), "1/s");
        report.metric("op_p50_ms", util::median(&self.light_ms), "ms");
        report.metric("op_tail_ms", tail_ms, "ms");
        report.metric("heavy_p50_ms", util::median(&self.heavy_ms), "ms");
        report.details.push(format!(
            "{{\"samples\":{{\"setup_s\":{},\"ops_per_s\":{},\"op_p50_ms\":{},\"op_tail_ms\":{},\
             \"op_tail_percentile\":{},\"heavy_p50_ms\":{}}},\"wall_s\":{:.4}}}",
            self.setup_reps,
            self.ops,
            self.light_ms.len(),
            self.light_ms.len(),
            tail_pct,
            self.heavy_ms.len(),
            self.wall_s
        ));
    }
}

/// The per-layer metric names every traced run reports, in output
/// order (layers a workload does not load report 0).
pub const PER_LAYER: [(&str, &str); 37] = [
    ("snapshot.build_ms", "ms"),
    ("snapshot.restrict_ms", "ms"),
    ("snapshot.circles_per_tile", "count"),
    ("snapshot.edit_ms", "ms"),
    ("scanline.tiles", "count"),
    ("scanline.ms_per_tile", "ms"),
    ("quant.encode_ms", "ms"),
    ("quant.bytes_per_tile", "bytes"),
    ("quant.exact_share", "ratio"),
    ("tiles.hit_ratio", "ratio"),
    ("tiles.rerender_ratio", "ratio"),
    ("tiles.evictions", "count"),
    ("tiles.invalidations", "count"),
    ("tiles.overdraw", "ratio"),
    ("tiles.fetch_self_ms", "ms"),
    ("tiles.stitch_ms", "ms"),
    ("tiles.single_flight_waits", "count"),
    ("crest.sweep_ms", "ms"),
    ("crest.labels", "count"),
    ("postprocess.topk_ms", "ms"),
    ("postprocess.labels_in", "count"),
    ("postprocess.distinct_share", "ratio"),
    ("placement.query_ms", "ms"),
    ("placement.evaluated_share", "ratio"),
    ("placement.repeat_share", "ratio"),
    ("engine.edit_self_ms", "ms"),
    ("engine.topk_self_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.bytes_per_response", "bytes"),
    ("serve.shed", "count"),
    ("serve.degraded", "count"),
    ("serve.deadline_rejected", "count"),
    ("serve.queue_high_water", "count"),
    ("trace.end_to_end_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.untraced_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// Per-layer values collected by a traced run; names missing from the
/// map report 0 (the workload does not load that layer).
#[derive(Debug, Default)]
pub struct Layers {
    values: std::collections::BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Sets metric `name` (must be one of [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown per-layer metric {name}");
        self.values.insert(name, value);
    }

    /// The value of `name`, 0 when unset.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Records the attribution of a traced phase: every layer's self
    /// time, the unattributed remainder and the tracing overhead against
    /// the untraced pass over the same script. Returns whether the
    /// layer self times plus the remainder sum to the traced end-to-end
    /// time.
    pub fn attribution(
        &mut self,
        a: &trace::Attribution,
        untraced_ms: f64,
        report: &mut Report,
    ) -> bool {
        let ms = |ns: u64| ns as f64 / 1e6;
        let layers_ns: u64 = a.layers.values().sum();
        let sums = layers_ns + a.unattributed_ns == a.end_to_end_ns;
        self.set("trace.end_to_end_ms", ms(a.end_to_end_ns));
        self.set("trace.unattributed_ms", ms(a.unattributed_ns));
        self.set("trace.untraced_ms", untraced_ms);
        self.set("trace.overhead_ms", ms(a.end_to_end_ns) - untraced_ms);
        let layers: Vec<String> =
            a.layers.iter().map(|(l, ns)| format!("\"{l}\":{:.3}", ms(*ns))).collect();
        let names: Vec<String> =
            a.names.iter().map(|(l, ns)| format!("\"{l}\":{:.3}", ms(*ns))).collect();
        report.details.push(format!(
            "{{\"self_ms\":{{{}}},\"span_self_ms\":{{{}}},\"unattributed_ms\":{:.3},\
             \"end_to_end_ms\":{:.3},\"sums_exactly\":{sums}}}",
            layers.join(","),
            names.join(","),
            ms(a.unattributed_ns),
            ms(a.end_to_end_ns)
        ));
        sums
    }

    /// Appends every per-layer metric to `report`.
    pub fn report(&self, report: &mut Report) {
        for (name, unit) in PER_LAYER {
            report.metric(name, self.get(name), unit);
        }
    }
}

/// One tile rendered the way the engine renders a cache miss (restrict
/// to the tile, rasterize single-band, encode), without any cache.
pub fn render_tile<M: IncrementalMeasure + Sync>(
    snap: &ArrangementSnapshot,
    measure: &M,
    spec: GridSpec,
) -> TilePayload {
    let RestrictedArrangement::Square(arr) = snap.restrict_to(spec.extent) else {
        unreachable!("every workload is L∞");
    };
    let sub = arr.restrict_to(spec.extent);
    let raster = rasterize_squares_scanline_bands(&sub, measure, spec, 1);
    TilePayload::encode(raster, measure.integral_influence())
}

/// Samples `|O| = n` clients and `|F| = n / 16` facilities from a data
/// set, disjointly, from `seed` (the paper's ratio-16 setting).
pub fn sample(points: &[Point], n: usize, seed: u64) -> (Vec<Point>, Vec<Point>) {
    rnn_heatmap::data::sample_clients_facilities(points, n, (n / 16).max(1), seed ^ 0x5eed)
}

/// Bounding box of a point set.
pub fn extent(points: &[Point]) -> Rect {
    Rect::bounding(points).expect("non-empty point set")
}

/// Where a traced run writes its spans (one JSON object per line).
pub fn trace_path(workload: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}.spans.jsonl"))
}

/// Runs one workload.
pub fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "pan_zoom" => Ok(pan_zoom::run(args)),
        "what_if" => Ok(what_if::run(args)),
        "http_mixed" => http_mixed::run(args),
        other => Err(format!("unknown workload {other} (pan_zoom, what_if, http_mixed)")),
    }
}
