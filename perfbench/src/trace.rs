//! In-memory spans recorded around the benchmark's own calls into each
//! layer, and their attribution to per-layer self time.
//!
//! A span has a name (`<layer>.<what>`), start, end, parent and request
//! id. Spans stay in memory until the run ends. Attribution sweeps the
//! traced phase's timeline: every instant goes, in equal shares, to the
//! innermost spans open at that instant, and to `unattributed` when no
//! layer span is open. Layer self times plus `unattributed` therefore
//! sum to the traced end-to-end time exactly (in nanoseconds), also when
//! tile renders run on several threads at once.
//!
//! Spans named `probe.*` mark the benchmark's own reference calls (for
//! example the same snapshot edit a session just made, timed alone).
//! Their intervals are cut out of the timeline: they are not part of
//! the traced end-to-end time, and the duration they measure is placed
//! as a synthetic child of the span it explains.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// "No parent": a root span.
pub const ROOT: SpanId = usize::MAX;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: SpanId,
    request: u64,
}

/// A span recorder; a disabled tracer records nothing and costs one
/// branch per call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Per-layer self time of one traced phase, in nanoseconds.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Wall time of the traced phase with probe intervals cut out.
    pub end_to_end_ns: u64,
    /// Time no layer span covered (the driver loop, request planning,
    /// waiting for an open-loop due time).
    pub unattributed_ns: u64,
    /// Self time per layer (the span name's prefix before the dot).
    pub layers: BTreeMap<&'static str, u64>,
    /// Self time per span name.
    pub names: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: crate::util::now(), spans: Mutex::new(Vec::new()) }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn stamp(&self) -> u64 {
        crate::util::now().duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span; [`Tracer::end`] closes it.
    pub fn begin(&self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return ROOT;
        }
        let start = self.stamp();
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans.push(Span { name, start, end: start, parent, request });
        spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let end = self.stamp();
        self.spans.lock().expect("span recorder poisoned")[id].end = end;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f(id);
        self.end(id);
        out
    }

    /// Records a synthetic child of `parent`: `ns` nanoseconds of work
    /// the benchmark measured separately (a probe), placed `offset_ns`
    /// after the parent's start and clamped to the parent. Children
    /// laid end to end by their offsets never overlap.
    pub fn synthetic(&self, name: &'static str, parent: SpanId, offset_ns: u64, ns: u64) {
        if !self.enabled {
            return;
        }
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        let (start, end, request) = {
            let p = &spans[parent];
            (p.start, p.end, p.request)
        };
        let from = (start + offset_ns).min(end);
        let to = (from + ns).min(end);
        spans.push(Span { name, start: from, end: to, parent, request });
    }

    /// Self time per layer over `[from, to)` (nanoseconds since the
    /// tracer's origin). See the module docs.
    pub fn attribute(&self, from: u64, to: u64) -> Attribution {
        let spans = self.spans.lock().expect("span recorder poisoned");
        // Boundary events: +1 opens a span, -1 closes it.
        let mut events: Vec<(u64, i8, usize)> = Vec::with_capacity(spans.len() * 2);
        for (i, s) in spans.iter().enumerate() {
            let (a, b) = (s.start.max(from), s.end.min(to));
            if a < b {
                events.push((a, 1, i));
                events.push((b, -1, i));
            }
        }
        events.sort_unstable();
        let mut open_children = vec![0u32; spans.len()];
        let mut open: Vec<bool> = vec![false; spans.len()];
        let mut leaves: Vec<usize> = Vec::new();
        let mut probes_open = 0u32;
        let mut out = Attribution::default();
        let mut carry: BTreeMap<usize, u64> = BTreeMap::new();
        let mut t = from;
        let mut flush = |until: u64, leaves: &[usize], probes_open: u32, out: &mut Attribution| {
            if until <= t {
                return;
            }
            let dt = until - t;
            t = until;
            if probes_open > 0 {
                return;
            }
            out.end_to_end_ns += dt;
            let layer_leaves: Vec<usize> =
                leaves.iter().copied().filter(|&i| layer_of(spans[i].name).is_some()).collect();
            if layer_leaves.is_empty() {
                out.unattributed_ns += dt;
                return;
            }
            // Equal shares; the remainder nanoseconds go to the first
            // leaves so the total stays exact.
            let n = layer_leaves.len() as u64;
            for (j, &i) in layer_leaves.iter().enumerate() {
                let share = dt / n + u64::from((j as u64) < dt % n);
                *carry.entry(i).or_insert(0) += share;
            }
        };
        for &(at, kind, i) in &events {
            flush(at, &leaves, probes_open, &mut out);
            let parent = spans[i].parent;
            let is_probe = spans[i].name.starts_with("probe.");
            if kind > 0 {
                open[i] = true;
                if is_probe {
                    probes_open += 1;
                }
                if parent != ROOT && open.get(parent).copied().unwrap_or(false) {
                    open_children[parent] += 1;
                    leaves.retain(|&l| l != parent);
                }
                leaves.push(i);
            } else {
                open[i] = false;
                if is_probe {
                    probes_open -= 1;
                }
                leaves.retain(|&l| l != i);
                if parent != ROOT && open.get(parent).copied().unwrap_or(false) {
                    open_children[parent] -= 1;
                    if open_children[parent] == 0 {
                        leaves.push(parent);
                    }
                }
            }
        }
        flush(to, &leaves, probes_open, &mut out);
        for (i, ns) in carry {
            let name = spans[i].name;
            let layer = layer_of(name).expect("only layer spans carry time");
            *out.layers.entry(layer).or_insert(0) += ns;
            *out.names.entry(name).or_insert(0) += ns;
        }
        out
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span recorder poisoned");
        spans.iter().filter(|s| s.name == name).map(|s| (s.end - s.start) as f64 / 1e6).collect()
    }

    /// Nanoseconds since the tracer's origin (phase boundaries for
    /// [`Tracer::attribute`]).
    pub fn now_ns(&self) -> u64 {
        self.stamp()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span recorder poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == ROOT { -1 } else { s.parent as i64 };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"request\":{}}}",
                s.name, s.start, s.end, s.request
            )?;
        }
        out.flush()
    }
}

/// The layer a span belongs to, or `None` for the benchmark's own
/// spans (`op.*` roots and `probe.*` reference calls).
fn layer_of(name: &'static str) -> Option<&'static str> {
    let layer = name.split('.').next().unwrap_or(name);
    (layer != "op" && layer != "probe").then_some(layer)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push(t: &Tracer, name: &'static str, start: u64, end: u64, parent: SpanId) -> SpanId {
        let mut spans = t.spans.lock().unwrap();
        spans.push(Span { name, start, end, parent, request: 0 });
        spans.len() - 1
    }

    #[test]
    fn self_times_and_unattributed_sum_to_the_phase() {
        let t = Tracer::new(true);
        let op = push(&t, "op.frame", 10, 100, ROOT);
        let fetch = push(&t, "tiles.fetch", 20, 80, op);
        // Two renders in parallel under one fetch.
        push(&t, "scanline.render", 30, 60, fetch);
        push(&t, "scanline.render", 40, 70, fetch);
        // A probe cut out of the timeline.
        push(&t, "probe.edit", 100, 150, ROOT);
        let a = t.attribute(0, 200);
        assert_eq!(a.end_to_end_ns, 150);
        assert_eq!(a.layers["scanline"], 40);
        assert_eq!(a.layers["tiles"], 20);
        assert_eq!(a.unattributed_ns, 90);
        let layers: u64 = a.layers.values().sum();
        assert_eq!(layers + a.unattributed_ns, a.end_to_end_ns);
    }

    #[test]
    fn synthetic_children_take_their_share_of_the_parent() {
        let t = Tracer::new(true);
        let e = push(&t, "engine.edit", 0, 100, ROOT);
        t.synthetic("snapshot.edit", e, 0, 30);
        let a = t.attribute(0, 100);
        assert_eq!(a.layers["snapshot"], 30);
        assert_eq!(a.layers["engine"], 70);
    }
}
