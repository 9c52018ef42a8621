//! MaxBRkNN facility placement over an arrangement snapshot.
//!
//! The paper frames RNN heat maps as influence *exploration*; this
//! module turns the same arrangement into influence *optimization* in
//! the spirit of the MaxBRkNN problem family ("where should a new
//! facility go to capture the most clients?"). The key observation is
//! that nothing new has to be computed: the influence of a hypothetical
//! facility at `q` equals the influence label of the arrangement region
//! containing `q`, because a client adopts the newcomer exactly when
//! `q` falls inside its k-th NN circle. The argmax *cell* of the
//! arrangement therefore *is* the MaxBRkNN answer, and top-m placement
//! is top-m region labeling with representative interior points.
//!
//! ## Pipeline
//!
//! 1. **Candidate generation** — one CREST sweep (count probe)
//!    enumerates every region with a representative rectangle whose
//!    interior lies inside the region.
//! 2. **Ranking** — the sweep streams into a [`TopKSink`] of size `m`
//!    ([`TopKSink::label_set`]), the same table and tie-break contract
//!    as [`crate::postprocess::top_k`]: regions deduplicate by sorted
//!    RNN set in first-occurrence order and rank by the measure's
//!    influence of that sorted set. A label is skipped unsorted when
//!    [`InfluenceMeasure::raw_upper_bound`] puts it below the current
//!    m-th best (O(1) for a count), and skipped unhashed when its
//!    score does; only signatures that could still enter are stored.
//!    `best_placement`, greedy steps and relocation are the `m = 1`
//!    case.
//! 3. **Incremental evaluation** — what-if placements
//!    ([`PlacementQuery::evaluate_insert`], greedy commits) reuse the
//!    snapshot edit engine: a tentative insert is an incremental
//!    maintenance step whose successor snapshot can simply be dropped,
//!    leaving the base snapshot bit-identical — no rebuild per
//!    candidate.
//!
//! Answers are exact, never sampled: the sweep enumerates *all*
//! regions, the skips are sound, and a synthetic exterior
//! candidate keeps the answer total over the whole plane even when
//! every labeled region would be worse than placing nowhere near the
//! clients (possible for measures where an empty RNN set is not the
//! minimum).
//!
//! ## Containment convention
//!
//! Point candidates use *closed* containment (a facility exactly on an
//! NN-circle boundary ties with the client's current facility and wins
//! it, per the `≤` of the paper's §III-A RNN definition). Region
//! representatives are strictly interior, so for them closed and open
//! containment coincide.

use rnnhm_geom::{Point, Rect};

use crate::arrangement::CoordSpace;
use crate::crest::crest_sweep;
use crate::crest_l2::crest_l2_sweep;
use crate::edit::{ArrangementRef, EditError, EditOutcome};
use crate::measure::{CountMeasure, InfluenceMeasure};
use crate::sink::{RegionSink, TopKSink};
use crate::snapshot::ArrangementSnapshot;
use crate::window::crest_window;

/// One candidate placement region: a maximal-influence cell of the
/// arrangement with a representative interior point.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementRegion {
    /// Representative rectangle in *sweep* coordinates (rotated frame
    /// for L1). Its interior lies inside the region for square
    /// arrangements; for L2 only its center is guaranteed interior.
    pub rect: Rect,
    /// Input-space bounding box of `rect` (for overlay rendering).
    pub bbox: Rect,
    /// An input-space point interior to the region — place the new
    /// facility here to realize `influence`.
    pub point: Point,
    /// The RNN set captured by a facility placed in this region
    /// (sorted client ids).
    pub rnn: Vec<u32>,
    /// The influence of that RNN set under the query's measure.
    pub influence: f64,
}

/// What the ranking sink of a [`PlacementQuery::top_placements_stats`]
/// call did with the labels it was offered: the sweep's labels that
/// pass the window filter, plus the exterior candidate when it is
/// offered. Every label is either skipped on its raw bound or scored,
/// so `evaluated + pruned` is the number of labels, and only scored
/// labels are hashed, so `distinct_regions <= evaluated`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Distinct RNN-set signatures hashed into the sink's table: those
    /// that could still reach the top `m` when first seen.
    pub distinct_regions: usize,
    /// Labels whose sorted RNN set was scored with the measure.
    pub evaluated: usize,
    /// Labels skipped, unsorted, because
    /// [`InfluenceMeasure::raw_upper_bound`] put them below the `m`-th
    /// best (always 0 for measures that keep the default bound, `∞`).
    pub pruned: usize,
}

/// Constraints on where greedy placement may put facilities.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlacementConstraints {
    /// Restrict candidates to this input-space rectangle. Exact (via a
    /// windowed sweep) for L∞; for L1 and L2 the filter is applied at
    /// region granularity through the representative point, which is
    /// guaranteed inside the region but not necessarily the whole
    /// region inside the window.
    pub within: Option<Rect>,
    /// Stop accepting placements once the best remaining candidate
    /// falls below this influence.
    pub min_influence: Option<f64>,
}

impl PlacementConstraints {
    /// No constraints: the whole plane, any influence.
    pub fn none() -> PlacementConstraints {
        PlacementConstraints::default()
    }
}

/// A scored what-if insertion produced by
/// [`PlacementQuery::evaluate_insert`]. Dropping it (and `snapshot`
/// with it) is a perfect bitwise undo of the tentative insert.
pub struct PlacementEvaluation {
    /// Where the hypothetical facility was placed (input space).
    pub point: Point,
    /// The id the facility received in `snapshot`.
    pub facility: u32,
    /// The clients it captures (sorted ids), scored against the *base*
    /// snapshot — the MaxBRkNN objective value of this candidate.
    pub rnn: Vec<u32>,
    /// The influence of `rnn` under the query's measure.
    pub influence: f64,
    /// The successor snapshot with the facility inserted, built by the
    /// incremental edit engine. Keep it to commit, drop it to undo.
    pub snapshot: ArrangementSnapshot,
    /// What the incremental maintenance changed.
    pub outcome: EditOutcome,
}

/// The answer to [`PlacementQuery::best_relocation`].
#[derive(Debug, Clone, PartialEq)]
pub struct Relocation {
    /// The facility that was (tentatively) relocated.
    pub facility: u32,
    /// Its current location.
    pub from: Point,
    /// The influence it contributes at `from` (scored, like `best`,
    /// against the arrangement with the facility removed).
    pub current_influence: f64,
    /// The best region to move it to.
    pub best: PlacementRegion,
    /// `best.influence - current_influence`.
    pub gain: f64,
}

/// One accepted step of [`PlacementQuery::greedy_place`].
#[derive(Debug, Clone, PartialEq)]
pub struct GreedyStep {
    /// The id the new facility received in the step's snapshot.
    pub facility: u32,
    /// The region (and influence) it was placed in, scored against the
    /// arrangement as it stood *before* this step.
    pub chosen: PlacementRegion,
}

/// The result of a greedy multi-facility placement.
pub struct GreedyOutcome {
    /// Accepted placements, in order.
    pub steps: Vec<GreedyStep>,
    /// The snapshot after the final accepted step (`None` when no step
    /// was accepted). Dropping it undoes the whole loop.
    pub snapshot: Option<ArrangementSnapshot>,
}

/// A placement optimizer over one immutable arrangement snapshot.
///
/// The query object is a pair of borrows and costs nothing to create.
/// Candidate-point scoring ([`PlacementQuery::influence_of`],
/// [`PlacementQuery::evaluate_insert`]) stabs the snapshot's own
/// point-enclosure index, which the snapshot builds on its first probe
/// and keeps for its lifetime, so every query, session and fork on one
/// snapshot shares one index.
pub struct PlacementQuery<'a, M: InfluenceMeasure> {
    snap: &'a ArrangementSnapshot,
    measure: &'a M,
}

impl<'a, M: InfluenceMeasure> PlacementQuery<'a, M> {
    /// A placement query over `snap` scoring with `measure`.
    pub fn new(snap: &'a ArrangementSnapshot, measure: &'a M) -> PlacementQuery<'a, M> {
        PlacementQuery { snap, measure }
    }

    /// The snapshot this query optimizes over.
    pub fn snapshot(&self) -> &ArrangementSnapshot {
        self.snap
    }

    /// The `m` most influential placement regions for a hypothetical
    /// new facility, most influential first; influence ties resolved by
    /// first-occurrence signature order (the
    /// [`crate::postprocess::top_k`] contract).
    pub fn top_placements(&self, m: usize) -> Vec<PlacementRegion> {
        self.top_placements_stats(m).0
    }

    /// [`PlacementQuery::top_placements`] plus pruning statistics.
    pub fn top_placements_stats(&self, m: usize) -> (Vec<PlacementRegion>, PruneStats) {
        top_in(self.snap, self.measure, m, &PlacementConstraints::none())
    }

    /// Top-m placements under constraints. With a `within` window the
    /// exterior fallback candidate is not added: an empty result means
    /// no region intersects the window (or none clears
    /// `min_influence`).
    pub fn top_placements_in(
        &self,
        m: usize,
        constraints: &PlacementConstraints,
    ) -> Vec<PlacementRegion> {
        top_in(self.snap, self.measure, m, constraints).0
    }

    /// The single best placement region: the first of
    /// [`PlacementQuery::top_placements`]`(1)`, never `None` because the
    /// exterior candidate makes the unconstrained answer total.
    pub fn best_placement(&self) -> PlacementRegion {
        self.top_placements(1).into_iter().next().expect("unconstrained placement is total")
    }

    /// The RNN set (sorted) and influence of placing a new facility
    /// exactly at `p` (input space, closed containment).
    pub fn influence_of(&self, p: Point) -> (Vec<u32>, f64) {
        let rnn = self.rnn_of(p);
        let influence = self.measure.influence(&rnn);
        (rnn, influence)
    }

    fn rnn_of(&self, p: Point) -> Vec<u32> {
        let tree = self.snap.stab_index();
        let mut hits = Vec::new();
        let mut rnn: Vec<u32> = match self.snap.arrangement() {
            ArrangementRef::Square(a) => {
                tree.stab(a.space.to_sweep(p), &mut hits);
                hits.iter().map(|&c| a.owners[c as usize]).collect()
            }
            ArrangementRef::Disk(d) => {
                tree.stab(p, &mut hits);
                hits.iter()
                    .filter(|&&c| d.disks[c as usize].contains_closed(p))
                    .map(|&c| d.owners[c as usize])
                    .collect()
            }
        };
        rnn.sort_unstable();
        rnn
    }

    /// Scores a tentative insert at `p`: the candidate's RNN set and
    /// influence against the base arrangement, plus the successor
    /// snapshot the incremental edit engine would commit. Dropping the
    /// returned evaluation is a perfect bitwise undo.
    pub fn evaluate_insert(&self, p: Point) -> Result<PlacementEvaluation, EditError> {
        if !p.x.is_finite() || !p.y.is_finite() {
            return Err(EditError::NonFinitePoint);
        }
        let (rnn, influence) = self.influence_of(p);
        let (snapshot, facility, outcome) = self.snap.insert_facility(p)?;
        Ok(PlacementEvaluation { point: p, facility, rnn, influence, snapshot, outcome })
    }

    /// Where should facility `facility` move? Tentatively removes it
    /// (incremental maintenance), finds the best placement on the
    /// remaining arrangement, and scores its current location the same
    /// way for the gain (one stab index, built on the tentative
    /// snapshot). The tentative removal snapshot is dropped before
    /// returning — the base snapshot is untouched.
    pub fn best_relocation(&self, facility: u32) -> Result<Relocation, EditError> {
        let from = self.snap.facility(facility).ok_or(EditError::UnknownFacility)?;
        let (without, _outcome) = self.snap.remove_facility(facility)?;
        let sub = PlacementQuery::new(&without, self.measure);
        let best = sub.best_placement();
        let (_, current_influence) = sub.influence_of(from);
        let gain = best.influence - current_influence;
        Ok(Relocation { facility, from, current_influence, best, gain })
    }

    /// Greedily places up to `count` new facilities: each step takes
    /// the best remaining region (under `constraints`) and commits an
    /// incremental insert at its representative point, so the next
    /// step optimizes against the updated arrangement. Stops early
    /// when no candidate satisfies the constraints.
    pub fn greedy_place(
        &self,
        count: usize,
        constraints: &PlacementConstraints,
    ) -> Result<GreedyOutcome, EditError> {
        let mut steps: Vec<GreedyStep> = Vec::new();
        let mut current: Option<ArrangementSnapshot> = None;
        for _ in 0..count {
            let snap = current.as_ref().unwrap_or(self.snap);
            let Some(best) = top_in(snap, self.measure, 1, constraints).0.into_iter().next() else {
                break;
            };
            let (next, facility, _outcome) = snap.insert_facility(best.point)?;
            steps.push(GreedyStep { facility, chosen: best });
            current = Some(next);
        }
        Ok(GreedyOutcome { steps, snapshot: current })
    }
}

/// Maps a sweep-space representative rectangle to a placement region
/// in input coordinates.
fn to_region(
    arr: ArrangementRef<'_>,
    rect: Rect,
    rnn: Vec<u32>,
    influence: f64,
) -> PlacementRegion {
    let (bbox, point) = match arr {
        ArrangementRef::Square(a) => {
            (a.space.rect_to_original(rect), a.space.to_original(rect.center()))
        }
        ArrangementRef::Disk(_) => (rect, rect.center()),
    };
    PlacementRegion { rect, bbox, point, rnn, influence }
}

/// A unit rectangle strictly outside every NN circle — the "place
/// nowhere near the clients" candidate with an empty RNN set. Keeps
/// the unconstrained answer total over the plane.
fn exterior_rect(arr: ArrangementRef<'_>) -> Rect {
    let bb = match arr {
        ArrangementRef::Square(a) => a.bbox(),
        ArrangementRef::Disk(d) => d.bbox(),
    };
    match bb {
        Some(b) => {
            let margin = 1.0 + 0.5 * (b.width() + b.height());
            Rect::new(
                b.x_hi + margin,
                b.x_hi + margin + 1.0,
                b.y_hi + margin,
                b.y_hi + margin + 1.0,
            )
        }
        // No circles at all: every point of the plane captures nothing.
        None => Rect::new(0.0, 1.0, 0.0, 1.0),
    }
}

/// The top-m engine behind every placement query: one count-probe sweep
/// into a [`TopKSink`] that scores each label's sorted RNN set with the
/// measure.
fn top_in<M: InfluenceMeasure>(
    snap: &ArrangementSnapshot,
    measure: &M,
    m: usize,
    constraints: &PlacementConstraints,
) -> (Vec<PlacementRegion>, PruneStats) {
    let probe = CountMeasure;
    let arr = snap.arrangement();
    let top = TopKSink::with_bound(m, |raw: &[u32]| measure.raw_upper_bound(raw));
    let mut sink =
        PlacementSink { arr, window: None, measure, top, saw_empty: false, labels: 0, scored: 0 };
    match arr {
        ArrangementRef::Square(a) => match (constraints.within, a.space) {
            (Some(window), CoordSpace::Identity) => {
                crest_window(a, window, &probe, &mut sink);
            }
            (within, _) => {
                sink.window = within;
                crest_sweep(a, &probe, &mut sink);
            }
        },
        ArrangementRef::Disk(d) => {
            sink.window = constraints.within;
            crest_l2_sweep(d, &probe, &mut sink);
        }
    }
    // The exterior (empty-RNN) candidate, only for unconstrained
    // queries and only when the sweep did not already emit an empty
    // region. Offered last, it loses every influence tie.
    if constraints.within.is_none() && !sink.saw_empty {
        sink.offer(exterior_rect(arr), &[]);
    }
    let stats = PruneStats {
        distinct_regions: sink.top.tracked(),
        evaluated: sink.scored,
        pruned: sink.labels - sink.scored,
    };
    let mut out: Vec<PlacementRegion> = sink
        .top
        .into_top()
        .into_iter()
        .map(|r| to_region(arr, r.rect, r.rnn, r.influence))
        .collect();
    if let Some(min) = constraints.min_influence {
        out.retain(|r| r.influence >= min);
    }
    (out, stats)
}

/// The sweep's side of [`top_in`]: filters labels by window where the
/// sweep cannot, and offers the rest to the ranking sink.
struct PlacementSink<'a, M, B> {
    arr: ArrangementRef<'a>,
    /// Region-granular window filter for the frames where the exact
    /// windowed sweep is unavailable (rotated L1, disks): keep regions
    /// whose representative point (guaranteed interior) lands in the
    /// window. `None` when unconstrained or when `crest_window`
    /// already filtered exactly.
    window: Option<Rect>,
    measure: &'a M,
    top: TopKSink<B>,
    /// Whether the sweep emitted an empty RNN set.
    saw_empty: bool,
    /// Labels offered to `top`, and how many of those it scored.
    labels: usize,
    scored: usize,
}

impl<M: InfluenceMeasure, B: Fn(&[u32]) -> f64> PlacementSink<'_, M, B> {
    fn offer(&mut self, rect: Rect, rnn: &[u32]) {
        let Self { measure, top, labels, scored, .. } = self;
        *labels += 1;
        top.label_set(rect, rnn, |set| {
            *scored += 1;
            measure.influence(set)
        });
    }
}

impl<M: InfluenceMeasure, B: Fn(&[u32]) -> f64> RegionSink for PlacementSink<'_, M, B> {
    fn label(&mut self, rect: Rect, rnn: &[u32], _influence: f64) {
        if let Some(window) = self.window {
            let rep = to_region(self.arr, rect, Vec::new(), 0.0).point;
            if !window.contains_closed(rep) {
                return;
            }
        }
        self.saw_empty |= rnn.is_empty();
        self.offer(rect, rnn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::CapacityMeasure;
    use crate::sink::MaxSink;
    use rnnhm_geom::Metric;

    fn snap(metric: Metric, k: usize) -> ArrangementSnapshot {
        let clients = vec![
            Point::new(1.0, 1.0),
            Point::new(2.0, 1.5),
            Point::new(6.0, 6.0),
            Point::new(6.5, 5.5),
            Point::new(1.5, 6.0),
        ];
        let facilities = vec![
            Point::new(0.0, 0.0),
            Point::new(7.0, 7.0),
            Point::new(0.0, 7.0),
            Point::new(7.0, 0.0),
        ];
        ArrangementSnapshot::build_k(
            clients,
            facilities,
            metric,
            crate::arrangement::Mode::Bichromatic,
            k,
        )
        .expect("build")
    }

    #[test]
    fn best_placement_matches_max_sink() {
        for metric in Metric::ALL {
            for k in [1usize, 2] {
                let s = snap(metric, k);
                let q = PlacementQuery::new(&s, &CountMeasure);
                let best = q.best_placement();
                let mut max = MaxSink::default();
                match s.arrangement() {
                    ArrangementRef::Square(a) => {
                        crest_sweep(a, &CountMeasure, &mut max);
                    }
                    ArrangementRef::Disk(d) => {
                        crest_l2_sweep(d, &CountMeasure, &mut max);
                    }
                }
                let sink_best = max.best.expect("regions exist");
                assert_eq!(
                    best.influence, sink_best.influence,
                    "{metric:?} k={k}: argmax influence"
                );
                let (_, at_rep) = q.influence_of(best.point);
                assert_eq!(at_rep, best.influence, "{metric:?} k={k}: representative realizes it");
            }
        }
    }

    #[test]
    fn pruning_short_circuits_but_stays_exact() {
        let s = snap(Metric::Linf, 1);
        // Labels scoring below the current best are dropped unhashed.
        let cap = CapacityMeasure::new(vec![0, 0, 1, 1, 0], vec![5, 5, 5, 5], 2);
        let q = PlacementQuery::new(&s, &cap);
        let (top, stats) = q.top_placements_stats(1);
        let mut labels = crate::sink::CollectSink::default();
        let ArrangementRef::Square(a) = s.arrangement() else { panic!("an L∞ arrangement") };
        crest_sweep(a, &CountMeasure, &mut labels);
        let exterior = usize::from(labels.regions.iter().all(|r| !r.rnn.is_empty()));
        assert_eq!(stats.evaluated + stats.pruned, labels.regions.len() + exterior);
        assert!(stats.distinct_regions <= stats.evaluated);
        let full = top_in(&s, &cap, usize::MAX, &PlacementConstraints::none()).0;
        assert_eq!(top[0].influence, full[0].influence, "pruned answer == exhaustive answer");
        assert_eq!(top[0].rnn, full[0].rnn);
    }

    #[test]
    fn evaluate_insert_is_bitwise_undo() {
        let s = snap(Metric::L2, 2);
        let fp = s.fingerprint();
        let q = PlacementQuery::new(&s, &CountMeasure);
        for p in [Point::new(1.2, 1.3), Point::new(6.1, 5.9), Point::new(3.5, 3.5)] {
            let ev = q.evaluate_insert(p).expect("insert");
            assert_ne!(ev.snapshot.fingerprint(), fp, "tentative insert changed the successor");
            drop(ev);
        }
        assert_eq!(s.fingerprint(), fp, "base snapshot untouched");
    }

    #[test]
    fn greedy_steps_monotonically_cover() {
        let s = snap(Metric::Linf, 1);
        let q = PlacementQuery::new(&s, &CountMeasure);
        let out = q.greedy_place(2, &PlacementConstraints::none()).expect("greedy");
        assert_eq!(out.steps.len(), 2);
        let snap2 = out.snapshot.expect("committed");
        assert_eq!(snap2.n_facilities(), s.n_facilities() + 2);
    }

    #[test]
    fn min_influence_stops_greedy() {
        let s = snap(Metric::Linf, 1);
        let q = PlacementQuery::new(&s, &CountMeasure);
        let constraints = PlacementConstraints { within: None, min_influence: Some(f64::INFINITY) };
        let out = q.greedy_place(3, &constraints).expect("greedy");
        assert!(out.steps.is_empty(), "no region clears an infinite floor");
        assert!(out.snapshot.is_none());
    }
}
