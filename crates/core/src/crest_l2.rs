//! CREST with the L2 distance metric (paper §VII-C).
//!
//! NN-circles are Euclidean disks; their boundary arcs form a curved
//! subdivision. The sweep uses as events:
//!
//! * the x-extreme points of every circle (insert / remove its two
//!   semicircle arcs),
//! * every circle–circle intersection point (the incident arcs swap
//!   positions in the line status).
//!
//! The line elements are the lower and upper semicircle arcs of each cut
//! circle. Between consecutive events no two arcs cross, so their
//! vertical order is fixed throughout a strip; we keep the line status as
//! a position-ordered sequence and evaluate arc y-coordinates on demand at
//! the strip midline. (The paper additionally uses circle centers as
//! events to keep its `(y^s, y^l)` keys monotone; with on-demand
//! evaluation the order never goes stale, so center events are
//! unnecessary — a documented simplification that removes `O(n)` key
//! updates per event without changing which regions are labeled.)
//!
//! ## Self-healing order maintenance
//!
//! Intersection x-coordinates are computed algebraically and can land a
//! few ulps away from where the evaluated arcs actually cross — worse,
//! near-tangent crossings close to a circle's x-extreme can be assigned
//! to the wrong semicircle. Rather than trusting event bookkeeping to
//! keep the status ordered, every event batch *re-sorts* the line status
//! by arc y at the new strip midline (an insertion-sort pass over the
//! almost-sorted sequence, `O(len + inversions)`), and every span the
//! sort moves becomes a *dirty range*. Crossing events therefore carry no
//! payload — they only delimit strips; the repair pass discovers the
//! actual swaps. This matches the paper's `O(n)` per-event update cost
//! (§VII-C: "update values y^s and y^l for each line element … completed
//! in linear time") while being robust to floating-point drift.
//!
//! Changed intervals and cached base sets then work exactly as in the L∞
//! sweep, but over *positions*: an insertion dirties the span between the
//! two new arcs; a repaired inversion dirties the span it moved; a
//! removal dirties nothing (the two arcs of a circle are adjacent at its
//! right extreme — unlike squares, whose right side is an extended
//! segment). The cached sets live in the same `Records` table, so here
//! too a sweep allocates one record buffer per arc in the line at its
//! peak, not one per walked arc; the per-batch lists (inserted disks,
//! degenerate removals, dirty ranges) are emptied and refilled rather
//! than allocated per batch.

use rnnhm_geom::{Circle, Rect};
use rnnhm_index::RTree;

use crate::arrangement::DiskArrangement;
use crate::measure::InfluenceMeasure;
use crate::rnnset::{Records, RnnSet};
use crate::sink::RegionSink;
use crate::stats::SweepStats;

/// Arc slot: `2·disk + 1` for the upper semicircle, `2·disk` for lower.
type Slot = u32;

const ABSENT: usize = usize::MAX;

#[inline]
fn slot(disk: u32, upper: bool) -> Slot {
    disk * 2 + upper as u32
}

#[inline]
fn slot_disk(s: Slot) -> u32 {
    s / 2
}

#[inline]
fn slot_upper(s: Slot) -> bool {
    s % 2 == 1
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum EventKind {
    /// Right x-extreme: remove both arcs of `disk`.
    Remove { disk: u32 },
    /// A circle–circle intersection: strip delimiter (the repair pass
    /// performs the actual reordering).
    Cross,
    /// Left x-extreme: insert both arcs of `disk`.
    Insert { disk: u32 },
}

#[derive(Clone, Copy, Debug)]
struct Event {
    x: f64,
    kind: EventKind,
}

fn event_rank(kind: &EventKind) -> u8 {
    match kind {
        EventKind::Remove { .. } => 0,
        EventKind::Cross => 1,
        EventKind::Insert { .. } => 2,
    }
}

/// Builds the event queue: extremes plus all pairwise intersections
/// (found through an R-tree over the disks' bounding boxes).
fn build_events(arr: &DiskArrangement) -> Vec<Event> {
    let mut events = Vec::with_capacity(arr.disks.len() * 2);
    for (i, d) in arr.disks.iter().enumerate() {
        events.push(Event { x: d.x_min(), kind: EventKind::Insert { disk: i as u32 } });
        events.push(Event { x: d.x_max(), kind: EventKind::Remove { disk: i as u32 } });
    }
    let bboxes: Vec<Rect> = arr.disks.iter().map(Circle::bbox).collect();
    let rtree = RTree::build(&bboxes);
    let mut hits: Vec<u32> = Vec::new();
    for (i, d) in arr.disks.iter().enumerate() {
        hits.clear();
        rtree.intersecting(&bboxes[i], &mut hits);
        for &j in &hits {
            if (j as usize) <= i {
                continue; // each unordered pair once
            }
            for p in &d.intersect(&arr.disks[j as usize]) {
                events.push(Event { x: p.x, kind: EventKind::Cross });
            }
        }
    }
    events.sort_by(|a, b| {
        a.x.partial_cmp(&b.x)
            .expect("finite event coordinates")
            .then_with(|| event_rank(&a.kind).cmp(&event_rank(&b.kind)))
    });
    events
}

/// The sweep's line status: arcs ordered bottom-to-top within the current
/// strip, with a slot → position map and a per-strip y-value cache.
struct LineStatus {
    line: Vec<Slot>,
    pos: Vec<usize>,
    /// Arc y at the current strip midline, parallel to `line`.
    ys: Vec<f64>,
}

impl LineStatus {
    fn new(n_disks: usize) -> Self {
        LineStatus { line: Vec::new(), pos: vec![ABSENT; n_disks * 2], ys: Vec::new() }
    }

    fn len(&self) -> usize {
        self.line.len()
    }

    fn reindex_from(&mut self, from: usize) {
        for i in from..self.line.len() {
            self.pos[self.line[i] as usize] = i;
        }
    }

    fn arc_y(&self, s: Slot, disks: &[Circle], x: f64) -> f64 {
        let c = &disks[slot_disk(s) as usize];
        let kind =
            if slot_upper(s) { rnnhm_geom::ArcKind::Upper } else { rnnhm_geom::ArcKind::Lower };
        c.arc_y_at(kind, x).unwrap_or(c.c.y)
    }

    /// Inserts both arcs of `disk` adjacently, ordered by y at `probe_x`.
    /// (The position may be off by a little on almost-sorted input; the
    /// repair pass fixes it and dirties the span.)
    fn insert_disk(&mut self, disk: u32, disks: &[Circle], probe_x: f64) {
        let c = &disks[disk as usize];
        let y_new = c.y_at(probe_x).map_or(c.c.y, |(lo, _)| lo);
        let p = self.line.partition_point(|&s| self.arc_y(s, disks, probe_x) < y_new);
        self.line.insert(p, slot(disk, true));
        self.line.insert(p, slot(disk, false));
        self.reindex_from(p);
    }

    /// Removes both arcs of `disk`. When two or more slots sat strictly
    /// between them (degenerate inputs only), returns the lowest and the
    /// highest of those.
    fn remove_disk(&mut self, disk: u32) -> Option<(Slot, Slot)> {
        let pl = self.pos[slot(disk, false) as usize];
        let pu = self.pos[slot(disk, true) as usize];
        debug_assert!(pl != ABSENT && pu != ABSENT, "removing absent disk arcs");
        let (lo, hi) = (pl.min(pu), pl.max(pu));
        let between = (hi - lo >= 3).then(|| (self.line[lo + 1], self.line[hi - 1]));
        self.line.remove(hi);
        self.line.remove(lo);
        self.pos[slot(disk, false) as usize] = ABSENT;
        self.pos[slot(disk, true) as usize] = ABSENT;
        self.reindex_from(lo);
        between
    }

    /// Re-sorts the status by arc y at `mid` (stable insertion sort on the
    /// almost-sorted sequence), refreshing the `ys` cache. Every span of
    /// positions disturbed by a move is appended to `dirty`.
    fn repair(&mut self, disks: &[Circle], mid: f64, dirty: &mut Vec<(usize, usize)>) {
        let n = self.line.len();
        self.ys.clear();
        self.ys.reserve(n);
        for &s in &self.line {
            self.ys.push(self.arc_y(s, disks, mid));
        }
        for i in 1..n {
            if self.ys[i - 1] <= self.ys[i] {
                continue;
            }
            let mut j = i;
            while j > 0 && self.ys[j - 1] > self.ys[j] {
                self.line.swap(j - 1, j);
                self.ys.swap(j - 1, j);
                j -= 1;
            }
            // Positions j..=i all shifted; their pairs may have changed.
            dirty.push((j, i));
            for k in j..=i {
                self.pos[self.line[k] as usize] = k;
            }
        }
        debug_assert!(
            self.ys.windows(2).all(|w| w[0] <= w[1]),
            "line status still unsorted after repair"
        );
    }
}

/// Merges overlapping / element-sharing position ranges (ascending).
fn merge_ranges(ranges: &mut Vec<(usize, usize)>) {
    ranges.sort_unstable();
    let mut out = 0;
    for i in 1..ranges.len() {
        let r = ranges[i];
        if r.0 <= ranges[out].1 {
            if r.1 > ranges[out].1 {
                ranges[out].1 = r.1;
            }
        } else {
            out += 1;
            ranges[out] = r;
        }
    }
    ranges.truncate(if ranges.is_empty() { 0 } else { out + 1 });
}

/// Runs CREST over a disk arrangement (the paper's CREST-L2).
///
/// Labels stream into `sink` with representative rectangles sampled at
/// the strip midline; `rect.center()` always lies inside the labeled
/// region.
pub fn crest_l2_sweep<M: InfluenceMeasure, S: RegionSink>(
    arr: &DiskArrangement,
    measure: &M,
    sink: &mut S,
) -> SweepStats {
    crest_l2_sweep_with(arr, measure, sink, &mut Records::new(arr.disks.len() * 2))
}

/// [`crest_l2_sweep`] over a given empty record table, which the caller
/// can inspect afterwards.
pub(crate) fn crest_l2_sweep_with<M: InfluenceMeasure, S: RegionSink>(
    arr: &DiskArrangement,
    measure: &M,
    sink: &mut S,
    records: &mut Records,
) -> SweepStats {
    let events = build_events(arr);
    let disks = &arr.disks;
    let mut status = LineStatus::new(disks.len());
    let mut base = RnnSet::new(arr.n_clients);
    let mut stats = SweepStats::default();
    // Per-batch scratch, emptied and refilled by every batch.
    let mut inserted: Vec<u32> = Vec::new();
    let mut removal_between: Vec<(Slot, Slot)> = Vec::new();
    let mut ranges: Vec<(usize, usize)> = Vec::new();

    let mut i = 0;
    while i < events.len() {
        let x = events[i].x;
        let mut batch_end = i;
        while batch_end < events.len() && events[batch_end].x == x {
            batch_end += 1;
        }
        let x_next = if batch_end < events.len() { events[batch_end].x } else { x };
        let mid = (x + x_next) * 0.5;

        // Apply structural changes at this x.
        inserted.clear();
        removal_between.clear();
        for ev in &events[i..batch_end] {
            match ev.kind {
                EventKind::Remove { disk } => {
                    let between = status.remove_disk(disk);
                    records.remove(slot(disk, false) as usize);
                    records.remove(slot(disk, true) as usize);
                    // Degenerate inputs only.
                    removal_between.extend(between);
                }
                EventKind::Cross => {} // strip delimiter; repair reorders
                EventKind::Insert { disk } => {
                    status.insert_disk(disk, disks, if x_next > x { mid } else { x });
                    inserted.push(disk);
                }
            }
        }
        i = batch_end;
        stats.events += 1;
        stats.peak_line = stats.peak_line.max(status.len());
        if x_next <= x {
            continue; // final batch: nothing to the right to label
        }

        // Restore sorted order at the new strip midline; moved spans and
        // freshly inserted pairs become the dirty ranges.
        ranges.clear();
        status.repair(disks, mid, &mut ranges);
        for &disk in &inserted {
            let pl = status.pos[slot(disk, false) as usize];
            let pu = status.pos[slot(disk, true) as usize];
            ranges.push((pl.min(pu), pl.max(pu)));
        }
        for &(a, b) in &removal_between {
            let pa = status.pos[a as usize];
            let pb = status.pos[b as usize];
            if pa != ABSENT && pb != ABSENT {
                ranges.push((pa.min(pb), pa.max(pb)));
            }
        }
        merge_ranges(&mut ranges);

        for &(a, b) in &ranges {
            // Base set: cached RNN set of the pair below the range.
            if a > 0 {
                let below = status.line[a - 1];
                let rec = records
                    .get(below as usize)
                    .expect("invariant: arc below a changed range has a record");
                base.load(rec);
            } else {
                base.clear();
            }
            for p in a..=b {
                let s = status.line[p];
                let owner = arr.owners[slot_disk(s) as usize];
                if slot_upper(s) {
                    base.remove(owner);
                } else {
                    base.add(owner);
                }
                records.write(s as usize, base.members());
                if p < b {
                    let y_lo = status.ys[p];
                    let y_hi = status.ys[p + 1].max(y_lo);
                    let members = base.members();
                    let influence = measure.influence(members);
                    stats.labels += 1;
                    stats.max_rnn = stats.max_rnn.max(members.len());
                    sink.label(Rect::new(x, x_next, y_lo, y_hi), members, influence);
                }
            }
        }
    }
    debug_assert_eq!(status.len(), 0, "line status must drain");
    stats
}

/// The CREST-A analogue for disks: relabels every pair of every strip.
/// Exact strip enumerator for L2 (testing / rasterization reference).
pub fn crest_l2_full_sweep<M: InfluenceMeasure, S: RegionSink>(
    arr: &DiskArrangement,
    measure: &M,
    sink: &mut S,
) -> SweepStats {
    let events = build_events(arr);
    let disks = &arr.disks;
    let mut status = LineStatus::new(disks.len());
    let mut base = RnnSet::new(arr.n_clients);
    let mut stats = SweepStats::default();
    let mut scratch: Vec<(usize, usize)> = Vec::new();

    let mut i = 0;
    while i < events.len() {
        let x = events[i].x;
        let mut batch_end = i;
        while batch_end < events.len() && events[batch_end].x == x {
            batch_end += 1;
        }
        let x_next = if batch_end < events.len() { events[batch_end].x } else { x };
        let mid = (x + x_next) * 0.5;
        for ev in &events[i..batch_end] {
            match ev.kind {
                EventKind::Remove { disk } => {
                    status.remove_disk(disk);
                }
                EventKind::Cross => {}
                EventKind::Insert { disk } => {
                    status.insert_disk(disk, disks, if x_next > x { mid } else { x });
                }
            }
        }
        i = batch_end;
        stats.events += 1;
        stats.peak_line = stats.peak_line.max(status.len());
        if x_next <= x {
            continue;
        }
        scratch.clear();
        status.repair(disks, mid, &mut scratch);
        base.clear();
        for p in 0..status.len() {
            let s = status.line[p];
            let owner = arr.owners[slot_disk(s) as usize];
            if slot_upper(s) {
                base.remove(owner);
            } else {
                base.add(owner);
            }
            if p + 1 < status.len() {
                let y_lo = status.ys[p];
                let y_hi = status.ys[p + 1].max(y_lo);
                let members = base.members();
                let influence = measure.influence(members);
                stats.labels += 1;
                stats.max_rnn = stats.max_rnn.max(members.len());
                sink.label(Rect::new(x, x_next, y_lo, y_hi), members, influence);
            }
        }
        debug_assert!(base.is_empty());
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::CountMeasure;
    use crate::oracle::{rnn_at_disk, signature};
    use crate::sink::CollectSink;
    use rnnhm_geom::Point;

    fn arr_from_disks(disks: Vec<Circle>) -> DiskArrangement {
        let owners = (0..disks.len() as u32).collect();
        let n = disks.len();
        DiskArrangement { disks, owners, n_clients: n, dropped: 0, k: 1 }
    }

    /// Every labeled region's representative center must have exactly the
    /// labeled RNN set according to the brute-force oracle.
    ///
    /// Labels whose witness point lies within float resolution of some
    /// circle's boundary (hairline slivers from near-tangent lenses) are
    /// skipped: at that scale open-containment is not decidable in `f64`,
    /// so neither answer is checkable.
    fn check_labels_against_oracle(arr: &DiskArrangement, regions: &[crate::sink::LabeledRegion]) {
        let mut checked = 0usize;
        for r in regions {
            let center = r.rect.center();
            let ambiguous = arr.disks.iter().any(|c| (c.c.dist2(&center) - c.r).abs() < 1e-9);
            if ambiguous {
                continue;
            }
            let expect = rnn_at_disk(arr, center);
            assert_eq!(signature(&r.rnn), expect, "label at {center:?} (rect {:?})", r.rect);
            checked += 1;
        }
        assert!(
            checked * 2 >= regions.len(),
            "most labels must be unambiguous ({checked}/{})",
            regions.len()
        );
    }

    #[test]
    fn single_disk() {
        let arr = arr_from_disks(vec![Circle::new(Point::new(0.0, 0.0), 1.0)]);
        let mut sink = CollectSink::default();
        let stats = crest_l2_sweep(&arr, &CountMeasure, &mut sink);
        assert_eq!(stats.labels, 1);
        assert_eq!(sink.regions[0].rnn, vec![0]);
        check_labels_against_oracle(&arr, &sink.regions);
    }

    #[test]
    fn two_crossing_disks_fig14() {
        // Two overlapping unit circles (lens configuration, as in Fig. 14).
        let arr = arr_from_disks(vec![
            Circle::new(Point::new(0.0, 0.0), 1.0),
            Circle::new(Point::new(1.0, 0.2), 1.0),
        ]);
        let mut sink = CollectSink::default();
        let stats = crest_l2_sweep(&arr, &CountMeasure, &mut sink);
        check_labels_against_oracle(&arr, &sink.regions);
        let mut sets: Vec<Vec<u32>> = sink.regions.iter().map(|r| signature(&r.rnn)).collect();
        sets.sort();
        sets.dedup();
        assert_eq!(sets, vec![vec![0], vec![0, 1], vec![1]]);
        // 4 events from extremes + 2 crossing events.
        assert_eq!(stats.events, 6);
    }

    #[test]
    fn nested_disks() {
        let arr = arr_from_disks(vec![
            Circle::new(Point::new(0.0, 0.0), 5.0),
            Circle::new(Point::new(0.5, 0.5), 1.0),
        ]);
        let mut sink = CollectSink::default();
        crest_l2_sweep(&arr, &CountMeasure, &mut sink);
        check_labels_against_oracle(&arr, &sink.regions);
        let mut sets: Vec<Vec<u32>> = sink.regions.iter().map(|r| signature(&r.rnn)).collect();
        sets.sort();
        sets.dedup();
        assert_eq!(sets, vec![vec![0], vec![0, 1]]);
    }

    #[test]
    fn disjoint_disks() {
        let arr = arr_from_disks(vec![
            Circle::new(Point::new(0.0, 0.0), 1.0),
            Circle::new(Point::new(10.0, 0.0), 2.0),
            Circle::new(Point::new(5.0, 8.0), 1.5),
        ]);
        let mut sink = CollectSink::default();
        let stats = crest_l2_sweep(&arr, &CountMeasure, &mut sink);
        assert_eq!(stats.labels, 3);
        check_labels_against_oracle(&arr, &sink.regions);
    }

    #[test]
    fn three_mutually_crossing_disks() {
        let arr = arr_from_disks(vec![
            Circle::new(Point::new(0.0, 0.0), 1.2),
            Circle::new(Point::new(1.0, 0.1), 1.1),
            Circle::new(Point::new(0.4, 0.9), 1.0),
        ]);
        let mut sink = CollectSink::default();
        crest_l2_sweep(&arr, &CountMeasure, &mut sink);
        check_labels_against_oracle(&arr, &sink.regions);
        let mut sets: Vec<Vec<u32>> = sink.regions.iter().map(|r| signature(&r.rnn)).collect();
        sets.sort();
        sets.dedup();
        // All seven non-empty subsets exist for a generic triple overlap.
        assert_eq!(sets.len(), 7, "sets: {sets:?}");
    }

    #[test]
    fn full_sweep_matches_optimized_signatures() {
        let arr = arr_from_disks(vec![
            Circle::new(Point::new(0.0, 0.0), 1.5),
            Circle::new(Point::new(1.2, 0.3), 1.0),
            Circle::new(Point::new(-0.5, 1.0), 0.8),
            Circle::new(Point::new(0.3, -1.1), 1.3),
        ]);
        let mut a = CollectSink::default();
        let mut b = CollectSink::default();
        let s_opt = crest_l2_sweep(&arr, &CountMeasure, &mut a);
        let s_full = crest_l2_full_sweep(&arr, &CountMeasure, &mut b);
        check_labels_against_oracle(&arr, &a.regions);
        check_labels_against_oracle(&arr, &b.regions);
        let mut sa: Vec<Vec<u32>> = a.regions.iter().map(|r| signature(&r.rnn)).collect();
        let mut sb: Vec<Vec<u32>> = b.regions.iter().map(|r| signature(&r.rnn)).collect();
        sa.sort();
        sa.dedup();
        sb.sort();
        sb.dedup();
        assert_eq!(sa, sb);
        assert!(s_opt.labels <= s_full.labels);
    }

    #[test]
    fn random_disks_against_oracle() {
        // Pseudo-random disk soup; every label checked against the oracle.
        let mut state = 0xabcdef99u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        for round in 0..10 {
            let n = 3 + (round % 5);
            let disks: Vec<Circle> = (0..n)
                .map(|_| Circle::new(Point::new(next() * 4.0, next() * 4.0), 0.3 + next() * 1.2))
                .collect();
            let arr = arr_from_disks(disks);
            let mut sink = CollectSink::default();
            crest_l2_sweep(&arr, &CountMeasure, &mut sink);
            check_labels_against_oracle(&arr, &sink.regions);
            assert!(!sink.regions.is_empty());
        }
    }

    #[test]
    fn dense_nn_circle_workload_against_oracle() {
        // The configuration that exposed order drift: many NN-circles from
        // clustered clients sharing few facilities (shallow crossings near
        // extremes). Every label must still match the oracle.
        let mut state = 0x1234u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        let clients: Vec<Point> = (0..80).map(|_| Point::new(next(), next())).collect();
        let facilities: Vec<Point> = (0..6).map(|_| Point::new(next(), next())).collect();
        let arr = crate::arrangement::build_disk_arrangement(
            &clients,
            &facilities,
            crate::Mode::Bichromatic,
        )
        .unwrap();
        let mut sink = CollectSink::default();
        let stats = crest_l2_sweep(&arr, &CountMeasure, &mut sink);
        assert!(stats.labels > 80, "dense instance should have many regions");
        check_labels_against_oracle(&arr, &sink.regions);
    }
}
