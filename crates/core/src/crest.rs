//! CREST: Constructing RNN hEat maps with the Sweep line sTrategy (§V).
//!
//! The sweep moves left to right over the distinct x-coordinates of the
//! NN-circles' vertical sides (the *events*). Between two events, the
//! sorted horizontal sides of the circles cut by the line form the *line
//! status*; consecutive elements form *pairs* whose open rectangles are
//! *subregions* of arrangement regions.
//!
//! Two optimizations make CREST optimal:
//!
//! 1. **No point-enclosure queries** (§V-B, Lemma 1 / Corollary 1): the
//!    RNN set of a pair is derived by walking the line status and adding /
//!    removing the circle owner at each lower / upper side.
//! 2. **Changed intervals + cached base sets** (§V-C, Lemma 2): crossing
//!    an event only changes the RNN sets of pairs entirely inside the
//!    y-extents of circles inserted into or removed from the line. Only
//!    those pairs are relabeled, starting from the cached RNN set of the
//!    pair immediately below the interval.
//!
//! [`crest_a_sweep`] implements only optimization 1 (the paper's CREST-A
//! ablation): every valid pair of every line status is relabeled.
//!
//! The invariant maintained for the record table `P` (verified by the
//! test suite): *for every side `s` in the line status, `P[s]` equals the
//! RNN set of the region between `s` and its successor at the current
//! sweep position* — for sides that are the last of a run of equal
//! y-values, which are the only ones ever consulted.
//!
//! `P` is a `Records` table: writing `P[s]` copies the base set into a
//! buffer that `s` keeps while it is in the line, and a side leaving the
//! line returns its buffer for reuse. So a sweep allocates one buffer
//! per line-status side at its peak (`SweepStats::peak_line`), not one
//! per walked side.
//!
//! The line status `T` is a [`BTreeSet`]. Algorithm 1 asks of `T` only
//! a balanced search tree with ordered walks ("e.g., a B+-tree"):
//! O(log n) insert and remove, an O(log n) search for the first side ≥
//! a probe followed by amortized O(1) steps in order, and the side just
//! below the probe, which `range(..probe).next_back()` finds in one more
//! O(log n) descent per changed interval, so CREST's bound is unchanged.

use std::collections::BTreeSet;

use rnnhm_geom::eps::OrderedF64;
use rnnhm_geom::Rect;
use rnnhm_index::interval::{merge_intervals, Interval};

use crate::arrangement::SquareArrangement;
use crate::measure::InfluenceMeasure;
use crate::rnnset::{Records, RnnSet};
use crate::sink::RegionSink;
use crate::stats::SweepStats;

/// A horizontal side of an NN-circle, as a line-status key.
///
/// Ordered by `(y, circle id, upper)`: ties in `y` are broken arbitrarily
/// but consistently, as the paper allows ("ties are broken arbitrarily").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct SideKey {
    y: OrderedF64,
    id: u32,
    upper: bool,
}

impl SideKey {
    #[inline]
    fn lower(y: f64, id: u32) -> Self {
        SideKey { y: OrderedF64::new(y), id, upper: false }
    }
    #[inline]
    fn upper(y: f64, id: u32) -> Self {
        SideKey { y: OrderedF64::new(y), id, upper: true }
    }
    /// Index into the record table: `2·id` for lower, `2·id + 1` for upper.
    #[inline]
    fn record_slot(&self) -> usize {
        (self.id as usize) * 2 + self.upper as usize
    }
}

/// A vertical side of an NN-circle, as a sweep event.
#[derive(Clone, Copy, Debug)]
struct Event {
    x: f64,
    circle: u32,
    is_left: bool,
}

/// Builds the event queue `Q_x`: all vertical sides in ascending x order.
fn build_events(arr: &SquareArrangement) -> Vec<Event> {
    let mut events = Vec::with_capacity(arr.squares.len() * 2);
    for (i, s) in arr.squares.iter().enumerate() {
        events.push(Event { x: s.x_lo, circle: i as u32, is_left: true });
        events.push(Event { x: s.x_hi, circle: i as u32, is_left: false });
    }
    events.sort_by(|a, b| {
        a.x.partial_cmp(&b.x)
            .expect("finite coordinates")
            .then(a.circle.cmp(&b.circle))
            .then(a.is_left.cmp(&b.is_left))
    });
    events
}

/// Runs the full CREST algorithm (Algorithm 1) over a square arrangement.
///
/// Labels every region of the arrangement through `sink`, using `measure`
/// for the influence computation. Returns sweep statistics; `labels` is
/// the paper's `k`, which Lemma 3 bounds by `14·r`.
pub fn crest_sweep<M: InfluenceMeasure, S: RegionSink>(
    arr: &SquareArrangement,
    measure: &M,
    sink: &mut S,
) -> SweepStats {
    crest_sweep_with(arr, measure, sink, &mut Records::new(arr.squares.len() * 2))
}

/// [`crest_sweep`] over a given empty record table, which the caller can
/// inspect afterwards.
pub(crate) fn crest_sweep_with<M: InfluenceMeasure, S: RegionSink>(
    arr: &SquareArrangement,
    measure: &M,
    sink: &mut S,
    records: &mut Records,
) -> SweepStats {
    let events = build_events(arr);
    let mut t: BTreeSet<SideKey> = BTreeSet::new();
    let mut base = RnnSet::new(arr.n_clients);
    let mut stats = SweepStats::default();
    let mut intervals: Vec<Interval> = Vec::new();

    let mut i = 0;
    while i < events.len() {
        let x = events[i].x;
        intervals.clear();
        // Apply every side change at this x (Algorithm 1 lines 5–14).
        while i < events.len() && events[i].x == x {
            let ev = events[i];
            let s = arr.squares[ev.circle as usize];
            let kl = SideKey::lower(s.y_lo, ev.circle);
            let ku = SideKey::upper(s.y_hi, ev.circle);
            if ev.is_left {
                let ins_l = t.insert(kl);
                let ins_u = t.insert(ku);
                debug_assert!(ins_l && ins_u, "duplicate side keys");
            } else {
                let rem_l = t.remove(&kl);
                let rem_u = t.remove(&ku);
                debug_assert!(rem_l && rem_u, "removing absent side keys");
                records.remove(kl.record_slot());
                records.remove(ku.record_slot());
            }
            intervals.push(Interval::new(s.y_lo, s.y_hi));
            i += 1;
        }
        stats.events += 1;
        stats.peak_line = stats.peak_line.max(t.len());
        let x_next = if i < events.len() { events[i].x } else { x };

        // Merge and process the changed intervals (lines 15–30).
        merge_intervals(&mut intervals);
        for iv in &intervals {
            process_interval(arr, &t, iv, records, &mut base, measure, sink, x, x_next, &mut stats);
        }
    }
    debug_assert!(t.is_empty(), "line status must drain after the last event");
    stats
}

/// Processes one merged changed interval: relabels the pairs entirely
/// inside it, starting from the cached base set of the pair just below.
#[allow(clippy::too_many_arguments)]
fn process_interval<M: InfluenceMeasure, S: RegionSink>(
    arr: &SquareArrangement,
    t: &BTreeSet<SideKey>,
    iv: &Interval,
    records: &mut Records,
    base: &mut RnnSet,
    measure: &M,
    sink: &mut S,
    x: f64,
    x_next: f64,
    stats: &mut SweepStats,
) {
    // Starting element: the first side with y ≥ iv.lo. The probe key is
    // minimal among keys with y == iv.lo, so a run of equal values is
    // entered at its first element (paper §VI-A: "checking backward until
    // the elements are less than y_i"). The walk to the first side above
    // iv.hi is what the paper calls finding the starting and ending
    // elements plus the scan between them.
    let probe = SideKey { y: OrderedF64::new(iv.lo), id: 0, upper: false };
    let mut walk = t.range(probe..).take_while(|k| k.y.0 <= iv.hi).peekable();
    if walk.peek().is_none() {
        return; // no line elements inside the interval (pure removal)
    }

    // Base set: the cached RNN set of the element immediately preceding
    // the interval (§V-C2), or ∅ at the bottom of the line status.
    match t.range(..probe).next_back() {
        Some(pk) => {
            let rec = records
                .get(pk.record_slot())
                .expect("invariant: predecessor of a changed interval has a record");
            base.load(rec);
        }
        None => base.clear(),
    }

    // Walk the interval, maintaining the running set (Corollary 1).
    while let Some(&k) = walk.next() {
        let owner = arr.owners[k.id as usize];
        if k.upper {
            let removed = base.remove(owner);
            debug_assert!(removed, "leaving a circle we never entered");
        } else {
            let added = base.add(owner);
            debug_assert!(added, "entering a circle twice");
        }
        records.write(k.record_slot(), base.members());
        if let Some(nk) = walk.peek() {
            if k.y < nk.y {
                // A valid pair entirely inside the interval: label it.
                let members = base.members();
                let influence = measure.influence(members);
                stats.labels += 1;
                stats.max_rnn = stats.max_rnn.max(members.len());
                sink.label(Rect::new(x, x_next, k.y.0, nk.y.0), members, influence);
            }
        }
    }
}

/// CREST-A (§VIII-B): the sweep with only the first optimization.
///
/// RNN sets are still derived from the line status without enclosure
/// queries, but *every* valid pair of *every* line status is labeled —
/// no changed intervals, no cached base sets. Used as the ablation
/// baseline in Figs 16–17 and as the exact strip enumerator: its emitted
/// rectangles tile the arrangement's bounding strip between consecutive
/// events, so aggregating them reconstructs exact region geometry.
pub fn crest_a_sweep<M: InfluenceMeasure, S: RegionSink>(
    arr: &SquareArrangement,
    measure: &M,
    sink: &mut S,
) -> SweepStats {
    let events = build_events(arr);
    let mut t: BTreeSet<SideKey> = BTreeSet::new();
    let mut base = RnnSet::new(arr.n_clients);
    let mut stats = SweepStats::default();

    let mut i = 0;
    while i < events.len() {
        let x = events[i].x;
        while i < events.len() && events[i].x == x {
            let ev = events[i];
            let s = arr.squares[ev.circle as usize];
            let kl = SideKey::lower(s.y_lo, ev.circle);
            let ku = SideKey::upper(s.y_hi, ev.circle);
            if ev.is_left {
                t.insert(kl);
                t.insert(ku);
            } else {
                t.remove(&kl);
                t.remove(&ku);
            }
            i += 1;
        }
        stats.events += 1;
        stats.peak_line = stats.peak_line.max(t.len());
        if i >= events.len() {
            break; // line status is empty after the final event
        }
        let x_next = events[i].x;

        // Single traversal of the whole line status (Corollary 1).
        base.clear();
        let mut walk = t.iter().peekable();
        while let Some(k) = walk.next() {
            let owner = arr.owners[k.id as usize];
            if k.upper {
                base.remove(owner);
            } else {
                base.add(owner);
            }
            if let Some(nk) = walk.peek() {
                if k.y < nk.y {
                    let members = base.members();
                    let influence = measure.influence(members);
                    stats.labels += 1;
                    stats.max_rnn = stats.max_rnn.max(members.len());
                    sink.label(Rect::new(x, x_next, k.y.0, nk.y.0), members, influence);
                }
            }
        }
        debug_assert!(base.is_empty(), "every entered circle must be left");
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrangement::{CoordSpace, SquareArrangement};
    use crate::measure::CountMeasure;
    use crate::sink::CollectSink;

    /// Builds an arrangement directly from squares (bypassing NN search),
    /// owner ids equal to indices.
    fn arr_from_squares(squares: Vec<Rect>) -> SquareArrangement {
        let owners = (0..squares.len() as u32).collect();
        let n = squares.len();
        SquareArrangement {
            squares,
            owners,
            space: CoordSpace::Identity,
            n_clients: n,
            dropped: 0,
            k: 1,
        }
    }

    fn sorted(mut v: Vec<u32>) -> Vec<u32> {
        v.sort_unstable();
        v
    }

    #[test]
    fn single_square() {
        let arr = arr_from_squares(vec![Rect::new(0.0, 2.0, 0.0, 2.0)]);
        let mut sink = CollectSink::default();
        let stats = crest_sweep(&arr, &CountMeasure, &mut sink);
        // One region: the square interior, labeled once at its insertion.
        assert_eq!(stats.labels, 1);
        assert_eq!(sink.regions.len(), 1);
        assert_eq!(sink.regions[0].rnn, vec![0]);
        assert_eq!(sink.regions[0].influence, 1.0);
        assert_eq!(sink.regions[0].rect, Rect::new(0.0, 2.0, 0.0, 2.0));
    }

    #[test]
    fn two_disjoint_squares() {
        let arr =
            arr_from_squares(vec![Rect::new(0.0, 1.0, 0.0, 1.0), Rect::new(5.0, 6.0, 5.0, 6.0)]);
        let mut sink = CollectSink::default();
        let stats = crest_sweep(&arr, &CountMeasure, &mut sink);
        assert_eq!(stats.labels, 2);
        let sets: Vec<Vec<u32>> = sink.regions.iter().map(|r| sorted(r.rnn.clone())).collect();
        assert!(sets.contains(&vec![0]));
        assert!(sets.contains(&vec![1]));
    }

    #[test]
    fn two_overlapping_squares_label_all_faces() {
        // Squares [0,2]² and [1,3]²: faces are A∖B, A∩B, B∖A (plus outside).
        let arr =
            arr_from_squares(vec![Rect::new(0.0, 2.0, 0.0, 2.0), Rect::new(1.0, 3.0, 1.0, 3.0)]);
        let mut sink = CollectSink::default();
        let stats = crest_sweep(&arr, &CountMeasure, &mut sink);
        let mut sets: Vec<Vec<u32>> = sink.regions.iter().map(|r| sorted(r.rnn.clone())).collect();
        sets.sort();
        sets.dedup();
        assert!(sets.contains(&vec![0]));
        assert!(sets.contains(&vec![1]));
        assert!(sets.contains(&vec![0, 1]));
        // The overlap region {0,1} exists; counting distinct sets there are
        // exactly 3 non-empty ones for this pair.
        assert_eq!(sets.len(), 3);
        assert!(stats.labels >= 3);
        // Every region's influence equals its set size under CountMeasure.
        for r in &sink.regions {
            assert_eq!(r.influence, r.rnn.len() as f64);
        }
    }

    #[test]
    fn nested_squares() {
        // B strictly inside A: faces A∖B and A∩B={A,B}.
        let arr =
            arr_from_squares(vec![Rect::new(0.0, 10.0, 0.0, 10.0), Rect::new(4.0, 6.0, 4.0, 6.0)]);
        let mut sink = CollectSink::default();
        crest_sweep(&arr, &CountMeasure, &mut sink);
        let mut sets: Vec<Vec<u32>> = sink.regions.iter().map(|r| sorted(r.rnn.clone())).collect();
        sets.sort();
        sets.dedup();
        assert_eq!(sets, vec![vec![0], vec![0, 1]]);
        // The inner region must be labeled exactly once, with both owners.
        let inner: Vec<_> =
            sink.regions.iter().filter(|r| sorted(r.rnn.clone()) == vec![0, 1]).collect();
        assert_eq!(inner.len(), 1);
        assert_eq!(inner[0].rect, Rect::new(4.0, 6.0, 4.0, 6.0));
    }

    #[test]
    fn fig10_example_step_by_step() {
        // Paper Fig. 10: three squares; we use a faithful reconstruction:
        // C(o1) wide and low, C(o2) overlapping it to the upper right,
        // C(o3) a tall thin square inserted between them.
        let c1 = Rect::new(0.0, 6.0, 0.0, 4.0);
        let c2 = Rect::new(3.0, 9.0, 2.0, 6.0);
        let c3 = Rect::new(2.0, 2.5, -1.0, 5.0);
        let arr = arr_from_squares(vec![c1, c2, c3]);
        let mut sink = CollectSink::default();
        let stats = crest_sweep(&arr, &CountMeasure, &mut sink);
        let mut sets: Vec<Vec<u32>> = sink.regions.iter().map(|r| sorted(r.rnn.clone())).collect();
        sets.sort();
        sets.dedup();
        // Expected distinct non-empty RNN sets: {0}, {1}, {0,1}, {2}, {0,2}.
        assert!(sets.contains(&vec![0]));
        assert!(sets.contains(&vec![1]));
        assert!(sets.contains(&vec![0, 1]));
        assert!(sets.contains(&vec![0, 2]));
        assert!(stats.labels as usize >= sets.len());
    }

    #[test]
    fn crest_and_crest_a_agree_on_distinct_sets() {
        let squares = vec![
            Rect::new(0.0, 4.0, 0.0, 4.0),
            Rect::new(2.0, 6.0, 1.0, 5.0),
            Rect::new(3.0, 5.0, -2.0, 2.0),
            Rect::new(-1.0, 1.0, 3.0, 7.0),
        ];
        let arr = arr_from_squares(squares);
        let mut a = CollectSink::default();
        let mut b = CollectSink::default();
        let s_crest = crest_sweep(&arr, &CountMeasure, &mut a);
        let s_a = crest_a_sweep(&arr, &CountMeasure, &mut b);
        let mut sets_crest: Vec<Vec<u32>> =
            a.regions.iter().map(|r| sorted(r.rnn.clone())).collect();
        let mut sets_a: Vec<Vec<u32>> = b.regions.iter().map(|r| sorted(r.rnn.clone())).collect();
        sets_crest.sort();
        sets_crest.dedup();
        sets_a.sort();
        sets_a.dedup();
        assert_eq!(sets_crest, sets_a);
        // CREST must label no more than CREST-A (that is the point).
        assert!(s_crest.labels <= s_a.labels);
    }

    #[test]
    fn worst_case_diagonal_fig8() {
        // Paper Fig. 8: n squares of side n centered at (i, i). The number
        // of regions is r = n² − n + 2 (including the outer face); CREST's
        // labels k satisfy r ≤ k ≤ 14r (Lemma 3). A point's RNN set here
        // is a contiguous run of square indices, so the number of distinct
        // non-empty RNN sets is n(n+1)/2.
        let n = 8usize;
        let half = n as f64 / 2.0;
        let squares: Vec<Rect> = (0..n)
            .map(|i| Rect::centered(rnnhm_geom::Point::new(i as f64, i as f64), half))
            .collect();
        let arr = arr_from_squares(squares);
        let mut sink = CollectSink::default();
        let stats = crest_sweep(&arr, &CountMeasure, &mut sink);
        let mut sets: Vec<Vec<u32>> = sink.regions.iter().map(|r| sorted(r.rnn.clone())).collect();
        sets.sort();
        sets.dedup();
        assert_eq!(sets.len(), n * (n + 1) / 2, "distinct non-empty RNN sets");
        let r = (n * n - n + 2) as u64; // including outer face
        assert!(stats.labels >= sets.len() as u64);
        assert!(stats.labels <= 14 * r, "Lemma 3 upper bound");
    }

    #[test]
    fn labels_cover_every_strip_in_crest_a() {
        // CREST-A strips tile the x-extent of the arrangement.
        let arr =
            arr_from_squares(vec![Rect::new(0.0, 2.0, 0.0, 2.0), Rect::new(1.0, 3.0, 0.5, 2.5)]);
        let mut sink = CollectSink::default();
        crest_a_sweep(&arr, &CountMeasure, &mut sink);
        // Events at x = 0,1,2,3 → strips [0,1],[1,2],[2,3].
        let mut strip_starts: Vec<f64> = sink.regions.iter().map(|r| r.rect.x_lo).collect();
        strip_starts.sort_by(f64::total_cmp);
        strip_starts.dedup();
        assert_eq!(strip_starts, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn removal_and_insertion_share_an_event() {
        // Fig 11's situation at x4: one circle leaves and another enters
        // the line at the same x; their changed intervals merge and the
        // pairs in the merged span are processed once.
        let arr = arr_from_squares(vec![
            Rect::new(0.0, 4.0, 0.0, 4.0), // removed at x = 4
            Rect::new(4.0, 8.0, 2.0, 6.0), // inserted at x = 4
            Rect::new(2.0, 6.0, 1.0, 5.0), // spans the event
        ]);
        let mut sink = CollectSink::default();
        crest_sweep(&arr, &CountMeasure, &mut sink);
        let mut sets: Vec<Vec<u32>> = sink.regions.iter().map(|r| sorted(r.rnn.clone())).collect();
        sets.sort();
        sets.dedup();
        // All the faces that exist geometrically must be covered.
        for expect in [vec![0], vec![1], vec![2], vec![0, 2], vec![1, 2]] {
            assert!(sets.contains(&expect), "missing {expect:?} in {sets:?}");
        }
        // Labels at x = 4 describe the strip to its right: no label of a
        // region containing circle 0 may start at x ≥ 4.
        for r in &sink.regions {
            if r.rnn.contains(&0) {
                assert!(r.rect.x_lo < 4.0, "circle 0 labeled after removal: {r:?}");
            }
        }
    }

    #[test]
    fn identical_squares_stack() {
        // Coincident NN-circles: every boundary is a tie. The single
        // interior region carries all owners.
        let sq = Rect::new(1.0, 3.0, 1.0, 3.0);
        let arr = arr_from_squares(vec![sq; 5]);
        let mut sink = CollectSink::default();
        let stats = crest_sweep(&arr, &CountMeasure, &mut sink);
        let full: Vec<_> = sink.regions.iter().filter(|r| r.rect.height() > 0.0).collect();
        assert!(!full.is_empty());
        for r in full {
            assert_eq!(sorted(r.rnn.clone()), vec![0, 1, 2, 3, 4]);
            assert_eq!(r.influence, 5.0);
        }
        assert!(stats.max_rnn == 5);
    }

    #[test]
    fn sweep_is_deterministic() {
        let squares = vec![
            Rect::new(0.0, 4.0, 0.0, 4.0),
            Rect::new(2.0, 6.0, 1.0, 5.0),
            Rect::new(3.0, 5.0, -2.0, 2.0),
        ];
        let arr = arr_from_squares(squares);
        let mut a = CollectSink::default();
        let mut b = CollectSink::default();
        let sa = crest_sweep(&arr, &CountMeasure, &mut a);
        let sb = crest_sweep(&arr, &CountMeasure, &mut b);
        assert_eq!(sa, sb);
        assert_eq!(a.regions.len(), b.regions.len());
        for (x, y) in a.regions.iter().zip(&b.regions) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn multilabeling_is_bounded_by_region_degree() {
        // Fig 12: a region can be labeled several times within one line
        // status, but never more often than its degree (Lemma 3's local
        // argument). A comb of slabs all ending at the left side of a
        // tall square makes the square's interior border many pairs at
        // its insertion event.
        let mut squares = vec![Rect::new(5.0, 10.0, 0.0, 10.0)];
        for i in 0..4 {
            let y = 1.0 + 2.0 * i as f64;
            squares.push(Rect::new(0.0, 5.0, y, y + 1.0));
        }
        let arr = arr_from_squares(squares);
        let mut sink = CollectSink::default();
        let stats = crest_sweep(&arr, &CountMeasure, &mut sink);
        // The tall square's interior right of x=5 is one region; count how
        // often the sweep labeled it with exactly {0}.
        let tall_labels =
            sink.regions.iter().filter(|r| r.rnn == vec![0] && r.rect.x_lo >= 5.0).count();
        // Its degree: 4 sides of its own + the comb's 8 side-endpoints on
        // its left edge; the bound is loose but must hold.
        assert!(tall_labels >= 1);
        assert!(tall_labels <= 12, "labeled {tall_labels} times");
        assert!(stats.labels <= 14 * 14, "Lemma 3 sanity");
    }

    #[test]
    fn shared_boundary_squares() {
        // Two squares sharing a full edge: degenerate pair must not be
        // labeled, and sets on both sides must be correct.
        let arr = arr_from_squares(vec![
            Rect::new(0.0, 2.0, 0.0, 2.0),
            Rect::new(0.0, 2.0, 2.0, 4.0), // sits exactly on top
        ]);
        let mut sink = CollectSink::default();
        crest_sweep(&arr, &CountMeasure, &mut sink);
        let mut sets: Vec<Vec<u32>> = sink.regions.iter().map(|r| sorted(r.rnn.clone())).collect();
        sets.sort();
        sets.dedup();
        assert_eq!(sets, vec![vec![0], vec![1]]);
        for r in &sink.regions {
            assert!(r.rect.height() > 0.0, "degenerate pair labeled: {r:?}");
        }
    }
}
