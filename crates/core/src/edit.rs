//! What-if edit vocabulary: the dirty region, per-circle changes and
//! errors of incremental facility updates (an extension beyond the
//! paper).
//!
//! The paper frames RNN heat maps as a tool for *influence exploration*:
//! an analyst asks "what if I add / move / remove a facility here?" and
//! watches influence shift (§I; the taxi-sharing and courier scenarios).
//! Rebuilding the whole arrangement per what-if edit wastes almost all
//! of its work — a single facility edit changes only the NN-circles of
//! the clients whose nearest facility changes, and every such circle is
//! geometrically local to the edit site.
//!
//! The editor is [`ArrangementSnapshot`]: it keeps the problem instance
//! (clients, facilities, metric, mode, RkNN depth `k`) *together with*
//! its NN-circle arrangement, and each edit operation returns a
//! successor snapshot, leaving its parent untouched. At `k > 1` each
//! client's full `k`-NN candidate set is maintained per edit: an insert
//! admits the new facility into exactly the candidate sets whose `k`-th
//! distance it beats, a removal re-resolves exactly the clients whose
//! `k`-NN set contained the dead slot (everyone else's `k` smallest
//! distances provably survive), and a move fuses both.
//!
//! * [`ArrangementSnapshot::insert_facility`] — clients closer to the
//!   new facility than to their current NN shrink their circles,
//! * [`ArrangementSnapshot::remove_facility`] — clients served by the
//!   removed facility re-resolve their NN and grow their circles,
//! * [`ArrangementSnapshot::move_facility`] — remove + insert fused
//!   into one pass.
//!
//! Each edit returns an [`EditOutcome`]: the [`DirtyRegion`] — the union
//! of bounding boxes of every changed NN-circle (old and new shape), in
//! *input-space* coordinates — plus the per-circle [`CircleChange`]
//! list. Everything outside the dirty region provably kept its RNN set:
//! the RNN set of a point is determined by the circles containing it,
//! and all changed area lies inside the changed circles' bboxes. The
//! tile cache consumes the dirty region to invalidate only intersecting
//! tiles (`rnnhm_heatmap::tiles`), and an engine session drops its
//! labeled regions (the next region query re-sweeps).
//!
//! ## Bit-identity with a from-scratch rebuild
//!
//! The maintained radii are *bitwise equal* to what a fresh
//! [`crate::arrangement::build_square_arrangement`] /
//! [`crate::arrangement::build_disk_arrangement`] over the current
//! facility set would compute: every radius is the minimum of per-pair
//! distances evaluated by the same [`Metric`](rnnhm_geom::Metric)
//! primitives, minimization commutes bitwise with the final `sqrt`
//! (L2), and circle construction uses the exact same formulas. Only
//! the *order* of the arrangement's shape vectors differs after edits
//! — which no raster or query output depends on for order-insensitive
//! measures (see [`crate::measure::IncrementalMeasure`]'s contract).
//! This is property-tested in `tests/edits_match_rebuild.rs`.
//!
//! Derived-artifact caches key on [`ArrangementSnapshot::fingerprint`],
//! which mixes a *generation counter* bumped on every geometry-changing
//! edit into the build-time fingerprint — `O(1)` per edit instead of an
//! `O(n)` geometry rehash.
//!
//! [`ArrangementSnapshot`]: crate::snapshot::ArrangementSnapshot
//! [`ArrangementSnapshot::insert_facility`]: crate::snapshot::ArrangementSnapshot::insert_facility
//! [`ArrangementSnapshot::remove_facility`]: crate::snapshot::ArrangementSnapshot::remove_facility
//! [`ArrangementSnapshot::move_facility`]: crate::snapshot::ArrangementSnapshot::move_facility
//! [`ArrangementSnapshot::fingerprint`]: crate::snapshot::ArrangementSnapshot::fingerprint

use rnnhm_geom::{Circle, Rect};

use crate::arrangement::{DiskArrangement, SquareArrangement};

/// Stored rectangles per dirty region before coalescing everything into
/// one bounding box. Edits are local, so the per-client rectangles
/// almost always merge into one or two clusters long before the cap.
const MAX_DIRTY_RECTS: usize = 32;

/// Errors from facility edit operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditError {
    /// The facility id does not name a live facility.
    UnknownFacility,
    /// Removing the facility would leave fewer than `k` live
    /// facilities, so clients' `k`-th NN distances become undefined
    /// (for `k = 1`: cannot remove the last facility).
    TooFewFacilities,
    /// The instance is monochromatic: there is no facility set to edit.
    ImmutableMode,
    /// The edit's target point has a NaN or infinite coordinate, which
    /// would silently corrupt NN maintenance in release builds.
    NonFinitePoint,
}

impl std::fmt::Display for EditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EditError::UnknownFacility => write!(f, "no live facility with this id"),
            EditError::TooFewFacilities => {
                write!(f, "removal would leave fewer live facilities than the instance's k")
            }
            EditError::ImmutableMode => {
                write!(f, "monochromatic instances have no editable facility set")
            }
            EditError::NonFinitePoint => {
                write!(f, "edit target has a non-finite coordinate")
            }
        }
    }
}

impl std::error::Error for EditError {}

/// The union of bounding boxes of every region whose RNN set an edit
/// changed, in *input-space* coordinates.
///
/// Kept as a small list of rectangles (overlapping rectangles are
/// coalesced on insertion, and the list falls back to one overall
/// bounding box past a fixed cap), so a far-apart
/// remove+insert pair — a long-distance move — stays two tight boxes
/// instead of one huge one. The region is a
/// conservative *superset* of the changed area: everything outside it
/// is guaranteed unchanged.
#[derive(Debug, Clone, Default)]
pub struct DirtyRegion {
    rects: Vec<Rect>,
}

impl DirtyRegion {
    /// An empty region (nothing changed).
    pub fn new() -> DirtyRegion {
        DirtyRegion::default()
    }

    /// Whether nothing was marked dirty.
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// The dirty rectangles (input space). Rectangles may overlap; the
    /// region is their union.
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// Bounding box of the whole region, or `None` when empty.
    pub fn bbox(&self) -> Option<Rect> {
        let mut it = self.rects.iter();
        let first = *it.next()?;
        Some(it.fold(first, |acc, r| acc.union(r)))
    }

    /// Whether `rect` intersects the dirty region (closed semantics,
    /// matching tile extents that share boundaries).
    pub fn intersects(&self, rect: &Rect) -> bool {
        self.rects.iter().any(|r| r.intersects(rect))
    }

    /// Marks `rect` dirty, coalescing every stored rectangle it
    /// overlaps into it (cascading, so the stored rectangles stay
    /// pairwise disjoint).
    pub fn push(&mut self, mut rect: Rect) {
        // Each merge can create a new overlap with an earlier rect.
        while let Some(i) = self.rects.iter().position(|r| r.intersects(&rect)) {
            rect = self.rects.swap_remove(i).union(&rect);
        }
        if self.rects.len() == MAX_DIRTY_RECTS {
            let all = self.bbox().expect("cap implies non-empty").union(&rect);
            self.rects.clear();
            self.rects.push(all);
            return;
        }
        self.rects.push(rect);
    }

    /// Absorbs another dirty region.
    pub fn merge(&mut self, other: &DirtyRegion) {
        for &r in other.rects() {
            self.push(r);
        }
    }
}

/// One NN-circle shape, in the arrangement's own (sweep-space)
/// coordinates: squares for L∞, rotated squares for L1, disks for L2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// An axis-aligned square NN-circle (sweep space).
    Square(Rect),
    /// A Euclidean disk NN-circle.
    Disk(Circle),
}

/// One changed NN-circle: the owning client and its shape before and
/// after the edit (`None` = no circle, i.e. a zero-radius NN distance).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircleChange {
    /// The client whose NN-circle changed.
    pub owner: u32,
    /// The shape before the edit.
    pub old: Option<Shape>,
    /// The shape after the edit.
    pub new: Option<Shape>,
}

/// What one edit changed: the dirty region plus the per-circle deltas.
#[derive(Debug, Clone, Default)]
pub struct EditOutcome {
    /// Union of changed-area bounding boxes, input space.
    pub dirty: DirtyRegion,
    /// Every NN-circle the edit changed, with old and new geometry.
    pub changes: Vec<CircleChange>,
}

/// A borrowed view of the arrangement behind an
/// [`ArrangementSnapshot`](crate::snapshot::ArrangementSnapshot).
#[derive(Clone, Copy)]
pub enum ArrangementRef<'a> {
    /// Square NN-circles (L∞ directly, L1 in the rotated sweep frame).
    Square(&'a SquareArrangement),
    /// Disk NN-circles (L2).
    Disk(&'a DiskArrangement),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrangement::{build_disk_arrangement_k, build_square_arrangement_k, Mode};
    use crate::snapshot::ArrangementSnapshot;
    use rnnhm_geom::{Metric, Point};

    fn pseudo_points(n: usize, seed: u64, span: f64) -> Vec<Point> {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        (0..n).map(|_| Point::new(next() * span, next() * span)).collect()
    }

    /// Commits an insert by replacing `snap` with its successor.
    fn insert(snap: &mut ArrangementSnapshot, p: Point) -> Result<(u32, EditOutcome), EditError> {
        let (next, id, out) = snap.insert_facility(p)?;
        *snap = next;
        Ok((id, out))
    }

    /// Commits a removal by replacing `snap` with its successor.
    fn remove(snap: &mut ArrangementSnapshot, id: u32) -> Result<EditOutcome, EditError> {
        let (next, out) = snap.remove_facility(id)?;
        *snap = next;
        Ok(out)
    }

    /// Commits a move by replacing `snap` with its successor.
    fn relocate(
        snap: &mut ArrangementSnapshot,
        id: u32,
        to: Point,
    ) -> Result<EditOutcome, EditError> {
        let (next, out) = snap.move_facility(id, to)?;
        *snap = next;
        Ok(out)
    }

    /// Asserts the edited snapshot matches a from-scratch rebuild over
    /// its current facility set: same per-client radii (bitwise) and
    /// the same (owner → shape) mapping as sets.
    fn assert_matches_rebuild(snap: &ArrangementSnapshot) {
        let facs = snap.facility_points();
        match snap.metric() {
            Metric::L2 => {
                let fresh =
                    build_disk_arrangement_k(snap.clients(), &facs, Mode::Bichromatic, snap.k())
                        .unwrap();
                let a = snap.disk().unwrap();
                assert_eq!(a.len(), fresh.len());
                assert_eq!(a.dropped, fresh.dropped);
                let mut ours: Vec<(u32, u64, u64, u64)> = a
                    .owners
                    .iter()
                    .zip(&a.disks)
                    .map(|(&o, d)| (o, d.c.x.to_bits(), d.c.y.to_bits(), d.r.to_bits()))
                    .collect();
                let mut theirs: Vec<(u32, u64, u64, u64)> = fresh
                    .owners
                    .iter()
                    .zip(&fresh.disks)
                    .map(|(&o, d)| (o, d.c.x.to_bits(), d.c.y.to_bits(), d.r.to_bits()))
                    .collect();
                ours.sort_unstable();
                theirs.sort_unstable();
                assert_eq!(ours, theirs, "disk set diverged from rebuild");
            }
            m => {
                let fresh = build_square_arrangement_k(
                    snap.clients(),
                    &facs,
                    m,
                    Mode::Bichromatic,
                    snap.k(),
                )
                .unwrap();
                let a = snap.square().unwrap();
                assert_eq!(a.len(), fresh.len());
                assert_eq!(a.dropped, fresh.dropped);
                assert_eq!(a.space, fresh.space);
                let key = |o: u32, s: &Rect| {
                    (o, s.x_lo.to_bits(), s.x_hi.to_bits(), s.y_lo.to_bits(), s.y_hi.to_bits())
                };
                let mut ours: Vec<_> =
                    a.owners.iter().zip(&a.squares).map(|(&o, s)| key(o, s)).collect();
                let mut theirs: Vec<_> =
                    fresh.owners.iter().zip(&fresh.squares).map(|(&o, s)| key(o, s)).collect();
                ours.sort_unstable();
                theirs.sort_unstable();
                assert_eq!(ours, theirs, "square set diverged from rebuild ({m:?})");
            }
        }
    }

    #[test]
    fn build_matches_static_builders_exactly() {
        let clients = pseudo_points(40, 7, 10.0);
        let facs = pseudo_points(5, 9, 10.0);
        for metric in Metric::ALL {
            let snap = ArrangementSnapshot::build(
                clients.clone(),
                facs.clone(),
                metric,
                Mode::Bichromatic,
            )
            .unwrap();
            match metric {
                Metric::L2 => {
                    let fresh =
                        build_disk_arrangement_k(&clients, &facs, Mode::Bichromatic, 1).unwrap();
                    assert_eq!(snap.disk().unwrap().fingerprint(), fresh.fingerprint());
                }
                m => {
                    let fresh =
                        build_square_arrangement_k(&clients, &facs, m, Mode::Bichromatic, 1)
                            .unwrap();
                    assert_eq!(snap.square().unwrap().fingerprint(), fresh.fingerprint());
                }
            }
        }
    }

    #[test]
    fn edit_script_matches_rebuild_all_metrics() {
        let clients = pseudo_points(60, 3, 10.0);
        let facs = pseudo_points(4, 11, 10.0);
        for metric in Metric::ALL {
            let mut snap = ArrangementSnapshot::build(
                clients.clone(),
                facs.clone(),
                metric,
                Mode::Bichromatic,
            )
            .unwrap();
            let (id_a, _) = insert(&mut snap, Point::new(2.5, 2.5)).unwrap();
            assert_matches_rebuild(&snap);
            relocate(&mut snap, id_a, Point::new(7.5, 7.5)).unwrap();
            assert_matches_rebuild(&snap);
            remove(&mut snap, 0).unwrap();
            assert_matches_rebuild(&snap);
            remove(&mut snap, id_a).unwrap();
            assert_matches_rebuild(&snap);
            let (_, out) = insert(&mut snap, Point::new(0.1, 9.9)).unwrap();
            // The outcome's change list and dirty region agree.
            for ch in &out.changes {
                assert!(ch.old != ch.new, "listed change must change geometry");
            }
            assert_eq!(out.dirty.is_empty(), out.changes.is_empty());
            assert_matches_rebuild(&snap);
        }
    }

    #[test]
    fn insert_on_client_drops_its_circle_and_remove_restores_it() {
        let clients = vec![Point::new(1.0, 1.0), Point::new(8.0, 8.0)];
        let facs = vec![Point::new(4.0, 4.0)];
        let mut snap =
            ArrangementSnapshot::build(clients, facs, Metric::Linf, Mode::Bichromatic).unwrap();
        assert_eq!(snap.square().unwrap().len(), 2);
        let (id, out) = insert(&mut snap, Point::new(1.0, 1.0)).unwrap();
        assert_eq!(snap.square().unwrap().len(), 1, "coincident client drops its circle");
        assert_eq!(snap.square().unwrap().dropped, 1);
        assert!(out.changes.iter().any(|c| c.owner == 0 && c.new.is_none()));
        assert_matches_rebuild(&snap);
        remove(&mut snap, id).unwrap();
        assert_eq!(snap.square().unwrap().len(), 2, "removal restores the dropped circle");
        assert_eq!(snap.square().unwrap().dropped, 0);
        assert_matches_rebuild(&snap);
    }

    #[test]
    fn dirty_region_bounds_every_change() {
        let clients = pseudo_points(50, 21, 10.0);
        let facs = pseudo_points(6, 22, 10.0);
        let mut snap =
            ArrangementSnapshot::build(clients, facs, Metric::L2, Mode::Bichromatic).unwrap();
        let (_, out) = insert(&mut snap, Point::new(5.0, 5.0)).unwrap();
        assert!(!out.dirty.is_empty(), "a central insert must steal some clients");
        for ch in &out.changes {
            for shape in ch.old.iter().chain(ch.new.iter()) {
                let bbox = match shape {
                    Shape::Square(s) => *s,
                    Shape::Disk(d) => d.bbox(),
                };
                // L2/L∞ shapes live in input space; every changed shape
                // must be covered by the dirty region.
                assert!(
                    out.dirty.rects().iter().any(|r| r.contains_rect(&bbox)),
                    "changed circle of client {} escapes the dirty region",
                    ch.owner
                );
            }
        }
    }

    #[test]
    fn noop_edits_keep_generation_and_report_empty_dirty() {
        let clients = vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)];
        let facs = vec![Point::new(1.0, 0.0), Point::new(9.0, 0.0)];
        let mut snap =
            ArrangementSnapshot::build(clients, facs, Metric::Linf, Mode::Bichromatic).unwrap();
        let g0 = snap.generation();
        let fp0 = snap.fingerprint();
        // A facility far from everything changes no NN distance.
        let (far, out) = insert(&mut snap, Point::new(100.0, 100.0)).unwrap();
        assert!(out.dirty.is_empty());
        assert!(out.changes.is_empty());
        assert_eq!(snap.generation(), g0);
        assert_eq!(snap.fingerprint(), fp0, "no geometry change, no key change");
        // Moving it around far away is equally invisible.
        let out = relocate(&mut snap, far, Point::new(200.0, 200.0)).unwrap();
        assert!(out.dirty.is_empty());
        // Removing it: its (zero) clients re-resolve — still nothing.
        let out = remove(&mut snap, far).unwrap();
        assert!(out.dirty.is_empty());
        assert_eq!(snap.fingerprint(), fp0);
        // A real edit bumps the fingerprint.
        insert(&mut snap, Point::new(0.5, 0.0)).unwrap();
        assert_ne!(snap.fingerprint(), fp0);
        assert_eq!(snap.generation(), g0 + 1);
    }

    #[test]
    fn edit_errors() {
        let clients = vec![Point::new(0.0, 0.0), Point::new(5.0, 5.0)];
        let facs = vec![Point::new(1.0, 1.0)];
        let mut snap = ArrangementSnapshot::build(
            clients.clone(),
            facs.clone(),
            Metric::Linf,
            Mode::Bichromatic,
        )
        .unwrap();
        assert_eq!(remove(&mut snap, 0).unwrap_err(), EditError::TooFewFacilities);
        assert_eq!(remove(&mut snap, 7).unwrap_err(), EditError::UnknownFacility);
        assert_eq!(
            relocate(&mut snap, 9, Point::new(0.0, 0.0)).unwrap_err(),
            EditError::UnknownFacility
        );
        let (id, _) = insert(&mut snap, Point::new(4.0, 4.0)).unwrap();
        remove(&mut snap, id).unwrap();
        assert_eq!(remove(&mut snap, id).unwrap_err(), EditError::UnknownFacility);

        let mut mono =
            ArrangementSnapshot::build(clients, vec![], Metric::Linf, Mode::Monochromatic).unwrap();
        assert_eq!(insert(&mut mono, Point::new(1.0, 1.0)).unwrap_err(), EditError::ImmutableMode);
        assert_eq!(remove(&mut mono, 0).unwrap_err(), EditError::ImmutableMode);
        assert_eq!(
            relocate(&mut mono, 0, Point::new(1.0, 1.0)).unwrap_err(),
            EditError::ImmutableMode
        );
    }

    #[test]
    fn edit_scripts_match_rebuild_at_higher_k() {
        let clients = pseudo_points(50, 13, 10.0);
        let facs = pseudo_points(6, 29, 10.0);
        for k in [2usize, 3, 5] {
            for metric in Metric::ALL {
                let mut snap = ArrangementSnapshot::build_k(
                    clients.clone(),
                    facs.clone(),
                    metric,
                    Mode::Bichromatic,
                    k,
                )
                .unwrap();
                assert_eq!(snap.k(), k);
                assert_matches_rebuild(&snap);
                let (id_a, _) = insert(&mut snap, Point::new(5.0, 5.0)).unwrap();
                assert_matches_rebuild(&snap);
                relocate(&mut snap, id_a, Point::new(1.0, 9.0)).unwrap();
                assert_matches_rebuild(&snap);
                remove(&mut snap, 1).unwrap();
                assert_matches_rebuild(&snap);
                relocate(&mut snap, 0, Point::new(9.5, 0.5)).unwrap();
                assert_matches_rebuild(&snap);
                remove(&mut snap, id_a).unwrap();
                assert_matches_rebuild(&snap);
            }
        }
    }

    #[test]
    fn removal_guards_on_k_not_one() {
        let clients = pseudo_points(12, 3, 4.0);
        let facs = pseudo_points(3, 5, 4.0);
        let mut snap =
            ArrangementSnapshot::build_k(clients, facs, Metric::L2, Mode::Bichromatic, 3).unwrap();
        // 3 facilities at k = 3: any removal would orphan the 3rd NN.
        assert_eq!(remove(&mut snap, 0).unwrap_err(), EditError::TooFewFacilities);
        let (id, _) = insert(&mut snap, Point::new(2.0, 2.0)).unwrap();
        // 4 alive: one removal fine, a second blocked again.
        remove(&mut snap, id).unwrap();
        assert_matches_rebuild(&snap);
        assert_eq!(remove(&mut snap, 0).unwrap_err(), EditError::TooFewFacilities);
    }

    #[test]
    fn non_finite_edit_targets_are_rejected() {
        let clients = pseudo_points(8, 7, 4.0);
        let facs = pseudo_points(2, 9, 4.0);
        let mut snap =
            ArrangementSnapshot::build(clients, facs, Metric::Linf, Mode::Bichromatic).unwrap();
        let bad = Point { x: f64::NAN, y: 0.0 };
        assert_eq!(insert(&mut snap, bad).unwrap_err(), EditError::NonFinitePoint);
        assert_eq!(relocate(&mut snap, 0, bad).unwrap_err(), EditError::NonFinitePoint);
        let inf = Point { x: 0.0, y: f64::INFINITY };
        assert_eq!(insert(&mut snap, inf).unwrap_err(), EditError::NonFinitePoint);
        // The rejected edits left nothing behind.
        assert_eq!(snap.n_facilities(), 2);
        assert_eq!(snap.generation(), 0);
        assert_matches_rebuild(&snap);
    }

    #[test]
    fn facility_ids_stay_stable_across_edits() {
        let clients = pseudo_points(10, 5, 4.0);
        let facs = vec![Point::new(1.0, 1.0), Point::new(3.0, 3.0)];
        let mut snap =
            ArrangementSnapshot::build(clients, facs, Metric::L1, Mode::Bichromatic).unwrap();
        let (id2, _) = insert(&mut snap, Point::new(2.0, 2.0)).unwrap();
        assert_eq!(id2, 2);
        remove(&mut snap, 0).unwrap();
        assert_eq!(snap.n_facilities(), 2);
        let ids: Vec<u32> = snap.facilities().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![1, 2], "dead slots keep later ids stable");
        assert_eq!(snap.facility(0), None);
        assert_eq!(snap.facility(1), Some(Point::new(3.0, 3.0)));
        relocate(&mut snap, id2, Point::new(0.5, 0.5)).unwrap();
        assert_eq!(snap.facility(id2), Some(Point::new(0.5, 0.5)));
    }

    #[test]
    fn dirty_region_coalesces_and_caps() {
        let mut d = DirtyRegion::new();
        assert!(d.is_empty());
        d.push(Rect::new(0.0, 1.0, 0.0, 1.0));
        d.push(Rect::new(0.5, 2.0, 0.5, 2.0)); // overlaps → coalesce
        assert_eq!(d.rects().len(), 1);
        assert_eq!(d.rects()[0], Rect::new(0.0, 2.0, 0.0, 2.0));
        d.push(Rect::new(50.0, 51.0, 50.0, 51.0)); // disjoint → second rect
        assert_eq!(d.rects().len(), 2);
        assert!(d.intersects(&Rect::new(1.5, 1.6, 0.0, 0.5)));
        assert!(d.intersects(&Rect::new(50.5, 99.0, 50.5, 99.0)));
        assert!(!d.intersects(&Rect::new(10.0, 20.0, 10.0, 20.0)));
        // Push far past the cap: the region folds into one bbox but
        // still covers everything ever pushed.
        for i in 0..100 {
            let x = i as f64 * 10.0;
            d.push(Rect::new(x, x + 1.0, -500.0, -499.0));
        }
        assert!(d.rects().len() <= MAX_DIRTY_RECTS);
        assert!(d.intersects(&Rect::new(990.2, 990.8, -499.5, -499.4)));
        assert!(d.bbox().unwrap().contains_rect(&Rect::new(0.0, 2.0, 0.0, 2.0)));
    }
}
