//! Dynamic what-if editing: incremental facility updates (an extension
//! beyond the paper).
//!
//! The paper frames RNN heat maps as a tool for *influence exploration*:
//! an analyst asks "what if I add / move / remove a facility here?" and
//! watches influence shift (§I; the taxi-sharing and courier scenarios).
//! Rebuilding the whole arrangement per what-if edit wastes almost all
//! of its work — a single facility edit changes only the NN-circles of
//! the clients whose nearest facility changes, and every such circle is
//! geometrically local to the edit site.
//!
//! [`DynamicArrangement`] keeps the problem instance (clients,
//! facilities, metric, mode, RkNN depth `k`) *together with* its
//! NN-circle arrangement and maintains both under three edit
//! operations. At `k > 1` ([`DynamicArrangement::build_k`]) each
//! client's full `k`-NN candidate set is maintained per edit: an insert
//! admits the new facility into exactly the candidate sets whose `k`-th
//! distance it beats, a removal re-resolves exactly the clients whose
//! `k`-NN set contained the dead slot (everyone else's `k` smallest
//! distances provably survive), and a move fuses both.
//!
//! * [`DynamicArrangement::insert_facility`] — clients closer to the new
//!   facility than to their current NN shrink their circles,
//! * [`DynamicArrangement::remove_facility`] — clients served by the
//!   removed facility re-resolve their NN and grow their circles,
//! * [`DynamicArrangement::move_facility`] — remove + insert fused into
//!   one pass.
//!
//! Each edit returns an [`EditOutcome`]: the [`DirtyRegion`] — the union
//! of bounding boxes of every changed NN-circle (old and new shape), in
//! *input-space* coordinates — plus the per-circle [`CircleChange`]
//! list. Everything outside the dirty region provably kept its RNN set:
//! the RNN set of a point is determined by the circles containing it,
//! and all changed area lies inside the changed circles' bboxes. The
//! tile cache consumes the dirty region to invalidate only intersecting
//! tiles (`rnnhm_heatmap::tiles`), the scanline engine re-renders only
//! the dirty pixel windows, and an engine session drops its labeled
//! regions (the next region query re-sweeps).
//!
//! ## Bit-identity with a from-scratch rebuild
//!
//! The maintained radii are *bitwise equal* to what a fresh
//! [`crate::arrangement::build_square_arrangement`] /
//! [`crate::arrangement::build_disk_arrangement`] over the current
//! facility set would compute: every radius is the minimum of per-pair
//! distances evaluated by the same [`Metric`] primitives, minimization
//! commutes bitwise with the final `sqrt` (L2), and circle construction
//! uses the exact same formulas. Only the *order* of the arrangement's
//! shape vectors differs after edits — which no raster or query output
//! depends on for order-insensitive measures (see
//! [`crate::measure::IncrementalMeasure`]'s contract). This is
//! property-tested in `tests/edits_match_rebuild.rs`.
//!
//! Derived-artifact caches key on [`DynamicArrangement::fingerprint`],
//! which mixes a *generation counter* bumped on every geometry-changing
//! edit into the build-time fingerprint — `O(1)` per edit instead of an
//! `O(n)` geometry rehash.

use std::sync::Arc;

use rnnhm_geom::{Circle, Metric, Point, Rect};

use crate::arrangement::{DiskArrangement, Mode, SquareArrangement};
use crate::snapshot::ArrangementSnapshot;
use crate::BuildError;

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
/// remove+insert pair — a long-distance [`DynamicArrangement::move_facility`]
/// — stays two tight boxes instead of one huge one. The region is a
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
    /// pairwise disjoint and no pixel window is re-rendered twice).
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

/// A borrowed view of the arrangement behind a [`DynamicArrangement`].
#[derive(Clone, Copy)]
pub enum ArrangementRef<'a> {
    /// Square NN-circles (L∞ directly, L1 in the rotated sweep frame).
    Square(&'a SquareArrangement),
    /// Disk NN-circles (L2).
    Disk(&'a DiskArrangement),
}

/// A problem instance plus its NN-circle arrangement, maintained
/// incrementally under facility edits — the thin single-user editor
/// over [`ArrangementSnapshot`]. See the module docs.
///
/// Each edit produces a new committed snapshot (chunk-level
/// copy-on-write, so unchanged circles and candidate lists stay
/// physically shared with the previous version) and swaps it in;
/// [`DynamicArrangement::snapshot`] exposes the current snapshot for
/// `O(1)` forking into concurrent exploration sessions
/// (`rnn_heatmap`'s `ExplorationEngine`).
pub struct DynamicArrangement {
    snap: Arc<ArrangementSnapshot>,
}

impl DynamicArrangement {
    /// Builds the instance and its arrangement.
    ///
    /// The initial arrangement is identical (including shape order) to
    /// what [`crate::arrangement::build_square_arrangement`] /
    /// [`crate::arrangement::build_disk_arrangement`] produce for the
    /// same input. Monochromatic instances build fine but reject every
    /// edit with [`EditError::ImmutableMode`].
    pub fn build(
        clients: Vec<Point>,
        facilities: Vec<Point>,
        metric: Metric,
        mode: Mode,
    ) -> Result<DynamicArrangement, BuildError> {
        DynamicArrangement::build_k(clients, facilities, metric, mode, 1)
    }

    /// Builds the RkNN instance for a configurable `k`: every circle's
    /// radius is the client's distance to its `k`-th nearest facility,
    /// and all three edit operations maintain the full `k`-NN candidate
    /// sets (so the rebuild bit-identity invariant holds at every `k`).
    pub fn build_k(
        clients: Vec<Point>,
        facilities: Vec<Point>,
        metric: Metric,
        mode: Mode,
        k: usize,
    ) -> Result<DynamicArrangement, BuildError> {
        Ok(DynamicArrangement {
            snap: Arc::new(ArrangementSnapshot::build_k(clients, facilities, metric, mode, k)?),
        })
    }

    /// Wraps an existing committed snapshot (continuing its lineage).
    pub fn from_snapshot(snap: Arc<ArrangementSnapshot>) -> DynamicArrangement {
        DynamicArrangement { snap }
    }

    /// The current committed snapshot: immutable, cheaply shareable
    /// (`Arc` clone = `O(1)` fork), never mutated by later edits.
    pub fn snapshot(&self) -> &Arc<ArrangementSnapshot> {
        &self.snap
    }

    /// The distance metric of the instance.
    pub fn metric(&self) -> Metric {
        self.snap.metric()
    }

    /// Bichromatic or monochromatic.
    pub fn mode(&self) -> Mode {
        self.snap.mode()
    }

    /// The `k` of the RkNN instance (1 = plain RNN).
    pub fn k(&self) -> usize {
        self.snap.k()
    }

    /// The client set (never edited).
    pub fn clients(&self) -> &[Point] {
        self.snap.clients()
    }

    /// The arrangement view for queries, sweeps and rasterization.
    pub fn as_ref(&self) -> ArrangementRef<'_> {
        self.snap.arrangement()
    }

    /// The square arrangement, when the metric is L∞ or L1.
    pub fn square(&self) -> Option<&SquareArrangement> {
        self.snap.square()
    }

    /// The disk arrangement, when the metric is L2.
    pub fn disk(&self) -> Option<&DiskArrangement> {
        self.snap.disk()
    }

    /// Live facilities as `(id, location)`, in id order. The ids are
    /// stable across edits and valid for
    /// [`DynamicArrangement::remove_facility`] /
    /// [`DynamicArrangement::move_facility`].
    pub fn facilities(&self) -> impl Iterator<Item = (u32, Point)> + '_ {
        self.snap.facilities()
    }

    /// Live facility locations in id order (the list a from-scratch
    /// rebuild of the current instance would start from).
    pub fn facility_points(&self) -> Vec<Point> {
        self.snap.facility_points()
    }

    /// The location of live facility `id`.
    pub fn facility(&self, id: u32) -> Option<Point> {
        self.snap.facility(id)
    }

    /// Number of live facilities.
    pub fn n_facilities(&self) -> usize {
        self.snap.n_facilities()
    }

    /// How many geometry-changing edits this instance has absorbed.
    pub fn generation(&self) -> u64 {
        self.snap.generation()
    }

    /// A stable cache key for derived artifacts (rendered tiles, …).
    /// Geometric no-op edits keep the key; geometry-changing edits get
    /// a process-unique fresh key, so two edit branches forked from
    /// the same snapshot can never collide.
    pub fn fingerprint(&self) -> u64 {
        self.snap.fingerprint()
    }

    /// Adds a facility at `p`. Returns the new facility's id and what
    /// changed: every client strictly closer to `p` than to its current
    /// `k`-th NN admits `p` into its `k`-NN set and (usually) shrinks
    /// its circle.
    pub fn insert_facility(&mut self, p: Point) -> Result<(u32, EditOutcome), EditError> {
        let (next, id, out) = self.snap.insert_facility(p)?;
        self.snap = Arc::new(next);
        Ok((id, out))
    }

    /// Removes facility `id`. Exactly the clients whose `k`-NN set
    /// contained `id` re-resolve their `k` nearest among the remaining
    /// facilities and grow their circles; everyone else's `k` smallest
    /// distances are provably unchanged.
    pub fn remove_facility(&mut self, id: u32) -> Result<EditOutcome, EditError> {
        let (next, out) = self.snap.remove_facility(id)?;
        self.snap = Arc::new(next);
        Ok(out)
    }

    /// Moves facility `id` to `to` — a remove + insert fused into one
    /// pass: clients with `id` in their `k`-NN set re-resolve it (the
    /// set may keep `id`), every other client checks whether `id`'s new
    /// location undercuts its current `k`-th NN distance.
    pub fn move_facility(&mut self, id: u32, to: Point) -> Result<EditOutcome, EditError> {
        let (next, out) = self.snap.move_facility(id, to)?;
        self.snap = Arc::new(next);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrangement::{build_disk_arrangement_k, build_square_arrangement_k};

    fn pseudo_points(n: usize, seed: u64, span: f64) -> Vec<Point> {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        (0..n).map(|_| Point::new(next() * span, next() * span)).collect()
    }

    /// Asserts the dynamic arrangement matches a from-scratch rebuild
    /// over its current facility set: same per-client radii (bitwise)
    /// and the same (owner → shape) mapping as sets.
    fn assert_matches_rebuild(dy: &DynamicArrangement) {
        let facs = dy.facility_points();
        match dy.metric() {
            Metric::L2 => {
                let fresh =
                    build_disk_arrangement_k(dy.clients(), &facs, Mode::Bichromatic, dy.k())
                        .unwrap();
                let a = dy.disk().unwrap();
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
                let fresh =
                    build_square_arrangement_k(dy.clients(), &facs, m, Mode::Bichromatic, dy.k())
                        .unwrap();
                let a = dy.square().unwrap();
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
            let dy =
                DynamicArrangement::build(clients.clone(), facs.clone(), metric, Mode::Bichromatic)
                    .unwrap();
            match metric {
                Metric::L2 => {
                    let fresh =
                        build_disk_arrangement_k(&clients, &facs, Mode::Bichromatic, 1).unwrap();
                    assert_eq!(dy.disk().unwrap().fingerprint(), fresh.fingerprint());
                }
                m => {
                    let fresh =
                        build_square_arrangement_k(&clients, &facs, m, Mode::Bichromatic, 1)
                            .unwrap();
                    assert_eq!(dy.square().unwrap().fingerprint(), fresh.fingerprint());
                }
            }
        }
    }

    #[test]
    fn edit_script_matches_rebuild_all_metrics() {
        let clients = pseudo_points(60, 3, 10.0);
        let facs = pseudo_points(4, 11, 10.0);
        for metric in Metric::ALL {
            let mut dy =
                DynamicArrangement::build(clients.clone(), facs.clone(), metric, Mode::Bichromatic)
                    .unwrap();
            let (id_a, _) = dy.insert_facility(Point::new(2.5, 2.5)).unwrap();
            assert_matches_rebuild(&dy);
            dy.move_facility(id_a, Point::new(7.5, 7.5)).unwrap();
            assert_matches_rebuild(&dy);
            dy.remove_facility(0).unwrap();
            assert_matches_rebuild(&dy);
            dy.remove_facility(id_a).unwrap();
            assert_matches_rebuild(&dy);
            let (_, out) = dy.insert_facility(Point::new(0.1, 9.9)).unwrap();
            // The outcome's change list and dirty region agree.
            for ch in &out.changes {
                assert!(ch.old != ch.new, "listed change must change geometry");
            }
            assert_eq!(out.dirty.is_empty(), out.changes.is_empty());
            assert_matches_rebuild(&dy);
        }
    }

    #[test]
    fn insert_on_client_drops_its_circle_and_remove_restores_it() {
        let clients = vec![Point::new(1.0, 1.0), Point::new(8.0, 8.0)];
        let facs = vec![Point::new(4.0, 4.0)];
        let mut dy =
            DynamicArrangement::build(clients, facs, Metric::Linf, Mode::Bichromatic).unwrap();
        assert_eq!(dy.square().unwrap().len(), 2);
        let (id, out) = dy.insert_facility(Point::new(1.0, 1.0)).unwrap();
        assert_eq!(dy.square().unwrap().len(), 1, "coincident client drops its circle");
        assert_eq!(dy.square().unwrap().dropped, 1);
        assert!(out.changes.iter().any(|c| c.owner == 0 && c.new.is_none()));
        assert_matches_rebuild(&dy);
        dy.remove_facility(id).unwrap();
        assert_eq!(dy.square().unwrap().len(), 2, "removal restores the dropped circle");
        assert_eq!(dy.square().unwrap().dropped, 0);
        assert_matches_rebuild(&dy);
    }

    #[test]
    fn dirty_region_bounds_every_change() {
        let clients = pseudo_points(50, 21, 10.0);
        let facs = pseudo_points(6, 22, 10.0);
        let mut dy =
            DynamicArrangement::build(clients, facs, Metric::L2, Mode::Bichromatic).unwrap();
        let (_, out) = dy.insert_facility(Point::new(5.0, 5.0)).unwrap();
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
        let mut dy =
            DynamicArrangement::build(clients, facs, Metric::Linf, Mode::Bichromatic).unwrap();
        let g0 = dy.generation();
        let fp0 = dy.fingerprint();
        // A facility far from everything changes no NN distance.
        let (far, out) = dy.insert_facility(Point::new(100.0, 100.0)).unwrap();
        assert!(out.dirty.is_empty());
        assert!(out.changes.is_empty());
        assert_eq!(dy.generation(), g0);
        assert_eq!(dy.fingerprint(), fp0, "no geometry change, no key change");
        // Moving it around far away is equally invisible.
        let out = dy.move_facility(far, Point::new(200.0, 200.0)).unwrap();
        assert!(out.dirty.is_empty());
        // Removing it: its (zero) clients re-resolve — still nothing.
        let out = dy.remove_facility(far).unwrap();
        assert!(out.dirty.is_empty());
        assert_eq!(dy.fingerprint(), fp0);
        // A real edit bumps the fingerprint.
        dy.insert_facility(Point::new(0.5, 0.0)).unwrap();
        assert_ne!(dy.fingerprint(), fp0);
        assert_eq!(dy.generation(), g0 + 1);
    }

    #[test]
    fn edit_errors() {
        let clients = vec![Point::new(0.0, 0.0), Point::new(5.0, 5.0)];
        let facs = vec![Point::new(1.0, 1.0)];
        let mut dy = DynamicArrangement::build(
            clients.clone(),
            facs.clone(),
            Metric::Linf,
            Mode::Bichromatic,
        )
        .unwrap();
        assert_eq!(dy.remove_facility(0).unwrap_err(), EditError::TooFewFacilities);
        assert_eq!(dy.remove_facility(7).unwrap_err(), EditError::UnknownFacility);
        assert_eq!(
            dy.move_facility(9, Point::new(0.0, 0.0)).unwrap_err(),
            EditError::UnknownFacility
        );
        let (id, _) = dy.insert_facility(Point::new(4.0, 4.0)).unwrap();
        dy.remove_facility(id).unwrap();
        assert_eq!(dy.remove_facility(id).unwrap_err(), EditError::UnknownFacility);

        let mut mono =
            DynamicArrangement::build(clients, vec![], Metric::Linf, Mode::Monochromatic).unwrap();
        assert_eq!(
            mono.insert_facility(Point::new(1.0, 1.0)).unwrap_err(),
            EditError::ImmutableMode
        );
        assert_eq!(mono.remove_facility(0).unwrap_err(), EditError::ImmutableMode);
        assert_eq!(
            mono.move_facility(0, Point::new(1.0, 1.0)).unwrap_err(),
            EditError::ImmutableMode
        );
    }

    #[test]
    fn edit_scripts_match_rebuild_at_higher_k() {
        let clients = pseudo_points(50, 13, 10.0);
        let facs = pseudo_points(6, 29, 10.0);
        for k in [2usize, 3, 5] {
            for metric in Metric::ALL {
                let mut dy = DynamicArrangement::build_k(
                    clients.clone(),
                    facs.clone(),
                    metric,
                    Mode::Bichromatic,
                    k,
                )
                .unwrap();
                assert_eq!(dy.k(), k);
                assert_matches_rebuild(&dy);
                let (id_a, _) = dy.insert_facility(Point::new(5.0, 5.0)).unwrap();
                assert_matches_rebuild(&dy);
                dy.move_facility(id_a, Point::new(1.0, 9.0)).unwrap();
                assert_matches_rebuild(&dy);
                dy.remove_facility(1).unwrap();
                assert_matches_rebuild(&dy);
                dy.move_facility(0, Point::new(9.5, 0.5)).unwrap();
                assert_matches_rebuild(&dy);
                dy.remove_facility(id_a).unwrap();
                assert_matches_rebuild(&dy);
            }
        }
    }

    #[test]
    fn removal_guards_on_k_not_one() {
        let clients = pseudo_points(12, 3, 4.0);
        let facs = pseudo_points(3, 5, 4.0);
        let mut dy =
            DynamicArrangement::build_k(clients, facs, Metric::L2, Mode::Bichromatic, 3).unwrap();
        // 3 facilities at k = 3: any removal would orphan the 3rd NN.
        assert_eq!(dy.remove_facility(0).unwrap_err(), EditError::TooFewFacilities);
        let (id, _) = dy.insert_facility(Point::new(2.0, 2.0)).unwrap();
        // 4 alive: one removal fine, a second blocked again.
        dy.remove_facility(id).unwrap();
        assert_matches_rebuild(&dy);
        assert_eq!(dy.remove_facility(0).unwrap_err(), EditError::TooFewFacilities);
    }

    #[test]
    fn non_finite_edit_targets_are_rejected() {
        let clients = pseudo_points(8, 7, 4.0);
        let facs = pseudo_points(2, 9, 4.0);
        let mut dy =
            DynamicArrangement::build(clients, facs, Metric::Linf, Mode::Bichromatic).unwrap();
        let bad = Point { x: f64::NAN, y: 0.0 };
        assert_eq!(dy.insert_facility(bad).unwrap_err(), EditError::NonFinitePoint);
        assert_eq!(dy.move_facility(0, bad).unwrap_err(), EditError::NonFinitePoint);
        let inf = Point { x: 0.0, y: f64::INFINITY };
        assert_eq!(dy.insert_facility(inf).unwrap_err(), EditError::NonFinitePoint);
        // The rejected edits left nothing behind.
        assert_eq!(dy.n_facilities(), 2);
        assert_eq!(dy.generation(), 0);
        assert_matches_rebuild(&dy);
    }

    #[test]
    fn facility_ids_stay_stable_across_edits() {
        let clients = pseudo_points(10, 5, 4.0);
        let facs = vec![Point::new(1.0, 1.0), Point::new(3.0, 3.0)];
        let mut dy =
            DynamicArrangement::build(clients, facs, Metric::L1, Mode::Bichromatic).unwrap();
        let (id2, _) = dy.insert_facility(Point::new(2.0, 2.0)).unwrap();
        assert_eq!(id2, 2);
        dy.remove_facility(0).unwrap();
        assert_eq!(dy.n_facilities(), 2);
        let ids: Vec<u32> = dy.facilities().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![1, 2], "dead slots keep later ids stable");
        assert_eq!(dy.facility(0), None);
        assert_eq!(dy.facility(1), Some(Point::new(3.0, 3.0)));
        dy.move_facility(id2, Point::new(0.5, 0.5)).unwrap();
        assert_eq!(dy.facility(id2), Some(Point::new(0.5, 0.5)));
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
