//! NN-circle construction and arrangements (paper §III).
//!
//! For every client `o ∈ O`, the NN-circle `C(o)` is centered at `o` with
//! radius equal to the distance from `o` to its nearest facility. Under L∞
//! NN-circles are squares, under L1 diamonds (squares after the π/4
//! rotation of §VII-B), under L2 Euclidean disks.
//!
//! The construction generalizes to RkNN influence for any `k ≥ 1`: a
//! client is influenced by a new facility iff that facility would be
//! among its `k` nearest, which holds exactly when the facility lies
//! inside the client's *k-NN circle* — same center, radius = distance
//! to the `k`-th nearest facility. Everything downstream of circle
//! construction (sweeps, rasterization, tiles, edits) is
//! circle-generic, so the `k`-generic builders
//! ([`build_square_arrangement_k`] / [`build_disk_arrangement_k`])
//! produce arrangements the whole stack consumes unchanged.
//!
//! Every build takes one path: one k-NN pass ([`knn_assignments`],
//! client bands in parallel against one kd-tree), then one circle per
//! client through one constructor. The static builders and
//! [`crate::snapshot::ArrangementSnapshot::build_k`] share both steps,
//! and the snapshot's edits share the constructor.

use std::thread;

use rnnhm_geom::transform::{l1_radius_to_linf, rotate45, unrotate45};
use rnnhm_geom::{Circle, Metric, Point, Rect};
use rnnhm_index::KdTree;

use crate::edit::Shape;
use crate::parallel::{chunk_ranges, effective_parallelism};
use crate::snapshot::RestrictedArrangement;
use crate::BuildError;

/// Bichromatic (`O` and `F` distinct) or monochromatic (`O = F`) RNNs
/// (paper §III-A, §VII-A).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Clients and facilities are different point sets.
    Bichromatic,
    /// One point set; each point's NN excludes itself.
    Monochromatic,
}

/// The coordinate system an arrangement lives in.
///
/// L1 instances are solved in a rotated frame where L1 balls are axis-
/// aligned squares; [`CoordSpace::to_sweep`] / [`CoordSpace::to_original`]
/// convert between frames.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CoordSpace {
    /// Sweep coordinates coincide with input coordinates (L∞, L2).
    Identity,
    /// Sweep coordinates are the input rotated by π/4 (L1).
    Rotated45,
}

impl CoordSpace {
    /// Maps an input-space point into sweep space.
    #[inline]
    pub fn to_sweep(&self, p: Point) -> Point {
        match self {
            CoordSpace::Identity => p,
            CoordSpace::Rotated45 => rotate45(p),
        }
    }

    /// Maps a sweep-space point back to input space.
    #[inline]
    pub fn to_original(&self, p: Point) -> Point {
        match self {
            CoordSpace::Identity => p,
            CoordSpace::Rotated45 => unrotate45(p),
        }
    }

    /// The sweep-space bounding box of an input-space rectangle. The
    /// identity frame returns `r` itself, bit for bit.
    pub fn rect_to_sweep(&self, r: Rect) -> Rect {
        self.map_corners(r, rotate45)
    }

    /// The input-space bounding box of a sweep-space rectangle. The
    /// identity frame returns `r` itself, bit for bit.
    pub fn rect_to_original(&self, r: Rect) -> Rect {
        self.map_corners(r, unrotate45)
    }

    fn map_corners(&self, r: Rect, map: fn(Point) -> Point) -> Rect {
        match self {
            CoordSpace::Identity => r,
            CoordSpace::Rotated45 => {
                let corners = [
                    map(Point::new(r.x_lo, r.y_lo)),
                    map(Point::new(r.x_lo, r.y_hi)),
                    map(Point::new(r.x_hi, r.y_lo)),
                    map(Point::new(r.x_hi, r.y_hi)),
                ];
                Rect::bounding(&corners).expect("four corners")
            }
        }
    }
}

/// An arrangement of square NN-circles (L∞ directly, L1 after rotation).
#[derive(Debug, Clone)]
pub struct SquareArrangement {
    /// NN-circles as axis-aligned squares, in sweep space.
    pub squares: Vec<Rect>,
    /// `owners[i]` is the client id whose NN-circle `squares[i]` is.
    pub owners: Vec<u32>,
    /// Coordinate frame of `squares`.
    pub space: CoordSpace,
    /// Total number of clients in the instance (the id universe).
    pub n_clients: usize,
    /// Clients dropped because their NN distance is zero (they coincide
    /// with a facility; their NN-circle has empty interior).
    pub dropped: usize,
    /// The `k` of the RkNN instance: every circle's radius is its
    /// owner's distance to its `k`-th nearest facility (1 = plain RNN).
    pub k: usize,
}

/// FNV-1a over a stream of `u64` words — the workspace-wide stable
/// hash used for cache keys (no `std::hash` involvement, so the value
/// is identical across runs, platforms and std versions). Used by the
/// arrangement fingerprints, the measure cache keys, and the tile
/// scheme fingerprint in `rnnhm_heatmap::tiles`.
pub fn fnv1a_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

impl SquareArrangement {
    /// A stable fingerprint of the arrangement's full geometry —
    /// squares (bitwise), owners, coordinate space and client universe.
    ///
    /// Two arrangements share a fingerprint iff they would label every
    /// point of the plane identically, so the fingerprint is a sound
    /// cache key for derived artifacts (rendered heat-map tiles, in
    /// `rnnhm_heatmap::tiles`). The hash is FNV-1a over the coordinate
    /// bits: deterministic across runs and platforms.
    pub fn fingerprint(&self) -> u64 {
        let header = [
            0x5153, // "SQ" discriminant: square vs disk arrangements
            self.space as u64,
            self.n_clients as u64,
            self.squares.len() as u64,
            self.k as u64,
        ];
        fnv1a_words(
            header
                .into_iter()
                .chain(self.squares.iter().flat_map(|s| {
                    [s.x_lo.to_bits(), s.x_hi.to_bits(), s.y_lo.to_bits(), s.y_hi.to_bits()]
                }))
                .chain(self.owners.iter().map(|&o| o as u64)),
        )
    }

    /// Bounding box of all squares (sweep space); `None` when empty.
    pub fn bbox(&self) -> Option<Rect> {
        let mut it = self.squares.iter();
        let first = *it.next()?;
        Some(it.fold(first, |acc, r| acc.union(r)))
    }

    /// The sub-arrangement of NN-circles that can influence any point
    /// of `extent` (given in *input-space* coordinates; for rotated L1
    /// arrangements the filter runs against the sweep-space bounding
    /// box of the rotated extent). Owner ids, coordinate space and the
    /// client universe are preserved, so any influence query or raster
    /// restricted to `extent` is *exact* on the sub-arrangement: both
    /// rasterization paths only count a shape at a point its closed
    /// bounding square contains, and such a point inside `extent`
    /// implies the square intersects `extent`.
    ///
    /// This is what makes tile rendering `O(n)` *filter* + output-local
    /// work instead of `O(n)` *setup* per tile
    /// (`rnnhm_heatmap::tiles`).
    pub fn restrict_to(&self, extent: Rect) -> SquareArrangement {
        let window = self.space.rect_to_sweep(extent);
        let mut squares = Vec::new();
        let mut owners = Vec::new();
        for (s, &o) in self.squares.iter().zip(&self.owners) {
            if s.intersects(&window) {
                squares.push(*s);
                owners.push(o);
            }
        }
        SquareArrangement {
            squares,
            owners,
            space: self.space,
            n_clients: self.n_clients,
            dropped: self.dropped,
            k: self.k,
        }
    }

    /// Number of NN-circles.
    pub fn len(&self) -> usize {
        self.squares.len()
    }

    /// Whether the arrangement has no NN-circles.
    pub fn is_empty(&self) -> bool {
        self.squares.is_empty()
    }
}

/// An arrangement of disk NN-circles (L2, §VII-C).
#[derive(Debug, Clone)]
pub struct DiskArrangement {
    /// NN-circles as Euclidean disks (input space; L2 needs no rotation).
    pub disks: Vec<Circle>,
    /// `owners[i]` is the client id whose NN-circle `disks[i]` is.
    pub owners: Vec<u32>,
    /// Total number of clients in the instance (the id universe).
    pub n_clients: usize,
    /// Clients dropped for zero NN distance.
    pub dropped: usize,
    /// The `k` of the RkNN instance: every disk's radius is its owner's
    /// distance to its `k`-th nearest facility (1 = plain RNN).
    pub k: usize,
}

impl DiskArrangement {
    /// A stable fingerprint of the arrangement's full geometry; see
    /// [`SquareArrangement::fingerprint`] for the contract.
    pub fn fingerprint(&self) -> u64 {
        let header = [
            0x4b53, // "DK" discriminant
            self.n_clients as u64,
            self.disks.len() as u64,
            self.k as u64,
        ];
        fnv1a_words(
            header
                .into_iter()
                .chain(
                    self.disks
                        .iter()
                        .flat_map(|d| [d.c.x.to_bits(), d.c.y.to_bits(), d.r.to_bits()]),
                )
                .chain(self.owners.iter().map(|&o| o as u64)),
        )
    }

    /// Bounding box of all disks; `None` when empty.
    pub fn bbox(&self) -> Option<Rect> {
        let mut it = self.disks.iter();
        let first = it.next()?.bbox();
        Some(it.fold(first, |acc, c| acc.union(&c.bbox())))
    }

    /// The sub-arrangement of NN-circles that can influence any point
    /// of `extent`; see [`SquareArrangement::restrict_to`] for the
    /// exactness contract (both rasterization paths gate coverage on
    /// the disk's closed bounding box containing the query point).
    pub fn restrict_to(&self, extent: Rect) -> DiskArrangement {
        let mut disks = Vec::new();
        let mut owners = Vec::new();
        for (d, &o) in self.disks.iter().zip(&self.owners) {
            if d.bbox().intersects(&extent) {
                disks.push(*d);
                owners.push(o);
            }
        }
        DiskArrangement {
            disks,
            owners,
            n_clients: self.n_clients,
            dropped: self.dropped,
            k: self.k,
        }
    }

    /// Number of NN-circles.
    pub fn len(&self) -> usize {
        self.disks.len()
    }

    /// Whether the arrangement has no NN-circles.
    pub fn is_empty(&self) -> bool {
        self.disks.is_empty()
    }
}

/// Checks an instance for emptiness, non-finite coordinates (a release
/// build would otherwise let a NaN silently poison kd-tree ordering and
/// scanline span math — `Point::new` only debug-asserts) and a
/// satisfiable `k`.
fn validate_instance(
    clients: &[Point],
    facilities: &[Point],
    mode: Mode,
    k: usize,
) -> Result<(), BuildError> {
    if clients.is_empty() {
        return Err(BuildError::NoClients);
    }
    if k == 0 {
        return Err(BuildError::ZeroK);
    }
    if let Some(i) = clients.iter().position(|p| !p.x.is_finite() || !p.y.is_finite()) {
        return Err(BuildError::NonFiniteClient(i));
    }
    match mode {
        Mode::Bichromatic => {
            if facilities.is_empty() {
                return Err(BuildError::NoFacilities);
            }
            if let Some(i) = facilities.iter().position(|p| !p.x.is_finite() || !p.y.is_finite()) {
                return Err(BuildError::NonFiniteFacility(i));
            }
            if k > facilities.len() {
                return Err(BuildError::KTooLarge { k, available: facilities.len() });
            }
        }
        Mode::Monochromatic => {
            if clients.len() < 2 {
                return Err(BuildError::TooFewPoints);
            }
            if k > clients.len() - 1 {
                return Err(BuildError::KTooLarge { k, available: clients.len() - 1 });
            }
        }
    }
    Ok(())
}

/// Computes each client's `k` nearest neighbors: the flat, client-major
/// table of `k` `(id, distance)` pairs per client, each client's pairs
/// sorted by increasing distance. This is the one k-NN pass behind
/// every arrangement build.
///
/// Client `i`'s pairs are `table[i * k..(i + 1) * k]`; the last pair's
/// distance is its `k`-th NN distance, the k-NN circle radius. In
/// bichromatic mode ids index `facilities`; in monochromatic mode each
/// client's neighbors are its nearest *other* clients and ids index
/// `clients`. Errors on empty sets, non-finite coordinates, `k = 0`,
/// and `k` larger than the available neighbor candidates.
///
/// Clients are resolved in contiguous bands, one per core, against one
/// shared kd-tree; with fewer than 2 clients per core the pass runs
/// inline. The table is the same bit for bit at any band count.
pub fn knn_assignments(
    clients: &[Point],
    facilities: &[Point],
    metric: Metric,
    mode: Mode,
    k: usize,
) -> Result<Vec<(u32, f64)>, BuildError> {
    let cores = effective_parallelism();
    let bands = if clients.len() < 2 * cores { 1 } else { cores };
    knn_table(clients, facilities, metric, mode, k, bands)
}

/// [`knn_assignments`] over `bands` contiguous client bands, one thread
/// each (inline for one band). Only the scheduling depends on `bands`:
/// every per-client query is independent and reads the same kd-tree.
fn knn_table(
    clients: &[Point],
    facilities: &[Point],
    metric: Metric,
    mode: Mode,
    k: usize,
    bands: usize,
) -> Result<Vec<(u32, f64)>, BuildError> {
    validate_instance(clients, facilities, mode, k)?;
    let tree = KdTree::build(match mode {
        Mode::Bichromatic => facilities,
        Mode::Monochromatic => clients,
    });
    // Fills the rows of the clients from `first` on. The 1-NN query is
    // measurably cheaper than `k_nearest(.., 1)`, which it equals
    // bitwise (the k-NN query breaks ties like `nearest`).
    let resolve = |first: usize, rows: &mut [(u32, f64)]| {
        for (j, row) in rows.chunks_exact_mut(k).enumerate() {
            let i = first + j;
            let o = &clients[i];
            match (mode, k) {
                (Mode::Bichromatic, 1) => {
                    row[0] = tree.nearest(o, metric).expect("non-empty facility tree")
                }
                (Mode::Bichromatic, _) => row.copy_from_slice(&tree.k_nearest(o, metric, k)),
                (Mode::Monochromatic, 1) => {
                    row[0] =
                        tree.nearest_excluding(o, metric, i as u32).expect("at least two points")
                }
                (Mode::Monochromatic, _) => {
                    row.copy_from_slice(&tree.k_nearest_excluding(o, metric, k, i as u32))
                }
            }
        }
    };
    let mut table = vec![(0u32, 0.0f64); clients.len() * k];
    if bands <= 1 {
        resolve(0, &mut table);
        return Ok(table);
    }
    thread::scope(|scope| {
        let mut rest = table.as_mut_slice();
        for band in chunk_ranges(clients.len(), bands) {
            let (rows, tail) = rest.split_at_mut(band.len() * k);
            rest = tail;
            let resolve = &resolve;
            scope.spawn(move || resolve(band.start, rows));
        }
    });
    Ok(table)
}

/// The NN-circle of a client at `o` whose `k`-th NN distance is `r`, in
/// sweep space: a square under L∞, the π/4-rotated square of the L1
/// diamond (§VII-B), a disk under L2. `None` for a zero radius: a
/// client on a facility has an empty-interior circle, which bounds no
/// region and changes no RNN set of any region interior, so it is
/// dropped. Every build and every edit makes its circles here.
pub(crate) fn nn_circle(metric: Metric, o: Point, r: f64) -> Option<Shape> {
    if r <= 0.0 {
        return None;
    }
    Some(match metric {
        Metric::Linf => Shape::Square(Rect::centered(o, r)),
        Metric::L1 => Shape::Square(Rect::centered(rotate45(o), l1_radius_to_linf(r))),
        Metric::L2 => Shape::Disk(Circle::new(o, r)),
    })
}

/// The contiguous arrangement of a [`knn_assignments`] table: one
/// [`nn_circle`] per client with a positive radius, in client order.
pub(crate) fn circle_arrangement(
    clients: &[Point],
    metric: Metric,
    k: usize,
    table: &[(u32, f64)],
) -> RestrictedArrangement {
    let n_clients = clients.len();
    let (mut squares, mut disks) = match metric {
        Metric::L2 => (Vec::new(), Vec::with_capacity(n_clients)),
        _ => (Vec::with_capacity(n_clients), Vec::new()),
    };
    let mut owners = Vec::with_capacity(n_clients);
    for (i, (&o, nn)) in clients.iter().zip(table.chunks_exact(k)).enumerate() {
        match nn_circle(metric, o, nn[k - 1].1) {
            Some(Shape::Square(s)) => squares.push(s),
            Some(Shape::Disk(d)) => disks.push(d),
            None => continue,
        }
        owners.push(i as u32);
    }
    let dropped = n_clients - owners.len();
    match metric {
        Metric::L2 => {
            RestrictedArrangement::Disk(DiskArrangement { disks, owners, n_clients, dropped, k })
        }
        Metric::L1 | Metric::Linf => RestrictedArrangement::Square(SquareArrangement {
            squares,
            owners,
            space: if metric == Metric::L1 { CoordSpace::Rotated45 } else { CoordSpace::Identity },
            n_clients,
            dropped,
            k,
        }),
    }
}

/// Builds the square arrangement for L∞ or L1 instances.
///
/// L1 instances are rotated by π/4 into a frame where their diamond
/// NN-circles become axis-aligned squares (§VII-B); the returned
/// [`CoordSpace`] records the frame.
///
/// Zero-radius NN-circles (client coincides with a facility) are dropped:
/// their interior is empty, so they bound no region and change no RNN set
/// of any region interior.
pub fn build_square_arrangement(
    clients: &[Point],
    facilities: &[Point],
    metric: Metric,
    mode: Mode,
) -> Result<SquareArrangement, BuildError> {
    build_square_arrangement_k(clients, facilities, metric, mode, 1)
}

/// Builds the square arrangement of *k-NN circles* for L∞ or L1
/// instances: each client's radius is its distance to its `k`-th
/// nearest facility, so a point is inside the circle iff placing a
/// facility there would make it one of the client's `k` nearest
/// (RkNN influence). `k = 1` reproduces [`build_square_arrangement`]
/// bitwise.
pub fn build_square_arrangement_k(
    clients: &[Point],
    facilities: &[Point],
    metric: Metric,
    mode: Mode,
    k: usize,
) -> Result<SquareArrangement, BuildError> {
    assert!(metric != Metric::L2, "L2 instances use build_disk_arrangement / crest_l2_sweep");
    let table = knn_assignments(clients, facilities, metric, mode, k)?;
    let RestrictedArrangement::Square(arr) = circle_arrangement(clients, metric, k, &table) else {
        unreachable!("L∞ and L1 circles are squares")
    };
    Ok(arr)
}

/// Builds the disk arrangement for L2 instances (§VII-C).
pub fn build_disk_arrangement(
    clients: &[Point],
    facilities: &[Point],
    mode: Mode,
) -> Result<DiskArrangement, BuildError> {
    build_disk_arrangement_k(clients, facilities, mode, 1)
}

/// Builds the disk arrangement of *k-NN circles* for L2 instances; see
/// [`build_square_arrangement_k`] for the RkNN radius contract.
pub fn build_disk_arrangement_k(
    clients: &[Point],
    facilities: &[Point],
    mode: Mode,
    k: usize,
) -> Result<DiskArrangement, BuildError> {
    let table = knn_assignments(clients, facilities, Metric::L2, mode, k)?;
    let RestrictedArrangement::Disk(arr) = circle_arrangement(clients, Metric::L2, k, &table)
    else {
        unreachable!("L2 circles are disks")
    };
    Ok(arr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_example_linf() {
        // Paper Fig. 4: two clients, one facility; both NN-circles are
        // squares centered at the clients with radius = L∞ distance to f1.
        let clients = vec![Point::new(0.0, 0.0), Point::new(3.0, 1.0)];
        let facilities = vec![Point::new(1.0, 1.0)];
        let arr = build_square_arrangement(&clients, &facilities, Metric::Linf, Mode::Bichromatic)
            .unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr.squares[0], Rect::centered(clients[0], 1.0));
        assert_eq!(arr.squares[1], Rect::centered(clients[1], 2.0));
        assert_eq!(arr.owners, vec![0, 1]);
        assert_eq!(arr.space, CoordSpace::Identity);
    }

    #[test]
    fn l1_arrangement_is_rotated() {
        let clients = vec![Point::new(0.0, 0.0)];
        let facilities = vec![Point::new(2.0, 0.0)]; // L1 distance 2
        let arr =
            build_square_arrangement(&clients, &facilities, Metric::L1, Mode::Bichromatic).unwrap();
        assert_eq!(arr.space, CoordSpace::Rotated45);
        // Radius 2 diamond → square with half side 2/√2 = √2.
        let half = arr.squares[0].width() / 2.0;
        assert!((half - 2f64 / 2f64.sqrt()).abs() < 1e-12);
        // The rotated facility must sit on the square's boundary.
        let f_rot = CoordSpace::Rotated45.to_sweep(facilities[0]);
        let s = arr.squares[0];
        let on_boundary = (f_rot.x - s.x_lo).abs() < 1e-9
            || (f_rot.x - s.x_hi).abs() < 1e-9
            || (f_rot.y - s.y_lo).abs() < 1e-9
            || (f_rot.y - s.y_hi).abs() < 1e-9;
        assert!(on_boundary, "facility should be on the NN-circle boundary");
    }

    #[test]
    fn disk_arrangement_radii() {
        let clients = vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)];
        let facilities = vec![Point::new(3.0, 4.0)];
        let arr = build_disk_arrangement(&clients, &facilities, Mode::Bichromatic).unwrap();
        assert!((arr.disks[0].r - 5.0).abs() < 1e-12);
        assert!((arr.disks[1].r - (49.0f64 + 16.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn zero_radius_clients_dropped() {
        let clients = vec![Point::new(1.0, 1.0), Point::new(5.0, 5.0)];
        let facilities = vec![Point::new(1.0, 1.0)]; // first client coincides
        let arr = build_square_arrangement(&clients, &facilities, Metric::Linf, Mode::Bichromatic)
            .unwrap();
        assert_eq!(arr.len(), 1);
        assert_eq!(arr.dropped, 1);
        assert_eq!(arr.owners, vec![1]);
        assert_eq!(arr.n_clients, 2);
    }

    #[test]
    fn monochromatic_uses_nearest_other_point() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(5.0, 0.0)];
        let arr = build_square_arrangement(&pts, &[], Metric::Linf, Mode::Monochromatic).unwrap();
        assert_eq!(arr.len(), 3);
        // Radii: 1 (to p1), 1 (to p0), 4 (to p1).
        let halves: Vec<f64> = arr.squares.iter().map(|s| s.width() / 2.0).collect();
        assert_eq!(halves, vec![1.0, 1.0, 4.0]);
    }

    #[test]
    fn error_cases() {
        let pts = vec![Point::new(0.0, 0.0)];
        assert_eq!(
            build_square_arrangement(&pts, &[], Metric::Linf, Mode::Bichromatic).unwrap_err(),
            BuildError::NoFacilities
        );
        assert_eq!(
            build_square_arrangement(&[], &pts, Metric::Linf, Mode::Bichromatic).unwrap_err(),
            BuildError::NoClients
        );
        assert_eq!(
            build_square_arrangement(&pts, &[], Metric::Linf, Mode::Monochromatic).unwrap_err(),
            BuildError::TooFewPoints
        );
        assert_eq!(
            build_disk_arrangement(&[], &pts, Mode::Bichromatic).unwrap_err(),
            BuildError::NoClients
        );
    }

    #[test]
    fn restrict_keeps_exactly_the_overlapping_shapes() {
        let clients = vec![Point::new(1.0, 1.0), Point::new(8.0, 8.0), Point::new(4.0, 4.0)];
        let facilities = vec![Point::new(0.0, 1.0)];
        let arr = build_square_arrangement(&clients, &facilities, Metric::Linf, Mode::Bichromatic)
            .unwrap();
        let sub = arr.restrict_to(Rect::new(0.0, 2.5, 0.0, 2.5));
        // Client 0 (radius 1 around (1,1)) overlaps; client 1 (radius 8
        // around (8,8) reaches down to 0) overlaps too; client 2 at
        // (4,4) radius 5 reaches to -1 and overlaps as well — shrink
        // the window until only client 0 remains.
        assert!(!sub.is_empty() && sub.owners.contains(&0));
        assert_eq!(sub.n_clients, arr.n_clients, "client universe preserved");
        assert_eq!(sub.space, arr.space);
        let tiny = arr.restrict_to(Rect::new(1.9, 2.0, 0.0, 0.1));
        for (s, &o) in tiny.squares.iter().zip(&tiny.owners) {
            assert!(s.intersects(&Rect::new(1.9, 2.0, 0.0, 0.1)), "owner {o} kept wrongly");
        }
        // Disk variant.
        let disks = build_disk_arrangement(&clients, &facilities, Mode::Bichromatic).unwrap();
        let dsub = disks.restrict_to(Rect::new(0.0, 2.0, 0.0, 2.0));
        assert!(dsub.owners.contains(&0));
        assert_eq!(dsub.n_clients, disks.n_clients);
        // L1 (rotated frame): the input-space window is mapped through
        // the rotation before filtering; the result must keep every
        // shape whose sweep square meets the rotated window.
        let l1 =
            build_square_arrangement(&clients, &facilities, Metric::L1, Mode::Bichromatic).unwrap();
        let l1_sub = l1.restrict_to(Rect::new(0.0, 2.0, 0.0, 2.0));
        assert!(l1_sub.owners.contains(&0));
        assert_eq!(l1_sub.space, CoordSpace::Rotated45);
    }

    #[test]
    fn fingerprints_are_stable_and_discriminating() {
        let clients = vec![Point::new(0.0, 0.0), Point::new(3.0, 1.0)];
        let facilities = vec![Point::new(1.0, 1.0)];
        let a = build_square_arrangement(&clients, &facilities, Metric::Linf, Mode::Bichromatic)
            .unwrap();
        let b = build_square_arrangement(&clients, &facilities, Metric::Linf, Mode::Bichromatic)
            .unwrap();
        // Same instance → same key, across independent builds.
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Any geometric change flips the key.
        let moved = vec![Point::new(0.0, 0.0), Point::new(3.0, 1.0 + 1e-12)];
        let c =
            build_square_arrangement(&moved, &facilities, Metric::Linf, Mode::Bichromatic).unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
        // Square and disk arrangements never collide on the same points.
        let d = build_disk_arrangement(&clients, &facilities, Mode::Bichromatic).unwrap();
        assert_ne!(a.fingerprint(), d.fingerprint());
        assert_eq!(d.fingerprint(), d.clone().fingerprint());
    }

    #[test]
    fn k_builders_match_brute_force_radii() {
        let mut state = 0xabcdu64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64) * 8.0
        };
        let clients: Vec<Point> = (0..40).map(|_| Point::new(next(), next())).collect();
        let facilities: Vec<Point> = (0..9).map(|_| Point::new(next(), next())).collect();
        for k in [1usize, 2, 4, 9] {
            for metric in [Metric::Linf, Metric::L1] {
                let arr =
                    build_square_arrangement_k(&clients, &facilities, metric, Mode::Bichromatic, k)
                        .unwrap();
                assert_eq!(arr.k, k);
                for (s, &o) in arr.squares.iter().zip(&arr.owners) {
                    let mut ds: Vec<f64> =
                        facilities.iter().map(|f| metric.dist(&clients[o as usize], f)).collect();
                    ds.sort_by(f64::total_cmp);
                    let half = match metric {
                        Metric::L1 => ds[k - 1] / 2f64.sqrt(),
                        _ => ds[k - 1],
                    };
                    assert!(
                        ((s.x_hi - s.x_lo) / 2.0 - half).abs() < 1e-12,
                        "{metric:?} k={k} owner {o}"
                    );
                }
            }
            let arr =
                build_disk_arrangement_k(&clients, &facilities, Mode::Bichromatic, k).unwrap();
            assert_eq!(arr.k, k);
            for (d, &o) in arr.disks.iter().zip(&arr.owners) {
                let mut ds: Vec<f64> =
                    facilities.iter().map(|f| clients[o as usize].dist2(f)).collect();
                ds.sort_by(f64::total_cmp);
                assert_eq!(d.r.to_bits(), ds[k - 1].to_bits(), "L2 k={k} owner {o}");
            }
        }
        // k = 1 through the k-generic path is bitwise the classic build.
        let a = build_square_arrangement(&clients, &facilities, Metric::Linf, Mode::Bichromatic)
            .unwrap();
        let b =
            build_square_arrangement_k(&clients, &facilities, Metric::Linf, Mode::Bichromatic, 1)
                .unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn k_is_validated() {
        let clients = vec![Point::new(0.0, 0.0), Point::new(1.0, 2.0), Point::new(3.0, 1.0)];
        let facs = vec![Point::new(1.0, 1.0), Point::new(2.0, 2.0)];
        assert_eq!(
            build_square_arrangement_k(&clients, &facs, Metric::Linf, Mode::Bichromatic, 0)
                .unwrap_err(),
            BuildError::ZeroK
        );
        assert_eq!(
            build_square_arrangement_k(&clients, &facs, Metric::Linf, Mode::Bichromatic, 3)
                .unwrap_err(),
            BuildError::KTooLarge { k: 3, available: 2 }
        );
        assert_eq!(
            build_disk_arrangement_k(&clients, &[], Mode::Monochromatic, 3).unwrap_err(),
            BuildError::KTooLarge { k: 3, available: 2 }
        );
        // k = available is fine in both modes.
        assert!(
            build_square_arrangement_k(&clients, &facs, Metric::L1, Mode::Bichromatic, 2).is_ok()
        );
        assert!(build_disk_arrangement_k(&clients, &[], Mode::Monochromatic, 2).is_ok());
    }

    #[test]
    fn non_finite_points_are_rejected() {
        let nan = f64::NAN;
        let inf = f64::INFINITY;
        // Bypass Point::new's debug assert the way a release-mode caller
        // effectively does.
        let bad_client = Point { x: nan, y: 0.0 };
        let bad_fac = Point { x: 1.0, y: inf };
        let good = Point::new(1.0, 1.0);
        assert_eq!(
            build_square_arrangement(&[good, bad_client], &[good], Metric::Linf, Mode::Bichromatic)
                .unwrap_err(),
            BuildError::NonFiniteClient(1)
        );
        assert_eq!(
            build_disk_arrangement(&[good], &[bad_fac], Mode::Bichromatic).unwrap_err(),
            BuildError::NonFiniteFacility(0)
        );
        assert_eq!(
            knn_assignments(&[bad_client, good], &[], Metric::L2, Mode::Monochromatic, 1)
                .unwrap_err(),
            BuildError::NonFiniteClient(0)
        );
        assert_eq!(
            knn_assignments(&[good, good], &[good, bad_fac], Metric::L1, Mode::Bichromatic, 2)
                .unwrap_err(),
            BuildError::NonFiniteFacility(1)
        );
    }

    #[test]
    fn knn_table_is_the_same_at_every_band_count() {
        let mut state = 0x9e37u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64) * 8.0
        };
        let mut clients: Vec<Point> = (0..203).map(|_| Point::new(next(), next())).collect();
        let facilities: Vec<Point> = (0..11).map(|_| Point::new(next(), next())).collect();
        // Coincident points give zero distances and ties.
        clients.extend([facilities[2], facilities[2], clients[5]]);
        for mode in [Mode::Bichromatic, Mode::Monochromatic] {
            for metric in Metric::ALL {
                for k in [1usize, 3] {
                    let one = knn_table(&clients, &facilities, metric, mode, k, 1).unwrap();
                    assert_eq!(one.len(), clients.len() * k);
                    for bands in [2usize, 8] {
                        let banded =
                            knn_table(&clients, &facilities, metric, mode, k, bands).unwrap();
                        let bits = |t: &[(u32, f64)]| -> Vec<(u32, u64)> {
                            t.iter().map(|&(id, d)| (id, d.to_bits())).collect()
                        };
                        assert_eq!(bits(&banded), bits(&one), "{mode:?} {metric:?} k={k} {bands}");
                    }
                }
            }
        }
    }

    #[test]
    fn fingerprint_discriminates_k_on_identical_geometry() {
        // Two coincident facilities: the 1-NN and 2-NN circles are
        // geometrically identical, but the fingerprints must differ so
        // tile caches never serve a k=1 render for a k=2 map.
        let clients = vec![Point::new(0.0, 0.0), Point::new(3.0, 1.0)];
        let facs = vec![Point::new(1.0, 1.0), Point::new(1.0, 1.0)];
        let a = build_square_arrangement_k(&clients, &facs, Metric::Linf, Mode::Bichromatic, 1)
            .unwrap();
        let b = build_square_arrangement_k(&clients, &facs, Metric::Linf, Mode::Bichromatic, 2)
            .unwrap();
        assert_eq!(a.squares, b.squares, "coincident facilities: same geometry");
        assert_ne!(a.fingerprint(), b.fingerprint(), "k must be part of the cache key");
        let da = build_disk_arrangement_k(&clients, &facs, Mode::Bichromatic, 1).unwrap();
        let db = build_disk_arrangement_k(&clients, &facs, Mode::Bichromatic, 2).unwrap();
        assert_ne!(da.fingerprint(), db.fingerprint());
        // restrict_to preserves k.
        assert_eq!(b.restrict_to(Rect::new(-1.0, 1.0, -1.0, 1.0)).k, 2);
        assert_eq!(db.restrict_to(Rect::new(-1.0, 1.0, -1.0, 1.0)).k, 2);
    }

    #[test]
    fn bbox_covers_all_squares() {
        let clients = vec![Point::new(0.0, 0.0), Point::new(10.0, 10.0)];
        let facilities = vec![Point::new(1.0, 0.0)];
        let arr = build_square_arrangement(&clients, &facilities, Metric::Linf, Mode::Bichromatic)
            .unwrap();
        let bb = arr.bbox().unwrap();
        for s in &arr.squares {
            assert!(bb.contains_rect(s));
        }
    }
}
