//! Named data sets and client/facility sampling (paper §VIII).
//!
//! "We uniformly sample from the data sets to obtain the client set O and
//! the facility set F." Sampling is without replacement and disjoint, so
//! no client coincides with a facility by construction (coincident points
//! would produce zero-radius NN-circles).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rnnhm_geom::{Point, Rect};

use crate::city;
use crate::gen;

/// A named point data set, as used in the experiment harness.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Display name ("NYC", "LA", "Uniform", "Zipfian").
    pub name: String,
    /// The points.
    pub points: Vec<Point>,
}

impl Dataset {
    /// The synthetic NYC stand-in at Table II cardinality.
    pub fn nyc() -> Self {
        Dataset { name: "NYC".into(), points: city::nyc() }
    }

    /// The synthetic LA stand-in at Table II cardinality.
    pub fn la() -> Self {
        Dataset { name: "LA".into(), points: city::la() }
    }

    /// Uniform synthetic points on the unit square.
    pub fn uniform(n: usize, seed: u64) -> Self {
        Dataset {
            name: "Uniform".into(),
            points: gen::uniform(n, Rect::new(0.0, 1.0, 0.0, 1.0), seed),
        }
    }

    /// Zipfian synthetic points (skew 0.2, the paper's setting) on the
    /// unit square.
    pub fn zipfian(n: usize, seed: u64) -> Self {
        Dataset {
            name: "Zipfian".into(),
            points: gen::zipfian(n, 0.2, Rect::new(0.0, 1.0, 0.0, 1.0), seed),
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the data set is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Uniformly samples `n_clients` clients and `n_facilities` facilities
/// from `points`, disjointly and without replacement.
///
/// # Panics
/// Panics if `points.len() < n_clients + n_facilities`, or if that sum
/// overflows `usize`.
pub fn sample_clients_facilities(
    points: &[Point],
    n_clients: usize,
    n_facilities: usize,
    seed: u64,
) -> (Vec<Point>, Vec<Point>) {
    assert!(
        n_clients.checked_add(n_facilities).is_some_and(|need| points.len() >= need),
        "data set of {} points cannot supply {} clients + {} facilities",
        points.len(),
        n_clients,
        n_facilities
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx: Vec<u32> = (0..points.len() as u32).collect();
    idx.shuffle(&mut rng);
    let clients = idx[..n_clients].iter().map(|&i| points[i as usize]).collect();
    let facilities =
        idx[n_clients..n_clients + n_facilities].iter().map(|&i| points[i as usize]).collect();
    (clients, facilities)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_disjoint_and_sized() {
        let ds = Dataset::uniform(1000, 3);
        let (o, f) = sample_clients_facilities(&ds.points, 200, 50, 9);
        assert_eq!(o.len(), 200);
        assert_eq!(f.len(), 50);
        for c in &o {
            assert!(!f.contains(c), "client duplicated as facility");
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let ds = Dataset::zipfian(500, 4);
        let a = sample_clients_facilities(&ds.points, 100, 10, 7);
        let b = sample_clients_facilities(&ds.points, 100, 10, 7);
        assert_eq!(a, b);
        let c = sample_clients_facilities(&ds.points, 100, 10, 8);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "cannot supply")]
    fn oversampling_panics() {
        let ds = Dataset::uniform(10, 1);
        sample_clients_facilities(&ds.points, 8, 8, 1);
    }

    #[test]
    #[should_panic(expected = "cannot supply")]
    fn overflowing_request_panics_with_the_documented_message() {
        // usize::MAX + 4 wraps to 3 in release builds; the bound must
        // still reject it rather than let a slice index panic.
        let ds = Dataset::uniform(10, 1);
        sample_clients_facilities(&ds.points, usize::MAX, 4, 1);
    }

    #[test]
    fn named_constructors() {
        assert_eq!(Dataset::uniform(10, 1).name, "Uniform");
        assert_eq!(Dataset::zipfian(10, 1).name, "Zipfian");
        assert_eq!(Dataset::uniform(10, 1).len(), 10);
    }
}
