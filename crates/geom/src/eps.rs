//! Floating-point robustness policy.
//!
//! The paper works in real arithmetic and ignores degeneracies; this
//! reproduction uses `f64` with a small set of centralised helpers so that
//! every approximate comparison in the workspace shares one policy: one
//! absolute tolerance ([`EPS`]), because workload coordinates live in
//! unit-scale boxes, and a NaN-panicking total order for sorting.

/// Default absolute tolerance used by approximate comparisons.
///
/// Workload coordinates live in unit-scale boxes (city extents are a few
/// degrees, synthetic data is in `[0, 1]²`), so an absolute epsilon is
/// appropriate.
pub const EPS: f64 = 1e-9;

/// Nudge distance used when perturbing candidate witness points off a
/// region boundary (pruning algorithm, §VII-C comparator).
pub const NUDGE: f64 = 1e-7;

/// `a == b` up to [`EPS`].
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPS
}

/// `a == b` up to a caller-chosen tolerance.
#[inline]
pub fn approx_eq_eps(a: f64, b: f64, eps: f64) -> bool {
    (a - b).abs() <= eps
}

/// `a < b` with values within [`EPS`] treated as equal.
#[inline]
pub fn definitely_lt(a: f64, b: f64) -> bool {
    a < b - EPS
}

/// Total order on finite `f64`s (panics on NaN — construction sites
/// guarantee finiteness).
#[inline]
pub fn cmp_f64(a: f64, b: f64) -> std::cmp::Ordering {
    a.partial_cmp(&b).expect("NaN in geometric comparison")
}

/// Wrapper giving finite `f64` keys `Ord` + `Eq`, for use in ordered
/// containers (event queues, line-status keys).
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct OrderedF64(pub f64);

impl OrderedF64 {
    /// Wraps a value; debug-asserts finiteness.
    #[inline]
    pub fn new(v: f64) -> Self {
        debug_assert!(v.is_finite(), "non-finite ordered value {v}");
        OrderedF64(v)
    }
}

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        cmp_f64(self.0, other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_comparisons() {
        assert!(approx_eq(1.0, 1.0 + EPS / 2.0));
        assert!(!approx_eq(1.0, 1.0 + EPS * 10.0));
        assert!(definitely_lt(1.0, 2.0));
        assert!(!definitely_lt(1.0, 1.0 + EPS / 2.0));
        assert!(approx_eq_eps(1.0, 1.5, 0.6));
    }

    #[test]
    fn ordered_f64_sorts() {
        let mut v = vec![OrderedF64::new(3.0), OrderedF64::new(-1.0), OrderedF64::new(2.0)];
        v.sort();
        assert_eq!(v, vec![OrderedF64::new(-1.0), OrderedF64::new(2.0), OrderedF64::new(3.0)]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn cmp_f64_rejects_nan() {
        cmp_f64(f64::NAN, 1.0);
    }
}
