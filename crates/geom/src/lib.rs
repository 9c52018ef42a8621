//! # rnnhm-geom
//!
//! Planar geometry substrate for the RNN heat map reproduction
//! (Sun et al., *Reverse Nearest Neighbor Heat Maps*, ICDE 2016).
//!
//! The crate provides the geometric vocabulary the paper's algorithms are
//! written in:
//!
//! * [`Point`] — a point in the two-dimensional plane,
//! * [`Rect`] — an axis-aligned rectangle (the shape of an L∞ NN-circle and
//!   of every subregion the sweep produces),
//! * [`Metric`] — the three distance metrics of the paper (L1, L2, L∞),
//! * [`Circle`] — a Euclidean circle (the shape of an L2 NN-circle) together
//!   with intersection and arc-evaluation routines used by the L2 sweep,
//! * [`transform`] — the π/4 rotation that reduces L1 to L∞ (paper §VII-B).
//!
//! All coordinates are `f64`; the robustness policy is stated and
//! centralised in the [`eps`] module.

#![warn(missing_docs)]

pub mod circle;
pub mod eps;
pub mod metric;
pub mod point;
pub mod rect;
pub mod transform;

pub use circle::{Arc, ArcKind, Circle};
pub use metric::Metric;
pub use point::Point;
pub use rect::Rect;
