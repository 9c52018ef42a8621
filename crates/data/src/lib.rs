//! # rnnhm-data
//!
//! Data sets for the RNN heat map experiments (paper §VIII).
//!
//! The paper evaluates on four data sets:
//!
//! * **NYC** — 128,547 points of interest in New York City,
//! * **LA** — 116,596 points of interest in Los Angeles,
//! * **Uniform** — synthetic uniform points,
//! * **Zipfian** — synthetic points with Zipf skew 0.2.
//!
//! The real POI data (obtained by the authors from \[2\]) is not publicly
//! redistributable; [`city`] provides a seeded synthetic *city simulator*
//! that reproduces the properties the experiments depend on — multi-scale
//! clustering along street grids, uniform background noise, and empty
//! void areas (water/mountains) — at the same cardinalities and
//! geographic extents as the paper's Table II.
//!
//! All generators are deterministic functions of their seed.

pub mod city;
pub mod gen;
pub mod io;
pub mod motion;
pub mod sample;

pub use city::{la, nyc, CityConfig};
pub use gen::{uniform, zipfian};
pub use sample::{sample_clients_facilities, Dataset};
