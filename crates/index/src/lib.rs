//! # rnnhm-index
//!
//! Index substrates for the RNN heat map reproduction
//! (Sun et al., ICDE 2016), implemented here from scratch. CREST's line
//! status, the balanced search tree `T` of Algorithm 1, needs no
//! structure of its own: it is a `std::collections::BTreeSet` (see
//! `rnnhm_core::crest`).
//!
//! * [`kdtree::KdTree`] — a static kd-tree answering nearest-neighbor
//!   queries under L1/L2/L∞, used to precompute the NN-circles
//!   (the paper cites Korn & Muthukrishnan \[12\] for this step).
//! * [`rtree::RTree`] — an STR bulk-loaded R-tree answering point-enclosure
//!   (stabbing) and rectangle-intersection queries. It is the one
//!   enclosure index: it stands in for the S-tree \[25\] in the baseline
//!   algorithm (the paper explicitly allows "other spatial indexes such
//!   as the R-tree"), backs the per-pixel oracle rasterizers, and is the
//!   snapshot's lazily built point-stab index.
//! * [`interval`] — merging of *changed intervals* (paper §V-C1).

pub mod interval;
pub mod kdtree;
pub mod rtree;

pub use kdtree::KdTree;
pub use rtree::RTree;
