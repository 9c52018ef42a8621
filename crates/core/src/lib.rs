//! # rnnhm-core
//!
//! Region-coloring algorithms for reverse-nearest-neighbor heat maps —
//! a faithful reproduction of Sun, Zhang, Xue, Qi & Du,
//! *Reverse Nearest Neighbor Heat Maps: A Tool for Influence Exploration*,
//! ICDE 2016.
//!
//! ## The problem
//!
//! Given clients `O` and facilities `F`, the RNN set of a location `q` is
//! the set of clients that would have `q` as their nearest facility if `q`
//! joined `F`. The *RNN heat map* problem (paper Definition 1) assigns an
//! influence value — any function of the RNN set — to every point of the
//! plane. It reduces to *Region Coloring* (Definition 2): the arrangement
//! of NN-circles partitions the plane into regions of constant RNN set;
//! label every region.
//!
//! ## The algorithms
//!
//! * [`baseline::baseline_sweep`] — the grid baseline of §IV (`BA`),
//! * [`crest::crest_sweep`] — the CREST algorithm of §V (L∞ and, after the
//!   π/4 rotation, L1),
//! * [`crest::crest_a_sweep`] — `CREST-A`: only the first optimization
//!   (no point-enclosure queries), used as an ablation,
//! * [`crest_l2::crest_l2_sweep`] — the L2 variant of §VII-C,
//! * [`pruning::pruning_max_region`] — the filter-and-refine comparator
//!   adapted from \[22\], used against CREST-L2 in Figs 18–19,
//! * [`oracle`] — brute-force reference implementations for testing.
//!
//! Influence measures are pluggable via [`measure::InfluenceMeasure`];
//! labeled regions stream into a [`sink::RegionSink`], so top-k /
//! threshold post-processing (§I) and rasterization compose freely.
//!
//! Beyond the paper, [`snapshot::ArrangementSnapshot`] keeps an
//! instance *editable*: facilities can be inserted, removed and moved
//! with incremental NN-circle maintenance, each edit returning a
//! successor snapshot and the [`edit::DirtyRegion`] outside which
//! nothing changed — the basis of interactive what-if exploration.
//! Snapshots are immutable and `Arc`-shareable, with chunk-level
//! copy-on-write edits — `O(1)` forks and shared-nothing concurrent
//! reads for the serving engine.

pub mod arrangement;
pub mod baseline;
pub mod clock;
pub mod crest;
pub mod crest_l2;
pub mod edit;
pub mod euler;
pub mod measure;
pub mod oracle;
pub mod parallel;
pub mod placement;
pub mod postprocess;
pub mod pruning;
pub mod rnnset;
pub mod shard;
pub mod sink;
pub mod snapshot;
pub mod stats;
pub mod window;

pub use arrangement::{
    build_disk_arrangement, build_disk_arrangement_k, build_square_arrangement,
    build_square_arrangement_k, knn_assignments, CoordSpace, DiskArrangement, Mode,
    SquareArrangement,
};
pub use edit::{ArrangementRef, CircleChange, DirtyRegion, EditError, EditOutcome, Shape};
pub use measure::{
    CapacityMeasure, ConnectivityMeasure, CountMeasure, ExactFallback, IncrementalMeasure,
    InfluenceMeasure, WeightedMeasure,
};
pub use placement::{
    GreedyOutcome, GreedyStep, PlacementConstraints, PlacementEvaluation, PlacementQuery,
    PlacementRegion, PruneStats, Relocation,
};
pub use rnnset::RnnSet;
pub use shard::ShardMap;
pub use sink::{
    CollectSink, LabeledRegion, MaterializeSink, MaxSink, NullSink, RegionSink, ThresholdSink,
    TopKSink,
};
pub use snapshot::{ArrangementSnapshot, CowVec, RestrictedArrangement, StorageSharing};
pub use stats::SweepStats;

/// Errors arising while building an arrangement from a problem instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The facility set is empty (bichromatic mode needs at least one).
    NoFacilities,
    /// Monochromatic mode needs at least two points.
    TooFewPoints,
    /// The client set is empty.
    NoClients,
    /// `k = 0` was requested; RkNN needs `k ≥ 1`.
    ZeroK,
    /// `k` exceeds the number of neighbor candidates available (the
    /// facility count in bichromatic mode, the point count minus one in
    /// monochromatic mode), so the `k`-th NN distance is undefined.
    KTooLarge {
        /// The requested `k`.
        k: usize,
        /// How many neighbor candidates the instance actually offers.
        available: usize,
    },
    /// A client coordinate is NaN or infinite (index into the client
    /// slice). Non-finite points would silently corrupt kd-tree
    /// ordering and sweep-line math, so they are rejected up front.
    NonFiniteClient(usize),
    /// A facility coordinate is NaN or infinite (index into the
    /// facility slice).
    NonFiniteFacility(usize),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::NoFacilities => write!(f, "facility set is empty"),
            BuildError::TooFewPoints => {
                write!(f, "monochromatic mode requires at least two points")
            }
            BuildError::NoClients => write!(f, "client set is empty"),
            BuildError::ZeroK => write!(f, "k must be at least 1"),
            BuildError::KTooLarge { k, available } => {
                write!(f, "k = {k} exceeds the {available} neighbor candidate(s) available")
            }
            BuildError::NonFiniteClient(i) => {
                write!(f, "client {i} has a non-finite coordinate")
            }
            BuildError::NonFiniteFacility(i) => {
                write!(f, "facility {i} has a non-finite coordinate")
            }
        }
    }
}

impl std::error::Error for BuildError {}
