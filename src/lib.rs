//! # rnn-heatmap
//!
//! Reverse nearest neighbor heat maps: a tool for influence exploration.
//!
//! A Rust reproduction of Sun, Zhang, Xue, Qi & Du (ICDE 2016). Given
//! clients `O` and facilities `F` in the plane, the library computes, for
//! *every point in space*, the influence a new facility placed there would
//! have — measured by any function of the point's reverse-nearest-neighbor
//! (RNN) set — by reducing the problem to *Region Coloring* over the
//! arrangement of NN-circles and solving it with the asymptotically
//! optimal CREST sweep.
//!
//! ## Quickstart
//!
//! ```
//! use rnn_heatmap::prelude::*;
//!
//! // Clients (e.g. customers) and facilities (e.g. existing stores).
//! let clients = vec![
//!     Point::new(0.0, 0.0),
//!     Point::new(2.0, 1.0),
//!     Point::new(1.0, 3.0),
//! ];
//! let facilities = vec![Point::new(1.0, 1.0)];
//!
//! // Build the NN-circle arrangement under the L∞ metric and color it.
//! let arr = build_square_arrangement(&clients, &facilities, Metric::Linf, Mode::Bichromatic)
//!     .expect("non-empty input");
//! let mut regions = CollectSink::default();
//! let stats = crest_sweep(&arr, &CountMeasure, &mut regions);
//!
//! // Every region now carries its RNN set and influence.
//! assert!(stats.labels > 0);
//! let best = regions.regions.iter()
//!     .max_by(|a, b| a.influence.total_cmp(&b.influence))
//!     .unwrap();
//! assert!(best.influence >= 1.0);
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`geom`] | points, rectangles, metrics, circles/arcs, rotation |
//! | [`index`] | kd-tree NN, STR R-tree stabbing, interval merging |
//! | [`core`] | arrangements, CREST / CREST-A / BA / CREST-L2 / Pruning, measures, sinks, oracle |
//! | [`data`] | uniform / Zipfian / synthetic-city data sets, sampling |
//! | [`heatmap`] | rasterization and PPM/PGM/ASCII rendering |

#![warn(missing_docs)]

pub mod engine;
pub mod highlevel;

pub use engine::{ExplorationEngine, RegistryStats, Session, TileFrame, ViewportFrame};
pub use highlevel::HeatMapBuilder;
pub use rnnhm_core as core;
pub use rnnhm_data as data;
pub use rnnhm_geom as geom;
pub use rnnhm_heatmap as heatmap;
pub use rnnhm_index as index;

/// The commonly used names, importable in one line.
pub mod prelude {
    pub use crate::engine::{ExplorationEngine, RegistryStats, Session, TileFrame, ViewportFrame};
    pub use rnnhm_core::arrangement::{
        build_disk_arrangement, build_disk_arrangement_k, build_square_arrangement,
        build_square_arrangement_k, knn_assignments, CoordSpace, DiskArrangement, Mode,
        SquareArrangement,
    };
    pub use rnnhm_core::baseline::baseline_sweep;
    pub use rnnhm_core::crest::{crest_a_sweep, crest_sweep};
    pub use rnnhm_core::crest_l2::crest_l2_sweep;
    pub use rnnhm_core::edit::{
        ArrangementRef, CircleChange, DirtyRegion, EditError, EditOutcome, Shape,
    };
    pub use rnnhm_core::measure::{
        CapacityMeasure, ConnectivityMeasure, CountMeasure, ExactFallback, IncrementalMeasure,
        InfluenceMeasure, WeightedMeasure,
    };
    pub use rnnhm_core::placement::{
        GreedyOutcome, GreedyStep, PlacementConstraints, PlacementEvaluation, PlacementQuery,
        PlacementRegion, PruneStats, Relocation,
    };
    pub use rnnhm_core::postprocess::{threshold, top_k};
    pub use rnnhm_core::pruning::{crest_l2_max_region, pruning_max_region, PruningConfig};
    pub use rnnhm_core::sink::{
        CollectSink, LabeledRegion, MaxSink, NullSink, RegionSink, ThresholdSink, TopKSink,
    };
    pub use rnnhm_core::snapshot::{
        ArrangementSnapshot, CowVec, RestrictedArrangement, StorageSharing,
    };
    pub use rnnhm_core::stats::SweepStats;
    pub use rnnhm_core::window::{clip_arrangement, crest_window, WindowSink};
    pub use rnnhm_data::{sample_clients_facilities, Dataset};
    pub use rnnhm_geom::{Metric, Point, Rect};
    pub use rnnhm_heatmap::{
        rasterize_disks, rasterize_disks_oracle, rasterize_squares, rasterize_squares_oracle,
        CacheStats, ColorRamp, GridSpec, HeatRaster, Preview, ShardOccupancy, TileCache, TileId,
        TileScheme, Viewport,
    };
}
