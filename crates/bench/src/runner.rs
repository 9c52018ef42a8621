//! Timed algorithm runners.
//!
//! Following the paper's setup, the NN-circles are precomputed outside
//! the timed section ("Assuming that the NN-circles are already
//! precomputed", §III-B): timings cover the region-coloring algorithms
//! themselves.

use std::time::Instant;

use rnnhm_core::arrangement::{
    build_disk_arrangement, build_square_arrangement, DiskArrangement, Mode, SquareArrangement,
};
use rnnhm_core::baseline::{baseline_cell_count, baseline_sweep};
use rnnhm_core::crest::{crest_a_sweep, crest_sweep};
use rnnhm_core::measure::{CapacityMeasure, CountMeasure, InfluenceMeasure};
use rnnhm_core::pruning::{crest_l2_max_region, pruning_max_region, PruningConfig};
use rnnhm_core::sink::MaterializeSink;
use rnnhm_core::stats::SweepStats;
use rnnhm_geom::Metric;
use rnnhm_index::KdTree;

use crate::workload::Workload;

/// One timed algorithm run.
#[derive(Debug, Clone)]
pub struct Timing {
    /// Algorithm display name (as in the paper's legends).
    pub algo: &'static str,
    /// Wall-clock milliseconds, or `None` when the run was skipped as
    /// infeasible (the paper's 24-hour cut-off analog).
    pub millis: Option<f64>,
    /// Sweep statistics of the run, when available.
    pub stats: SweepStats,
}

impl Timing {
    fn skipped(algo: &'static str) -> Self {
        Timing { algo, millis: None, stats: SweepStats::default() }
    }
}

/// Milliseconds elapsed since `start` (shared by every runner and the
/// test-only agreement checks).
pub(crate) fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Builds the square arrangement for a workload (untimed setup).
pub fn square_arrangement(w: &Workload, metric: Metric) -> SquareArrangement {
    build_square_arrangement(&w.clients, &w.facilities, metric, Mode::Bichromatic)
        .expect("non-empty workload")
}

/// Builds the disk arrangement for a workload (untimed setup).
pub fn disk_arrangement(w: &Workload) -> DiskArrangement {
    build_disk_arrangement(&w.clients, &w.facilities, Mode::Bichromatic)
        .expect("non-empty workload")
}

/// Builds the capacity-constrained measure of \[22\] for a workload:
/// every client is assigned to its L2-nearest facility; capacities are
/// seeded uniform in `1..=5`, the candidate's capacity is 3 (arbitrary
/// but fixed — the paper does not publish its capacity values).
pub fn capacity_measure(w: &Workload, seed: u64) -> CapacityMeasure {
    let tree = KdTree::build(&w.facilities);
    let assigned: Vec<u32> = w
        .clients
        .iter()
        .map(|o| tree.nearest(o, Metric::L2).expect("facilities non-empty").0)
        .collect();
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    let capacities: Vec<u32> = (0..w.facilities.len())
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            1 + ((state >> 33) % 5) as u32
        })
        .collect();
    CapacityMeasure::new(assigned, capacities, 3)
}

/// Times the baseline algorithm; skipped when its predicted grid size
/// exceeds `max_cells` (the 24-hour cut-off analog of Figs 16–17).
pub fn run_ba<M: InfluenceMeasure>(arr: &SquareArrangement, measure: &M, max_cells: u64) -> Timing {
    if baseline_cell_count(arr) > max_cells {
        return Timing::skipped("BA");
    }
    let start = rnnhm_core::clock::now();
    let mut sink = MaterializeSink::default();
    let stats = baseline_sweep(arr, measure, &mut sink);
    Timing { algo: "BA", millis: Some(ms(start)), stats }
}

/// Times CREST-A (first optimization only).
pub fn run_crest_a<M: InfluenceMeasure>(arr: &SquareArrangement, measure: &M) -> Timing {
    let start = rnnhm_core::clock::now();
    let mut sink = MaterializeSink::default();
    let stats = crest_a_sweep(arr, measure, &mut sink);
    Timing { algo: "CREST-A", millis: Some(ms(start)), stats }
}

/// Times full CREST.
pub fn run_crest<M: InfluenceMeasure>(arr: &SquareArrangement, measure: &M) -> Timing {
    let start = rnnhm_core::clock::now();
    let mut sink = MaterializeSink::default();
    let stats = crest_sweep(arr, measure, &mut sink);
    Timing { algo: "CREST", millis: Some(ms(start)), stats }
}

/// Times CREST-L2 on the max-influence-region task (Figs 18–19).
pub fn run_crest_l2_max<M: InfluenceMeasure>(arr: &DiskArrangement, measure: &M) -> Timing {
    let start = rnnhm_core::clock::now();
    let (best, stats) = crest_l2_max_region(arr, measure);
    let _ = best;
    Timing { algo: "CREST-L2", millis: Some(ms(start)), stats }
}

/// Times the pruning comparator on the max-influence-region task.
///
/// `node_budget` bounds the exponential enumeration per anchor circle;
/// a truncated run reports its (lower-bound) time with `stats.labels`
/// set to the number of existence checks.
pub fn run_pruning_max<M: InfluenceMeasure>(
    arr: &DiskArrangement,
    measure: &M,
    node_budget: u64,
) -> Timing {
    let start = rnnhm_core::clock::now();
    let (_, pstats) = pruning_max_region(
        arr,
        measure,
        PruningConfig { max_nodes: node_budget, max_witnesses: 100_000 },
    );
    let stats = SweepStats { labels: pstats.leaves, ..Default::default() };
    Timing {
        algo: if pstats.truncated { "Pruning*" } else { "Pruning" },
        millis: Some(ms(start)),
        stats,
    }
}

/// A simple CSV row formatter used by the figures binary.
pub fn csv_row(dataset: &str, x_label: &str, x: u64, timings: &[Timing]) -> String {
    let mut row = format!("{dataset},{x_label}={x}");
    for t in timings {
        match t.millis {
            Some(m) => row.push_str(&format!(",{}={m:.2}ms", t.algo)),
            None => row.push_str(&format!(",{}=skipped", t.algo)),
        }
    }
    row
}

/// Count measure shorthand for the harness.
pub fn count() -> CountMeasure {
    CountMeasure
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{build_workload, DatasetKind};

    #[test]
    fn all_runners_produce_timings_on_small_input() {
        let w = build_workload(DatasetKind::Uniform, 128, 8, 42);
        let arr = square_arrangement(&w, Metric::L1);
        let ba = run_ba(&arr, &count(), u64::MAX);
        let ca = run_crest_a(&arr, &count());
        let cr = run_crest(&arr, &count());
        assert!(ba.millis.is_some() && ca.millis.is_some() && cr.millis.is_some());
        // CREST labels no more than CREST-A, which labels no more than BA
        // in non-degenerate instances.
        assert!(cr.stats.labels <= ca.stats.labels);
        assert!(ca.stats.labels <= ba.stats.labels);
    }

    #[test]
    fn ba_skips_when_over_budget() {
        let w = build_workload(DatasetKind::Uniform, 256, 8, 42);
        let arr = square_arrangement(&w, Metric::L1);
        let t = run_ba(&arr, &count(), 10);
        assert!(t.millis.is_none());
    }

    #[test]
    fn l2_runners_agree_on_max() {
        let w = build_workload(DatasetKind::Uniform, 64, 8, 7);
        let arr = disk_arrangement(&w);
        let measure = capacity_measure(&w, 1);
        let (crest_best, _) = crest_l2_max_region(&arr, &measure);
        let (prune_best, _) = pruning_max_region(&arr, &measure, PruningConfig::default());
        let c = crest_best.expect("crest best");
        let p = prune_best.expect("pruning best");
        assert!((c.influence - p.influence).abs() < 1e-9);
    }

    #[test]
    fn csv_row_format() {
        let timings = vec![
            Timing { algo: "CREST", millis: Some(1.234), stats: SweepStats::default() },
            Timing::skipped("BA"),
        ];
        let row = csv_row("LA", "ratio", 16, &timings);
        assert_eq!(row, "LA,ratio=16,CREST=1.23ms,BA=skipped");
    }
}
