//! The baseline algorithm BA (paper §IV).
//!
//! Extending every square side across the whole arrangement forms a grid
//! whose cells each lie inside exactly one region (Fig. 7). BA labels the
//! RC problem by running a point-enclosure query on the centroid of every
//! grid cell: `O(n log² n + m log n + m λ)` with `m = O(n²)` cells.
//!
//! Where the paper indexes the NN-circles with the S-tree \[25\], we use
//! the STR R-tree from `rnnhm-index` — the paper notes "other spatial
//! indexes such as the R-tree may be used". The baseline's two structural
//! drawbacks, which CREST removes, are unchanged: it runs `m` enclosure
//! queries and labels each region once per covering cell.

use rnnhm_geom::{Point, Rect};
use rnnhm_index::RTree;

use crate::arrangement::SquareArrangement;
use crate::measure::InfluenceMeasure;
use crate::sink::RegionSink;
use crate::stats::SweepStats;

/// Sorted, deduplicated coordinates of all vertical (`x`) or horizontal
/// (`y`) square sides.
fn grid_lines(arr: &SquareArrangement) -> (Vec<f64>, Vec<f64>) {
    let mut xs = Vec::with_capacity(arr.squares.len() * 2);
    let mut ys = Vec::with_capacity(arr.squares.len() * 2);
    for s in &arr.squares {
        xs.push(s.x_lo);
        xs.push(s.x_hi);
        ys.push(s.y_lo);
        ys.push(s.y_hi);
    }
    xs.sort_by(f64::total_cmp);
    xs.dedup();
    ys.sort_by(f64::total_cmp);
    ys.dedup();
    (xs, ys)
}

/// Runs the baseline algorithm over a square arrangement, answering
/// its point-enclosure queries with the STR R-tree.
///
/// Every grid cell is labeled through `sink`; `stats.labels` equals the
/// paper's `m` (number of grid cells).
pub fn baseline_sweep<M: InfluenceMeasure, S: RegionSink>(
    arr: &SquareArrangement,
    measure: &M,
    sink: &mut S,
) -> SweepStats {
    let mut stats = SweepStats::default();
    if arr.is_empty() {
        return stats;
    }
    let tree = RTree::build(&arr.squares);
    let (xs, ys) = grid_lines(arr);

    let mut hits: Vec<u32> = Vec::new();
    let mut members: Vec<u32> = Vec::new();
    for xi in 0..xs.len().saturating_sub(1) {
        let (x_lo, x_hi) = (xs[xi], xs[xi + 1]);
        let cx = (x_lo + x_hi) * 0.5;
        for yi in 0..ys.len().saturating_sub(1) {
            let (y_lo, y_hi) = (ys[yi], ys[yi + 1]);
            let cy = (y_lo + y_hi) * 0.5;
            // Point-enclosure query on the cell centroid (the centroid is
            // interior to the cell, hence interior to its region, so
            // closed vs open enclosure cannot disagree).
            hits.clear();
            tree.stab(Point::new(cx, cy), &mut hits);
            members.clear();
            members.extend(hits.iter().map(|&c| arr.owners[c as usize]));
            let influence = measure.influence(&members);
            stats.labels += 1;
            stats.max_rnn = stats.max_rnn.max(members.len());
            sink.label(Rect::new(x_lo, x_hi, y_lo, y_hi), &members, influence);
        }
    }
    stats
}

/// The number of grid cells BA would label (the paper's `m`), without
/// running the queries. Used by benchmarks to predict feasibility.
pub fn baseline_cell_count(arr: &SquareArrangement) -> u64 {
    let (xs, ys) = grid_lines(arr);
    (xs.len().saturating_sub(1) as u64) * (ys.len().saturating_sub(1) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrangement::CoordSpace;
    use crate::measure::CountMeasure;
    use crate::sink::CollectSink;

    fn arr_from_squares(squares: Vec<Rect>) -> SquareArrangement {
        let owners = (0..squares.len() as u32).collect();
        let n = squares.len();
        SquareArrangement {
            squares,
            owners,
            space: CoordSpace::Identity,
            n_clients: n,
            dropped: 0,
            k: 1,
        }
    }

    #[test]
    fn single_square_single_cell() {
        let arr = arr_from_squares(vec![Rect::new(0.0, 1.0, 0.0, 1.0)]);
        let mut sink = CollectSink::default();
        let stats = baseline_sweep(&arr, &CountMeasure, &mut sink);
        assert_eq!(stats.labels, 1);
        assert_eq!(sink.regions[0].rnn, vec![0]);
        assert_eq!(baseline_cell_count(&arr), 1);
    }

    #[test]
    fn two_overlapping_squares_grid() {
        // Sides at x ∈ {0,1,2,3}, y ∈ {0,1,2,3} → 3×3 = 9 cells.
        let arr =
            arr_from_squares(vec![Rect::new(0.0, 2.0, 0.0, 2.0), Rect::new(1.0, 3.0, 1.0, 3.0)]);
        let mut sink = CollectSink::default();
        let stats = baseline_sweep(&arr, &CountMeasure, &mut sink);
        assert_eq!(stats.labels, 9);
        assert_eq!(baseline_cell_count(&arr), 9);
        // Middle cell [1,2]² is the overlap.
        let mid = sink
            .regions
            .iter()
            .find(|r| r.rect == Rect::new(1.0, 2.0, 1.0, 2.0))
            .expect("middle cell");
        let mut rnn = mid.rnn.clone();
        rnn.sort_unstable();
        assert_eq!(rnn, vec![0, 1]);
        // Corner cells carry a single owner or none.
        let corner = sink
            .regions
            .iter()
            .find(|r| r.rect == Rect::new(0.0, 1.0, 0.0, 1.0))
            .expect("corner cell");
        assert_eq!(corner.rnn, vec![0]);
        let far_corner = sink
            .regions
            .iter()
            .find(|r| r.rect == Rect::new(0.0, 1.0, 2.0, 3.0))
            .expect("far corner cell");
        assert!(far_corner.rnn.is_empty());
    }

    #[test]
    fn cell_count_grows_quadratically_in_worst_case() {
        // Fig. 8's diagonal construction: 2n distinct side coordinates per
        // axis → (2n−1)² cells.
        let n = 10usize;
        let half = n as f64 / 2.0;
        let squares: Vec<Rect> =
            (0..n).map(|i| Rect::centered(Point::new(i as f64, i as f64), half)).collect();
        let arr = arr_from_squares(squares);
        let m = baseline_cell_count(&arr);
        assert_eq!(m, ((2 * n - 1) * (2 * n - 1)) as u64);
    }

    #[test]
    fn empty_arrangement() {
        let arr = arr_from_squares(vec![]);
        let mut sink = CollectSink::default();
        let stats = baseline_sweep(&arr, &CountMeasure, &mut sink);
        assert_eq!(stats.labels, 0);
    }
}
