//! Slab-parallel sweeping (an extension beyond the paper).
//!
//! The sweep is sequential in x, but the plane can be cut into vertical
//! slabs that are swept independently: every NN-circle is clipped to the
//! slab's x-range, and a full CREST run labels the slab's regions. Regions
//! crossing a slab boundary are labeled once per slab they touch — the
//! labels agree (same RNN set and influence), so order-insensitive sinks
//! (max, top-k, threshold, rasterization) merge without coordination.
//! Strip rectangles within a slab never extend past its boundary, so the
//! union of all slabs' full-strip tilings is still an exact tiling.

use std::thread;

use rnnhm_geom::Rect;

use crate::arrangement::SquareArrangement;
use crate::crest::{crest_a_sweep, crest_sweep};
use crate::measure::InfluenceMeasure;
use crate::sink::{CollectSink, MaxSink, RegionSink, SumSink, ThresholdSink, TopKSink};
use crate::stats::SweepStats;
use crate::window::clip_arrangement;

/// The number of worker threads worth spawning on this machine:
/// `std::thread::available_parallelism()`, falling back to 1 when the
/// parallelism cannot be determined.
///
/// Both the slab-parallel CREST driver and the row-parallel scanline
/// rasterizer cap their fan-out at this value — spawning more threads
/// than cores only adds scheduling overhead.
pub fn effective_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Splits `0..total` into at most `parts` contiguous, balanced,
/// non-empty ranges (fewer when `total < parts`).
///
/// Used to hand each worker thread a contiguous block of work (pixel
/// rows, slabs) whose sizes differ by at most one.
pub fn chunk_ranges(total: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.max(1).min(total.max(1));
    if total == 0 {
        return Vec::new();
    }
    let base = total / parts;
    let extra = total % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, total);
    out
}

/// A sink whose per-thread instances can be folded into one result.
pub trait MergeableSink: RegionSink + Send {
    /// Absorbs another instance's labels.
    fn merge(&mut self, other: Self);
}

impl MergeableSink for CollectSink {
    fn merge(&mut self, other: Self) {
        self.regions.extend(other.regions);
    }
}

impl MergeableSink for MaxSink {
    fn merge(&mut self, other: Self) {
        if let Some(b) = other.best {
            self.label(b.rect, &b.rnn, b.influence);
        }
    }
}

impl<B: Fn(&[u32]) -> f64 + Send> MergeableSink for TopKSink<B> {
    fn merge(&mut self, other: Self) {
        for r in other.into_top() {
            self.label(r.rect, &r.rnn, r.influence);
        }
    }
}

impl MergeableSink for ThresholdSink {
    fn merge(&mut self, other: Self) {
        self.regions.extend(other.regions);
    }
}

/// Sum accumulation is order-insensitive up to floating-point
/// reassociation; exactness additionally needs the full-strip tiling
/// (`full_strips = true`), where [`clip_arrangement`]'s half-open
/// membership (`lo < hi`) guarantees a circle tangent to a slab
/// boundary contributes area to exactly one slab. See [`SumSink`].
impl MergeableSink for SumSink {
    fn merge(&mut self, other: Self) {
        self.weighted_sum += other.weighted_sum;
        self.area += other.area;
        self.labels += other.labels;
    }
}

/// Slab boundaries that roughly balance NN-circles per slab, derived from
/// the sorted left sides.
fn slab_bounds(arr: &SquareArrangement, n_slabs: usize) -> Vec<f64> {
    let mut lefts: Vec<f64> = arr.squares.iter().map(|s| s.x_lo).collect();
    lefts.sort_by(f64::total_cmp);
    let bbox = arr.bbox().expect("non-empty arrangement");
    let mut bounds = Vec::with_capacity(n_slabs + 1);
    bounds.push(bbox.x_lo);
    for k in 1..n_slabs {
        bounds.push(lefts[k * lefts.len() / n_slabs]);
    }
    bounds.push(bbox.x_hi);
    bounds.dedup_by(|a, b| a == b);
    bounds
}

/// Runs CREST over `n_slabs` vertical slabs in parallel, merging sinks.
///
/// `make_sink` creates one sink per slab. Returns the merged sink and
/// aggregate statistics. With `full_strips = true` the CREST-A tiling
/// sweep is used instead (exact strip tiling, e.g. for rasterization).
///
/// One worker thread is spawned per slab, so `n_slabs` is capped at
/// [`effective_parallelism`]: requesting more slabs than cores would
/// oversubscribe the machine and re-balance bounds for slabs that can
/// never run concurrently. The balanced slab bounds are computed once,
/// for the capped count.
pub fn parallel_crest<M, S, F>(
    arr: &SquareArrangement,
    measure: &M,
    n_slabs: usize,
    full_strips: bool,
    make_sink: F,
) -> (S, SweepStats)
where
    M: InfluenceMeasure + Sync,
    S: MergeableSink,
    F: Fn() -> S,
{
    assert!(n_slabs >= 1, "need at least one slab");
    parallel_crest_uncapped(
        arr,
        measure,
        n_slabs.min(effective_parallelism()),
        full_strips,
        make_sink,
    )
}

/// [`parallel_crest`] without the [`effective_parallelism`] cap.
///
/// Exposed so correctness tests can exercise the multi-slab merge path
/// regardless of the host's core count; production callers should use
/// [`parallel_crest`].
#[doc(hidden)]
pub fn parallel_crest_uncapped<M, S, F>(
    arr: &SquareArrangement,
    measure: &M,
    n_slabs: usize,
    full_strips: bool,
    make_sink: F,
) -> (S, SweepStats)
where
    M: InfluenceMeasure + Sync,
    S: MergeableSink,
    F: Fn() -> S,
{
    if arr.is_empty() || n_slabs == 1 {
        let mut sink = make_sink();
        let stats = if full_strips {
            crest_a_sweep(arr, measure, &mut sink)
        } else {
            crest_sweep(arr, measure, &mut sink)
        };
        return (sink, stats);
    }
    let bounds = slab_bounds(arr, n_slabs);
    let slabs: Vec<SquareArrangement> = bounds
        .windows(2)
        .map(|w| clip_arrangement(arr, &Rect::new(w[0], w[1], f64::NEG_INFINITY, f64::INFINITY)))
        .collect();

    let mut results: Vec<(S, SweepStats)> = Vec::with_capacity(slabs.len());
    thread::scope(|scope| {
        let handles: Vec<_> = slabs
            .iter()
            .map(|slab| {
                let mut sink = make_sink();
                scope.spawn(move || {
                    let stats = if full_strips {
                        crest_a_sweep(slab, measure, &mut sink)
                    } else {
                        crest_sweep(slab, measure, &mut sink)
                    };
                    (sink, stats)
                })
            })
            .collect();
        for h in handles {
            results.push(h.join().expect("slab worker panicked"));
        }
    });

    let mut iter = results.into_iter();
    let (mut sink, mut stats) = iter.next().expect("at least one slab");
    for (s, st) in iter {
        sink.merge(s);
        stats.merge(&st);
    }
    (sink, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrangement::CoordSpace;
    use crate::measure::CountMeasure;
    use crate::oracle::{area_by_signature, assert_area_maps_equal};

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

    fn pseudo_squares(n: usize, seed: u64) -> Vec<Rect> {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        (0..n)
            .map(|_| {
                let c = rnnhm_geom::Point::new(next() * 10.0, next() * 10.0);
                Rect::centered(c, 0.2 + next() * 1.5)
            })
            .collect()
    }

    #[test]
    fn parallel_tiling_matches_sequential_areas() {
        let arr = arr_from_squares(pseudo_squares(60, 42));
        let mut seq = CollectSink::default();
        crest_a_sweep(&arr, &CountMeasure, &mut seq);
        let (par, _) = parallel_crest_uncapped(&arr, &CountMeasure, 4, true, CollectSink::default);
        let a = area_by_signature(&seq.regions);
        let b = area_by_signature(&par.regions);
        assert_area_maps_equal(&a, &b, 1e-6);
    }

    #[test]
    fn parallel_max_matches_sequential() {
        let arr = arr_from_squares(pseudo_squares(80, 7));
        let mut seq = MaxSink::default();
        crest_sweep(&arr, &CountMeasure, &mut seq);
        let (par, _) = parallel_crest_uncapped(&arr, &CountMeasure, 4, false, MaxSink::default);
        assert_eq!(
            seq.best.unwrap().influence,
            par.best.unwrap().influence,
            "max influence differs between sequential and parallel"
        );
    }

    #[test]
    fn chunk_ranges_are_balanced_and_cover() {
        for (total, parts) in [(10, 3), (7, 7), (3, 8), (1024, 16), (0, 4), (5, 1)] {
            let ranges = chunk_ranges(total, parts);
            assert!(ranges.len() <= parts.max(1));
            // Contiguous cover of 0..total.
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next);
                assert!(!r.is_empty(), "no empty chunks");
                next = r.end;
            }
            assert_eq!(next, total);
            // Balanced: sizes differ by at most one.
            if let (Some(min), Some(max)) =
                (ranges.iter().map(|r| r.len()).min(), ranges.iter().map(|r| r.len()).max())
            {
                assert!(max - min <= 1, "unbalanced chunks for {total}/{parts}");
            }
        }
    }

    #[test]
    fn capped_slab_count_still_correct() {
        // Request far more slabs than any machine has cores: the public
        // entry point must cap and still produce an exact tiling.
        let arr = arr_from_squares(pseudo_squares(40, 11));
        let mut seq = CollectSink::default();
        crest_a_sweep(&arr, &CountMeasure, &mut seq);
        let (par, _) = parallel_crest(&arr, &CountMeasure, 4096, true, CollectSink::default);
        assert_area_maps_equal(
            &area_by_signature(&seq.regions),
            &area_by_signature(&par.regions),
            1e-6,
        );
        assert!(effective_parallelism() >= 1);
    }

    #[test]
    fn single_slab_falls_through() {
        let arr = arr_from_squares(pseudo_squares(10, 3));
        let mut seq = CollectSink::default();
        let seq_stats = crest_sweep(&arr, &CountMeasure, &mut seq);
        let (par, par_stats) = parallel_crest(&arr, &CountMeasure, 1, false, CollectSink::default);
        assert_eq!(seq.regions.len(), par.regions.len());
        assert_eq!(seq_stats, par_stats);
    }

    #[test]
    fn sum_sink_never_double_counts_boundary_tangent_circles() {
        // Unit squares [i, i+1] × [0, 1]: the 2-slab quantile bound
        // lands on lefts[2] = 2.0, which is *exactly* the right edge
        // of the square [1, 2] — the tangency the slab clip
        // (`clip_arrangement`) must assign to the left slab only. The
        // field is 1 everywhere on [0, 4] × [0, 1] under the count
        // measure, so the integral is exactly 4; a double-counted
        // tangent square would add 1.
        let arr = arr_from_squares(vec![
            Rect::new(0.0, 1.0, 0.0, 1.0),
            Rect::new(1.0, 2.0, 0.0, 1.0),
            Rect::new(2.0, 3.0, 0.0, 1.0),
            Rect::new(3.0, 4.0, 0.0, 1.0),
        ]);
        let mut seq = SumSink::default();
        crest_a_sweep(&arr, &CountMeasure, &mut seq);
        assert!((seq.weighted_sum - 4.0).abs() < 1e-9, "sequential integral {}", seq.weighted_sum);
        for n_slabs in [2, 3, 4] {
            let (par, _) =
                parallel_crest_uncapped(&arr, &CountMeasure, n_slabs, true, SumSink::default);
            assert!(
                (par.weighted_sum - seq.weighted_sum).abs() < 1e-9,
                "integral differs at {n_slabs} slabs: {} vs {}",
                par.weighted_sum,
                seq.weighted_sum
            );
            assert!((par.area - seq.area).abs() < 1e-9, "tiled area differs at {n_slabs} slabs");
        }
    }

    #[test]
    fn sum_sink_parallel_matches_sequential_on_lattice_squares() {
        // Property sweep: squares snapped to a unit lattice make
        // slab-boundary tangencies common; the merged integral must
        // match the sequential one at every slab count, every seed.
        for seed in 0..40u64 {
            let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as usize
            };
            let n = 5 + next() % 40;
            let squares: Vec<Rect> = (0..n)
                .map(|_| {
                    let x = (next() % 12) as f64;
                    let y = (next() % 12) as f64;
                    let w = 1.0 + (next() % 3) as f64;
                    Rect::new(x, x + w, y, y + w)
                })
                .collect();
            let arr = arr_from_squares(squares);
            let mut seq = SumSink::default();
            crest_a_sweep(&arr, &CountMeasure, &mut seq);
            for n_slabs in [2, 3, 7] {
                let (par, _) =
                    parallel_crest_uncapped(&arr, &CountMeasure, n_slabs, true, SumSink::default);
                let tol = 1e-9 * seq.weighted_sum.abs().max(1.0);
                assert!(
                    (par.weighted_sum - seq.weighted_sum).abs() < tol,
                    "seed {seed}, {n_slabs} slabs: {} vs {}",
                    par.weighted_sum,
                    seq.weighted_sum
                );
            }
        }
    }

    #[test]
    fn topk_merge_dedups() {
        let arr = arr_from_squares(pseudo_squares(50, 99));
        let mut seq = TopKSink::new(5);
        crest_sweep(&arr, &CountMeasure, &mut seq);
        let (par, _) = parallel_crest_uncapped(&arr, &CountMeasure, 3, false, || TopKSink::new(5));
        let seq_top: Vec<f64> = seq.into_top().iter().map(|r| r.influence).collect();
        let par_top: Vec<f64> = par.into_top().iter().map(|r| r.influence).collect();
        assert_eq!(seq_top, par_top, "top-k influences differ");
    }
}
