//! Sweep statistics: the quantities the paper's analysis reasons about.

/// Counters reported by every region-coloring algorithm.
///
/// `labels` is the paper's `k` — the number of region labelings, i.e.
/// influence computations. Lemma 3 proves `r ≤ k ≤ 14·r` for CREST, where
/// `r` is the number of regions in the arrangement; the baseline's `k`
/// equals its grid-cell count `m = O(n²)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Number of region labelings (influence computations), the paper's `k`.
    pub labels: u64,
    /// Number of sweep events processed (event batches for L∞/L1).
    pub events: u64,
    /// Largest RNN set observed — the paper's λ.
    pub max_rnn: usize,
    /// Peak number of elements in the line status.
    pub peak_line: usize,
}
