//! Worker-count helpers shared by every band split: the k-NN pass
//! (`arrangement::knn_assignments`), the shard summaries
//! (`ArrangementSnapshot::with_shards`), the scanline's row bands and
//! the tile-miss fan-out. Each cuts its work into
//! [`chunk_ranges`]`(total, `[`effective_parallelism`]`())` contiguous
//! bands and runs them on scoped threads, inline for one band.

/// The number of worker threads worth spawning on this machine:
/// `std::thread::available_parallelism()`, falling back to 1 when the
/// parallelism cannot be determined.
///
/// Every band split caps its fan-out at this value — spawning more
/// threads than cores only adds scheduling overhead.
pub fn effective_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Splits `0..total` into at most `parts` contiguous, balanced,
/// non-empty ranges (fewer when `total < parts`).
///
/// Used to hand each worker thread a contiguous block of work (pixel
/// rows, clients, shards) whose sizes differ by at most one.
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
