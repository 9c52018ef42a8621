//! Post-processing of labeled regions (paper §I).
//!
//! "Interactive post-processing operations such as selectively showing
//! regions with heat values above a threshold or regions having the top-k
//! heat values … can be easily applied as post-processing of our proposed
//! techniques." The streaming versions live in [`crate::sink`]
//! ([`crate::sink::TopKSink`], [`crate::sink::ThresholdSink`]); this
//! module offers the batch equivalents over collected regions.

use crate::sink::{LabeledRegion, RegionSink, TopKSink};

/// The `k` most influential regions, deduplicated by RNN-set signature,
/// most influential first: the labels replayed through an unbounded
/// [`TopKSink`], so ties are broken by first occurrence and each
/// signature keeps the first region achieving its maximum influence.
pub fn top_k(regions: &[LabeledRegion], k: usize) -> Vec<LabeledRegion> {
    let mut sink = TopKSink::new(k);
    for r in regions {
        sink.label(r.rect, &r.rnn, r.influence);
    }
    sink.into_top()
}

/// Regions with influence at or above `min_influence`, in input order.
pub fn threshold(regions: &[LabeledRegion], min_influence: f64) -> Vec<LabeledRegion> {
    regions.iter().filter(|r| r.influence >= min_influence).cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnnhm_geom::Rect;

    fn region(rnn: &[u32], influence: f64) -> LabeledRegion {
        LabeledRegion { rect: Rect::new(0.0, 1.0, 0.0, 1.0), rnn: rnn.to_vec(), influence }
    }

    #[test]
    fn top_k_orders_and_dedups() {
        let regions = vec![
            region(&[1], 1.0),
            region(&[2, 3], 5.0),
            region(&[3, 2], 5.0), // duplicate signature
            region(&[4], 3.0),
        ];
        let top = top_k(&regions, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].influence, 5.0);
        assert_eq!(top[1].influence, 3.0);
        let all = top_k(&regions, 10);
        assert_eq!(all.len(), 3, "three distinct signatures");
    }

    #[test]
    fn threshold_keeps_at_or_above() {
        let regions = vec![region(&[1], 1.0), region(&[2], 2.0), region(&[3], 3.0)];
        let kept = threshold(&regions, 2.0);
        assert_eq!(kept.len(), 2);
    }
}
