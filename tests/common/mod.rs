//! Helpers shared by the region-memo tests: a measure that counts how
//! often it is really evaluated, and bit-level views of region answers.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rnn_heatmap::prelude::*;

/// A real measure that counts its `influence` calls, the probe for how
/// often a region answer is really computed. Clones share the count.
/// A `panicking` one panics on every call that finds the count at
/// zero, i.e. on the first call after construction or [`Counted::reset`].
#[derive(Clone)]
pub struct Counted<M> {
    inner: M,
    calls: Arc<AtomicUsize>,
    panics: bool,
}

impl<M> Counted<M> {
    /// Counts `inner`'s calls.
    pub fn new(inner: M) -> Counted<M> {
        Counted { inner, calls: Arc::default(), panics: false }
    }

    /// Counts `inner`'s calls and panics on the first.
    #[allow(dead_code)] // not every test crate that includes this module arms a panic
    pub fn panicking(inner: M) -> Counted<M> {
        Counted { panics: true, ..Counted::new(inner) }
    }

    /// `influence` calls so far.
    pub fn calls(&self) -> usize {
        self.calls.load(Ordering::SeqCst)
    }

    /// Zeroes the count (re-arming a panicking measure).
    pub fn reset(&self) {
        self.calls.store(0, Ordering::SeqCst);
    }
}

impl<M: InfluenceMeasure> InfluenceMeasure for Counted<M> {
    fn influence(&self, rnn: &[u32]) -> f64 {
        let before = self.calls.fetch_add(1, Ordering::SeqCst);
        if self.panics && before == 0 {
            panic!("injected panic on the first influence call");
        }
        self.inner.influence(rnn)
    }

    fn raw_upper_bound(&self, raw: &[u32]) -> f64 {
        self.inner.raw_upper_bound(raw)
    }

    /// Counting changes no influence value, so the wrapper shares the
    /// inner measure's cache identity.
    fn cache_key(&self) -> u64 {
        self.inner.cache_key()
    }
}

fn rect_bits(r: &Rect) -> [u64; 4] {
    [r.x_lo, r.x_hi, r.y_lo, r.y_hi].map(f64::to_bits)
}

/// Every bit of a placement answer: geometry, influence, RNN set.
pub fn placement_bits(answer: &[PlacementRegion]) -> Vec<(Vec<u64>, Vec<u32>)> {
    answer
        .iter()
        .map(|p| {
            let mut words = rect_bits(&p.rect).to_vec();
            words.extend(rect_bits(&p.bbox));
            words.extend([p.point.x.to_bits(), p.point.y.to_bits(), p.influence.to_bits()]);
            (words, p.rnn.clone())
        })
        .collect()
}

/// Every bit of a top-k answer: rectangle, influence, RNN set.
pub fn region_bits(answer: &[LabeledRegion]) -> Vec<(Vec<u64>, Vec<u32>)> {
    answer
        .iter()
        .map(|r| {
            let mut words = rect_bits(&r.rect).to_vec();
            words.push(r.influence.to_bits());
            (words, r.rnn.clone())
        })
        .collect()
}
