//! Region sinks — consumers of labeled regions.
//!
//! The paper's "labeling a region" (§III-B) covers both outputting the RNN
//! set and computing/outputting the influence. Algorithms here stream
//! `(rectangle, RNN set, influence)` triples into a [`RegionSink`], which
//! makes the interactive post-processing operations of §I (top-k regions,
//! thresholding) ordinary sink implementations.

use std::collections::HashMap;

use rnnhm_geom::Rect;

use crate::arrangement::fnv1a_words;

/// One labeled region.
///
/// `rect` is the *first subregion* of the region in sweep coordinates:
/// an axis-aligned rectangle whose interior lies entirely inside the
/// region (for L2, a rectangle sampled at the strip midline whose center
/// lies inside the region). A region (arrangement face) may extend beyond
/// `rect`; exact geometry reconstruction uses the rasterizer instead.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledRegion {
    /// Representative rectangle (sweep space).
    pub rect: Rect,
    /// The RNN set (unordered client ids).
    pub rnn: Vec<u32>,
    /// The influence value of the RNN set.
    pub influence: f64,
}

/// A consumer of labeled regions.
pub trait RegionSink {
    /// Called once per region labeling with the representative rectangle,
    /// the RNN set (unordered) and its influence.
    fn label(&mut self, rect: Rect, rnn: &[u32], influence: f64);
}

/// Discards all labels (used when only sweep statistics are wanted, e.g.
/// in benchmarks — mirroring the paper's CPU-time measurements, which do
/// not include rendering).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl RegionSink for NullSink {
    #[inline]
    fn label(&mut self, _rect: Rect, _rnn: &[u32], _influence: f64) {}
}

/// Collects every labeled region.
#[derive(Debug, Default, Clone)]
pub struct CollectSink {
    /// All labels, in emission order.
    pub regions: Vec<LabeledRegion>,
}

impl RegionSink for CollectSink {
    fn label(&mut self, rect: Rect, rnn: &[u32], influence: f64) {
        self.regions.push(LabeledRegion { rect, rnn: rnn.to_vec(), influence });
    }
}

/// Keeps the single most influential region (ties: first seen wins).
#[derive(Debug, Default, Clone)]
pub struct MaxSink {
    /// The best region seen so far.
    pub best: Option<LabeledRegion>,
}

impl RegionSink for MaxSink {
    fn label(&mut self, rect: Rect, rnn: &[u32], influence: f64) {
        let better = match &self.best {
            Some(b) => influence > b.influence,
            None => true,
        };
        if better {
            self.best = Some(LabeledRegion { rect, rnn: rnn.to_vec(), influence });
        }
    }
}

/// Keeps the `k` most influential regions, deduplicated by RNN set: the
/// paper's "regions having the top-k heat values" post-processing, and
/// the crate's one exact top-k and one RNN-signature table
/// ([`crate::postprocess::top_k`] replays a label list through it, and
/// MaxBRkNN placement ranks its candidates through
/// [`TopKSink::label_set`]).
///
/// The answer is a function of the label stream. Labels group by RNN-set
/// signature ([`crate::oracle::signature`]); CREST may label one region
/// several times (bounded by Lemma 3), and those labels collapse into one
/// entry. Through [`RegionSink::label`], each signature is represented
/// by the first label carrying its highest influence; through
/// [`TopKSink::label_set`], by its first label, upgraded once to the
/// first later one with positive area when that first rectangle has
/// none. The signatures are ranked by influence, descending, with ties
/// broken by the signature's first occurrence.
///
/// A label is canonicalized (sorted into a scratch buffer, FNV-hashed and
/// confirmed against the tracked signatures with that hash) unless its
/// bound says it cannot reach the current `k`-th best. The sink allocates
/// once per tracked signature, never once per label. With a bound that
/// prunes (a count's), a signature is tracked only once one of its labels
/// could still reach the `k`-th best.
#[derive(Debug, Clone)]
pub struct TopKSink<B = fn(&[u32]) -> f64> {
    k: usize,
    /// Upper bound on the influence of every label of a set, from any
    /// one of its raw (unsorted) emissions.
    bound: B,
    scratch: Vec<u32>,
    /// Every tracked signature, back to back.
    arena: Vec<u32>,
    /// Signature hash → most recently tracked slot with that hash.
    by_hash: HashMap<u64, usize>,
    /// Tracked signatures in first-occurrence order.
    slots: Vec<Slot>,
    /// The current top `k` (by influence, then slot), unordered.
    top: Vec<Ranked>,
    /// Index into `top` of its last-ranked entry, once `top` holds `k`.
    worst: usize,
}

/// "No slot" in a hash chain, "not retained" in [`Slot::rank`].
const NONE: usize = usize::MAX;

/// One distinct signature tracked by a [`TopKSink`].
#[derive(Debug, Clone)]
struct Slot {
    /// The signature is `arena[start..start + len]`.
    start: usize,
    len: usize,
    /// Highest influence seen for the signature.
    best: f64,
    /// Next slot in this slot's hash chain.
    next: usize,
    /// Index into `TopKSink::top`, or [`NONE`].
    rank: usize,
}

/// A retained region and the slot it represents.
#[derive(Debug, Clone)]
struct Ranked {
    slot: usize,
    region: LabeledRegion,
}

/// The bound of [`TopKSink::new`]: none, so no label is skipped.
fn unbounded(_: &[u32]) -> f64 {
    f64::INFINITY
}

impl TopKSink {
    /// A sink retaining the top `k` regions that canonicalizes every
    /// label (`k = 0` retains nothing).
    pub fn new(k: usize) -> Self {
        TopKSink::with_bound(k, unbounded)
    }
}

impl<B: Fn(&[u32]) -> f64> TopKSink<B> {
    /// A sink retaining the top `k` regions that skips a label without
    /// canonicalizing it when `bound(rnn)` is strictly below the current
    /// `k`-th best influence.
    ///
    /// `bound` must hold for every emission of a set: for any two labels
    /// `a`, `b` with the same signature, `bound(a.rnn) >= b.influence`.
    /// [`crate::measure::InfluenceMeasure::raw_upper_bound`] qualifies
    /// (for a count it is the set's length; the default, `∞`, skips
    /// nothing). Under that contract the answer equals [`TopKSink::new`]'s
    /// for the same labels, bit for bit.
    pub fn with_bound(k: usize, bound: B) -> Self {
        TopKSink {
            k,
            bound,
            scratch: Vec::new(),
            arena: Vec::new(),
            by_hash: HashMap::new(),
            slots: Vec::new(),
            top: Vec::new(),
            worst: 0,
        }
    }

    /// The retained regions, most influential first.
    pub fn into_top(self) -> Vec<LabeledRegion> {
        let mut top = self.top;
        top.sort_by(|a, b| {
            b.region
                .influence
                .partial_cmp(&a.region.influence)
                .expect("finite influence")
                .then(a.slot.cmp(&b.slot))
        });
        top.into_iter().map(|r| r.region).collect()
    }

    /// Number of distinct signatures tracked (hashed and stored) so far.
    pub(crate) fn tracked(&self) -> usize {
        self.slots.len()
    }

    /// Offers a label whose influence is a function of its RNN set
    /// alone, as a placement score is: `score` receives the set sorted
    /// and deduplicated, and a retained region carries that sorted set.
    ///
    /// A label is skipped, unsorted, when the top is full and the
    /// sink's bound on `rnn` is below the `k`-th best; it is skipped,
    /// sorted and scored but unhashed, when its score is below the
    /// `k`-th best. Both skips are sound because a signature's score
    /// never changes, so a signature below the `k`-th best can never
    /// enter later. A new signature is offered at its score (on equal
    /// influence the earlier first occurrence wins); a retained one
    /// whose rectangle has zero area takes the first later rectangle
    /// with positive area, so a representative point stays interior
    /// whenever the region has interior at all.
    pub fn label_set(&mut self, rect: Rect, rnn: &[u32], score: impl FnOnce(&[u32]) -> f64) {
        if self.below_floor((self.bound)(rnn)) {
            return;
        }
        self.load(rnn);
        self.scratch.dedup();
        let influence = score(&self.scratch);
        if self.below_floor(influence) {
            return;
        }
        match self.track(influence) {
            (slot, true) => {
                let set = std::mem::take(&mut self.scratch);
                self.offer(slot, rect, &set, influence);
                self.scratch = set;
            }
            (slot, false) => {
                // A slot that is not retained has rank `NONE`, out of range.
                if let Some(kept) = self.top.get_mut(self.slots[slot].rank) {
                    if kept.region.rect.area() <= 0.0 && rect.area() > 0.0 {
                        kept.region.rect = rect;
                    }
                }
            }
        }
    }

    /// Whether the top is full and `bound` is below its `k`-th best.
    fn below_floor(&self, bound: f64) -> bool {
        self.top.len() == self.k && (self.k == 0 || bound < self.top[self.worst].region.influence)
    }

    /// Sorts `rnn` into the scratch buffer.
    fn load(&mut self, rnn: &[u32]) {
        self.scratch.clear();
        self.scratch.extend_from_slice(rnn);
        self.scratch.sort_unstable();
    }

    /// The slot of the signature in the scratch buffer, tracking it
    /// (with `influence` as its best) if new; the flag says whether it
    /// was.
    fn track(&mut self, influence: f64) -> (usize, bool) {
        let Self { scratch, arena, by_hash, slots, .. } = self;
        let head = by_hash.entry(fnv1a_words(scratch.iter().map(|&c| c as u64))).or_insert(NONE);
        let mut at = *head;
        while at != NONE {
            let s = &slots[at];
            if arena[s.start..s.start + s.len] == scratch[..] {
                return (at, false);
            }
            at = s.next;
        }
        let slot = slots.len();
        slots.push(Slot {
            start: arena.len(),
            len: scratch.len(),
            best: influence,
            next: *head,
            rank: NONE,
        });
        arena.extend_from_slice(scratch);
        *head = slot;
        (slot, true)
    }

    /// Ranks `slot`, whose best influence just became `influence` at
    /// this label: the label is now its representative.
    fn offer(&mut self, slot: usize, rect: Rect, rnn: &[u32], influence: f64) {
        let rank = self.slots[slot].rank;
        if rank != NONE {
            represent(&mut self.top[rank].region, rect, rnn, influence);
            if self.top.len() == self.k && rank == self.worst {
                self.worst = self.last_ranked();
            }
            return;
        }
        if self.top.len() < self.k {
            self.slots[slot].rank = self.top.len();
            let region = LabeledRegion { rect, rnn: rnn.to_vec(), influence };
            self.top.push(Ranked { slot, region });
            if self.top.len() == self.k {
                self.worst = self.last_ranked();
            }
            return;
        }
        let worst = &self.top[self.worst];
        let floor = worst.region.influence;
        if !(influence > floor || (influence == floor && slot < worst.slot)) {
            return;
        }
        self.slots[worst.slot].rank = NONE;
        self.slots[slot].rank = self.worst;
        let entry = &mut self.top[self.worst];
        entry.slot = slot;
        represent(&mut entry.region, rect, rnn, influence);
        self.worst = self.last_ranked();
    }

    /// Index into `top` of the entry ranked last.
    fn last_ranked(&self) -> usize {
        let mut last = 0;
        for (i, e) in self.top.iter().enumerate().skip(1) {
            let l = &self.top[last];
            let (a, b) = (e.region.influence, l.region.influence);
            if a < b || (a == b && e.slot > l.slot) {
                last = i;
            }
        }
        last
    }
}

/// Overwrites `region` with a label, reusing its RNN buffer.
fn represent(region: &mut LabeledRegion, rect: Rect, rnn: &[u32], influence: f64) {
    region.rect = rect;
    region.rnn.clear();
    region.rnn.extend_from_slice(rnn);
    region.influence = influence;
}

impl<B: Fn(&[u32]) -> f64> RegionSink for TopKSink<B> {
    fn label(&mut self, rect: Rect, rnn: &[u32], influence: f64) {
        if self.below_floor((self.bound)(rnn)) {
            return;
        }
        self.load(rnn);
        let slot = match self.track(influence) {
            (slot, true) => slot,
            (slot, false) if influence > self.slots[slot].best => {
                self.slots[slot].best = influence;
                slot
            }
            // Not above the signature's best: its first label stands.
            _ => return,
        };
        self.offer(slot, rect, rnn, influence);
    }
}

/// Keeps regions with influence at or above a threshold (the paper's
/// "selectively showing regions with heat values above a threshold").
#[derive(Debug, Clone)]
pub struct ThresholdSink {
    /// Minimum influence to retain.
    pub min_influence: f64,
    /// Retained regions in emission order.
    pub regions: Vec<LabeledRegion>,
}

impl ThresholdSink {
    /// Creates a sink keeping regions with `influence ≥ min_influence`.
    pub fn new(min_influence: f64) -> Self {
        ThresholdSink { min_influence, regions: Vec::new() }
    }
}

impl RegionSink for ThresholdSink {
    fn label(&mut self, rect: Rect, rnn: &[u32], influence: f64) {
        if influence >= self.min_influence {
            self.regions.push(LabeledRegion { rect, rnn: rnn.to_vec(), influence });
        }
    }
}

/// Consumes every label by materializing the RNN set into a reusable
/// buffer, accumulating a checksum.
///
/// This is the benchmark sink: the paper's cost model charges `O(λ)` per
/// region labeling because labeling *outputs the region's RNN set*
/// (§III-B: "we do not distinguish the process of outputting the RNN set
/// of a region and the process of computing and outputting the influence
/// value"). A sink that ignores the set would understate the cost of
/// algorithms that label many regions.
#[derive(Debug, Default, Clone)]
pub struct MaterializeSink {
    buf: Vec<u32>,
    /// Number of labels consumed.
    pub labels: u64,
    /// Order-insensitive checksum over all output (prevents the work
    /// from being optimized away and lets runs be compared).
    pub checksum: u64,
}

impl RegionSink for MaterializeSink {
    fn label(&mut self, _rect: Rect, rnn: &[u32], influence: f64) {
        self.buf.clear();
        self.buf.extend_from_slice(rnn);
        self.labels += 1;
        let mut h = influence.to_bits() ^ self.buf.len() as u64;
        for &id in &self.buf {
            h = h.wrapping_add((id as u64).wrapping_mul(0x9e3779b97f4a7c15));
        }
        self.checksum = self.checksum.wrapping_add(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x: f64) -> Rect {
        Rect::new(x, x + 1.0, 0.0, 1.0)
    }

    #[test]
    fn collect_preserves_order() {
        let mut s = CollectSink::default();
        s.label(r(0.0), &[1], 1.0);
        s.label(r(1.0), &[2, 3], 2.0);
        assert_eq!(s.regions.len(), 2);
        assert_eq!(s.regions[1].rnn, vec![2, 3]);
    }

    #[test]
    fn max_sink_keeps_best() {
        let mut s = MaxSink::default();
        s.label(r(0.0), &[1], 1.0);
        s.label(r(1.0), &[2, 3, 4], 3.0);
        s.label(r(2.0), &[5], 2.0);
        let best = s.best.unwrap();
        assert_eq!(best.influence, 3.0);
        assert_eq!(best.rnn, vec![2, 3, 4]);
    }

    #[test]
    fn topk_orders_and_truncates() {
        let mut s = TopKSink::new(2);
        s.label(r(0.0), &[1], 1.0);
        s.label(r(1.0), &[2], 5.0);
        s.label(r(2.0), &[3], 3.0);
        s.label(r(3.0), &[4], 0.5);
        let top = s.into_top();
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].influence, 5.0);
        assert_eq!(top[1].influence, 3.0);
    }

    #[test]
    fn topk_deduplicates_same_rnn_set() {
        let mut s = TopKSink::new(3);
        // The same region labeled twice (multi-labeling, Lemma 3) with
        // members in different orders.
        s.label(r(0.0), &[4, 2], 2.0);
        s.label(r(0.5), &[2, 4], 2.0);
        s.label(r(1.0), &[7], 1.0);
        let top = s.into_top();
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].influence, 2.0);
        assert_eq!(top[1].influence, 1.0);
    }

    /// A label stream with many influence ties, repeated sets emitted in
    /// different orders (and with duplicates), and zero-area rectangles.
    fn tied_stream(seed: u64) -> Vec<(Rect, Vec<u32>)> {
        let mut state = seed;
        let mut next = move |n: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        (0..200)
            .map(|i| {
                let len = next(4) as usize;
                let mut set: Vec<u32> = (0..len).map(|_| next(6) as u32).collect();
                set.reverse();
                let x = i as f64;
                let width = if next(3) == 0 { 0.0 } else { 1.0 };
                (Rect::new(x, x + width, 0.0, 1.0), set)
            })
            .collect()
    }

    /// A score that ties often: the number of odd members.
    fn odd_members(set: &[u32]) -> f64 {
        set.iter().filter(|&&c| c % 2 == 1).count() as f64
    }

    /// The no-skip reference: every set's first label (a zero-area one
    /// upgraded to the first later label with area), ranked by score
    /// with ties to the earlier first occurrence.
    fn replay(stream: &[(Rect, Vec<u32>)], k: usize) -> Vec<LabeledRegion> {
        let mut firsts: Vec<LabeledRegion> = Vec::new();
        for (rect, rnn) in stream {
            let mut set = rnn.clone();
            set.sort_unstable();
            set.dedup();
            match firsts.iter_mut().find(|r| r.rnn == set) {
                Some(r) if r.rect.area() <= 0.0 && rect.area() > 0.0 => r.rect = *rect,
                Some(_) => {}
                None => {
                    let influence = odd_members(&set);
                    firsts.push(LabeledRegion { rect: *rect, rnn: set, influence });
                }
            }
        }
        firsts.sort_by(|a, b| b.influence.total_cmp(&a.influence));
        firsts.truncate(k);
        firsts
    }

    #[test]
    fn label_set_skips_leave_the_no_skip_answer() {
        for seed in 0..40 {
            let stream = tied_stream(seed);
            for k in 1..=6 {
                let want = replay(&stream, k);
                // An exact raw bound for this score (duplicates only
                // inflate it), so the first skip fires too; and none.
                let mut bounded = TopKSink::with_bound(k, |raw: &[u32]| odd_members(raw));
                let mut unbounded = TopKSink::new(k);
                for (rect, rnn) in &stream {
                    bounded.label_set(*rect, rnn, odd_members);
                    unbounded.label_set(*rect, rnn, odd_members);
                }
                assert!(bounded.tracked() <= unbounded.tracked(), "seed {seed} k {k}");
                assert_eq!(bounded.into_top(), want, "seed {seed} k {k}: bounded");
                assert_eq!(unbounded.into_top(), want, "seed {seed} k {k}: unbounded");
            }
        }
    }

    #[test]
    fn label_set_with_k_zero_keeps_nothing() {
        let mut s = TopKSink::new(0);
        for (rect, rnn) in tied_stream(7) {
            s.label_set(rect, &rnn, |_| panic!("k = 0 scores nothing"));
        }
        assert_eq!(s.tracked(), 0);
        assert!(s.into_top().is_empty());
    }

    #[test]
    fn label_set_upgrades_only_retained_signatures() {
        let thin = |x: f64| Rect::new(x, x, 0.0, 1.0);
        let mut s = TopKSink::new(2);
        s.label_set(thin(0.0), &[3, 1], odd_members); // {1,3}: 2, retained
        s.label_set(thin(1.0), &[5], odd_members); // {5}: 1, retained
        s.label_set(thin(2.0), &[7], odd_members); // {7}: 1, tied, not retained
        s.label_set(r(3.0), &[7], odd_members); // no upgrade: {7} is not kept
        s.label_set(r(4.0), &[1, 3, 3], odd_members); // upgrades {1,3}
        s.label_set(r(5.0), &[1, 3], odd_members); // the first upgrade stands
        s.label_set(thin(6.0), &[5], odd_members); // zero area: no upgrade
        assert_eq!(s.tracked(), 3);
        let top = s.into_top();
        assert_eq!(top[0], LabeledRegion { rect: r(4.0), rnn: vec![1, 3], influence: 2.0 });
        assert_eq!(top[1], LabeledRegion { rect: thin(1.0), rnn: vec![5], influence: 1.0 });
        assert_eq!(top.len(), 2);
    }

    #[test]
    fn threshold_filters() {
        let mut s = ThresholdSink::new(2.0);
        s.label(r(0.0), &[1], 1.9);
        s.label(r(1.0), &[2], 2.0);
        s.label(r(2.0), &[3], 7.0);
        assert_eq!(s.regions.len(), 2);
        assert!(s.regions.iter().all(|x| x.influence >= 2.0));
    }
}
