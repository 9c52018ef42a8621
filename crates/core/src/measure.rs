//! Influence measures — real-valued functions of an RNN set (paper §I, §III).
//!
//! The heat of a region is `measure(R)` for its RNN set `R`. The paper
//! stresses that CREST is generic over the measure; the measures here are
//! the ones its examples and experiments use:
//!
//! * [`CountMeasure`] — `|R|` (Korn & Muthukrishnan \[12\]; used for the
//!   showcase heat maps of Figs 1 and 15),
//! * [`WeightedMeasure`] — sum of client weights \[12\],
//! * [`CapacityMeasure`] — the capacity-constrained utility of \[22\]
//!   (courier scenario; used with the pruning comparator in Figs 18–19),
//! * [`ConnectivityMeasure`] — number of "compatible passenger" edges
//!   inside `R` (the taxi-sharing scenario of Fig 3).
//!
//! All four also implement [`IncrementalMeasure`] — constant-or-cheap
//! add/remove/current maintenance of the influence value as clients
//! enter and leave the RNN set, which the scanline rasterizer exploits.
//! Custom measures get the same interface via [`ExactFallback`].

/// A real-valued influence function over RNN sets.
///
/// `rnn` is the unordered list of client ids in the region's RNN set.
pub trait InfluenceMeasure {
    /// The influence (heat) of a region whose RNN set is `rnn`.
    fn influence(&self, rnn: &[u32]) -> f64;

    /// An *admissible* optimistic bound used by branch-and-bound search:
    /// the influence of any region whose RNN set contains all of `inside`
    /// and any subset of `undecided` must not exceed this value.
    ///
    /// The default evaluates the measure on `inside ∪ undecided`, which is
    /// admissible for monotone measures (count, weight). Non-monotone
    /// measures must override it.
    fn upper_bound(&self, inside: &[u32], undecided: &[u32]) -> f64 {
        let mut all = Vec::with_capacity(inside.len() + undecided.len());
        all.extend_from_slice(inside);
        all.extend_from_slice(undecided);
        self.influence(&all)
    }

    /// An admissible optimistic bound computable from the sweep's *raw*
    /// emission of a region's RNN set — unordered and possibly
    /// containing duplicates, i.e. *before* the canonical sort/dedup of
    /// [`crate::oracle::signature`]: the value must be at least
    /// `influence(signature(raw))`.
    ///
    /// [`crate::sink::TopKSink::with_bound`] uses it to skip
    /// canonicalizing (sorting + deduplicating) regions that cannot
    /// reach the current `k`-th best, which is what keeps placement and
    /// `Session::top_k` near the cost of a bare sweep at scale. That
    /// relies on the bound from any one emission of a set covering the
    /// influence of every emission of it. The default — no bound — is always
    /// admissible and simply disables that skip. Only override with
    /// duplicate-insensitive, rounding-safe bounds (e.g. a count);
    /// order-dependent f64 accumulations (a weight sum) can round an
    /// ulp below the canonical value and are **not** safe here.
    fn raw_upper_bound(&self, raw: &[u32]) -> f64 {
        let _ = raw;
        f64::INFINITY
    }

    /// Whether the measure's influence is always an integer-valued
    /// `f64` (counts, capacities, edge counts — everything the paper's
    /// experiments evaluate except arbitrary weights).
    ///
    /// A property of the measure, not an encoding switch: the tile
    /// payloads of `rnnhm_heatmap::quant` are a pure function of the
    /// pixel bits and encode the same whatever this returns. The
    /// conservative default is `false`.
    fn integral_influence(&self) -> bool {
        false
    }

    /// A stable key identifying this measure — type *and* parameters —
    /// for caches of derived artifacts (e.g. the rendered heat-map
    /// tiles of `rnnhm_heatmap::tiles`): two measures with the same key
    /// must assign the same influence to every RNN set.
    ///
    /// The default hashes the concrete type name, which is sound only
    /// for parameterless measures; **measures carrying parameters must
    /// override it** to mix the parameters in (as the weighted,
    /// capacity and connectivity measures here do).
    fn cache_key(&self) -> u64 {
        crate::arrangement::fnv1a_words(std::any::type_name::<Self>().bytes().map(|b| b as u64))
    }
}

/// A measure that can maintain its value *incrementally* as single
/// clients enter and leave the RNN set.
///
/// The scanline rasterizer (`rnnhm_heatmap::compute`) sweeps each pixel
/// row once, updating the active RNN set at interval endpoints instead of
/// recomputing it per pixel; between two endpoints the influence is
/// constant. That turns the per-pixel measure cost into a per-*event*
/// cost, but requires the measure to expose add/remove/current
/// operations over some running [`IncrementalMeasure::State`].
///
/// # Contract
///
/// For any sequence of `add`/`remove` calls describing a set `R`
/// (each id added at most once before being removed, as NN-circles have
/// one owner each), `current(&state)` must equal
/// `influence(&r)` for a slice `r` holding `R` in *some* order:
///
/// * measures whose influence is an order-independent exact computation
///   (integer-valued counts, capacities, edge counts — everything the
///   paper evaluates) are **bit-identical** to any
///   [`InfluenceMeasure::influence`] call on the same set;
/// * measures summing arbitrary floating-point weights are exact up to
///   f64 addition order (bit-identical when the weights sum exactly,
///   e.g. small dyadic rationals — see `WeightedMeasure`).
///
/// Non-decomposable measures can fall back to [`ExactFallback`], which
/// stores the member list and re-evaluates the measure per event run.
pub trait IncrementalMeasure: InfluenceMeasure {
    /// The running state: whatever the measure needs to answer
    /// [`IncrementalMeasure::current`] in `O(1)`-ish time.
    type State: Clone + Send;

    /// A state describing the empty RNN set.
    fn new_state(&self) -> Self::State;

    /// Client `id` enters the RNN set.
    fn add(&self, state: &mut Self::State, id: u32);

    /// Client `id` leaves the RNN set.
    fn remove(&self, state: &mut Self::State, id: u32);

    /// The influence of the current RNN set.
    fn current(&self, state: &Self::State) -> f64;

    /// *Additive hook*: client `id`'s fixed contribution, when the
    /// measure is an exact sum of per-member deltas.
    ///
    /// Returning `Some(d)` for every member promises that for **any**
    /// reachable RNN set, [`IncrementalMeasure::current`] equals the
    /// f64 sum of the members' deltas **bitwise, under any order or
    /// grouping of additions and subtractions**, with the empty set
    /// summing to `+0.0`. That licenses renderers to replace the
    /// event sweep with difference-array accumulation (see the
    /// scanline rasterizer's additive path). Counts qualify (integer
    /// arithmetic below 2⁵³ is exact in f64); weighted sums do *not*
    /// — their rounding and `-0.0` empty-sum identity are order
    /// dependent — and default to `None`.
    #[inline]
    fn additive_delta(&self, id: u32) -> Option<f64> {
        let _ = id;
        None
    }
}

/// Adapts *any* [`InfluenceMeasure`] to [`IncrementalMeasure`] by keeping
/// the member list and re-evaluating the measure on demand.
///
/// `current` costs one full `influence` call, so a scanline sweep pays
/// `O(measure)` per *event run* instead of per pixel — still a large win
/// over per-pixel evaluation, just not `O(1)`. Member order follows
/// insertion order (with swap-removal), so order-sensitive float
/// rounding may differ from another evaluation order by ~1 ULP.
#[derive(Debug, Clone)]
pub struct ExactFallback<M>(pub M);

impl<M: InfluenceMeasure> InfluenceMeasure for ExactFallback<M> {
    #[inline]
    fn influence(&self, rnn: &[u32]) -> f64 {
        self.0.influence(rnn)
    }

    #[inline]
    fn upper_bound(&self, inside: &[u32], undecided: &[u32]) -> f64 {
        self.0.upper_bound(inside, undecided)
    }

    #[inline]
    fn integral_influence(&self) -> bool {
        self.0.integral_influence()
    }

    fn cache_key(&self) -> u64 {
        // The wrapper computes the same influence as the inner measure,
        // so it shares the inner cache identity.
        self.0.cache_key()
    }
}

impl<M: InfluenceMeasure> IncrementalMeasure for ExactFallback<M> {
    type State = Vec<u32>;

    fn new_state(&self) -> Vec<u32> {
        Vec::new()
    }

    fn add(&self, state: &mut Vec<u32>, id: u32) {
        state.push(id);
    }

    fn remove(&self, state: &mut Vec<u32>, id: u32) {
        let pos =
            state.iter().position(|&m| m == id).expect("removing an id that is not in the RNN set");
        state.swap_remove(pos);
    }

    fn current(&self, state: &Vec<u32>) -> f64 {
        self.0.influence(state)
    }
}

/// `|R|`: the size of the RNN set.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountMeasure;

impl InfluenceMeasure for CountMeasure {
    #[inline]
    fn influence(&self, rnn: &[u32]) -> f64 {
        rnn.len() as f64
    }

    #[inline]
    fn upper_bound(&self, inside: &[u32], undecided: &[u32]) -> f64 {
        (inside.len() + undecided.len()) as f64
    }

    #[inline]
    fn raw_upper_bound(&self, raw: &[u32]) -> f64 {
        // Duplicates only inflate the length, so this stays admissible
        // (and is exact when the emission is duplicate-free).
        raw.len() as f64
    }

    #[inline]
    fn integral_influence(&self) -> bool {
        true
    }
}

impl IncrementalMeasure for CountMeasure {
    type State = usize;

    #[inline]
    fn new_state(&self) -> usize {
        0
    }

    #[inline]
    fn add(&self, state: &mut usize, _id: u32) {
        *state += 1;
    }

    #[inline]
    fn remove(&self, state: &mut usize, _id: u32) {
        *state -= 1;
    }

    #[inline]
    fn current(&self, state: &usize) -> f64 {
        *state as f64
    }

    #[inline]
    fn additive_delta(&self, _id: u32) -> Option<f64> {
        // |R| is a sum of 1.0s: exact integers in f64 in every order.
        Some(1.0)
    }
}

/// Sum of per-client weights.
#[derive(Debug, Clone)]
pub struct WeightedMeasure {
    weights: Vec<f64>,
}

impl WeightedMeasure {
    /// Creates the measure from one non-negative weight per client id.
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(weights.iter().all(|w| *w >= 0.0), "weights must be non-negative");
        WeightedMeasure { weights }
    }
}

impl InfluenceMeasure for WeightedMeasure {
    #[inline]
    fn influence(&self, rnn: &[u32]) -> f64 {
        rnn.iter().map(|&id| self.weights[id as usize]).sum()
    }

    fn cache_key(&self) -> u64 {
        crate::arrangement::fnv1a_words(
            [0x5754u64, self.weights.len() as u64] // "WT"
                .into_iter()
                .chain(self.weights.iter().map(|w| w.to_bits())),
        )
    }
}

/// Running state of [`WeightedMeasure`]: the weight sum plus the member
/// count. The sum snaps back to the empty-sum identity whenever the set
/// empties, so rounding drift cannot leak across disjoint intervals of
/// a scan.
///
/// The empty sum is `-0.0`, matching `Iterator::sum::<f64>()` over an
/// empty iterator (std uses the true floating-point additive identity),
/// so an empty incremental state is bit-identical to
/// `WeightedMeasure::influence(&[])`.
#[derive(Debug, Clone, Copy)]
pub struct WeightedState {
    sum: f64,
    len: usize,
}

/// `Iterator::sum::<f64>()` of nothing — the f64 additive identity.
const EMPTY_SUM: f64 = -0.0;

impl IncrementalMeasure for WeightedMeasure {
    type State = WeightedState;

    #[inline]
    fn new_state(&self) -> WeightedState {
        WeightedState { sum: EMPTY_SUM, len: 0 }
    }

    #[inline]
    fn add(&self, state: &mut WeightedState, id: u32) {
        state.sum += self.weights[id as usize];
        state.len += 1;
    }

    #[inline]
    fn remove(&self, state: &mut WeightedState, id: u32) {
        state.sum -= self.weights[id as usize];
        state.len -= 1;
        if state.len == 0 {
            state.sum = EMPTY_SUM;
        }
    }

    #[inline]
    fn current(&self, state: &WeightedState) -> f64 {
        state.sum
    }
}

/// The capacity-constrained utility of \[22\] (paper §I, footnote 1):
///
/// ```text
/// influence(p) = Σ_{f ∈ F ∪ {p}} min(c(f), |R(f)|)
/// ```
///
/// where placing `p` moves the clients of `R(p)` away from their current
/// facilities. We report the utility *delta-normalised*: the total served
/// after placing `p`. Clients keep their facility unless `p` is closer, so
/// `R(f)` shrinks by the members of `R(p)` currently assigned to `f`.
#[derive(Debug, Clone)]
pub struct CapacityMeasure {
    /// `assigned[o]` = facility id currently serving client `o`.
    assigned: Vec<u32>,
    /// Facility capacities.
    capacities: Vec<u32>,
    /// `|R(f)|` before placing the new facility.
    base_counts: Vec<u32>,
    /// `Σ_f min(c(f), |R(f)|)` before placing the new facility.
    base_total: f64,
    /// Capacity of the candidate facility.
    new_capacity: u32,
}

impl CapacityMeasure {
    /// Builds the measure.
    ///
    /// * `assigned[o]` — current NN facility of client `o`,
    /// * `capacities[f]` — capacity of facility `f`,
    /// * `new_capacity` — capacity of the candidate location.
    pub fn new(assigned: Vec<u32>, capacities: Vec<u32>, new_capacity: u32) -> Self {
        let mut base_counts = vec![0u32; capacities.len()];
        for &f in &assigned {
            base_counts[f as usize] += 1;
        }
        let base_total = base_counts.iter().zip(&capacities).map(|(&n, &c)| n.min(c) as f64).sum();
        CapacityMeasure { assigned, capacities, base_counts, base_total, new_capacity }
    }

    /// The served total before any new facility is placed.
    pub fn base_total(&self) -> f64 {
        self.base_total
    }
}

impl InfluenceMeasure for CapacityMeasure {
    fn influence(&self, rnn: &[u32]) -> f64 {
        // Tally, per facility, how many of its clients defect to `p`.
        // λ is small; a linear-probe vector beats hashing here.
        let mut moved: Vec<(u32, u32)> = Vec::with_capacity(rnn.len().min(16));
        for &o in rnn {
            let f = self.assigned[o as usize];
            match moved.iter_mut().find(|(g, _)| *g == f) {
                Some((_, c)) => *c += 1,
                None => moved.push((f, 1)),
            }
        }
        let mut total = self.base_total;
        for &(f, m) in &moved {
            let c = self.capacities[f as usize];
            let before = self.base_counts[f as usize];
            total -= before.min(c) as f64;
            total += (before - m).min(c) as f64;
        }
        total + (rnn.len() as u32).min(self.new_capacity) as f64
    }

    fn upper_bound(&self, inside: &[u32], undecided: &[u32]) -> f64 {
        // Optimistic: no facility loses served clients (defectors only come
        // from over-capacity facilities), and the new facility serves as
        // many of `inside ∪ undecided` as it can.
        let gain = ((inside.len() + undecided.len()) as u32).min(self.new_capacity) as f64;
        self.base_total + gain
    }

    #[inline]
    fn integral_influence(&self) -> bool {
        // Served-client totals are integers below 2^53.
        true
    }

    fn cache_key(&self) -> u64 {
        crate::arrangement::fnv1a_words(
            [0x4341u64, self.new_capacity as u64, self.assigned.len() as u64] // "CA"
                .into_iter()
                .chain(self.assigned.iter().map(|&a| a as u64))
                .chain(self.capacities.iter().map(|&c| c as u64)),
        )
    }
}

/// Running state of [`CapacityMeasure`]: per-facility defection counts
/// plus the integer change in served clients across existing facilities.
///
/// Every quantity involved is an integer below 2^53, so the incremental
/// value is bit-identical to [`CapacityMeasure::influence`] on the same
/// set regardless of evaluation order.
#[derive(Debug, Clone)]
pub struct CapacityState {
    /// `moved[f]` = members of the running RNN set assigned to `f`.
    moved: Vec<u32>,
    /// `Σ_f [min(|R(f)|−moved[f], c(f)) − min(|R(f)|, c(f))]`.
    served_delta: i64,
    /// Size of the running RNN set.
    len: usize,
}

impl CapacityMeasure {
    /// Served-count contribution of facility `f` when `m` of its clients
    /// have defected to the candidate.
    #[inline]
    fn served(&self, f: usize, m: u32) -> i64 {
        let before = self.base_counts[f];
        debug_assert!(m <= before, "more defectors than clients at facility {f}");
        (before - m).min(self.capacities[f]) as i64
    }
}

impl IncrementalMeasure for CapacityMeasure {
    type State = CapacityState;

    fn new_state(&self) -> CapacityState {
        CapacityState { moved: vec![0; self.capacities.len()], served_delta: 0, len: 0 }
    }

    fn add(&self, state: &mut CapacityState, id: u32) {
        let f = self.assigned[id as usize] as usize;
        let m = state.moved[f];
        state.served_delta += self.served(f, m + 1) - self.served(f, m);
        state.moved[f] = m + 1;
        state.len += 1;
    }

    fn remove(&self, state: &mut CapacityState, id: u32) {
        let f = self.assigned[id as usize] as usize;
        let m = state.moved[f];
        debug_assert!(m > 0, "removing from a facility with no defectors");
        state.served_delta += self.served(f, m - 1) - self.served(f, m);
        state.moved[f] = m - 1;
        state.len -= 1;
    }

    fn current(&self, state: &CapacityState) -> f64 {
        // All terms are integers < 2^53: exact in f64, any order.
        self.base_total
            + state.served_delta as f64
            + (state.len as u32).min(self.new_capacity) as f64
    }
}

/// Number of "compatibility" edges with both endpoints inside the RNN set
/// (the taxi-sharing measure of Fig 3: passengers connected by an edge can
/// share a ride).
#[derive(Debug, Clone)]
pub struct ConnectivityMeasure {
    /// Adjacency lists over client ids; every edge appears in both lists.
    adj: Vec<Vec<u32>>,
}

impl ConnectivityMeasure {
    /// Builds the measure from an undirected edge list over client ids.
    pub fn from_edges(n_clients: usize, edges: &[(u32, u32)]) -> Self {
        let mut adj = vec![Vec::new(); n_clients];
        for &(a, b) in edges {
            assert_ne!(a, b, "self loops are not meaningful");
            adj[a as usize].push(b);
            adj[b as usize].push(a);
        }
        ConnectivityMeasure { adj }
    }
}

impl InfluenceMeasure for ConnectivityMeasure {
    fn influence(&self, rnn: &[u32]) -> f64 {
        let mut sorted = rnn.to_vec();
        sorted.sort_unstable();
        let mut twice_edges = 0u64;
        for &o in rnn {
            for nb in &self.adj[o as usize] {
                if sorted.binary_search(nb).is_ok() {
                    twice_edges += 1;
                }
            }
        }
        (twice_edges / 2) as f64
    }

    #[inline]
    fn integral_influence(&self) -> bool {
        // Edge counts are integers.
        true
    }

    fn cache_key(&self) -> u64 {
        crate::arrangement::fnv1a_words([0x434eu64, self.adj.len() as u64].into_iter().chain(
            self.adj.iter().flat_map(|nbrs| {
                // "CN"; adjacency lists in id order pin the edge set.
                std::iter::once(nbrs.len() as u64).chain(nbrs.iter().map(|&n| n as u64))
            }),
        ))
    }
}

/// Running state of [`ConnectivityMeasure`]: a membership bitmap plus the
/// count of edges with both endpoints present. Updates cost `O(deg)`.
#[derive(Debug, Clone)]
pub struct ConnectivityState {
    present: Vec<bool>,
    edges: u64,
}

impl IncrementalMeasure for ConnectivityMeasure {
    type State = ConnectivityState;

    fn new_state(&self) -> ConnectivityState {
        ConnectivityState { present: vec![false; self.adj.len()], edges: 0 }
    }

    fn add(&self, state: &mut ConnectivityState, id: u32) {
        debug_assert!(!state.present[id as usize], "duplicate add of client {id}");
        state.edges +=
            self.adj[id as usize].iter().filter(|&&nb| state.present[nb as usize]).count() as u64;
        state.present[id as usize] = true;
    }

    fn remove(&self, state: &mut ConnectivityState, id: u32) {
        state.present[id as usize] = false;
        state.edges -=
            self.adj[id as usize].iter().filter(|&&nb| state.present[nb as usize]).count() as u64;
    }

    fn current(&self, state: &ConnectivityState) -> f64 {
        state.edges as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_measure() {
        let m = CountMeasure;
        assert_eq!(m.influence(&[]), 0.0);
        assert_eq!(m.influence(&[3, 1, 2]), 3.0);
        assert_eq!(m.upper_bound(&[1], &[2, 3]), 3.0);
    }

    #[test]
    fn weighted_measure() {
        let m = WeightedMeasure::new(vec![1.0, 2.0, 0.5]);
        assert_eq!(m.influence(&[0, 2]), 1.5);
        assert_eq!(m.influence(&[1]), 2.0);
        assert_eq!(m.upper_bound(&[0], &[1, 2]), 3.5);
    }

    #[test]
    fn fig3_connectivity() {
        // Paper Fig. 3: O = {o0..o3}, edges connect o0–o1, o0–o3, o1–o3
        // (the paper draws o1, o2, o4 connected; ids here are 0-based:
        // o1→0, o2→1, o3→2, o4→3).
        let m = ConnectivityMeasure::from_edges(4, &[(0, 1), (0, 3), (1, 3)]);
        // RNN set {o1, o2, o4} = {0, 1, 3} has all three edges: heat 3.0.
        assert_eq!(m.influence(&[0, 1, 3]), 3.0);
        // RNN set {o1, o3, o4} = {0, 2, 3} has only edge o1–o4: heat 1.0.
        assert_eq!(m.influence(&[0, 2, 3]), 1.0);
        // Singletons and empty sets have no edges.
        assert_eq!(m.influence(&[2]), 0.0);
        assert_eq!(m.influence(&[]), 0.0);
    }

    #[test]
    fn capacity_measure_matches_definition() {
        // Two facilities: f0 capacity 1 serving clients {0, 1};
        // f1 capacity 5 serving client {2}. Base total = min(1,2) + min(5,1) = 2.
        let m = CapacityMeasure::new(vec![0, 0, 1], vec![1, 5], 2);
        assert_eq!(m.base_total(), 2.0);
        // Empty RNN set: nothing changes, plus an empty new facility.
        assert_eq!(m.influence(&[]), 2.0);
        // R(p) = {0}: f0 drops to 1 client (still ≥ cap 1, serves 1),
        // new facility serves 1. Total = 1 + 1 + 1 = 3.
        assert_eq!(m.influence(&[0]), 3.0);
        // R(p) = {0, 1, 2}: f0 serves 0, f1 serves 0, p serves min(3,2)=2.
        assert_eq!(m.influence(&[0, 1, 2]), 2.0);
        // Upper bound is admissible: bound({0}, {1,2}) ≥ both extensions.
        let ub = m.upper_bound(&[0], &[1, 2]);
        assert!(ub >= m.influence(&[0]));
        assert!(ub >= m.influence(&[0, 1]));
        assert!(ub >= m.influence(&[0, 1, 2]));
    }

    #[test]
    fn capacity_upper_bound_is_admissible_randomized() {
        // Randomized admissibility check across many configurations.
        let mut state = 99u64;
        let mut next = |m: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for _ in 0..200 {
            let nf = 1 + next(4) as usize;
            let nc = 1 + next(10) as usize;
            let assigned: Vec<u32> = (0..nc).map(|_| next(nf as u64) as u32).collect();
            let capacities: Vec<u32> = (0..nf).map(|_| 1 + next(3) as u32).collect();
            let measure = CapacityMeasure::new(assigned, capacities, 1 + next(4) as u32);
            let all: Vec<u32> = (0..nc as u32).collect();
            let split = next(nc as u64 + 1) as usize;
            let (inside, undecided) = all.split_at(split);
            let ub = measure.upper_bound(inside, undecided);
            // Any subset S with inside ⊆ S ⊆ inside ∪ undecided must be ≤ ub.
            for mask in 0..(1u32 << undecided.len().min(8)) {
                let mut s = inside.to_vec();
                for (b, &u) in undecided.iter().enumerate().take(8) {
                    if mask & (1 << b) != 0 {
                        s.push(u);
                    }
                }
                assert!(measure.influence(&s) <= ub + 1e-9, "ub {ub} violated by subset {s:?}");
            }
        }
    }

    /// Replays random add/remove sequences against a measure, asserting
    /// after each step that the incremental value equals a from-scratch
    /// `influence` evaluation of the same set (bitwise).
    fn check_incremental<M: IncrementalMeasure>(measure: &M, universe: u32, seed: u64) {
        let mut state = measure.new_state();
        let mut members: Vec<u32> = Vec::new();
        let mut rng_state = seed;
        let mut next = |m: u64| {
            rng_state =
                rng_state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng_state >> 33) % m
        };
        for step in 0..500 {
            let id = next(universe as u64) as u32;
            if let Some(pos) = members.iter().position(|&m| m == id) {
                members.swap_remove(pos);
                measure.remove(&mut state, id);
            } else {
                members.push(id);
                measure.add(&mut state, id);
            }
            let expect = measure.influence(&members);
            let got = measure.current(&state);
            assert!(
                got.to_bits() == expect.to_bits(),
                "step {step}: incremental {got} != influence {expect} on {members:?}"
            );
        }
    }

    #[test]
    fn count_incremental_matches_influence() {
        check_incremental(&CountMeasure, 40, 1);
    }

    #[test]
    fn weighted_incremental_matches_influence_on_dyadic_weights() {
        // Dyadic weights sum exactly in f64, so insertion order cannot
        // change the result and bit-identity must hold.
        let weights: Vec<f64> = (0..40).map(|i| (i % 13) as f64 * 0.25).collect();
        check_incremental(&WeightedMeasure::new(weights), 40, 2);
    }

    #[test]
    fn capacity_incremental_matches_influence() {
        let assigned: Vec<u32> = (0..40).map(|i| i % 5).collect();
        let capacities = vec![1, 5, 2, 3, 4];
        check_incremental(&CapacityMeasure::new(assigned, capacities, 3), 40, 3);
    }

    #[test]
    fn connectivity_incremental_matches_influence() {
        let edges: Vec<(u32, u32)> =
            (0..40u32).flat_map(|a| [(a, (a + 1) % 40), (a, (a + 7) % 40)]).collect();
        check_incremental(&ConnectivityMeasure::from_edges(40, &edges), 40, 4);
    }

    #[test]
    fn exact_fallback_tracks_any_measure() {
        // A deliberately order-insensitive but non-decomposable measure:
        // the maximum client id in the set.
        struct MaxId;
        impl InfluenceMeasure for MaxId {
            fn influence(&self, rnn: &[u32]) -> f64 {
                rnn.iter().copied().max().map_or(0.0, |m| m as f64 + 1.0)
            }
        }
        check_incremental(&ExactFallback(MaxId), 25, 5);
    }

    #[test]
    fn cache_keys_distinguish_types_and_parameters() {
        let count = CountMeasure.cache_key();
        let w1 = WeightedMeasure::new(vec![1.0, 2.0]).cache_key();
        let w2 = WeightedMeasure::new(vec![1.0, 2.5]).cache_key();
        let cap1 = CapacityMeasure::new(vec![0, 0], vec![2], 1).cache_key();
        let cap2 = CapacityMeasure::new(vec![0, 0], vec![2], 2).cache_key();
        let conn1 = ConnectivityMeasure::from_edges(3, &[(0, 1)]).cache_key();
        let conn2 = ConnectivityMeasure::from_edges(3, &[(0, 2)]).cache_key();
        let keys = [count, w1, w2, cap1, cap2, conn1, conn2];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b, "cache keys must separate measures");
            }
        }
        // Stability across instances with identical parameters.
        assert_eq!(w1, WeightedMeasure::new(vec![1.0, 2.0]).cache_key());
        assert_eq!(count, CountMeasure.cache_key());
        // The fallback wrapper computes the same function → same key.
        assert_eq!(ExactFallback(CountMeasure).cache_key(), count);
    }

    #[test]
    fn state_for_replays_membership() {
        let edges: Vec<(u32, u32)> = (0..20u32).map(|a| (a, (a + 3) % 20)).collect();
        let m = ConnectivityMeasure::from_edges(20, &edges);
        let members = [3u32, 7, 10, 6, 1];
        // The state of `members`, each added once in slice order.
        let mut state = m.new_state();
        members.iter().for_each(|&id| m.add(&mut state, id));
        assert_eq!(m.current(&state), m.influence(&members));
        // Replay a delta on the rebuilt state.
        m.remove(&mut state, 7);
        m.add(&mut state, 4);
        let now = [3u32, 10, 6, 1, 4];
        assert_eq!(m.current(&state), m.influence(&now));
        // Weighted: rebuilt state matches the incremental contract.
        let w = WeightedMeasure::new((0..20).map(|i| i as f64 * 0.5).collect());
        let mut state = w.new_state();
        members.iter().for_each(|&id| w.add(&mut state, id));
        assert_eq!(w.current(&state).to_bits(), w.influence(&members).to_bits());
    }

    #[test]
    fn integral_hints_cover_integer_valued_measures() {
        assert!(CountMeasure.integral_influence());
        assert!(CapacityMeasure::new(vec![0], vec![1], 1).integral_influence());
        assert!(ConnectivityMeasure::from_edges(2, &[(0, 1)]).integral_influence());
        // Arbitrary weights are not integer-valued; the fallback
        // wrapper answers for its inner measure.
        assert!(!WeightedMeasure::new(vec![1.0]).integral_influence());
        assert!(ExactFallback(CountMeasure).integral_influence());
        assert!(!ExactFallback(WeightedMeasure::new(vec![0.5])).integral_influence());
    }

    #[test]
    fn connectivity_ignores_outside_edges() {
        let m = ConnectivityMeasure::from_edges(6, &[(0, 1), (1, 2), (4, 5)]);
        assert_eq!(m.influence(&[0, 1, 2]), 2.0);
        assert_eq!(m.influence(&[0, 2]), 0.0); // 0–2 not an edge
        assert_eq!(m.influence(&[4, 5]), 1.0);
        assert_eq!(m.influence(&[0, 1, 4]), 1.0);
    }
}
