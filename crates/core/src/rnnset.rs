//! The running RNN set maintained during a sweep.
//!
//! The paper (§V-D): "To facilitate efficient insert, delete and copy
//! operations on the base set, we keep the data points in a linked list and
//! store pointers to the nodes in the linked list with an additional random
//! access data structure indexed by the data points."
//!
//! We achieve the same O(1) add / remove / membership and O(λ) copy
//! with a dense pair of arrays: an unordered member vector plus a
//! position table indexed by client id (swap-remove keeps it dense).
//!
//! The copies land in `Records`, the sweeps' record table `P`: each
//! copy of the base set is written, in member order, into a buffer that
//! a side of the line status owns while it is in the line, and a side
//! leaving the line hands its buffer back for the next one to reuse.

/// A mutable set of client ids with O(1) add/remove/contains and O(λ)
/// iteration and copy, where λ is the current size.
#[derive(Debug, Clone)]
pub struct RnnSet {
    members: Vec<u32>,
    /// `pos[id]` = index of `id` in `members`, or `u32::MAX` when absent.
    pos: Vec<u32>,
}

const ABSENT: u32 = u32::MAX;

impl RnnSet {
    /// Creates an empty set over the id universe `0..universe`.
    pub fn new(universe: usize) -> Self {
        RnnSet { members: Vec::new(), pos: vec![ABSENT; universe] }
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether `id` is a member.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        self.pos[id as usize] != ABSENT
    }

    /// Adds `id`; returns `false` if already present.
    #[inline]
    pub fn add(&mut self, id: u32) -> bool {
        if self.contains(id) {
            return false;
        }
        self.pos[id as usize] = self.members.len() as u32;
        self.members.push(id);
        true
    }

    /// Removes `id`; returns `false` if absent. O(1) via swap-remove.
    #[inline]
    pub fn remove(&mut self, id: u32) -> bool {
        let p = self.pos[id as usize];
        if p == ABSENT {
            return false;
        }
        let last = *self.members.last().expect("non-empty when removing");
        self.members.swap_remove(p as usize);
        if last != id {
            self.pos[last as usize] = p;
        }
        self.pos[id as usize] = ABSENT;
        true
    }

    /// The members, unordered.
    #[inline]
    pub fn members(&self) -> &[u32] {
        &self.members
    }

    /// Empties the set. O(λ).
    pub fn clear(&mut self) {
        for &id in &self.members {
            self.pos[id as usize] = ABSENT;
        }
        self.members.clear();
    }

    /// Replaces the contents with `ids`. O(λ_old + λ_new).
    pub fn load(&mut self, ids: &[u32]) {
        self.clear();
        for &id in ids {
            let added = self.add(id);
            debug_assert!(added, "duplicate id {id} in load");
        }
    }
}

/// The record table `P` of a changed-interval sweep (§V-C): per side of
/// the line status, a copy of the RNN set of the pair above it.
///
/// A record lives in a buffer that its side keeps while it is in the
/// line; rewriting the record refills that buffer in place, and a side
/// leaving the line returns it to a free list for the next record. So a
/// sweep allocates at most one buffer per side that is in the line at
/// once (its `peak_line`), not one per walked side.
pub(crate) struct Records {
    /// `slots[side]`: the index into `bufs` of the side's record, or
    /// `ABSENT` when it has none. Four bytes a side, where an
    /// `Option<Vec<u32>>` would take 24: every side of the arrangement
    /// has a slot, but only the sides in the line hold a buffer.
    slots: Vec<u32>,
    bufs: Vec<Vec<u32>>,
    /// Indices of the buffers no side holds.
    free: Vec<u32>,
}

impl Records {
    /// An empty table over the sides `0..n_slots`.
    pub(crate) fn new(n_slots: usize) -> Self {
        Records { slots: vec![ABSENT; n_slots], bufs: Vec::new(), free: Vec::new() }
    }

    /// The record of `slot`, or `None` when the side has none. An empty
    /// record is `Some(&[])`.
    #[inline]
    pub(crate) fn get(&self, slot: usize) -> Option<&[u32]> {
        match self.slots[slot] {
            ABSENT => None,
            b => Some(&self.bufs[b as usize]),
        }
    }

    /// Sets the record of `slot` to `members`, in order. A buffer grows
    /// to exactly the largest record it has held, never beyond.
    #[inline]
    pub(crate) fn write(&mut self, slot: usize, members: &[u32]) {
        let b = match self.slots[slot] {
            ABSENT => {
                let b = self.free.pop().unwrap_or_else(|| {
                    self.bufs.push(Vec::new());
                    (self.bufs.len() - 1) as u32
                });
                self.slots[slot] = b;
                b
            }
            b => b,
        };
        let buf = &mut self.bufs[b as usize];
        buf.clear();
        buf.reserve_exact(members.len());
        buf.extend_from_slice(members);
    }

    /// Drops the record of `slot` (a side leaving the line), keeping its
    /// buffer for reuse.
    #[inline]
    pub(crate) fn remove(&mut self, slot: usize) {
        let b = std::mem::replace(&mut self.slots[slot], ABSENT);
        if b != ABSENT {
            self.free.push(b);
        }
    }

    /// Buffers allocated so far, held or free.
    #[cfg(test)]
    pub(crate) fn buffers(&self) -> usize {
        self.bufs.len()
    }

    /// Ids the buffers have room for.
    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.bufs.iter().map(Vec::capacity).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_remove_contains() {
        let mut s = RnnSet::new(10);
        assert!(s.add(3));
        assert!(s.add(7));
        assert!(!s.add(3), "duplicate add");
        assert!(s.contains(3) && s.contains(7) && !s.contains(5));
        assert_eq!(s.len(), 2);
        assert!(s.remove(3));
        assert!(!s.remove(3), "double remove");
        assert!(!s.contains(3));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn swap_remove_keeps_positions_consistent() {
        let mut s = RnnSet::new(100);
        for id in 0..50 {
            s.add(id);
        }
        // Remove from the middle repeatedly; membership stays consistent.
        for id in (0..50).step_by(3) {
            s.remove(id);
        }
        for id in 0..50u32 {
            assert_eq!(s.contains(id), id % 3 != 0, "id {id}");
        }
        let mut snap = s.members().to_vec();
        snap.sort_unstable();
        let expect: Vec<u32> = (0..50).filter(|i| i % 3 != 0).collect();
        assert_eq!(snap, expect);
    }

    #[test]
    fn load_and_clear() {
        let mut s = RnnSet::new(20);
        s.add(1);
        s.add(2);
        s.load(&[5, 9, 13]);
        assert!(!s.contains(1) && !s.contains(2));
        assert!(s.contains(5) && s.contains(9) && s.contains(13));
        assert_eq!(s.len(), 3);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(5));
    }

    #[test]
    fn mirrors_reference_set_under_random_ops() {
        use std::collections::HashSet;
        let mut s = RnnSet::new(64);
        let mut reference = HashSet::new();
        let mut state = 12345u64;
        for _ in 0..10_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let id = ((state >> 33) % 64) as u32;
            if state.is_multiple_of(2) {
                assert_eq!(s.add(id), reference.insert(id));
            } else {
                assert_eq!(s.remove(id), reference.remove(&id));
            }
            assert_eq!(s.len(), reference.len());
        }
        let mut snap = s.members().to_vec();
        snap.sort_unstable();
        let mut expect: Vec<u32> = reference.into_iter().collect();
        expect.sort_unstable();
        assert_eq!(snap, expect);
    }

    #[test]
    fn absent_record_differs_from_empty_record() {
        let mut r = Records::new(4);
        assert_eq!(r.get(0), None);
        r.write(0, &[]);
        assert_eq!(r.get(0), Some(&[][..]));
        assert_eq!(r.get(1), None, "writing one side leaves the others absent");
    }

    #[test]
    fn reused_buffer_holds_exactly_the_latest_set_in_order() {
        let mut r = Records::new(4);
        r.write(0, &[4, 1, 3]);
        // Rewritten in place: larger, then smaller; order is kept as given.
        r.write(0, &[9, 2, 7, 5, 8, 0]);
        assert_eq!(r.get(0), Some(&[9, 2, 7, 5, 8, 0][..]));
        r.write(0, &[6, 2]);
        assert_eq!(r.get(0), Some(&[6, 2][..]));
        assert_eq!(r.capacity(), 6, "grown to the largest record, no further");
        // Through the free list: side 0 leaves, side 3 takes its buffer.
        r.write(0, &[11, 10, 12, 13, 14]);
        r.remove(0);
        r.write(3, &[13, 11]);
        assert_eq!(r.get(3), Some(&[13, 11][..]));
        assert_eq!(r.buffers(), 1, "side 3 reused side 0's buffer");
    }

    #[test]
    fn removed_side_has_no_record() {
        let mut r = Records::new(4);
        r.write(1, &[5]);
        r.write(2, &[5, 6]);
        r.remove(1);
        assert_eq!(r.get(1), None, "the predecessor lookup must see no record");
        assert_eq!(r.get(2), Some(&[5, 6][..]));
        r.remove(1); // removing an absent record is a no-op...
        r.write(0, &[]);
        r.write(3, &[7]);
        // ...so side 1's buffer went to one side only, not to both.
        assert_eq!(r.buffers(), 3);
        assert_eq!(r.get(0), Some(&[][..]));
        assert_eq!(r.get(3), Some(&[7][..]));
    }

    /// 2,000 clients + 200 facilities from the LCG of the sweep goldens.
    fn lcg2k() -> (Vec<rnnhm_geom::Point>, Vec<rnnhm_geom::Point>) {
        let mut state = 0x0005_ee9d_2000u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64) * 10.0
        };
        let mut point = || rnnhm_geom::Point::new(next(), next());
        let clients = (0..2_000).map(|_| point()).collect();
        let facilities = (0..200).map(|_| point()).collect();
        (clients, facilities)
    }

    #[test]
    fn a_sweep_allocates_at_most_one_buffer_per_peak_line_side() {
        use crate::arrangement::{build_disk_arrangement_k, build_square_arrangement_k, Mode};
        use crate::measure::CountMeasure;
        use crate::sink::NullSink;
        let (clients, facilities) = lcg2k();
        for k in [1, 2] {
            let arr = build_square_arrangement_k(
                &clients,
                &facilities,
                rnnhm_geom::Metric::Linf,
                Mode::Bichromatic,
                k,
            )
            .unwrap();
            let mut records = Records::new(arr.squares.len() * 2);
            let stats =
                crate::crest::crest_sweep_with(&arr, &CountMeasure, &mut NullSink, &mut records);
            assert!(records.buffers() <= stats.peak_line, "L∞, k = {k}");

            let arr =
                build_disk_arrangement_k(&clients, &facilities, Mode::Bichromatic, k).unwrap();
            let mut records = Records::new(arr.disks.len() * 2);
            let stats = crate::crest_l2::crest_l2_sweep_with(
                &arr,
                &CountMeasure,
                &mut NullSink,
                &mut records,
            );
            assert!(records.buffers() <= stats.peak_line, "L2, k = {k}");
        }
    }
}
