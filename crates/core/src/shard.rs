//! Spatial sharding of an arrangement snapshot (the millions-of-points
//! substrate).
//!
//! A [`crate::snapshot::ArrangementSnapshot`] stores every NN-circle of
//! the dataset; restricting it to a tile extent scans all of them.
//! That scan is O(n) per tile — fine at n = 100k, ruinous at n = 5M. A
//! [`ShardMap`] cuts the *clients* into vertical slabs of their
//! sweep-space centers (slabs across the sweep's x axis), so the
//! snapshot can
//!
//! * **build** shard-independently (each shard's members are known
//!   before any geometry exists, because membership depends only on
//!   the immutable client centers),
//! * **route** [`crate::snapshot::ArrangementSnapshot::restrict_to`]
//!   to the shards whose bounding box intersects the query window —
//!   per-tile cost becomes O(shards touched), and
//! * **edit** shard-locally: a facility edit changes the radii of a
//!   geometrically local set of clients, so only the shards owning
//!   those clients recompute their bounding box and fingerprint.
//!
//! Membership is *permanent*: a client's NN-circle grows and shrinks
//! under edits, but its center never moves, so the member lists are
//! built once and shared (`Arc`) by every snapshot of the lineage.
//! Only the small per-shard summaries (bbox, fingerprint) are
//! recomputed, and only for dirty shards.
//!
//! Per-shard fingerprints hash each member's owner id and current
//! circle geometry; [`ShardMap::compose_fingerprint`] folds them (in
//! shard order) with the snapshot's own fingerprint into the composed
//! cache key, so any single shard's change changes the snapshot key.

use std::sync::Arc;

use rnnhm_geom::Rect;

use crate::arrangement::fnv1a_words;

/// Discriminant word mixed into composed sharded fingerprints.
const SHARD_FP_SEED: u64 = 0x5348; // "SH"

/// A spatial partition of a snapshot's clients into vertical slabs of
/// sweep-space center x, with per-shard summaries. See the module docs.
#[derive(Debug, Clone)]
pub struct ShardMap {
    /// Interior slab boundaries in ascending order (`n_shards - 1`
    /// entries); shard `s` owns centers in `[bounds[s-1], bounds[s])`,
    /// the first and last slabs extending to ±∞.
    bounds: Vec<f64>,
    /// Member client ids per shard, ascending. Immutable for the
    /// lineage's lifetime (centers never move), hence shared.
    members: Vec<Arc<Vec<u32>>>,
    /// Sweep-space bounding box of the members' *current* circles
    /// (`None` when every member circle is dropped / zero-radius).
    bboxes: Vec<Option<Rect>>,
    /// Per-shard geometry fingerprints, recomputed only for shards an
    /// edit dirtied.
    fingerprints: Vec<u64>,
}

impl ShardMap {
    /// Partitions clients into `n_shards` slabs balanced on the
    /// sweep-space center xs (`xs[i]` belongs to client `i`). Interior
    /// boundaries are the member-count quantiles; duplicate quantile
    /// values simply yield empty shards. Summaries start empty — the
    /// snapshot fills them via its geometry (`refresh` hooks).
    pub(crate) fn partition(xs: &[f64], n_shards: usize) -> ShardMap {
        assert!(n_shards >= 1, "need at least one shard");
        let mut sorted: Vec<f64> = xs.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mut bounds = Vec::with_capacity(n_shards.saturating_sub(1));
        for s in 1..n_shards {
            bounds.push(sorted[s * sorted.len() / n_shards]);
        }
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); n_shards];
        for (i, &x) in xs.iter().enumerate() {
            members[bounds.partition_point(|b| *b <= x)].push(i as u32);
        }
        ShardMap {
            bounds,
            members: members.into_iter().map(Arc::new).collect(),
            bboxes: vec![None; n_shards],
            fingerprints: vec![0; n_shards],
        }
    }

    /// Number of shards (≥ 1; some may be empty).
    pub fn n_shards(&self) -> usize {
        self.members.len()
    }

    /// The shard owning a sweep-space center x.
    pub fn shard_of(&self, x: f64) -> usize {
        self.bounds.partition_point(|b| *b <= x)
    }

    /// Member client ids of shard `s`, ascending.
    pub fn members(&self, s: usize) -> &[u32] {
        &self.members[s]
    }

    /// Sweep-space bounding box of shard `s`'s live circles.
    pub fn bbox(&self, s: usize) -> Option<Rect> {
        self.bboxes[s]
    }

    /// Per-shard geometry fingerprints, in shard order.
    pub fn fingerprints(&self) -> &[u64] {
        &self.fingerprints
    }

    /// Stores a freshly computed summary for shard `s`.
    pub(crate) fn set_summary(&mut self, s: usize, bbox: Option<Rect>, fingerprint: u64) {
        self.bboxes[s] = bbox;
        self.fingerprints[s] = fingerprint;
    }

    /// The composed snapshot fingerprint: `base` (the unsharded /
    /// salted fingerprint, which carries edit uniqueness) folded with
    /// every per-shard fingerprint in shard order.
    pub fn compose_fingerprint(&self, base: u64) -> u64 {
        fnv1a_words(
            [SHARD_FP_SEED, self.n_shards() as u64, base]
                .into_iter()
                .chain(self.fingerprints.iter().copied()),
        )
    }

    /// The shards whose bbox intersects `window` (sweep space), for
    /// restrict routing.
    pub(crate) fn candidates(&self, window: &Rect) -> impl Iterator<Item = usize> + '_ {
        let window = *window;
        self.bboxes
            .iter()
            .enumerate()
            .filter(move |(_, bb)| bb.is_some_and(|bb| bb.intersects(&window)))
            .map(|(s, _)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_all_clients_exactly_once() {
        let xs: Vec<f64> = (0..100).map(|i| (i * 37 % 100) as f64).collect();
        for n_shards in [1, 2, 3, 7, 16] {
            let map = ShardMap::partition(&xs, n_shards);
            assert_eq!(map.n_shards(), n_shards);
            let mut seen = vec![false; xs.len()];
            for s in 0..n_shards {
                let mut prev: Option<u32> = None;
                for &m in map.members(s) {
                    assert!(!seen[m as usize], "client {m} in two shards");
                    seen[m as usize] = true;
                    assert!(prev.is_none_or(|p| p < m), "members not ascending");
                    prev = Some(m);
                    assert_eq!(map.shard_of(xs[m as usize]), s, "shard_of disagrees");
                }
            }
            assert!(seen.iter().all(|&b| b), "client lost by the partition");
        }
    }

    #[test]
    fn boundary_values_go_right() {
        // Center exactly on an interior bound belongs to the right
        // (left-closed) shard — mirroring `partition_point` semantics.
        let xs = vec![0.0, 1.0, 2.0, 3.0];
        let map = ShardMap::partition(&xs, 2);
        let bound = map.bounds[0];
        let s = map.shard_of(bound);
        assert!(map.members(s).iter().any(|&m| xs[m as usize] == bound));
        assert_eq!(map.shard_of(bound - 1e-9), s - 1);
    }

    #[test]
    fn compose_changes_with_any_shard() {
        let xs: Vec<f64> = (0..32).map(|i| i as f64).collect();
        let mut map = ShardMap::partition(&xs, 4);
        for s in 0..4 {
            map.set_summary(s, Some(Rect::new(0.0, 1.0, 0.0, 1.0)), 100 + s as u64);
        }
        let fp0 = map.compose_fingerprint(7);
        assert_ne!(fp0, map.compose_fingerprint(8), "base must matter");
        map.set_summary(2, Some(Rect::new(0.0, 1.0, 0.0, 1.0)), 999);
        assert_ne!(fp0, map.compose_fingerprint(7), "shard fingerprint must matter");
    }
}
