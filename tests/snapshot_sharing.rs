//! Snapshot fork and copy-on-write storage contracts (ISSUE 5
//! acceptance): forking is `O(1)` — the fork *is* the same snapshot,
//! no circles or candidate lists are cloned, asserted via
//! shared-allocation pointer equality — and an edit's successor
//! snapshot shares every untouched storage chunk with its parent.
//!
//! Region-memo contracts: every session, fork and `session_at` on one
//! snapshot shares its top-k and placement answers, bit for bit, and
//! computes each once (counted through the measure's `influence`
//! calls); an edit's successor starts empty, a geometric no-op carries
//! the memo, and answers never leak across `m`, `k` or measures.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use common::{placement_bits, region_bits, Counted};
use rnn_heatmap::prelude::*;
use rnn_heatmap::{ExplorationEngine, HeatMapBuilder};

/// Deterministic uniform points on the span (the library's own
/// generator — `rnnhm_data::gen::uniform` — reused instead of a
/// hand-rolled PRNG).
fn pseudo_points(n: usize, seed: u64, span: f64) -> Vec<Point> {
    rnn_heatmap::data::uniform(n, Rect::new(0.0, span, 0.0, span), seed)
}

#[test]
fn fork_is_the_same_snapshot_no_copies() {
    let clients = pseudo_points(10_000, 3, 1.0);
    let facilities = pseudo_points(100, 5, 1.0);
    let engine = HeatMapBuilder::bichromatic(clients, facilities)
        .metric(Metric::Linf)
        .build_engine(CountMeasure)
        .expect("non-empty input");
    let session = engine.session();
    let fork = session.fork();
    // O(1) fork: literally the same allocation, not a copy of any
    // circle or candidate list.
    assert!(
        Arc::ptr_eq(session.snapshot(), fork.snapshot()),
        "a fork must share the snapshot allocation"
    );
    assert_eq!(session.fingerprint(), fork.fingerprint());
    // And the same snapshot as the engine root.
    assert!(Arc::ptr_eq(session.snapshot(), engine.root_snapshot()));
    // Full self-sharing, for the record.
    let self_sharing = session.snapshot().storage_sharing(fork.snapshot());
    assert_eq!(self_sharing.shared_chunks, self_sharing.total_chunks);
    assert!(self_sharing.shares_clients);
}

#[test]
fn edits_share_untouched_chunks_with_the_parent() {
    let clients = pseudo_points(20_000, 7, 1.0);
    let facilities = pseudo_points(250, 9, 1.0);
    let engine = HeatMapBuilder::bichromatic(clients, facilities)
        .metric(Metric::Linf)
        .build_engine(CountMeasure)
        .expect("non-empty input");
    let parent = engine.session();
    let mut child = parent.fork();
    // A geometrically local edit: only the clients near the new
    // facility change circles.
    let (_, dirty) = child.add_facility(Point::new(0.31, 0.62)).unwrap();
    assert!(!dirty.is_empty());
    assert!(!Arc::ptr_eq(parent.snapshot(), child.snapshot()), "the edit committed a new version");
    assert_ne!(parent.fingerprint(), child.fingerprint());

    let sharing = child.snapshot().storage_sharing(parent.snapshot());
    assert!(sharing.shares_clients, "the client set is never copied");
    assert!(
        sharing.shared_chunks * 4 > sharing.total_chunks * 3,
        "chunk-level copy-on-write must keep most storage shared after a local edit: {sharing:?}"
    );

    // The parent is bitwise untouched: its view of the world renders
    // exactly as before the child's edit.
    let rect = Rect::new(0.2, 0.8, 0.4, 0.9);
    let parent_frame = parent.viewport(rect, 64, 64);
    let parent_one_shot = parent.raster(parent_frame.spec);
    for (a, b) in parent_frame.values().iter().zip(parent_one_shot.values()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    // And the branches disagree exactly where the edit landed.
    let child_frame = child.viewport(rect, 64, 64);
    assert_ne!(child_frame.values(), parent_frame.values());
}

#[test]
fn noop_edits_commit_without_new_fingerprints() {
    let clients = pseudo_points(500, 11, 1.0);
    let facilities = pseudo_points(10, 13, 1.0);
    let engine = HeatMapBuilder::bichromatic(clients, facilities)
        .metric(Metric::L2)
        .build_engine(CountMeasure)
        .expect("non-empty input");
    let mut session = engine.session();
    let fp = session.fingerprint();
    let gen = session.generation();
    // A facility in the far wilderness steals no client: the snapshot
    // changes (facility bookkeeping) but the geometry — and thus the
    // cache fingerprint — does not.
    let (id, dirty) = session.add_facility(Point::new(500.0, 500.0)).unwrap();
    assert!(dirty.is_empty());
    assert_eq!(session.fingerprint(), fp);
    assert_eq!(session.generation(), gen);
    assert_eq!(session.n_facilities(), 11);
    // Removing it is equally invisible.
    let dirty = session.remove_facility(id).unwrap();
    assert!(dirty.is_empty());
    assert_eq!(session.fingerprint(), fp);
}

#[test]
fn engine_registry_tracks_live_snapshots() {
    let clients = pseudo_points(400, 17, 1.0);
    let facilities = pseudo_points(8, 19, 1.0);
    let engine = HeatMapBuilder::bichromatic(clients, facilities)
        .metric(Metric::Linf)
        .build_engine(CountMeasure)
        .expect("non-empty input");
    assert_eq!(engine.snapshots().len(), 1, "the root is registered at build");

    let mut a = engine.session();
    a.add_facility(Point::new(0.5, 0.5)).unwrap();
    let mut b = a.fork();
    b.add_facility(Point::new(0.25, 0.75)).unwrap();
    let live = engine.snapshots();
    assert_eq!(live.len(), 3, "root + two committed edits are alive");
    assert!(live.iter().any(|s| s.fingerprint() == a.fingerprint()));
    assert!(live.iter().any(|s| s.fingerprint() == b.fingerprint()));

    // Dropping a branch lets its snapshot be garbage-collected: the
    // registry only upgrades snapshots some session still holds.
    // (Drop our own listing first — it pins every snapshot it lists.)
    drop(live);
    let b_fp = b.fingerprint();
    drop(b);
    let live = engine.snapshots();
    assert!(
        !live.iter().any(|s| s.fingerprint() == b_fp),
        "a dropped branch's snapshot must not be resurrectable"
    );
    // Time travel to a live snapshot yields a working session.
    let back = engine.session_at(live[0].clone());
    assert!(back.n_circles() > 0);
}

#[test]
fn registry_prunes_dead_entries_eagerly_and_reports_stats() {
    let clients = pseudo_points(400, 23, 1.0);
    let facilities = pseudo_points(8, 29, 1.0);
    let engine = HeatMapBuilder::bichromatic(clients, facilities)
        .metric(Metric::Linf)
        .build_engine(CountMeasure)
        .expect("non-empty input");

    // Commit-and-drop a pile of branches: without eager pruning the
    // registry would hold a dead weak ref per commit until the
    // periodic (every-64th) sweep.
    for i in 0..20 {
        let mut s = engine.session();
        s.add_facility(Point::new(0.3 + 0.02 * i as f64, 0.4)).unwrap();
        // `s` drops here; its snapshot dies with it.
    }
    let st = engine.registry_stats();
    assert_eq!(st.registered, 21, "root + 20 commits registered over the lifetime");
    assert!(st.live >= 1, "the root is always alive");
    // `session()` pruned on each loop iteration, so dead entries never
    // piled past one generation's worth.
    assert!(
        st.entries <= st.live + 1,
        "session() must keep the registry near its live size: {st:?}"
    );

    // `gc()` sweeps the remaining backlog and reports the live view.
    let swept = engine.gc();
    assert_eq!(swept.entries, swept.live, "gc leaves no dead entries behind");
    assert_eq!(swept.registered, 21, "lifetime count is monotone");
    assert_eq!(swept.live, engine.snapshots().len());

    // `snapshots()` prunes too: park a dead branch, list, and check
    // the backlog is gone without an explicit gc.
    let mut s = engine.session();
    s.add_facility(Point::new(0.71, 0.42)).unwrap();
    drop(s);
    let before = engine.registry_stats();
    assert!(before.entries > before.live, "a dead branch is parked");
    let _ = engine.snapshots();
    let after = engine.registry_stats();
    assert_eq!(after.entries, after.live, "snapshots() swept the dead entry");
}

/// The instance the region-memo tests ask about.
fn memo_engine<M: InfluenceMeasure>(measure: M) -> ExplorationEngine<M> {
    HeatMapBuilder::bichromatic(pseudo_points(600, 41, 1.0), pseudo_points(30, 43, 1.0))
        .metric(Metric::Linf)
        .build_engine(measure)
        .expect("non-empty input")
}

#[test]
fn region_answers_are_computed_once_per_snapshot() {
    let engine = memo_engine(Counted::new(CountMeasure));
    let measure = engine.measure();
    let session = engine.session();
    let placements = session.top_placements(3);
    let top = session.top_k(5);
    let computed = measure.calls();
    assert!(computed > 0, "the first asks compute");
    let readers = [session.fork(), engine.session(), engine.session_at(session.snapshot().clone())];
    for (i, reader) in readers.iter().enumerate() {
        assert_eq!(placement_bits(&reader.top_placements(3)), placement_bits(&placements), "{i}");
        assert_eq!(region_bits(&reader.top_k(5)), region_bits(&top), "reader {i}");
    }
    assert_eq!(measure.calls(), computed, "repeat asks on one snapshot compute nothing");
    // The memo holds the uncached answers.
    let query = PlacementQuery::new(session.snapshot(), measure);
    assert_eq!(placement_bits(&query.top_placements(3)), placement_bits(&placements));
    assert_eq!(region_bits(&top_k(&session.regions(), 5)), region_bits(&top));
}

#[test]
fn an_edit_starts_an_empty_memo_and_leaves_the_parent_s() {
    let engine = memo_engine(Counted::new(CountMeasure));
    let measure = engine.measure();
    let mut session = engine.session();
    let parent_placements = session.top_placements(3);
    let parent_top = session.top_k(5);
    let parent = session.fork();
    // A facility on the best placement takes its clients, so the
    // successor's answers differ from the parent's.
    let (_, dirty) = session.add_facility(parent_placements[0].point).unwrap();
    assert!(!dirty.is_empty());

    let before = measure.calls();
    let placements = session.top_placements(3);
    let top = session.top_k(5);
    assert!(measure.calls() > before, "the successor's memo starts empty");
    assert_ne!(placement_bits(&placements), placement_bits(&parent_placements));
    let query = PlacementQuery::new(session.snapshot(), measure);
    assert_eq!(placement_bits(&placements), placement_bits(&query.top_placements(3)));
    assert_eq!(region_bits(&top), region_bits(&top_k(&session.regions(), 5)));

    let before = measure.calls();
    assert_eq!(placement_bits(&parent.top_placements(3)), placement_bits(&parent_placements));
    assert_eq!(region_bits(&parent.top_k(5)), region_bits(&parent_top));
    assert_eq!(measure.calls(), before, "a fork left on the parent reads the parent's memo");
}

#[test]
fn a_geometric_noop_edit_carries_the_memo() {
    let engine = memo_engine(Counted::new(CountMeasure));
    let mut session = engine.session();
    let placements = session.top_placements(3);
    let top = session.top_k(5);
    let before = engine.measure().calls();
    let (_, dirty) = session.add_facility(Point::new(500.0, 500.0)).unwrap();
    assert!(dirty.is_empty(), "a far facility takes no client");
    assert_eq!(placement_bits(&session.top_placements(3)), placement_bits(&placements));
    assert_eq!(region_bits(&session.top_k(5)), region_bits(&top));
    assert_eq!(engine.measure().calls(), before, "the no-op successor reads the carried memo");
}

#[test]
fn each_m_and_k_gets_its_own_answer() {
    let engine = memo_engine(CountMeasure);
    let session = engine.session();
    let query = PlacementQuery::new(session.snapshot(), &CountMeasure);
    for m in [3, 5, 3, 1] {
        let want = placement_bits(&query.top_placements(m));
        assert_eq!(placement_bits(&session.top_placements(m)), want, "m = {m}");
    }
    let regions = session.regions();
    for k in [3, 5, 8, 1] {
        assert_eq!(region_bits(&session.top_k(k)), region_bits(&top_k(&regions, k)), "k = {k}");
    }
}

#[test]
fn a_smaller_k_is_a_prefix_of_the_memo() {
    let engine = memo_engine(Counted::new(CountMeasure));
    let session = engine.session();
    let top = session.top_k(5);
    assert_eq!(top.len(), 5);
    let before = engine.measure().calls();
    assert_eq!(region_bits(&session.top_k(3)), region_bits(&top[..3]));
    assert_eq!(region_bits(&session.fork().top_k(2)), region_bits(&top[..2]));
    assert_eq!(engine.measure().calls(), before, "a smaller k reads the held answer");
}

#[test]
fn engines_with_different_measures_do_not_share_answers() {
    let count = memo_engine(CountMeasure);
    let session = count.session();
    let count_placements = session.top_placements(3);
    let count_top = session.top_k(5);
    let weights: Vec<f64> = (0..600).map(|i| 0.1 + (i % 7) as f64 * 0.35).collect();
    let weighted = memo_engine(WeightedMeasure::new(weights));
    let at = weighted.session_at(session.snapshot().clone());
    let placements = at.top_placements(3);
    let top = at.top_k(5);
    let query = PlacementQuery::new(session.snapshot(), weighted.measure());
    assert_eq!(placement_bits(&placements), placement_bits(&query.top_placements(3)));
    assert_eq!(region_bits(&top), region_bits(&top_k(&at.regions(), 5)));
    assert_ne!(placement_bits(&placements), placement_bits(&count_placements));
    assert_ne!(region_bits(&top), region_bits(&count_top));
}

#[test]
fn a_panicking_first_ask_leaves_the_key_empty() {
    let engine = memo_engine(Counted::panicking(CountMeasure));
    let session = engine.session();
    let placements = PlacementQuery::new(session.snapshot(), &CountMeasure).top_placements(3);
    let mut sink = CollectSink::default();
    session.snapshot().sweep(&CountMeasure, &mut sink);
    let top = top_k(&sink.regions, 5);

    assert!(catch_unwind(AssertUnwindSafe(|| session.top_placements(3))).is_err());
    assert_eq!(placement_bits(&session.top_placements(3)), placement_bits(&placements));
    engine.measure().reset();
    assert!(catch_unwind(AssertUnwindSafe(|| session.top_k(5))).is_err());
    // The key left empty is k = 5, so a smaller ask computes it whole.
    assert_eq!(region_bits(&session.top_k(3)), region_bits(&top[..3]));
    let before = engine.measure().calls();
    assert_eq!(region_bits(&session.top_k(5)), region_bits(&top));
    assert_eq!(engine.measure().calls(), before, "k = 5 was computed by the k = 3 ask");
}
