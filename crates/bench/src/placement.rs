//! Placement agreement on this crate's Uniform workload. The
//! *incremental path* scores candidate sites with
//! [`PlacementQuery::evaluate_insert`] (a point-enclosure stab plus a
//! tentative snapshot insert whose drop is a bitwise undo) and runs the
//! greedy multi-facility loop on the same snapshot. The *rebuild path*
//! rebuilds every NN circle from scratch per candidate, and per greedy
//! step, before scoring. Both must agree bitwise on every influence.

use rnnhm_core::arrangement::{build_square_arrangement_k, Mode};
use rnnhm_core::crest::crest_sweep;
use rnnhm_core::measure::CountMeasure;
use rnnhm_core::placement::{PlacementConstraints, PlacementQuery};
use rnnhm_core::sink::MaxSink;
use rnnhm_core::snapshot::ArrangementSnapshot;
use rnnhm_geom::{Metric, Point};

use crate::workload::{build_workload, DatasetKind};

/// One placement run.
struct PlacementRun {
    /// Candidate sites scored.
    candidates: usize,
    /// Greedy steps taken.
    greedy_steps: usize,
    /// Whether every candidate score and every greedy argmax agreed
    /// bitwise between the two paths.
    identical: bool,
}

/// Scores `n_candidates` deterministic sites and runs `greedy_steps`
/// greedy placements on both paths; `ratio` is `|O|/|F|`.
fn compare_placement_paths(
    n_clients: usize,
    ratio: usize,
    n_candidates: usize,
    greedy_steps: usize,
    seed: u64,
    k: usize,
) -> PlacementRun {
    let w = build_workload(DatasetKind::Uniform, n_clients, ratio, seed);
    assert!(w.facilities.len() > k, "workload must offer more than k facilities");
    let build = |facilities: &[Point]| {
        build_square_arrangement_k(&w.clients, facilities, Metric::Linf, Mode::Bichromatic, k)
            .expect("non-empty instance")
    };
    let snapshot = |facilities: &[Point]| {
        let (clients, facilities) = (w.clients.clone(), facilities.to_vec());
        ArrangementSnapshot::build_k(clients, facilities, Metric::Linf, Mode::Bichromatic, k)
            .expect("non-empty workload")
    };
    let snap = snapshot(&w.facilities);
    let measure = CountMeasure;
    let query = PlacementQuery::new(&snap, &measure);

    // Deterministic candidate sites inside the populated unit square.
    let mut state = seed ^ 0x9e3779b97f4a7c15;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 11) as f64) / ((1u64 << 53) as f64)
    };
    let candidates: Vec<Point> =
        (0..n_candidates).map(|_| Point::new(0.2 + next() * 0.6, 0.2 + next() * 0.6)).collect();

    let mut identical = candidates.iter().all(|&p| {
        let incremental = query.evaluate_insert(p).expect("finite candidate").influence;
        let rebuilt = PlacementQuery::new(&snapshot(&w.facilities), &measure).influence_of(p).1;
        incremental.to_bits() == rebuilt.to_bits()
    });

    // Greedy: per step, the rebuild path re-derives the circles from
    // the facilities committed so far and finds the argmax with a full
    // sweep; it then commits the incremental loop's chosen point, so
    // both stay on one trajectory.
    let greedy =
        query.greedy_place(greedy_steps, &PlacementConstraints::none()).expect("greedy place");
    assert_eq!(greedy.steps.len(), greedy_steps, "uniform data never runs out of regions");
    let mut facilities_now = w.facilities.clone();
    for step in &greedy.steps {
        let mut max = MaxSink::default();
        crest_sweep(&build(&facilities_now), &measure, &mut max);
        let best = max.best.expect("regions exist");
        identical &= best.influence.to_bits() == step.chosen.influence.to_bits();
        facilities_now.push(step.chosen.point);
    }

    PlacementRun { candidates: n_candidates, greedy_steps: greedy.steps.len(), identical }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_agree_on_small_instances() {
        let r = compare_placement_paths(400, 8, 6, 2, 7, 1);
        assert!(r.identical, "incremental and rebuild scores must agree bitwise");
        assert_eq!(r.candidates, 6);
        assert_eq!(r.greedy_steps, 2);
    }

    #[test]
    fn paths_agree_at_k_above_one() {
        let r = compare_placement_paths(300, 6, 5, 1, 11, 3);
        assert!(r.identical);
    }
}
