//! Point-influence queries over candidate locations.
//!
//! The paper positions RNNHM as a generalization of location-selection
//! problems that score a *given* candidate set (Huang et al. \[11\], Xia
//! et al. \[27\]: "top-t most influential sites"): once the NN-circles are
//! built, the influence of any candidate location is a point-enclosure
//! query plus one measure evaluation. This module provides that adapted
//! solution.

use rnnhm_geom::Point;
use rnnhm_index::{EnclosureIndex, RTree};

use crate::arrangement::SquareArrangement;
use crate::measure::InfluenceMeasure;

/// The RNN set (sorted) of one candidate location (sweep-space
/// coordinates for square arrangements). Closed containment: a
/// candidate exactly on an NN-circle boundary ties with the client's
/// current facility and wins it, per the paper's `≤` in the RNN
/// definition (§III-A).
pub fn rnn_of_candidate_square(arr: &SquareArrangement, tree: &RTree, q: Point) -> Vec<u32> {
    let mut hits = Vec::new();
    tree.stab_point(q, &mut hits);
    let mut rnn: Vec<u32> = hits.iter().map(|&c| arr.owners[c as usize]).collect();
    rnn.sort_unstable();
    rnn
}

/// Scores every candidate against a square arrangement: `(RNN set,
/// influence)` per candidate. Candidates are given in *input-space*
/// coordinates and mapped through the arrangement's frame.
pub fn influence_at_points_square<M: InfluenceMeasure>(
    arr: &SquareArrangement,
    measure: &M,
    candidates: &[Point],
) -> Vec<(Vec<u32>, f64)> {
    let tree = RTree::build(&arr.squares);
    candidates
        .iter()
        .map(|&q| {
            let rnn = rnn_of_candidate_square(arr, &tree, arr.space.to_sweep(q));
            let influence = measure.influence(&rnn);
            (rnn, influence)
        })
        .collect()
}

/// The `t` most influential candidates (indices into `candidates`),
/// ties broken by input order — the adapted top-t most influential
/// sites query of \[11\]/\[27\].
pub fn top_t_candidates_square<M: InfluenceMeasure>(
    arr: &SquareArrangement,
    measure: &M,
    candidates: &[Point],
    t: usize,
) -> Vec<(usize, f64)> {
    let scored = influence_at_points_square(arr, measure, candidates);
    let mut idx: Vec<(usize, f64)> =
        scored.iter().enumerate().map(|(i, (_, inf))| (i, *inf)).collect();
    idx.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite influence").then(a.0.cmp(&b.0)));
    idx.truncate(t);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrangement::{build_square_arrangement, CoordSpace, Mode};
    use crate::measure::CountMeasure;
    use crate::oracle::{rnn_at_points, signature};
    use rnnhm_geom::{Metric, Rect};

    fn arr_from_squares(squares: Vec<Rect>) -> SquareArrangement {
        let owners = (0..squares.len() as u32).collect();
        let n = squares.len();
        SquareArrangement {
            squares,
            owners,
            space: CoordSpace::Identity,
            n_clients: n,
            dropped: 0,
            k: 1,
        }
    }

    #[test]
    fn candidate_scores_match_containment() {
        let arr =
            arr_from_squares(vec![Rect::new(0.0, 2.0, 0.0, 2.0), Rect::new(1.0, 3.0, 1.0, 3.0)]);
        let candidates = vec![
            Point::new(0.5, 0.5),
            Point::new(1.5, 1.5),
            Point::new(2.5, 2.5),
            Point::new(5.0, 5.0),
        ];
        let scored = influence_at_points_square(&arr, &CountMeasure, &candidates);
        let counts: Vec<f64> = scored.iter().map(|(_, f)| *f).collect();
        assert_eq!(counts, vec![1.0, 2.0, 1.0, 0.0]);
    }

    #[test]
    fn candidate_scores_match_direct_definition_under_l1() {
        // End to end: candidates scored via the rotated arrangement must
        // agree with the direct bichromatic RNN definition.
        let clients = vec![Point::new(1.0, 1.0), Point::new(4.0, 2.0), Point::new(2.0, 5.0)];
        let facilities = vec![Point::new(3.0, 3.0)];
        let arr =
            build_square_arrangement(&clients, &facilities, Metric::L1, Mode::Bichromatic).unwrap();
        let candidates = vec![Point::new(1.2, 1.4), Point::new(3.9, 2.2), Point::new(10.0, 10.0)];
        let scored = influence_at_points_square(&arr, &CountMeasure, &candidates);
        for (q, (rnn, _)) in candidates.iter().zip(&scored) {
            let direct = rnn_at_points(&clients, &facilities, Metric::L1, *q);
            assert_eq!(signature(rnn), direct, "candidate {q:?}");
        }
    }

    #[test]
    fn top_t_orders_candidates() {
        let arr = arr_from_squares(vec![
            Rect::new(0.0, 2.0, 0.0, 2.0),
            Rect::new(1.0, 3.0, 1.0, 3.0),
            Rect::new(1.5, 2.5, 1.5, 2.5),
        ]);
        let candidates = vec![
            Point::new(5.0, 5.0), // 0 circles
            Point::new(1.8, 1.8), // 3 circles
            Point::new(0.5, 0.5), // 1 circle
        ];
        let top = top_t_candidates_square(&arr, &CountMeasure, &candidates, 2);
        assert_eq!(top[0], (1, 3.0));
        assert_eq!(top[1], (2, 1.0));
    }
}
