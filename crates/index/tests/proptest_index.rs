//! Property-based tests for the index substrates, each checked against
//! an obviously-correct reference.

use proptest::prelude::*;
use rnnhm_geom::{Metric, Point, Rect};
use rnnhm_index::{KdTree, RTree};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn kdtree_nearest_matches_scan(
        pts in prop::collection::vec((0u32..1000, 0u32..1000), 1..150),
        queries in prop::collection::vec((0u32..1000, 0u32..1000), 1..20),
    ) {
        let points: Vec<Point> = pts.iter()
            .map(|&(x, y)| Point::new(x as f64 / 10.0, y as f64 / 10.0)).collect();
        let tree = KdTree::build(&points);
        for &(qx, qy) in &queries {
            let q = Point::new(qx as f64 / 10.0, qy as f64 / 10.0);
            for metric in Metric::ALL {
                let best = points.iter()
                    .map(|p| metric.dist(&q, p))
                    .fold(f64::INFINITY, f64::min);
                let (_, d) = tree.nearest(&q, metric).expect("non-empty");
                prop_assert!((d - best).abs() < 1e-9,
                    "{:?}: kd {} vs scan {}", metric, d, best);
            }
        }
    }

    #[test]
    fn stabbing_backends_match_scan(
        rects in prop::collection::vec((0u32..90, 0u32..90, 1u32..12, 1u32..12), 0..120),
        queries in prop::collection::vec((0u32..100, 0u32..100), 1..30),
    ) {
        let rs: Vec<Rect> = rects.iter()
            .map(|&(x, y, w, h)| Rect::new(
                x as f64, (x + w) as f64, y as f64, (y + h) as f64))
            .collect();
        let rtree = RTree::build(&rs);
        for &(qx, qy) in &queries {
            let p = Point::new(qx as f64, qy as f64);
            let mut expect: Vec<u32> = rs.iter().enumerate()
                .filter(|(_, r)| r.contains_closed(p))
                .map(|(i, _)| i as u32).collect();
            expect.sort_unstable();
            let mut a = Vec::new();
            rtree.stab(p, &mut a);
            a.sort_unstable();
            prop_assert_eq!(&a, &expect);
        }
    }

    #[test]
    fn rtree_rect_intersection_matches_scan(
        rects in prop::collection::vec((0u32..90, 0u32..90, 1u32..15, 1u32..15), 0..100),
        query in (0u32..90, 0u32..90, 1u32..30, 1u32..30),
    ) {
        let rs: Vec<Rect> = rects.iter()
            .map(|&(x, y, w, h)| Rect::new(
                x as f64, (x + w) as f64, y as f64, (y + h) as f64))
            .collect();
        let (qx, qy, qw, qh) = query;
        let q = Rect::new(qx as f64, (qx + qw) as f64, qy as f64, (qy + qh) as f64);
        let tree = RTree::build(&rs);
        let mut got = Vec::new();
        tree.intersecting(&q, &mut got);
        got.sort_unstable();
        let mut expect: Vec<u32> = rs.iter().enumerate()
            .filter(|(_, r)| r.intersects(&q))
            .map(|(i, _)| i as u32).collect();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }
}
