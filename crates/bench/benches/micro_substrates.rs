//! Microbenchmarks for the index substrates, each against the linear
//! scan it replaces:
//!
//! * kd-tree NN queries vs linear scan,
//! * R-tree stabbing vs linear scan, with the STR build timed on its
//!   own (`build`): a snapshot pays it once, on its first point probe,
//!   and every later probe pays only the stab (`rtree`, 256 probes).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rnnhm_geom::{Metric, Point, Rect};
use rnnhm_index::{KdTree, RTree};
use std::hint::black_box;

fn pseudo(n: usize, seed: u64) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 16
        })
        .collect()
}

/// `n` points uniform on `[0, 48)²` (`pseudo` draws 48-bit values).
fn pseudo_points(n: usize, seed: u64) -> Vec<Point> {
    let vals = pseudo(n * 2, seed);
    let unit = |v: u64| v as f64 / (1u64 << 48) as f64;
    (0..n).map(|i| Point::new(unit(vals[2 * i]) * 48.0, unit(vals[2 * i + 1]) * 48.0)).collect()
}

fn kdtree_nn(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_kdtree");
    for n in [1_000usize, 50_000] {
        let pts = pseudo_points(n, 2);
        let queries = pseudo_points(256, 3);
        let tree = KdTree::build(&pts);
        group.bench_with_input(BenchmarkId::new("kdtree", n), &queries, |b, qs| {
            b.iter(|| {
                let mut acc = 0.0;
                for q in qs {
                    acc += tree.nearest(q, Metric::L2).unwrap().1;
                }
                black_box(acc)
            })
        });
        group.bench_with_input(BenchmarkId::new("scan", n), &queries, |b, qs| {
            b.iter(|| {
                let mut acc = 0.0;
                for q in qs {
                    let best = pts.iter().map(|p| q.dist2_sq(p)).fold(f64::INFINITY, f64::min);
                    acc += best.sqrt();
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

fn rtree_stab(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_rtree");
    for n in [1_000usize, 20_000] {
        let pts = pseudo_points(n, 4);
        let rects: Vec<Rect> = pts.iter().map(|p| Rect::centered(*p, 0.5)).collect();
        let queries = pseudo_points(256, 5);
        group.bench_with_input(BenchmarkId::new("build", n), &rects, |b, rs| {
            b.iter(|| black_box(RTree::build(rs)))
        });
        let tree = RTree::build(&rects);
        group.bench_with_input(BenchmarkId::new("rtree", n), &queries, |b, qs| {
            b.iter(|| {
                let mut hits = Vec::new();
                let mut acc = 0usize;
                for q in qs {
                    hits.clear();
                    tree.stab(*q, &mut hits);
                    acc += hits.len();
                }
                black_box(acc)
            })
        });
        group.bench_with_input(BenchmarkId::new("scan", n), &queries, |b, qs| {
            b.iter(|| {
                let mut acc = 0usize;
                for q in qs {
                    acc += rects.iter().filter(|r| r.contains_closed(*q)).count();
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, kdtree_nn, rtree_stab);
criterion_main!(benches);
