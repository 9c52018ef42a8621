//! Golden-raster snapshot tests: small rendered grids for every
//! measure × metric combination are hashed into checked-in constants,
//! so a future raster refactor cannot silently change output.
//!
//! Everything here is deterministic and platform-independent: the
//! instance comes from a fixed LCG, all arithmetic is IEEE f64 with
//! correctly rounded ops (`sqrt` included), weights are dyadic so
//! sums are exact in any order, and the scanline renderer is
//! bit-identical across band counts (`tests/scanline_matches_oracle`),
//! so core-count differences cannot move a bit.
//!
//! ## Regenerating
//!
//! After an *intentional* output change, print the new table with
//!
//! ```text
//! cargo test --test golden_rasters -- --ignored --nocapture
//! ```
//!
//! and replace the tables below with the printed rows — after
//! convincing yourself the change is meant to alter pixels (compare
//! against the per-pixel oracle first). `GOLDEN_BUILD` pins the
//! NN-circle build itself (static builders, engine roots unsharded and
//! sharded, and an edit's re-resolved circles) before any rendering;
//! `GOLDEN_SWEEP` pins CREST's and CREST-A's label streams, in
//! emission order, with their sweep statistics.

use rnn_heatmap::prelude::*;
use rnn_heatmap::HeatMapBuilder;
use rnnhm_core::arrangement::fnv1a_words;

/// `n_clients` clients, then `n_facilities` facilities, from a fixed
/// LCG seeded with `seed` on [0, 10]².
fn lcg_instance(seed: u64, n_clients: usize, n_facilities: usize) -> (Vec<Point>, Vec<Point>) {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 11) as f64) / ((1u64 << 53) as f64) * 10.0
    };
    let clients = (0..n_clients).map(|_| Point::new(next(), next())).collect();
    let facilities = (0..n_facilities).map(|_| Point::new(next(), next())).collect();
    (clients, facilities)
}

/// 60 clients + 7 facilities from a fixed LCG on [0, 10]².
fn instance() -> (Vec<Point>, Vec<Point>) {
    lcg_instance(0x5eed_cafe, 60, 7)
}

fn spec() -> GridSpec {
    GridSpec::new(64, 64, Rect::new(-1.0, 11.0, -1.0, 11.0))
}

fn hash_raster(r: &HeatRaster) -> u64 {
    fnv1a_words(r.values().iter().map(|v| v.to_bits()))
}

fn metric_name(m: Metric) -> &'static str {
    match m {
        Metric::L1 => "L1",
        Metric::L2 => "L2",
        Metric::Linf => "Linf",
    }
}

/// Renders one measure/metric combo at RkNN depth `k` and returns its
/// hash.
fn render_hash_k(measure_key: &str, metric: Metric, k: usize) -> u64 {
    let (clients, facilities) = instance();
    let n = clients.len();
    let builder = HeatMapBuilder::bichromatic(clients, facilities).metric(metric).k(k);
    let raster = match measure_key {
        "count" => builder.build(CountMeasure).unwrap().raster(spec()),
        "weighted" => {
            let weights: Vec<f64> = (0..n).map(|i| (i % 9) as f64 * 0.25).collect();
            builder.build(WeightedMeasure::new(weights)).unwrap().raster(spec())
        }
        "capacity" => {
            let assigned: Vec<u32> = (0..n as u32).map(|i| i % 7).collect();
            let capacities: Vec<u32> = (0..7u32).map(|f| 1 + f % 5).collect();
            builder.build(CapacityMeasure::new(assigned, capacities, 3)).unwrap().raster(spec())
        }
        "connectivity" => {
            let edges: Vec<(u32, u32)> = (0..n as u32)
                .flat_map(|a| [(a, (a + 1) % n as u32), (a, (a + 11) % n as u32)])
                .collect();
            builder.build(ConnectivityMeasure::from_edges(n, &edges)).unwrap().raster(spec())
        }
        other => panic!("unknown measure key {other}"),
    };
    hash_raster(&raster)
}

/// Renders one measure/metric combo at k = 1 (the pre-RkNN path, which
/// the generalization must reproduce bit-for-bit).
fn render_hash(measure_key: &str, metric: Metric) -> u64 {
    render_hash_k(measure_key, metric, 1)
}

const MEASURES: [&str; 4] = ["count", "weighted", "capacity", "connectivity"];

/// The RkNN depths with checked-in goldens beyond the classic k = 1
/// table (the instance has 7 facilities, so both are valid).
const GOLDEN_KS: [usize; 2] = [2, 5];

/// The checked-in golden hashes: (measure, metric, fnv1a over pixel
/// bits of the 64×64 render). See the module docs for the regen path.
const GOLDEN: &[(&str, &str, u64)] = &[
    ("count", "L1", 0x13095bbc3dc7f47f),
    ("count", "L2", 0x043b3634d3b7fc2f),
    ("count", "Linf", 0x2f8e0bfc2f363cfb),
    ("weighted", "L1", 0x274047d20e4b573b),
    ("weighted", "L2", 0x020344a985dc1515),
    ("weighted", "Linf", 0x38ed0ea51210017f),
    ("capacity", "L1", 0x51b32df263b2f33c),
    ("capacity", "L2", 0xc1b2137aa837c773),
    ("capacity", "Linf", 0x90204f28b06b62dc),
    ("connectivity", "L1", 0x52b525f382081261),
    ("connectivity", "L2", 0xd2be0053d946d520),
    ("connectivity", "Linf", 0xa6ccf79ca6ea9cdf),
];

/// The k > 1 golden hashes: (k, measure, metric, hash). Regenerated the
/// same way as `GOLDEN` (the regen helper prints both tables).
const GOLDEN_K: &[(usize, &str, &str, u64)] = &[
    (2, "count", "L1", 0x25a466a24a8c5243),
    (2, "count", "L2", 0x9ede0712bf1fa8d6),
    (2, "count", "Linf", 0xca93d675a7f4c6f2),
    (2, "weighted", "L1", 0x485446ca22f42fc8),
    (2, "weighted", "L2", 0x8d2619b5d0d2c3ed),
    (2, "weighted", "Linf", 0x8c62d1bbb024dc43),
    (2, "capacity", "L1", 0x43dc32690f1b7dca),
    (2, "capacity", "L2", 0xc5c2a78efbe00113),
    (2, "capacity", "Linf", 0x947545e05072b5a5),
    (2, "connectivity", "L1", 0xb9013d0cb0aa1e27),
    (2, "connectivity", "L2", 0xcbfb93ce79bf34cf),
    (2, "connectivity", "Linf", 0xa60714d4c956a318),
    (5, "count", "L1", 0xa40d7f4444616506),
    (5, "count", "L2", 0x9d84441fca11adf7),
    (5, "count", "Linf", 0x9dcf8712ff175868),
    (5, "weighted", "L1", 0x73a99e6a0c395148),
    (5, "weighted", "L2", 0x623c23311d9139d9),
    (5, "weighted", "Linf", 0xf530eb3bc2481882),
    (5, "capacity", "L1", 0xb0742eed996e40d1),
    (5, "capacity", "L2", 0xec3c6e93a4123821),
    (5, "capacity", "Linf", 0x7617be28ae8a4041),
    (5, "connectivity", "L1", 0x539372f130823874),
    (5, "connectivity", "L2", 0x9e954555ec21be82),
    (5, "connectivity", "Linf", 0x73e4c5b19e44680f),
];

#[test]
fn golden_hashes_are_stable() {
    for measure in MEASURES {
        for metric in Metric::ALL {
            let got = render_hash(measure, metric);
            let expect = GOLDEN
                .iter()
                .find(|(m, k, _)| *m == measure && *k == metric_name(metric))
                .unwrap_or_else(|| panic!("no golden entry for {measure}/{metric:?}"))
                .2;
            assert_eq!(
                got,
                expect,
                "golden raster changed for {measure}/{}: got {got:#018x}. If this is an \
                 intentional output change, regenerate the table with `cargo test --test \
                 golden_rasters -- --ignored --nocapture` (see module docs).",
                metric_name(metric)
            );
        }
    }
}

#[test]
fn golden_hashes_are_stable_at_higher_k() {
    for &k in &GOLDEN_KS {
        for measure in MEASURES {
            for metric in Metric::ALL {
                let got = render_hash_k(measure, metric, k);
                let expect = GOLDEN_K
                    .iter()
                    .find(|(gk, m, mk, _)| *gk == k && *m == measure && *mk == metric_name(metric))
                    .unwrap_or_else(|| panic!("no golden entry for k={k}/{measure}/{metric:?}"))
                    .3;
                assert_eq!(
                    got,
                    expect,
                    "golden raster changed for k={k}/{measure}/{}: got {got:#018x}. If this is \
                     an intentional output change, regenerate with `cargo test --test \
                     golden_rasters -- --ignored --nocapture` (see module docs).",
                    metric_name(metric)
                );
            }
        }
    }
}

/// Hashes the top-3 placement answer — influence, representative
/// point, RNN set, and input-space bbox, all at the bit level — for
/// one measure on the shared instance. Placement scores each region's
/// sorted RNN set, so even the non-dyadic weighted sums are a pure
/// function of the set.
fn placement_hash(measure_key: &str, metric: Metric, k: usize) -> u64 {
    let (clients, facilities) = instance();
    let n = clients.len();
    let snap = ArrangementSnapshot::build_k(clients, facilities, metric, Mode::Bichromatic, k)
        .expect("buildable instance");
    let top = match measure_key {
        "count" => PlacementQuery::new(&snap, &CountMeasure).top_placements(3),
        "weighted" => {
            // Non-dyadic: a sum depends on its order in the last bit.
            let weights: Vec<f64> = (0..n).map(|i| 0.5 + (i * 37 % 97) as f64 / 97.0).collect();
            PlacementQuery::new(&snap, &WeightedMeasure::new(weights)).top_placements(3)
        }
        "capacity" => {
            let assigned: Vec<u32> = (0..n as u32).map(|i| i % 7).collect();
            let capacities: Vec<u32> = (0..7u32).map(|f| 1 + f % 5).collect();
            let measure = CapacityMeasure::new(assigned, capacities, 3);
            PlacementQuery::new(&snap, &measure).top_placements(3)
        }
        other => panic!("unknown placement measure key {other}"),
    };
    fnv1a_words(top.iter().flat_map(|p| {
        let mut words = vec![
            p.influence.to_bits(),
            p.point.x.to_bits(),
            p.point.y.to_bits(),
            p.bbox.x_lo.to_bits(),
            p.bbox.x_hi.to_bits(),
            p.bbox.y_lo.to_bits(),
            p.bbox.y_hi.to_bits(),
            p.rnn.len() as u64,
        ];
        words.extend(p.rnn.iter().map(|&c| c as u64));
        words
    }))
}

const PLACEMENT_MEASURES: [&str; 3] = ["count", "weighted", "capacity"];

/// Golden top-3 placements: (k, measure, metric, fnv1a over the answer
/// bits). Regenerated alongside the raster tables (the helper prints
/// all three).
const GOLDEN_PLACEMENT: &[(usize, &str, &str, u64)] = &[
    (1, "count", "L1", 0x3b0ef78ec44e4270),
    (1, "count", "L2", 0x1b93f1dbbc5d0a68),
    (1, "count", "Linf", 0x7737893305b883bf),
    (1, "weighted", "L1", 0x0f7986e4e88bb029),
    (1, "weighted", "L2", 0x3a3c6d6b9050c399),
    (1, "weighted", "Linf", 0x5829ab4bc5346366),
    (1, "capacity", "L1", 0xe8f89080cbdcba79),
    (1, "capacity", "L2", 0x121db5623a97cefc),
    (1, "capacity", "Linf", 0x1aeb0c2ca72338cb),
    (2, "count", "L1", 0xafdef8bc95b998c2),
    (2, "count", "L2", 0x79dcb39ec5a3d209),
    (2, "count", "Linf", 0xc0aa06c28f4e4755),
    (2, "weighted", "L1", 0xb3c661a4174eed8b),
    (2, "weighted", "L2", 0x7af57632cd0204a8),
    (2, "weighted", "Linf", 0x7c36b2535b0c2c5d),
    (2, "capacity", "L1", 0xa2b9e7de66f3d8ef),
    (2, "capacity", "L2", 0xfc80152ca7f8cc3c),
    (2, "capacity", "Linf", 0x1312c7533c7d3e6f),
];

#[test]
fn golden_placements_are_stable() {
    for &(k, measure, name, expect) in GOLDEN_PLACEMENT {
        let metric = Metric::ALL.into_iter().find(|m| metric_name(*m) == name).unwrap();
        let got = placement_hash(measure, metric, k);
        assert_eq!(
            got, expect,
            "golden placement changed for k={k}/{measure}/{name}: got {got:#018x}. If this is \
             an intentional output change, regenerate with `cargo test --test golden_rasters -- \
             --ignored --nocapture` (see module docs)."
        );
    }
    assert_eq!(GOLDEN_PLACEMENT.len(), 2 * PLACEMENT_MEASURES.len() * Metric::ALL.len());
}

/// The build goldens' instance: [`instance`] plus a client on
/// facility 0, one on facility 1 and a second copy of client 3, so the
/// zero-radius drop (bichromatic and monochromatic, k = 1) and a
/// dropped client regaining its circle after an edit are pinned too.
fn build_instance() -> (Vec<Point>, Vec<Point>) {
    let (mut clients, facilities) = instance();
    clients.extend([facilities[0], facilities[1], clients[3]]);
    (clients, facilities)
}

fn mode_name(m: Mode) -> &'static str {
    match m {
        Mode::Bichromatic => "bi",
        Mode::Monochromatic => "mono",
    }
}

fn contiguous_fingerprint(arr: ArrangementRef<'_>) -> u64 {
    match arr {
        ArrangementRef::Square(a) => a.fingerprint(),
        ArrangementRef::Disk(a) => a.fingerprint(),
    }
}

/// The NN-circle build of one (mode, metric, k), as fingerprints:
/// 1. the static builder's arrangement;
/// 2. the engine's root snapshot, unsharded;
/// 3. and 4. the same on 2 and 7 shards;
/// 5. bichromatic only (else 0): the contiguous arrangement after
///    `remove_facility(0)`, which re-resolves the affected clients from
///    their candidate lists, so it pins those lists as well.
fn build_fingerprints(mode: Mode, metric: Metric, k: usize) -> [u64; 5] {
    let (clients, facilities) = build_instance();
    let static_fp = match metric {
        Metric::L2 => {
            build_disk_arrangement_k(&clients, &facilities, mode, k).unwrap().fingerprint()
        }
        m => build_square_arrangement_k(&clients, &facilities, m, mode, k).unwrap().fingerprint(),
    };
    let builder = || {
        match mode {
            Mode::Bichromatic => HeatMapBuilder::bichromatic(clients.clone(), facilities.clone()),
            Mode::Monochromatic => HeatMapBuilder::monochromatic(clients.clone()),
        }
        .metric(metric)
        .k(k)
    };
    let root =
        |b: HeatMapBuilder| b.build_engine(CountMeasure).unwrap().session().snapshot().clone();
    let snaps = [root(builder()), root(builder().shards(2)), root(builder().shards(7))];
    let edited = match mode {
        Mode::Monochromatic => 0,
        Mode::Bichromatic => {
            let after: Vec<u64> = snaps
                .iter()
                .map(|s| contiguous_fingerprint(s.remove_facility(0).unwrap().0.arrangement()))
                .collect();
            assert!(after.iter().all(|&fp| fp == after[0]), "sharding changed an edit's circles");
            after[0]
        }
    };
    [static_fp, snaps[0].fingerprint(), snaps[1].fingerprint(), snaps[2].fingerprint(), edited]
}

/// The RkNN depths of the build goldens.
const BUILD_KS: [usize; 3] = [1, 2, 5];

/// Golden NN-circle builds: (mode, metric, k, [static, root, root on
/// 2 shards, root on 7 shards, contiguous after removing facility 0]);
/// see [`build_fingerprints`]. Regenerated with the other tables.
#[rustfmt::skip]
const GOLDEN_BUILD: &[(&str, &str, usize, [u64; 5])] = &[
    ("bi", "L1", 1, [0x8ac64e70d8cb391a, 0xeb846c563b3f9234, 0x1a158de3440ae46b, 0x609fe66a35e3d38b, 0x60a5c1fb93536e08]),
    ("bi", "L1", 2, [0x8ab565eb6aea17c8, 0x75628485919c358e, 0xc65d39defbd72eb6, 0x182b648967e31116, 0x9ea1b2d243feddc7]),
    ("bi", "L1", 5, [0xbdf4b141a63db094, 0xcd08d07a0f9bb98e, 0x763fd93a93de4ff1, 0x70cb47b62ee8141a, 0xf64c9f246227bf9d]),
    ("bi", "L2", 1, [0xfa31a74bda2bc269, 0x274d1365b0f56483, 0x5bc866fd770b7f47, 0x767ba635b938a2f4, 0x54c9de71a5280821]),
    ("bi", "L2", 2, [0xf24022b4a1a77a68, 0x55fe068199d8a372, 0x6e32e6fc5449062f, 0xc4f5f9abd13128c1, 0xe945916e1750f504]),
    ("bi", "L2", 5, [0x2594496c46f23d41, 0xae5f3e602f26072e, 0xa3247dfd8a01cfa4, 0x62867bbd6178ea50, 0x88f689494a9fe3ca]),
    ("bi", "Linf", 1, [0x22df791d648c4f95, 0xe1860ef2868630d7, 0x6e8f2a12dc5d9c87, 0x891a2c5704a2a5e4, 0x92dea467b1bcc17f]),
    ("bi", "Linf", 2, [0x4e1d2fc9939929a8, 0x059890b88b80a428, 0x2baf5fe9ae527018, 0x6900ca4ba7c5ac3a, 0x5009eb49d76e86b5]),
    ("bi", "Linf", 5, [0xb0d2f64bdbcfcc40, 0x5c7a432f807793b1, 0x7323065157b2021a, 0xcfc0a6435fff566d, 0xd79fc04dbdb4bbbb]),
    ("mono", "L1", 1, [0xf34ce5c8ccbed12d, 0xc4d81d722c6889ae, 0x51e431d37ad984f7, 0xada997e98e8c6b98, 0x0000000000000000]),
    ("mono", "L1", 2, [0xb1297dd41a27196b, 0xec672094d0b11bc8, 0xb1d41fd3063a4063, 0x6a434e70ef9d8a70, 0x0000000000000000]),
    ("mono", "L1", 5, [0x5ef4615a43eaa470, 0x9d9f872792c5d3b0, 0x2cefb74f9503b058, 0x74c1a28404855bb6, 0x0000000000000000]),
    ("mono", "L2", 1, [0xe7f27e09feb7c9b7, 0x4b53c3515fd068f9, 0xf8bef011531618a2, 0x166021f0f349f931, 0x0000000000000000]),
    ("mono", "L2", 2, [0xe865816c4a4d7f0f, 0x0f3b7731d85b0167, 0xd55c3464425cafe2, 0x63f62ac43b60adf2, 0x0000000000000000]),
    ("mono", "L2", 5, [0x6d73b54be03c1b84, 0x11e7822bcc1ff511, 0x16a4aafdb5d34e5d, 0x67cf5eb308829c79, 0x0000000000000000]),
    ("mono", "Linf", 1, [0xeb4c4520b0d61b88, 0x87e23997337b5d9d, 0xaacbfb9b3b2cc206, 0x2ab84d755e08bca2, 0x0000000000000000]),
    ("mono", "Linf", 2, [0x8f0e58155bd7b707, 0xf580597bcee88a22, 0x764173495e7d82b9, 0x7a7b1a2636e439c5, 0x0000000000000000]),
    ("mono", "Linf", 5, [0xa3e9850fbf3ccfda, 0xa5f2c5d3dea2e49e, 0x6f5c6bc035d25d6f, 0x329a81c8582f8820, 0x0000000000000000]),
];

#[test]
fn golden_builds_are_stable() {
    for mode in [Mode::Bichromatic, Mode::Monochromatic] {
        for metric in Metric::ALL {
            for k in BUILD_KS {
                let got = build_fingerprints(mode, metric, k);
                let (mn, name) = (mode_name(mode), metric_name(metric));
                let expect = GOLDEN_BUILD
                    .iter()
                    .find(|(gm, gn, gk, _)| *gm == mn && *gn == name && *gk == k)
                    .unwrap_or_else(|| panic!("no golden build for {mn}/{name}/k={k}"))
                    .3;
                assert_eq!(
                    got, expect,
                    "golden build changed for {mn}/{name}/k={k}: got {got:x?}. If this is an \
                     intentional output change, regenerate with `cargo test --test golden_rasters \
                     -- --ignored --nocapture` (see module docs)."
                );
            }
        }
    }
    assert_eq!(GOLDEN_BUILD.len(), 2 * Metric::ALL.len() * BUILD_KS.len());
}

/// Folds every label a sweep emits into one order-sensitive FNV hash:
/// the rectangle bits, the influence bits, and the RNN ids in the order
/// the sweep hands them over (not sorted). Streams, so CREST-A's ~1M
/// labels a run on the larger instance need no buffer.
struct StreamHash(u64);

impl RegionSink for StreamHash {
    fn label(&mut self, rect: Rect, rnn: &[u32], influence: f64) {
        let head = [
            self.0,
            rect.x_lo.to_bits(),
            rect.x_hi.to_bits(),
            rect.y_lo.to_bits(),
            rect.y_hi.to_bits(),
            influence.to_bits(),
            rnn.len() as u64,
        ];
        self.0 = fnv1a_words(head.into_iter().chain(rnn.iter().map(|&c| c as u64)));
    }
}

/// The instances of the sweep goldens: the shared [`instance`], and
/// 2,000 clients + 200 facilities from another LCG seed.
const SWEEP_INSTANCES: [&str; 2] = ["golden", "lcg2k"];

/// The metrics and RkNN depths of the sweep goldens (the line-status
/// sweeps run on squares: L∞ directly, L1 in the rotated frame).
const SWEEP_METRICS: [Metric; 2] = [Metric::Linf, Metric::L1];
const SWEEP_KS: [usize; 2] = [1, 2];

/// One sweep's pinned output: its [`StreamHash`] and its `SweepStats`
/// as `[labels, events, max_rnn, peak_line]`.
type SweepBits = (u64, [u64; 4]);

/// CREST's and CREST-A's label streams on one (instance, metric, k).
/// The weights are non-dyadic, so each influence's last bit also
/// depends on the order of the RNN ids.
fn sweep_hashes(instance_key: &str, metric: Metric, k: usize) -> [SweepBits; 2] {
    let (clients, facilities) = match instance_key {
        "golden" => instance(),
        "lcg2k" => lcg_instance(0x0005_ee9d_2000, 2_000, 200),
        other => panic!("unknown sweep instance {other}"),
    };
    let weights: Vec<f64> = (0..clients.len()).map(|i| 0.5 + (i * 37 % 97) as f64 / 97.0).collect();
    let measure = WeightedMeasure::new(weights);
    let arr = build_square_arrangement_k(&clients, &facilities, metric, Mode::Bichromatic, k)
        .expect("buildable instance");
    let words = |s: SweepStats| [s.labels, s.events, s.max_rnn as u64, s.peak_line as u64];
    let mut crest = StreamHash(0);
    let crest_stats = crest_sweep(&arr, &measure, &mut crest);
    let mut crest_a = StreamHash(0);
    let crest_a_stats = crest_a_sweep(&arr, &measure, &mut crest_a);
    [(crest.0, words(crest_stats)), (crest_a.0, words(crest_a_stats))]
}

/// Golden label streams: (instance, metric, k, [CREST, CREST-A]); see
/// [`sweep_hashes`]. The placement and top-k goldens see only the
/// labels that survive, but `TopKSink` breaks ties by first
/// occurrence, so the emission order itself is pinned here.
/// Regenerated with the other tables.
#[rustfmt::skip]
const GOLDEN_SWEEP: &[(&str, &str, usize, [SweepBits; 2])] = &[
    ("golden", "Linf", 1, [(0x8106c7c1256561be, [755, 94, 20, 70]), (0x698f000fa29a875c, [2654, 94, 20, 70])]),
    ("golden", "Linf", 2, [(0xbb612260237be7dc, [1152, 96, 39, 96]), (0x98fe84cc7357f72e, [3349, 96, 39, 96])]),
    ("golden", "L1", 1, [(0xbf652033b6bf77d2, [982, 110, 19, 70]), (0x0e0f5a1652c996d0, [3366, 110, 19, 70])]),
    ("golden", "L1", 2, [(0x9cb2e3a44f9419c5, [1373, 99, 35, 100]), (0x4224084db90c3861, [3956, 99, 35, 100])]),
    ("lcg2k", "Linf", 1, [(0xb385920934a0e06b, [41885, 3181, 52, 340]), (0x471cfa06e157c70d, [649950, 3181, 52, 340])]),
    ("lcg2k", "Linf", 2, [(0xb71aaeb0eed21e70, [88739, 3154, 80, 492]), (0x3c3ca5f2577ca6b4, [962604, 3154, 80, 492])]),
    ("lcg2k", "L1", 1, [(0x85d16833ccd18611, [47418, 3313, 56, 358]), (0x47741aa52481405a, [700372, 3313, 56, 358])]),
    ("lcg2k", "L1", 2, [(0xa0c6a7f325bc3d7a, [103199, 3311, 78, 528]), (0xf75ae3ccd4c60577, [1063572, 3311, 78, 528])]),
];

#[test]
fn golden_sweeps_are_stable() {
    for instance_key in SWEEP_INSTANCES {
        for metric in SWEEP_METRICS {
            for k in SWEEP_KS {
                let got = sweep_hashes(instance_key, metric, k);
                let name = metric_name(metric);
                let expect = GOLDEN_SWEEP
                    .iter()
                    .find(|(gi, gn, gk, _)| *gi == instance_key && *gn == name && *gk == k)
                    .unwrap_or_else(|| panic!("no golden sweep for {instance_key}/{name}/k={k}"))
                    .3;
                assert_eq!(
                    got, expect,
                    "golden sweep changed for {instance_key}/{name}/k={k}: got {got:x?}. If this \
                     is an intentional output change, regenerate with `cargo test --test \
                     golden_rasters -- --ignored --nocapture` (see module docs)."
                );
            }
        }
    }
    assert_eq!(GOLDEN_SWEEP.len(), SWEEP_INSTANCES.len() * SWEEP_METRICS.len() * SWEEP_KS.len());
}

#[test]
fn k_goldens_differ_from_k1() {
    // Sanity on the new table: the RkNN circles genuinely change the
    // rendered field (the instance has no coincident facilities, so
    // every k-th NN distance strictly exceeds the 1st).
    for &k in &GOLDEN_KS {
        assert_ne!(
            render_hash_k("count", Metric::Linf, k),
            render_hash("count", Metric::Linf),
            "k = {k} raster unexpectedly equals the k = 1 raster"
        );
    }
}

/// Prints every golden table for regeneration (see module docs).
#[test]
#[ignore = "regeneration helper, not a check"]
fn regen_golden_hashes() {
    for measure in MEASURES {
        for metric in Metric::ALL {
            let hash = render_hash(measure, metric);
            println!("    (\"{measure}\", \"{}\", {hash:#018x}),", metric_name(metric));
        }
    }
    println!("--- GOLDEN_K ---");
    for &k in &GOLDEN_KS {
        for measure in MEASURES {
            for metric in Metric::ALL {
                let hash = render_hash_k(measure, metric, k);
                println!("    ({k}, \"{measure}\", \"{}\", {hash:#018x}),", metric_name(metric));
            }
        }
    }
    println!("--- GOLDEN_PLACEMENT ---");
    for k in [1usize, 2] {
        for measure in PLACEMENT_MEASURES {
            for metric in Metric::ALL {
                let hash = placement_hash(measure, metric, k);
                println!("    ({k}, \"{measure}\", \"{}\", {hash:#018x}),", metric_name(metric));
            }
        }
    }
    println!("--- GOLDEN_BUILD ---");
    for mode in [Mode::Bichromatic, Mode::Monochromatic] {
        for metric in Metric::ALL {
            for k in BUILD_KS {
                let fps: Vec<String> = build_fingerprints(mode, metric, k)
                    .iter()
                    .map(|f| format!("{f:#018x}"))
                    .collect();
                println!(
                    "    (\"{}\", \"{}\", {k}, [{}]),",
                    mode_name(mode),
                    metric_name(metric),
                    fps.join(", ")
                );
            }
        }
    }
    println!("--- GOLDEN_SWEEP ---");
    for instance_key in SWEEP_INSTANCES {
        for metric in SWEEP_METRICS {
            for k in SWEEP_KS {
                let rows: Vec<String> = sweep_hashes(instance_key, metric, k)
                    .iter()
                    .map(|(h, s)| format!("({h:#018x}, {s:?})"))
                    .collect();
                println!(
                    "    (\"{instance_key}\", \"{}\", {k}, [{}]),",
                    metric_name(metric),
                    rows.join(", ")
                );
            }
        }
    }
}
