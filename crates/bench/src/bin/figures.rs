//! `figures` — regenerates every table and figure of the paper's
//! evaluation (§VIII) as CSV series printed to stdout and written under
//! `results/`.
//!
//! ```text
//! figures [--quick] [table2|fig16|fig17|fig18|fig19|showcase|all]
//! ```
//!
//! * `table2`   — data set statistics (Table II),
//! * `fig16`    — time vs |O|/|F|, L1, BA / CREST-A / CREST,
//! * `fig17`    — time vs |O|,     L1, BA / CREST-A / CREST,
//! * `fig18`    — time vs |O|/|F|, L2 max-region, Pruning / CREST-L2,
//! * `fig19`    — time vs |O|,     L2 max-region, Pruning / CREST-L2,
//! * `showcase` — the Fig 1/15 heat maps (PPM files under `results/`),
//! * `all`      — everything above.
//!
//! `--quick` shrinks the sweeps for CI-scale runs (see README's
//! "Benches and figures"); full runs follow the paper's parameter grids.
//! Any other flag, or a second figure name, exits 2 with the usage line
//! instead of starting a run.

use std::fs;
use std::io::Write as _;
use std::path::Path;

use rnnhm_bench::runner::{
    capacity_measure, count, csv_row, disk_arrangement, run_ba, run_crest, run_crest_a,
    run_crest_l2_max, run_pruning_max, square_arrangement, Timing,
};
use rnnhm_bench::workload::{build_workload, DatasetKind};
use rnnhm_core::measure::CountMeasure;
use rnnhm_data::Dataset;
use rnnhm_geom::{Metric, Rect};
use rnnhm_heatmap::{rasterize_squares, rasterize_squares_oracle, write_ppm, ColorRamp, GridSpec};

/// BA feasibility cut-off: predicted grid cells above this are skipped
/// (the analog of the paper's 24-hour cut-off; BA at |O| = 2^16 would
/// need ~1.7·10^10 cell queries).
const BA_MAX_CELLS: u64 = 40_000_000;

/// Node budget per anchor circle for the pruning comparator.
const PRUNING_BUDGET: u64 = 2_000_000_000;

fn usage(problem: &str) -> ! {
    eprintln!("{problem}\nusage: figures [--quick] [table2|fig16|fig17|fig18|fig19|showcase|all]");
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut what: Option<String> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            flag if flag.starts_with('-') => usage(&format!("unknown flag `{flag}`")),
            _ if what.is_some() => usage(&format!("unexpected second figure `{arg}`")),
            _ => what = Some(arg),
        }
    }
    let run: fn(bool) = match what.as_deref().unwrap_or("all") {
        "table2" => |_| table2(),
        "fig16" => fig16,
        "fig17" => fig17,
        "fig18" => fig18,
        "fig19" => fig19,
        "showcase" => showcase,
        "all" => |quick| {
            table2();
            fig16(quick);
            fig17(quick);
            fig18(quick);
            fig19(quick);
            showcase(quick);
        },
        other => usage(&format!("unknown figure `{other}`")),
    };
    fs::create_dir_all("results").expect("create results dir");
    run(quick);
}

fn write_block(name: &str, header: &str, rows: &[String]) {
    println!("\n== {name} ==");
    println!("{header}");
    for r in rows {
        println!("{r}");
    }
    let path = Path::new("results").join(format!("{name}.csv"));
    let mut f = fs::File::create(&path).expect("create results csv");
    writeln!(f, "{header}").unwrap();
    for r in rows {
        writeln!(f, "{r}").unwrap();
    }
    eprintln!("[written {}]", path.display());
}

/// Table II: data set statistics.
fn table2() {
    let rows: Vec<String> = [Dataset::nyc(), Dataset::la()]
        .iter()
        .map(|ds| {
            let bbox = Rect::bounding(&ds.points).expect("non-empty data set");
            format!(
                "{},{},lon[{:.2},{:.2}],lat[{:.2},{:.2}]",
                ds.name,
                ds.points.len(),
                bbox.x_lo,
                bbox.x_hi,
                bbox.y_lo,
                bbox.y_hi
            )
        })
        .collect();
    write_block("table2", "name,size,extent_lon,extent_lat", &rows);
}

fn ratios(quick: bool) -> Vec<usize> {
    if quick {
        vec![2, 16, 128]
    } else {
        vec![2, 16, 128, 1024]
    }
}

fn sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![128, 1024, 4096]
    } else {
        vec![128, 1024, 8192, 65536]
    }
}

/// Fig 16: effect of |O|/|F| with L1 distance (n = |O| = 2^10).
fn fig16(quick: bool) {
    let n = 1024;
    let mut rows = Vec::new();
    for kind in DatasetKind::ALL {
        for &ratio in &ratios(quick) {
            let w = build_workload(kind, n, ratio, 16);
            let arr = square_arrangement(&w, Metric::L1);
            let timings = vec![
                run_ba(&arr, &count(), BA_MAX_CELLS),
                run_crest_a(&arr, &count()),
                run_crest(&arr, &count()),
            ];
            rows.push(csv_row(kind.name(), "ratio", ratio as u64, &timings));
            progress(kind.name(), "ratio", ratio, &timings);
        }
    }
    write_block("fig16_ratio_l1", "dataset,x,BA,CREST-A,CREST", &rows);
}

/// Fig 17: effect of data set size with L1 distance (ratio = 2^7).
fn fig17(quick: bool) {
    let ratio = 128;
    let mut rows = Vec::new();
    for kind in DatasetKind::ALL {
        for &n in &sizes(quick) {
            let w = build_workload(kind, n, ratio, 17);
            let arr = square_arrangement(&w, Metric::L1);
            let timings = vec![
                run_ba(&arr, &count(), BA_MAX_CELLS),
                run_crest_a(&arr, &count()),
                run_crest(&arr, &count()),
            ];
            rows.push(csv_row(kind.name(), "n", n as u64, &timings));
            progress(kind.name(), "n", n, &timings);
        }
    }
    write_block("fig17_size_l1", "dataset,x,BA,CREST-A,CREST", &rows);
}

/// Fig 18: effect of |O|/|F| with L2 distance (max-influence task,
/// capacity-constrained measure of \[22\]; n = |O| = 2^10).
fn fig18(quick: bool) {
    let n = 1024;
    let mut rows = Vec::new();
    for kind in DatasetKind::ALL {
        for &ratio in &ratios(quick) {
            let w = build_workload(kind, n, ratio, 18);
            let arr = disk_arrangement(&w);
            let measure = capacity_measure(&w, 18);
            let timings = vec![
                run_pruning_max(&arr, &measure, PRUNING_BUDGET),
                run_crest_l2_max(&arr, &measure),
            ];
            rows.push(csv_row(kind.name(), "ratio", ratio as u64, &timings));
            progress(kind.name(), "ratio", ratio, &timings);
        }
    }
    write_block("fig18_ratio_l2", "dataset,x,Pruning,CREST-L2", &rows);
}

/// Fig 19: effect of data set size with L2 distance (ratio = 2^5).
fn fig19(quick: bool) {
    let ratio = 32;
    let mut rows = Vec::new();
    for kind in DatasetKind::ALL {
        for &n in &sizes(quick) {
            let w = build_workload(kind, n, ratio, 19);
            let arr = disk_arrangement(&w);
            let measure = capacity_measure(&w, 19);
            let timings = vec![
                run_pruning_max(&arr, &measure, PRUNING_BUDGET),
                run_crest_l2_max(&arr, &measure),
            ];
            rows.push(csv_row(kind.name(), "n", n as u64, &timings));
            progress(kind.name(), "n", n, &timings);
        }
    }
    write_block("fig19_size_l2", "dataset,x,Pruning,CREST-L2", &rows);
}

/// Figs 1 & 15: the showcase heat maps — 20,000 clients, 6,000
/// facilities sampled from each city, count measure, rendered as PPM.
fn showcase(quick: bool) {
    let (n_o, n_f, px) = if quick { (2_000, 600, 256) } else { (20_000, 6_000, 768) };
    for (ds, name) in [(Dataset::nyc(), "fig1_nyc"), (Dataset::la(), "fig15_la")] {
        let (clients, facilities) = rnnhm_data::sample_clients_facilities(&ds.points, n_o, n_f, 1);
        let arr = rnnhm_core::build_square_arrangement(
            &clients,
            &facilities,
            Metric::Linf,
            rnnhm_core::Mode::Bichromatic,
        )
        .expect("non-empty city");
        let extent = Rect::bounding(&ds.points).expect("non-empty");
        let spec = GridSpec::new(px, px, extent);
        let raster = rasterize_squares(&arr, &CountMeasure, spec);
        let path = Path::new("results").join(format!("{name}.ppm"));
        let mut f = fs::File::create(&path).expect("create ppm");
        write_ppm(&mut f, &raster, ColorRamp::Heat).expect("write ppm");
        let (lo, hi) = raster.min_max();
        println!("{name}: |O|={n_o} |F|={n_f} heat range [{lo}, {hi}] -> {}", path.display());
        // Sanity: at low resolution the scanline agrees with the
        // per-pixel oracle.
        if quick {
            let small = GridSpec::new(64, 64, extent);
            let oracle = rasterize_squares_oracle(&arr, &CountMeasure, small);
            let scanline = rasterize_squares(&arr, &CountMeasure, small);
            let mut diff = 0usize;
            for row in 0..64 {
                for col in 0..64 {
                    if oracle.get(col, row) != scanline.get(col, row) {
                        diff += 1;
                    }
                }
            }
            assert_eq!(diff, 0, "scanline and oracle rasters disagree on {diff} pixels");
        }
    }
}

fn progress(ds: &str, xl: &str, x: usize, timings: &[Timing]) {
    let parts: Vec<String> = timings
        .iter()
        .map(|t| match t.millis {
            Some(m) => format!("{}={m:.1}ms", t.algo),
            None => format!("{}=skipped", t.algo),
        })
        .collect();
    eprintln!("[{ds} {xl}={x}] {}", parts.join(" "));
}
