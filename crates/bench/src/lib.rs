//! # rnnhm-bench
//!
//! Benchmark harness reproducing every table and figure of the paper's
//! evaluation (§VIII). See README's "Benches and figures" for the
//! commands and what each run writes.
//!
//! Two front ends share [`workload`] and [`runner`]:
//!
//! * the `figures` binary — single-shot wall-clock timings printed as the
//!   paper's series (one CSV block per sub-figure),
//! * Criterion benches under `benches/` — statistically sampled timings
//!   for moderate input sizes.
//!
//! The test-only modules check, on the same workloads, that the paths
//! the library offers for one answer agree bit for bit: scanline vs
//! oracle rasters, edited sessions vs k-NN rebuilds, incremental vs
//! rebuilt placement scores, and the sharded level-of-detail engine's
//! approximate and exact frames.

pub mod runner;
pub mod workload;

#[cfg(test)]
mod edits;
#[cfg(test)]
mod placement;
#[cfg(test)]
mod raster;
#[cfg(test)]
mod scale;
