//! The traced run's counts repeat exactly on a fixed seed: tiles
//! rendered, hits, evictions, invalidations, labels, placements
//! evaluated and the repeat share. Each run is its own process, as the
//! benchmark's runs are (snapshot fingerprints draw on a per-process
//! counter, and the cache's shard routing follows them). Run with
//! `--release`; a debug build is far too slow for the workloads.

use std::process::Command;

/// Every per-layer value of a traced run that is a count or a ratio of
/// counts (times never repeat), from its result line.
fn counts(workload: &str) -> Vec<(String, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1"])
        .output()
        .expect("the benchmark starts");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let result = stdout.lines().last().expect("a result line");
    assert!(result.starts_with("{\"correct\":true,"), "{workload}: a check failed:\n{stdout}");
    // `"metrics":{"NAME":{"value":V,"unit":"U"},...}}`
    let metrics = &result[result.find("\"metrics\":{").expect("metrics") + 11..];
    metrics
        .split("},")
        .filter_map(|m| {
            let (name, rest) = m.trim_end_matches('}').split_once(":{\"value\":")?;
            let (value, unit) = rest.split_once(",\"unit\":")?;
            (unit.trim_matches('"') != "ms")
                .then(|| (name.trim_matches('"').to_string(), value.to_string()))
        })
        .collect()
}

#[test]
fn traced_counts_repeat_exactly() {
    for workload in ["pan_zoom", "what_if", "http_mixed"] {
        let first = counts(workload);
        assert!(first.len() > 10, "{workload}: result line not parsed: {first:?}");
        assert!(first.iter().any(|(_, v)| v != "0"), "{workload}: no counts recorded");
        assert_eq!(first, counts(workload), "{workload}: counts differ between two runs");
    }
}
