//! Self-test of the benchmark: every workload passes its checks at a
//! short length, runs print exactly the metrics `BENCHMARK.json` names,
//! and one altered recorded reply fails the check.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::{Path, PathBuf};

use hmh_perfbench::{run, Config, Outcome};

const WORKLOADS: [&str; 3] = ["similarity-p15", "ingest-p10", "cluster-p10"];

fn config(workload: &str, trace: bool, tamper: bool) -> Config {
    Config {
        workload: workload.to_string(),
        seed: 11,
        seconds: 0.3,
        trace,
        tamper,
        root: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("selftest"),
    }
}

fn must_run(cfg: &Config) -> Outcome {
    run(cfg).unwrap_or_else(|e| panic!("{} could not run: {e}", cfg.workload))
}

/// Metric names of one section (`end_to_end` or `per_layer`) of
/// `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closed name")].to_string())
        .collect()
}

/// Metrics carried in the JSON result line.
fn printed(out: &Outcome) -> Vec<String> {
    out.metrics.iter().filter(|m| m.in_result).map(|m| m.name.clone()).collect()
}

#[test]
fn every_workload_passes_its_checks_and_prints_the_end_to_end_metrics() {
    let want = declared("end_to_end");
    assert_eq!(want.len(), 3);
    for workload in WORKLOADS {
        let out = must_run(&config(workload, false, false));
        assert!(out.correct, "{workload}: {:?}", out.problems);
        assert!(out.attempted > 0 && out.checked > 0, "{workload} did work and checked it");
        assert_eq!(printed(&out), want, "{workload}");
        // The p99s and health_p50_ms are still printed on `#` lines.
        assert_eq!(out.metrics.len(), 15, "{workload}");
        assert!(out.metrics.iter().all(|m| m.value.is_finite() && m.samples > 0));
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric() {
    let want = declared("per_layer");
    for workload in WORKLOADS {
        let out = must_run(&config(workload, true, false));
        assert!(out.correct, "{workload}: {:?}", out.problems);
        assert_eq!(printed(&out), want, "{workload}");
    }
}

#[test]
fn one_altered_reply_fails_the_check() {
    for workload in WORKLOADS {
        let out = must_run(&config(workload, false, true));
        assert!(!out.correct, "{workload}: a flipped reply bit went unnoticed");
        assert_eq!(out.problems.len(), 1, "{workload}: {:?}", out.problems);
    }
}
