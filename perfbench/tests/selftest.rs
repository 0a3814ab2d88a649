//! Self-tests of the benchmark binary on a small network.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

/// Runs the benchmark on a 400-node network and returns its metrics by
/// name from the JSON result line, plus `correct` and `failed`.
fn run(workload: &str, seed: u64, trace: u8) -> (BTreeMap<String, f64>, bool, u64) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "0.3"])
        .args(["--trace", &trace.to_string(), "--nodes", "400", "--preload", "600"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let line = stdout.lines().last().expect("a result line");
    let field = |key: &str| {
        let at = line.find(&format!("\"{key}\": ")).expect("result key present") + key.len() + 4;
        line[at..].split([',', '}']).next().expect("a value").trim().to_owned()
    };
    let correct = field("correct") == "true";
    let failed = field("failed").parse().expect("failed is a count");
    let mut metrics = BTreeMap::new();
    let mut rest = line;
    while let Some(at) = rest.find(": {\"value\": ") {
        let name = rest[..at].rsplit('"').nth(1).expect("a quoted name").to_owned();
        rest = &rest[at + ": {\"value\": ".len()..];
        let value = rest.split(',').next().expect("a value").parse().expect("a number");
        metrics.insert(name, value);
    }
    (metrics, correct, failed)
}

/// Metric names listed in one section of `BENCHMARK.json`.
fn listed(section: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let end = body[1..].find("\n  \"").map_or(body.len(), |e| e + 1);
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().expect("closing quote").to_owned())
        .collect()
}

const WORKLOADS: [&str; 3] = ["sink-reads", "dim-roaming-mixed", "ght-churn"];

#[test]
fn a_short_run_emits_every_listed_metric() {
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    assert!(end_to_end.contains("setup_s") && per_layer.contains("core.query_us"));
    for workload in WORKLOADS {
        let (metrics, correct, failed) = run(workload, 5, 0);
        assert!(correct && failed == 0, "{workload}: end-to-end run failed its checks");
        assert_eq!(metrics.keys().cloned().collect::<BTreeSet<_>>(), end_to_end, "{workload}");
        assert!(metrics.values().all(|v| *v > 0.0), "{workload}: a zero end-to-end metric");
        let (metrics, correct, _) = run(workload, 5, 1);
        assert!(correct, "{workload}: traced run failed its checks");
        assert_eq!(metrics.keys().cloned().collect::<BTreeSet<_>>(), per_layer, "{workload}");
    }
}

#[test]
fn traced_counts_repeat_exactly_at_a_seed() {
    const COUNTS: [&str; 14] = [
        "core.cells_per_query",
        "core.allocs_per_query",
        "core.msgs.forward",
        "core.msgs.reply",
        "core.allocs_per_insert",
        "service.shards_per_op",
        "service.allocs_per_op",
        "gpsr.hops_per_route",
        "transport.hit_ratio",
        "transport.evictions_per_op",
        "dim.zones_per_query",
        "dim.allocs_per_query",
        "netsim.patched_rows",
        "ght.repair_msgs_per_epoch",
    ];
    for workload in WORKLOADS {
        let (a, _, _) = run(workload, 9, 1);
        let (b, _, _) = run(workload, 9, 1);
        for name in COUNTS {
            assert_eq!(a[name], b[name], "{workload}: {name} differs between runs");
        }
    }
    // The single-client end-to-end run is deterministic in its counts too.
    let (a, _, _) = run("ght-churn", 9, 0);
    let (b, _, _) = run("ght-churn", 9, 0);
    for name in ["msgs_per_read", "msgs_per_write", "read_vms_p99"] {
        assert_eq!(a[name], b[name], "ght-churn: {name} differs between runs");
    }
}
