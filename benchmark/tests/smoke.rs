//! Every workload at smoke scale, both run flavours: the printed names
//! must be exactly those `BENCHMARK.json` lists, every operation must
//! verify, and the exact counts must equal what the shapes dictate and
//! repeat across runs and seeds.
//!
//! Run with `cargo test --release --offline` (the debug profile works but
//! takes minutes on the m=256 workloads).

use std::process::Command;

/// A tenth of `--smoke`: every code path, smallest op counts.
const SECONDS: &str = "0.03";

const WORKLOADS: [&str; 5] = [
    "tcp_small_stream",
    "router_small_panels",
    "inproc_large_panels",
    "tcp_churn_install",
    "inproc_supervised_quorum",
];

struct RunResult {
    correct: bool,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

impl RunResult {
    fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("no metric {name}"))
            .1
    }
}

fn run(workload: &str, seed: u64, trace: bool) -> RunResult {
    let output = Command::new(env!("CARGO_BIN_EXE_scec-benchmark"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            SECONDS,
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary starts");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let line = stdout.lines().last().expect("a result line");
    assert!(
        output.status.success(),
        "{workload} trace={trace} exited with {}:\n{stdout}",
        output.status
    );
    let field = |key: &str| {
        let at = line
            .find(key)
            .unwrap_or_else(|| panic!("no {key} in {line}"))
            + key.len();
        line[at..]
            .split([',', '}'])
            .next()
            .unwrap()
            .trim()
            .to_string()
    };
    let body = &line[line.find("\"metrics\": {").expect("metrics object") + 12..];
    let metrics = body
        .split("\"unit\"")
        .filter_map(|entry| {
            let value_at = entry.find("\": {\"value\": ")?;
            let name_start = entry[..value_at].rfind('"')? + 1;
            let value = entry[value_at + 13..]
                .trim_end_matches([',', ' '])
                .parse()
                .ok()?;
            Some((entry[name_start..value_at].to_string(), value))
        })
        .collect();
    RunResult {
        correct: field("\"correct\": ") == "true",
        failed: field("\"failed\": ").parse().expect("failed count"),
        metrics,
    }
}

/// The `"name"` values inside the array `"<key>": [ … ]` of `BENCHMARK.json`.
fn manifest_names(manifest: &str, key: &str) -> Vec<String> {
    let start = manifest
        .find(&format!("\"{key}\": ["))
        .expect("manifest section");
    let section = &manifest[start..];
    let section = &section[..section.find(']').expect("section end")];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
        .collect()
}

fn manifest() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark directory")
}

#[test]
fn every_workload_reports_the_manifest_metrics_and_verifies() {
    let manifest = manifest();
    assert_eq!(manifest_names(&manifest, "workloads"), WORKLOADS);
    for (section, trace) in [("end_to_end", false), ("per_layer", true)] {
        let expected = manifest_names(&manifest, section);
        for name in &expected {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name {name}"
            );
        }
        for workload in WORKLOADS {
            let result = run(workload, 1, trace);
            assert!(
                result.correct && result.failed == 0,
                "{workload} failed ops"
            );
            let printed: Vec<&str> = result.metrics.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(printed, expected, "{workload} {section}");
            if !trace {
                assert_eq!(result.get("verified_ops_share"), 1.0);
                for (name, value) in &result.metrics {
                    assert!(*value > 0.0, "{workload} {name} must never read 0");
                }
            } else {
                assert_eq!(result.get("runtime.retries_total"), 0.0);
                assert_eq!(result.get("runtime.repairs_total"), 0.0);
                assert_eq!(result.get("harness.failed_ops_share"), 0.0);
            }
        }
    }
}

#[test]
fn exact_counts_match_the_shapes_and_repeat_across_runs_and_seeds() {
    // m=8, l=16 on the standard fleet: TA-1 picks r=4 random rows on 3
    // devices, 4 coded rows each. A frame is a 4-byte length prefix and an
    // 8-byte header (magic, version, tag); a query carries a request id and
    // a length-prefixed vector, a partial a request id, a device id and a
    // length-prefixed vector.
    let query_frame = 4 + 8 + 8 + (8 + 16 * 8);
    let partial_frame = 4 + 8 + 8 + 8 + (8 + 4 * 8);
    let exact = [
        ("wire.bytes_sent_per_query", 3.0 * query_frame as f64),
        ("wire.bytes_received_per_query", 3.0 * partial_frame as f64),
        ("wire.frames_per_query", 6.0),
        ("linalg.field_mults_per_query", 12.0 * 16.0),
        ("linalg.field_adds_per_query", 12.0 * 15.0 + 8.0),
        ("allocation.random_rows", 4.0),
        ("allocation.devices_used", 3.0),
    ];
    let first = run("tcp_small_stream", 7, true);
    let again = run("tcp_small_stream", 7, true);
    let other_seed = run("tcp_small_stream", 8, true);
    for (name, expected) in exact {
        assert_eq!(first.get(name), expected, "{name}");
        assert_eq!(again.get(name), expected, "{name} on a second run");
        assert_eq!(other_seed.get(name), expected, "{name} under another seed");
    }
    // No codec on an in-process path.
    for workload in ["inproc_large_panels", "inproc_supervised_quorum"] {
        let result = run(workload, 7, true);
        assert_eq!(result.get("wire.bytes_sent_per_query"), 0.0);
        assert_eq!(result.get("wire.bytes_received_per_query"), 0.0);
    }
    // The Eq.-(1) cost is a property of the plan, not of the data.
    let cost = run("tcp_small_stream", 7, false).get("cost_per_query");
    assert_eq!(
        cost,
        run("tcp_small_stream", 8, false).get("cost_per_query")
    );
    assert_eq!(cost, 15.6);
}
