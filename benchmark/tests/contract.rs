//! Holds the benchmark to its contract: `BENCHMARK.json` declares exactly
//! what the binaries print, the build profile is the root's, and the
//! end-to-end path stays inside its narrow API surface.
//!
//! The binaries are driven for real, in `--smoke` mode (0.2 s per phase).

use mpm_benchmark::inputs::WORKLOADS;
use mpm_benchmark::json::{self, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the crate sits in the repository root")
        .to_path_buf()
}

fn contract() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `name → unit` of one of the contract's metric lists.
fn declared(contract: &Value, list: &str) -> BTreeMap<String, String> {
    contract
        .get(list)
        .expect("list present")
        .items()
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

/// Runs one binary in smoke mode from the repository root and returns the
/// `name → unit` of the metrics in its result line.
fn smoke(binary: &str, workload: &str, trace: &str) -> BTreeMap<String, String> {
    let output = Command::new(binary)
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("binary starts");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    assert!(
        output.status.success(),
        "{binary} {workload} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let result = json::parse(stdout.lines().last().expect("a result line")).expect("result parses");
    let Value::Object(keys) = &result else {
        panic!("the result is not an object");
    };
    let keys: Vec<&str> = keys.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}"
    );
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(
        result
            .get("attempted")
            .and_then(Value::as_f64)
            .expect("attempted")
            >= 1.0
    );
    let Some(Value::Object(metrics)) = result.get("metrics") else {
        panic!("no metrics object");
    };
    metrics
        .iter()
        .map(|(name, metric)| {
            assert!(
                metric.get("value").and_then(Value::as_f64).is_some(),
                "{name}"
            );
            (
                name.clone(),
                metric
                    .get("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

#[test]
fn binaries_print_exactly_the_declared_metrics_on_every_workload() {
    let contract = contract();
    let end_to_end = declared(&contract, "end_to_end");
    let per_layer = declared(&contract, "per_layer");
    assert!(end_to_end.contains_key("setup_s"));
    for w in &WORKLOADS {
        assert_eq!(
            smoke(env!("CARGO_BIN_EXE_e2e"), w.name, "0"),
            end_to_end,
            "{}",
            w.name
        );
        assert_eq!(
            smoke(env!("CARGO_BIN_EXE_layers"), w.name, "1"),
            per_layer,
            "{}",
            w.name
        );
    }
}

/// The case `benchmark/run` designs for: the `layers` binary did not build.
/// The suite must still save the end-to-end numbers, report every per-layer
/// block missing, and exit by the end-to-end runs alone; `compare` must read
/// what it saved.
#[test]
fn suite_without_the_layers_binary_keeps_the_end_to_end_numbers() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("suite-without-layers");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    for binary in [env!("CARGO_BIN_EXE_suite"), env!("CARGO_BIN_EXE_e2e")] {
        let name = Path::new(binary).file_name().expect("file name");
        std::fs::copy(binary, dir.join(name)).expect("copy binary");
    }
    let suite = dir.join(
        Path::new(env!("CARGO_BIN_EXE_suite"))
            .file_name()
            .expect("file name"),
    );
    let set = dir.join("set.json");
    let run = |args: &[&str]| {
        let output = Command::new(&suite)
            .current_dir(repo_root())
            .args(args)
            .output()
            .expect("suite starts");
        let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
        assert!(
            output.status.success(),
            "suite {args:?} failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        stdout
    };
    let set_path = set.to_str().expect("UTF-8 path");
    let stdout = run(&["--smoke", "--out", set_path]);
    assert_eq!(
        stdout.matches("per-layer block MISSING").count(),
        WORKLOADS.len()
    );

    let saved =
        json::parse(&std::fs::read_to_string(&set).expect("set saved")).expect("set parses");
    let runs = saved.get("runs").expect("runs").items();
    assert_eq!(runs.len(), 2 * WORKLOADS.len());
    for record in runs {
        let traced = record.get("trace").and_then(Value::as_f64) == Some(1.0);
        assert_eq!(record.get("ok"), Some(&Value::Bool(!traced)));
        let result = record.get("result").expect("result");
        assert_eq!(result.get("metrics").is_some(), !traced);
    }

    let table = run(&["compare", set_path, set_path]);
    let end_to_end = declared(&contract(), "end_to_end").len();
    assert_eq!(table.matches(" same").count(), end_to_end * WORKLOADS.len());
}

#[test]
fn contract_has_the_required_shape() {
    let contract = contract();
    let Value::Object(keys) = &contract else {
        panic!("BENCHMARK.json is not an object");
    };
    let keys: Vec<&str> = keys.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let names: Vec<&str> = contract
        .get("workloads")
        .expect("workloads")
        .items()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    let defined: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(names, defined);
    let setup_bound = |m: &Value| m.get("bound").and_then(Value::as_f64).expect("bound");
    let metrics = contract.get("end_to_end").expect("end_to_end").items();
    let setup = metrics
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"))
        .expect("setup_s is declared");
    for m in metrics {
        assert!(setup_bound(m) <= 0.25);
        assert!(
            setup_bound(m) <= setup_bound(setup),
            "setup_s carries the largest bound"
        );
    }
}

/// The `[profile.release]` table of a manifest, comments and blanks removed.
fn release_profile(manifest: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(manifest).expect("manifest readable");
    text.lines()
        .map(str::trim)
        .skip_while(|line| *line != "[profile.release]")
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(str::to_string)
        .collect()
}

#[test]
fn release_profile_is_the_roots() {
    let root = release_profile(&repo_root().join("Cargo.toml"));
    assert!(!root.is_empty(), "the root manifest has a release profile");
    assert_eq!(
        release_profile(&repo_root().join("benchmark/Cargo.toml")),
        root
    );
}

#[test]
fn sources_stay_off_what_the_roadmap_deletes_or_reshapes() {
    // ROADMAP item 2 deletes the first group, item 1 reshapes the second;
    // the benchmark must keep compiling through both.
    const GONE_SOON: &[&str] = &[
        "_legacy",
        "verify_round_per_candidate",
        "classify_and_verify",
        "GraphConfig",
        "MPM_GRAPH_",
        "ShardedScanner",
        "build_barrier",
        "mpm_bench::",
        "stats.latency",
        "stats.histogram",
        "stats.workers",
    ];
    // Probes belong in src/bin/layers.rs; the gate's path may not use them.
    const PROBES_ONLY: &[&str] = &[
        "StreamScanner",
        "GroupedFlowScanner",
        "RuleConfirmer",
        "filter_only",
        "filter_round",
        "verify_round",
        "scan_with_stats",
        "mpm_stream::ring",
        "mpm_cachesim",
        "mpm_dfc",
        "mpm_wu_manber",
        "mpm_simd",
    ];
    let src = repo_root().join("benchmark/src");
    let mut files = vec![];
    for dir in [src.clone(), src.join("bin")] {
        for entry in std::fs::read_dir(dir).expect("source directory") {
            let path = entry.expect("entry").path();
            if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    assert!(files.len() >= 10, "found the sources");
    for path in &files {
        let text = std::fs::read_to_string(path).expect("source readable");
        for word in GONE_SOON {
            assert!(!text.contains(word), "{} mentions {word}", path.display());
        }
        if !path.ends_with("bin/layers.rs") {
            for word in PROBES_ONLY {
                assert!(
                    !text.contains(word),
                    "{} uses the probe-only {word}",
                    path.display()
                );
            }
        }
    }
}
