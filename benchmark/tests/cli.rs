//! The binary, end to end, on `--quick` inputs.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use benchmark::json::Json;
use benchmark::spec::WORKLOADS;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_benchmark"))
}

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")).unwrap()
}

fn listed_names(doc: &Json, key: &str) -> BTreeSet<String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect(key)
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Run one quick pass and return the contract's result object.
fn quick_pass(workload: &str, trace: &str, extra: &[&str]) -> (Json, bool) {
    let out = bin()
        .args([
            "--quick",
            "--workload",
            workload,
            "--trace",
            trace,
            "--seed",
            "3",
        ])
        .args(extra)
        .output()
        .expect("the binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    (
        Json::parse(last).unwrap_or_else(|e| panic!("{e}: {last}")),
        out.status.success(),
    )
}

#[test]
fn every_name_in_benchmark_json_is_printed_and_nothing_else() {
    let doc = benchmark_json();
    let listed_workloads = listed_names(&doc, "workloads");
    assert_eq!(
        listed_workloads,
        WORKLOADS.map(String::from).into_iter().collect()
    );
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = listed_names(&doc, key);
        for name in &want {
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(
                !name.is_empty() && name.len() <= 64 && name.chars().all(ok),
                "{name}"
            );
        }
        for workload in WORKLOADS {
            let (result, success) = quick_pass(workload, trace, &[]);
            assert!(success, "{workload} --trace {trace}");
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(result.get("failed"), Some(&Json::Num(0.0)));
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let metrics = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics");
            let got: BTreeSet<String> = metrics.keys().cloned().collect();
            assert_eq!(got, want, "{workload} --trace {trace}");
            for (name, m) in metrics {
                let value = m.get("value").and_then(Json::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{workload} {name}");
                assert!(
                    m.get("unit").and_then(Json::as_str).is_some(),
                    "{workload} {name}"
                );
            }
        }
    }
}

#[test]
fn result_file_round_trips_and_compare_refuses_quick_runs() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("quick-result.json");
    let path_str = path.to_str().expect("UTF-8 path");
    let (_, success) = quick_pass("sort", "0", &["--out", path_str]);
    assert!(success);
    let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(doc.get("quick"), Some(&Json::Bool(true)));
    let provenance = doc.get("provenance").expect("provenance");
    for key in [
        "git_commit",
        "rustc",
        "cpu_model",
        "nproc",
        "workers_p",
        "seed",
        "seconds",
    ] {
        assert!(provenance.get(key).is_some(), "{key}");
    }
    assert_eq!(provenance.get("seed"), Some(&Json::Num(3.0)));
    let sort = doc
        .get("workloads")
        .and_then(|w| w.get("sort"))
        .expect("sort");
    assert_eq!(
        sort.get("params").and_then(|p| p.get("n")),
        Some(&Json::Num(4096.0))
    );
    let gated = sort.get("gated").expect("gated pass");
    assert_eq!(gated.get("rounds"), Some(&Json::Num(1.0)));
    let full = gated
        .get("metrics")
        .and_then(|m| m.get("full_t1_s"))
        .expect("full_t1_s");
    assert!(benchmark::stats::Summary::from_json(full).is_some());
    assert_eq!(doc.encode_pretty(), std::fs::read_to_string(&path).unwrap());

    let status = bin()
        .args(["compare", path_str, path_str])
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(2), "quick results are not gated on");
}

#[test]
fn a_child_that_overruns_its_deadline_costs_failed_operations() {
    let (result, success) = quick_pass("mm", "0", &["--deadline", "0.000001"]);
    assert!(!success);
    assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
    assert!(result.get("failed").and_then(Json::as_f64).unwrap() >= 1.0);
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--seconds", "0"],
        &["--bogus"],
    ] {
        let out = bin().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}
