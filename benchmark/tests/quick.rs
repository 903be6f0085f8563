//! Whole `--quick` suite runs through the built executable: the output
//! names exactly what `spec` and `BENCHMARK.json` name, and everything
//! that is a count repeats exactly.

use benchmark::spec::{COUNTERS, END_TO_END, PER_LAYER, WORKLOADS};
use serde::Value;
use std::path::Path;
use std::process::Command;

fn quick_suite(out: &Path, seed: u64) -> Value {
    let status = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "suite",
            "--quick",
            "--runs",
            "1",
            "--seed",
            &seed.to_string(),
        ])
        .arg("--out")
        .arg(out)
        .status()
        .expect("run the benchmark");
    assert!(status.success(), "the quick suite failed");
    let text = std::fs::read_to_string(out).expect("result file");
    serde_json::from_str(&text).expect("result file parses")
}

fn keys(v: &Value) -> Vec<&str> {
    let fields = v.as_object().expect("an object");
    fields.iter().map(|(k, _)| k.as_str()).collect()
}

fn value(file: &Value, workload: &str, group: &str, metric: &str) -> f64 {
    let entry = file.get("workloads").unwrap().get(workload).unwrap();
    let entry = entry.get(group).unwrap().get(metric).unwrap();
    entry.get("value").unwrap().as_f64().unwrap()
}

#[test]
fn quick_runs_name_everything_and_counts_repeat() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let first = quick_suite(&dir.join("quick-1.json"), 7);
    let second = quick_suite(&dir.join("quick-2.json"), 7);

    assert_eq!(first.get("comparable"), Some(&Value::Bool(false)));
    let workloads = first.get("workloads").unwrap();
    assert_eq!(keys(workloads), WORKLOADS);
    for w in WORKLOADS {
        let entry = workloads.get(w).unwrap();
        assert_eq!(entry.get("failed").unwrap().as_f64(), Some(0.0), "{w}");
        let named: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(keys(entry.get("end_to_end").unwrap()), named, "{w}");
        let named: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(keys(entry.get("per_layer").unwrap()), named, "{w}");

        for m in ["subopt_max", "subopt_mean"] {
            let (a, b) = (
                value(&first, w, "end_to_end", m),
                value(&second, w, "end_to_end", m),
            );
            assert_eq!(a, b, "{w} {m}");
            assert!(a > 0.0, "{w} {m}");
        }
        assert!(value(&first, w, "end_to_end", "subopt_max") <= 1.0, "{w}");
        for m in COUNTERS {
            let (a, b) = (
                value(&first, w, "per_layer", m),
                value(&second, w, "per_layer", m),
            );
            assert_eq!(a, b, "{w} {m}");
        }
    }

    // What the issue asks of single workloads.
    assert_eq!(
        value(
            &first,
            "serve-churn",
            "per_layer",
            "server.cache_cold_loads"
        ),
        1.0
    );
    assert_eq!(
        value(
            &first,
            "discover-paged",
            "per_layer",
            "executor.batch_fallbacks"
        ),
        0.0
    );
    let hit = value(
        &first,
        "discover-paged",
        "per_layer",
        "storage.pool_hit_ratio",
    );
    assert!(hit > 0.1 && hit < 0.9, "pool hit ratio {hit}");
}

#[test]
fn benchmark_json_names_what_the_harness_reports() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let file: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| match file.get(key) {
        Some(Value::Array(items)) => items.clone(),
        other => panic!("{key}: {other:?}"),
    };
    let text_of = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();

    let names: Vec<String> = list("workloads")
        .iter()
        .map(|w| text_of(w, "name"))
        .collect();
    assert_eq!(names, WORKLOADS);
    let listed = list("end_to_end");
    assert_eq!(listed.len(), END_TO_END.len());
    for (entry, m) in listed.iter().zip(&END_TO_END) {
        assert_eq!(text_of(entry, "name"), m.name);
        assert_eq!(text_of(entry, "unit"), m.unit);
        let better = if m.lower_is_better { "lower" } else { "higher" };
        assert_eq!(text_of(entry, "better"), better, "{}", m.name);
        assert_eq!(
            entry.get("bound").unwrap().as_f64(),
            Some(m.bound),
            "{}",
            m.name
        );
    }
    let listed = list("per_layer");
    assert_eq!(listed.len(), PER_LAYER.len());
    for (entry, (name, unit)) in listed.iter().zip(&PER_LAYER) {
        assert_eq!(text_of(entry, "name"), *name);
        assert_eq!(text_of(entry, "unit"), *unit);
    }
}
