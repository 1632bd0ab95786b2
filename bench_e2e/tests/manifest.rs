//! `BENCHMARK.json` checked against the benchmark's own catalogue: the
//! file the runs are judged by must name exactly the workloads and
//! metrics the program measures, and every per-layer metric must say
//! what it should move.

use bench_e2e::layers::{END_TO_END, LAYERS};
use bench_e2e::workload::Workload;
use serde::Value;
use std::collections::HashSet;

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside bench_e2e/");
    serde::json::from_str(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(m: &'a Value, key: &str) -> &'a [Value] {
    m.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no list {key:?}"))
}

fn field<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("entry has no {key:?}: {entry:?}"))
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_name_matches_the_name_pattern_once() {
    let m = manifest();
    for key in ["workloads", "end_to_end", "per_layer"] {
        let mut seen = HashSet::new();
        for entry in list(&m, key) {
            let name = field(entry, "name");
            assert!(is_name(name), "{key}: {name:?} is not [A-Za-z0-9_.-]+");
            assert!(seen.insert(name), "{key}: {name:?} is listed twice");
        }
    }
    assert!(!is_name("rx stage"));
    assert!(!is_name("latency/ms"));
}

#[test]
fn manifest_lists_the_catalogue() {
    let m = manifest();
    let workloads: Vec<&str> = list(&m, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(workloads, Workload::GRADED.map(Workload::name));

    let triple = |e: &Value| -> (String, String, String) {
        (
            field(e, "name").into(),
            field(e, "unit").into(),
            field(e, "better").into(),
        )
    };
    let e2e: Vec<_> = list(&m, "end_to_end").iter().map(triple).collect();
    let want: Vec<_> = END_TO_END
        .iter()
        .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
        .collect();
    assert_eq!(e2e, want);
    let per_layer: Vec<_> = list(&m, "per_layer").iter().map(triple).collect();
    let want: Vec<_> = LAYERS
        .iter()
        .map(|l| {
            let d = &l.metric;
            (d.name.into(), d.unit.into(), d.better.into())
        })
        .collect();
    assert_eq!(per_layer, want);

    for e in list(&m, "end_to_end") {
        let bound = e.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{e:?}");
    }
    let setup = list(&m, "end_to_end")
        .iter()
        .find(|e| field(e, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(
        (field(setup, "unit"), field(setup, "better")),
        ("s", "lower")
    );
}

#[test]
fn every_layer_metric_names_what_it_should_move() {
    let e2e: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
    let workloads = Workload::ALL.map(Workload::name);
    for layer in LAYERS {
        let name = layer.metric.name;
        assert!(!layer.moves.is_empty(), "{name} predicts nothing");
        for (metric, workload) in layer.moves {
            assert!(e2e.contains(metric), "{name}: no end-to-end {metric:?}");
            assert!(
                workloads.contains(workload),
                "{name}: no workload {workload:?}"
            );
        }
    }
}
