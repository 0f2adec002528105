//! Tiny-size smoke runs of every workload: every named metric prints
//! with its unit, every output passes its checks, and a deliberately
//! corrupted response is counted as failed.  Also keeps the metric
//! catalog in step with `BENCHMARK.json`.

mod json;

use perfbench::{run, Options, Report, Workload, END_TO_END, PER_LAYER};

fn tiny(workload: Workload, trace: bool) -> Options {
    let mut o = Options::new(workload, 7, 0.02);
    o.tiny = true;
    o.trace = trace;
    o
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let report = run(&tiny(w, trace));
            let tag = format!("{} trace={trace}", w.name());
            report
                .validate(trace)
                .unwrap_or_else(|e| panic!("{tag}: {e}"));
            assert_eq!(report.failed, 0, "{tag}: {:?}", report.notes);
            assert!(report.attempted >= 100, "{tag}: {} ops", report.attempted);
            let line = report.json(trace);
            let parsed = json::parse(&line).unwrap_or_else(|e| panic!("{tag}: {e}: {line}"));
            assert_eq!(
                parsed.get("correct"),
                Some(&json::Value::Bool(true)),
                "{tag}"
            );
            let metrics = parsed.get("metrics").expect("metrics object");
            for (name, unit) in Report::expected(trace) {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{tag}: {name} missing"));
                assert_eq!(
                    m.get("unit").and_then(json::Value::as_str),
                    Some(unit),
                    "{tag}: {name}"
                );
                assert!(
                    m.get("value").and_then(json::Value::as_f64).is_some(),
                    "{tag}: {name}"
                );
            }
            let table = report.table(trace);
            for (name, unit) in Report::expected(trace) {
                assert!(
                    table
                        .lines()
                        .any(|l| l.starts_with(name) && l.contains(unit)),
                    "{tag}: {name} not in the table"
                );
            }
        }
    }
}

#[test]
fn a_corrupted_response_is_counted_as_failed() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let mut o = tiny(w, trace);
            o.corrupt_op = Some(3);
            let report = run(&o);
            let tag = format!("{} trace={trace}", w.name());
            assert_eq!(report.failed, 1, "{tag}");
            assert!(
                report.json(trace).starts_with("{\"correct\": false,"),
                "{tag}"
            );
        }
    }
}

#[test]
fn the_traced_run_writes_nested_spans() {
    let mut o = tiny(Workload::PaperCold, true);
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-spans.jsonl");
    o.trace_file = Some(path.clone());
    let report = run(&o);
    assert_eq!(report.failed, 0);
    let text = std::fs::read_to_string(&path).expect("span file written");
    let spans: Vec<json::Value> = text
        .lines()
        .map(|l| json::parse(l).expect("one JSON object per line"))
        .collect();
    let named = |n: &str| {
        spans
            .iter()
            .filter(|s| s.get("name").and_then(json::Value::as_str) == Some(n))
            .count()
    };
    // A traced run traces half of its operations.
    let maps = named("MapService::map");
    assert!(maps >= 30, "{maps} traced maps");
    assert!(
        named("request") > maps,
        "the session probe adds remap requests"
    );
    for child in [
        "artifact_key",
        "EvalArtifact::build",
        "series_parallel_subgraphs",
        "map_request",
    ] {
        assert_eq!(named(child), maps, "{child}");
    }
}

#[test]
fn catalog_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| {
        doc.get(key)
            .and_then(json::Value::as_array)
            .expect(key)
            .to_vec()
    };

    let workloads: Vec<String> = list("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(json::Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let ours: Vec<String> = Workload::BENCHMARKED
        .iter()
        .map(|w| w.name().to_string())
        .collect();
    assert_eq!(workloads, ours);

    let e2e = list("end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (j, m) in e2e.iter().zip(END_TO_END) {
        assert_eq!(j.get("name").and_then(json::Value::as_str), Some(m.name));
        assert_eq!(j.get("unit").and_then(json::Value::as_str), Some(m.unit));
        assert_eq!(
            j.get("better").and_then(json::Value::as_str),
            Some(m.better.as_str())
        );
        assert_eq!(j.get("bound").and_then(json::Value::as_f64), Some(m.bound));
    }
    let layers = list("per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (j, m) in layers.iter().zip(PER_LAYER) {
        assert_eq!(j.get("name").and_then(json::Value::as_str), Some(m.name));
        assert_eq!(j.get("unit").and_then(json::Value::as_str), Some(m.unit));
        assert_eq!(
            j.get("better").and_then(json::Value::as_str),
            Some(m.better.as_str())
        );
    }
}
