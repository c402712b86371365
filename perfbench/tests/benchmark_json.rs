//! `BENCHMARK.json` and the metric catalog the benchmark prints must
//! name the same metrics with the same units and directions, and the
//! command must carry the settings the workloads read.

use ada_perfbench::catalog::{END_TO_END, PER_LAYER};
use ada_perfbench::compare::Benchmark;
use ada_perfbench::json::{self, Json};
use ada_perfbench::{Args, WORKLOADS};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(doc: &Json, key: &str) -> Vec<(String, String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_owned()
            };
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

#[test]
fn catalog_matches_benchmark_json() {
    let doc = benchmark_json();
    for (key, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let want: Vec<(String, String, String)> = catalog
            .iter()
            .map(|d| (d.name.to_owned(), d.unit.to_owned(), d.better.to_owned()))
            .collect();
        assert_eq!(declared(&doc, key), want, "{key} differs from the catalog");
    }
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert!(
        Benchmark::parse("{}").is_err(),
        "an empty document is rejected"
    );
}

#[test]
fn every_end_to_end_metric_has_a_bound_of_at_most_a_quarter() {
    let doc = benchmark_json();
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .expect("end_to_end");
    let setup_bound = metrics
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
        .and_then(|m| m.get("bound"))
        .and_then(Json::as_f64)
        .expect("setup_s bound");
    for m in metrics {
        let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
        assert!(bound <= setup_bound, "setup_s carries the largest bound");
    }
}

#[test]
fn the_command_carries_every_workload_setting() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json");
    let bench = Benchmark::parse(&text).expect("parses");
    let at = bench
        .command
        .iter()
        .position(|a| a == "--")
        .expect("arguments after --");
    let mut argv: Vec<String> = bench.command[at + 1..].to_vec();
    argv.extend(
        [
            "--workload",
            "clinic_mix",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ]
        .map(String::from),
    );
    let args = Args::parse(&argv).expect("the command's arguments parse");
    assert!(args
        .feed_ladder
        .contains(&ada_perfbench::feed::REFERENCE_RPS));
    assert!(!args.clinic_reads.is_empty());
}
