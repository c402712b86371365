//! Compare mode for two result sets (parent vs change).
//!
//! ```text
//! compare run    --bench BENCHMARK.json --parent <checkout> --change <checkout>
//!                --out <dir> [--pairs 10] [--first-seed 1] [--workload <name>]... [--trace 0|1]
//! compare report --bench BENCHMARK.json --parent <dir> --change <dir>
//! ```
//!
//! `run` alternates which side goes first on every pair, saves each
//! run's output under `<out>/parent` and `<out>/change`, then reports.
//! `report` compares saved outputs. The exit code is 1 when the change
//! regresses a metric beyond its bound, changes a result digest, fails
//! a larger share of operations, or has too few pairs.

use std::path::{Path, PathBuf};
use std::process::exit;

use ada_perfbench::compare::{compare, load_runs, run_once, Benchmark, MIN_PAIRS};

fn fail(msg: &str) -> ! {
    eprintln!("compare: {msg}");
    exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((mode, rest)) = argv.split_first() else {
        fail("usage: compare <run|report> --bench BENCHMARK.json --parent <p> --change <c> ...");
    };
    let mut bench_path = None;
    let (mut parent, mut change, mut out) = (None, None, None);
    let (mut pairs, mut first_seed, mut trace) = (MIN_PAIRS, 1u64, false);
    let mut workloads = Vec::new();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| fail(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--bench" => bench_path = Some(PathBuf::from(value)),
            "--parent" => parent = Some(PathBuf::from(value)),
            "--change" => change = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            "--pairs" => {
                pairs = value
                    .parse()
                    .unwrap_or_else(|_| fail("--pairs must be a count"))
            }
            "--first-seed" => {
                first_seed = value
                    .parse()
                    .unwrap_or_else(|_| fail("--first-seed must be a number"))
            }
            "--workload" => workloads.push(value.clone()),
            "--trace" => trace = value == "1",
            other => fail(&format!("unknown flag {other}")),
        }
    }
    let bench_path = bench_path.unwrap_or_else(|| fail("missing --bench"));
    let text = std::fs::read_to_string(&bench_path)
        .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", bench_path.display())));
    let bench = Benchmark::parse(&text).unwrap_or_else(|e| fail(&e));
    let parent = parent.unwrap_or_else(|| fail("missing --parent"));
    let change = change.unwrap_or_else(|| fail("missing --change"));
    let (parent_runs, change_runs) = match mode.as_str() {
        "run" => {
            let out = out.unwrap_or_else(|| fail("missing --out"));
            if pairs < MIN_PAIRS {
                eprintln!("compare: {pairs} pairs is below the {MIN_PAIRS} a verdict needs");
            }
            if workloads.is_empty() {
                workloads.clone_from(&bench.workloads);
            }
            let sides = [(&parent, out.join("parent")), (&change, out.join("change"))];
            for i in 0..pairs {
                let seed = first_seed + i as u64;
                let order: [usize; 2] = if i % 2 == 0 { [0, 1] } else { [1, 0] };
                for workload in &workloads {
                    for &s in &order {
                        let (checkout, dir) = &sides[s];
                        run_once(&bench, checkout, dir, workload, seed, trace)
                            .unwrap_or_else(|e| fail(&e));
                    }
                }
                eprintln!("compare: pair {}/{pairs} done", i + 1);
            }
            (load(&out.join("parent")), load(&out.join("change")))
        }
        "report" => (load(&parent), load(&change)),
        other => fail(&format!("unknown mode {other}")),
    };
    let report = compare(&bench, &parent_runs, &change_runs);
    print!("{}", report.render());
    exit(i32::from(!report.passed()));
}

fn load(dir: &Path) -> Vec<ada_perfbench::compare::RunResult> {
    load_runs(dir).unwrap_or_else(|e| fail(&e))
}
