//! The benchmark's entry point: runs one workload once and prints every
//! metric by name with its unit, the run's provenance, and, as the last
//! line, the result object.
//!
//! ```text
//! perfbench --workload <paper_session|clinic_mix|hospital_feed> --seed <n>
//!           --seconds <s> --trace <0|1> --clinic-reads <kind=rate,...>
//!           --feed-ladder <r1,r2,...,overload>
//! ```

use std::path::Path;
use std::process::exit;

use ada_perfbench::json::{number, quote};
use ada_perfbench::{catalog, clinic, env, feed, paper, trace, Args, Outcome};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&argv).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        exit(2);
    });
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        exit(1);
    }
    // Write back dirty pages (a fresh build leaves hundreds of megabytes)
    // before anything is timed, so the first run after a build does not
    // measure the kernel's writeback.
    let _ = std::process::Command::new("sync").status();
    let journal_fs = match args.workload.as_str() {
        "hospital_feed" => env::fs_type(&args.out_dir),
        "clinic_mix" => "memory".to_owned(),
        _ => "none (in-memory K-DB)".to_owned(),
    };
    let provenance = env::Provenance::capture(Path::new("."), journal_fs);
    let mut out = Outcome::default();
    let ran = match args.workload.as_str() {
        "paper_session" => paper::run(&args, &mut out),
        "clinic_mix" => clinic::run(&args, &mut out),
        _ => feed::run(&args, &mut out),
    };
    if let Err(e) = ran {
        eprintln!("perfbench: {} could not run: {e}", args.workload);
        exit(1);
    }

    let defs = catalog::for_run(args.trace);
    for def in defs {
        // An idle layer reports zero; an end-to-end metric must be
        // measured.
        if !out.values.contains_key(def.name) {
            if !args.trace {
                out.problems.push(format!("{} was not measured", def.name));
            }
            out.values.insert(def.name, 0.0);
        }
    }
    for problem in &out.problems {
        println!("# problem: {problem}");
    }
    println!(
        "# {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for def in defs {
        let sample = out.samples.get(def.name).map_or("", String::as_str);
        println!(
            "# {:<40} {:>16.6} {:<9} {sample}",
            def.name, out.values[def.name], def.unit
        );
    }
    let mut ungated = Vec::new();
    for def in catalog::UNGATED.iter().filter(|_| !args.trace) {
        if let Some(&value) = out.values.get(def.name) {
            let sample = out.samples.get(def.name).map_or("", String::as_str);
            println!(
                "# {:<40} {:>16.6} {:<9} {sample} (not gated)",
                def.name, value, def.unit
            );
            ungated.push(format!("{}: {}", quote(def.name), number(value)));
        }
    }
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "# {:<40} {:>16.6} {:<9} failed {} of {}",
        "failed_ratio", failed_ratio, "ratio", out.failed, out.attempted
    );
    for (k, v) in &out.notes {
        println!("# {k}: {v}");
    }

    let mut trace_file = String::new();
    if args.trace {
        let layer: Vec<(String, f64, String)> = defs
            .iter()
            .map(|d| (d.name.to_owned(), out.values[d.name], d.unit.to_owned()))
            .collect();
        let path = args
            .out_dir
            .join(format!("trace-{}-{}.json", args.workload, args.seed));
        let text = trace::dump(&out.spans, &layer, &out.notes);
        match std::fs::write(&path, text) {
            Ok(()) => trace_file = path.display().to_string(),
            Err(e) => out
                .problems
                .push(format!("cannot write {}: {e}", path.display())),
        }
        println!("# span dump: {trace_file} ({} spans)", out.spans.len());
    }

    let digests = out
        .digests
        .iter()
        .map(|d| quote(d))
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"provenance\": {}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"failed_ratio\": {}, \"ungated\": {{{}}}, \"trace_file\": {}, \"digests\": [{digests}]}}",
        provenance.to_json(),
        quote(&args.workload),
        args.seed,
        number(args.seconds),
        u8::from(args.trace),
        number(failed_ratio),
        ungated.join(", "),
        quote(&trace_file)
    );
    let metrics = defs
        .iter()
        .map(|d| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(d.name),
                number(out.values[d.name]),
                quote(d.unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.problems.is_empty(),
        out.attempted.max(1),
        out.failed
    );
}
