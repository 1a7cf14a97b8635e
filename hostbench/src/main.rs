//! `hostbench --workload <fit|serve|ingest> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! `--seconds` defaults to 30, the `run_seconds` of `BENCHMARK.json`.
//! Runs one workload and prints its notes, the host record and, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The traced run
//! also writes its spans to `.hostbench/spans-<workload>-<seed>.jsonl`.

use hostbench::{host, run_workload, Settings, DEFAULT_SEED, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(error: &str) -> ExitCode {
    eprintln!("error: {error}");
    eprintln!(
        "usage: hostbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut settings = Settings {
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        work_dir: PathBuf::from(".hostbench"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => match value.parse() {
                Ok(seed) => settings.seed = seed,
                Err(_) => return usage(&format!("bad seed: {value}")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s <= 600.0 => settings.seconds = s,
                _ => return usage(&format!("bad seconds: {value}")),
            },
            "--trace" => match value.as_str() {
                "0" => settings.trace = false,
                "1" => settings.trace = true,
                _ => return usage(&format!("bad trace flag: {value}")),
            },
            _ => return usage(&format!("unknown flag: {flag}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        return usage(&format!("unknown workload: {workload}"));
    }
    if let Err(err) = std::fs::create_dir_all(&settings.work_dir) {
        eprintln!(
            "error: cannot create {}: {err}",
            settings.work_dir.display()
        );
        return ExitCode::FAILURE;
    }

    let report = run_workload(&workload, &settings).expect("workload name validated");

    for note in &report.notes {
        println!("{note}");
    }
    let table: Vec<_> = if settings.trace {
        hostbench::PER_LAYER.to_vec()
    } else {
        hostbench::END_TO_END.to_vec()
    };
    for (name, unit) in table {
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        println!("{workload}/{name} = {value} {unit}");
    }
    println!("fail_ratio = {}", report.fail_ratio());
    println!("{}", host::record(&report.steal));
    if settings.trace {
        if let Some(recorder) = &report.recorder {
            let path = settings
                .work_dir
                .join(format!("spans-{workload}-{}.jsonl", settings.seed));
            match recorder.write_jsonl(&path) {
                Ok(()) => println!("spans written to {}", path.display()),
                Err(err) => eprintln!("warning: cannot write {}: {err}", path.display()),
            }
        }
    }
    println!("{}", report.result_json(settings.trace));
    ExitCode::SUCCESS
}
