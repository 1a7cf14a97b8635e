//! Checks of the benchmark's own code: it times the computation the
//! figures use, its output checks fire on broken outputs, and its
//! printed metrics match `BENCHMARK.json`.

use appstore_core::Seed;
use hostbench::fit::{self, CallOutput, Curve, FitParams, Model};
use hostbench::ingest::{self, IngestParams};
use hostbench::serve::{self, ServeParams};
use hostbench::{Report, Settings, END_TO_END, PER_LAYER};
use serde_json::Value;
use std::path::{Path, PathBuf};

/// `tests/golden` is generated at this scale and seed.
const GOLDEN_SCALE: u32 = 64;
const GOLDEN_SEED: u64 = 2013;

fn repo_file(relative: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(relative)
}

fn settings(name: &str, seed: u64, trace: bool) -> Settings {
    let work_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("hostbench-{name}"));
    std::fs::create_dir_all(&work_dir).expect("create test work dir");
    Settings {
        seed,
        seconds: 0.01,
        trace,
        work_dir,
    }
}

/// A run of `workload` small enough for a test.
fn tiny_run(workload: &str, seed: u64, trace: bool) -> Report {
    let settings = settings(&format!("{workload}-{seed}-{trace}"), seed, trace);
    match workload {
        "fit" => fit::run(
            &FitParams {
                scale: GOLDEN_SCALE,
                setups: 1,
                min_rounds: 2,
            },
            &settings,
        ),
        "serve" => serve::run(&tiny_serve(), &settings),
        "ingest" => ingest::run(&tiny_ingest(), &settings),
        _ => unreachable!("unknown workload {workload}"),
    }
}

/// The serve workload replays each trace once (the hit-rate bands hold
/// over a whole trace), in few rounds.
fn tiny_serve() -> ServeParams {
    ServeParams {
        chunks_per_round: 60,
        setups: 1,
        min_rounds: 1,
        ..ServeParams::default()
    }
}

fn tiny_ingest() -> IngestParams {
    IngestParams {
        scale: GOLDEN_SCALE,
        shards: 2,
        setups: 1,
        min_rounds: 2,
    }
}

fn golden_rows(id: &str) -> Vec<String> {
    let text = std::fs::read_to_string(repo_file(&format!("tests/golden/{id}.stdout.txt")))
        .expect("read golden");
    text.lines().skip(2).map(str::to_string).collect()
}

#[test]
fn fit_calls_reproduce_the_golden_fig8_fig9_fig10_rows() {
    let stores = fit::setup(GOLDEN_SCALE, GOLDEN_SEED);
    assert!(stores.iter().all(|s| s.complete));
    let calls = fit::round_calls(&stores, Seed::new(GOLDEN_SEED).child("experiments"));
    let outputs: Vec<_> = calls
        .iter()
        .map(|call| fit::run_call(&stores, call).expect("every call fits"))
        .collect();
    let fit_of = |store: usize, model: Model, curve: Curve| -> &appstore_models::FitOutcome {
        let i = calls
            .iter()
            .position(|c| c.store == store && c.model == model && c.curve == curve)
            .expect("call exists");
        match &outputs[i] {
            CallOutput::Fit(fit) => fit,
            CallOutput::Sweep(_) => panic!("not a fit"),
        }
    };
    let models = [Model::Zipf, Model::Amo, Model::Clustering];

    let fig8: Vec<String> = stores
        .iter()
        .enumerate()
        .flat_map(|(i, store)| {
            models.iter().map(move |&m| {
                let fit = fit_of(i, m, Curve::Final);
                format!(
                    "{:<10} {:<20} {:>6.2} {:>6.2} {:>6.2} {:>12} {:>10.3}",
                    store.name,
                    fit.kind.name(),
                    fit.zipf_exponent,
                    fit.cluster_exponent,
                    fit.p,
                    fit.users,
                    fit.distance
                )
            })
        })
        .collect();
    assert_eq!(fig8, golden_rows("fig8")[..9]);

    let mut fig9 = Vec::new();
    for (i, store) in stores.iter().enumerate() {
        for (label, curve) in [("first", Curve::First), ("last", Curve::Last)] {
            let [z, a, c] = models.map(|m| fit_of(i, m, curve).distance);
            fig9.push(format!(
                "{:<10} {:<8} {:>10.3} {:>14.3} {:>16.3} {:>11.1}x {:>11.1}x",
                store.name,
                label,
                z,
                a,
                c,
                z / c,
                a / c
            ));
        }
    }
    assert_eq!(fig9, golden_rows("fig9")[..6]);

    let fig10: Vec<String> = stores
        .iter()
        .enumerate()
        .map(|(i, store)| {
            let sweep = calls
                .iter()
                .position(|c| c.store == i && c.model == Model::Sweep)
                .map(|k| match &outputs[k] {
                    CallOutput::Sweep(points) => points.clone(),
                    CallOutput::Fit(_) => panic!("not a sweep"),
                })
                .expect("sweep call exists");
            let best = sweep
                .iter()
                .copied()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .map_or(f64::NAN, |(f, _)| f);
            let points: Vec<String> = sweep.iter().map(|(f, d)| format!("{f}:{d:.2}")).collect();
            format!("{:<10} {:>8.2}  {}", store.name, best, points.join("  "))
        })
        .collect();
    assert_eq!(fig10, golden_rows("fig10")[..3]);
}

#[test]
fn healthy_runs_fail_nothing() {
    for workload in hostbench::WORKLOADS {
        let report = tiny_run(workload, GOLDEN_SEED, false);
        assert_eq!(report.failed, 0, "{workload}: {:?}", report.notes);
        assert!(report.attempted > 0);
    }
}

/// Flips one byte inside the first chunk of the first download shard
/// that holds more than one chunk (damage to a file's last chunk reads
/// as a torn tail rather than a quarantined chunk).
fn corrupt_first_chunk(streaming: &bench::StreamingStores) {
    let damaged = streaming
        .spills
        .iter()
        .flat_map(|(_, spill)| &spill.shard_downloads)
        .any(|path| {
            let mut bytes = std::fs::read(path).expect("read shard");
            let Some(end) = bytes.iter().position(|&b| b == b'\n') else {
                return false;
            };
            if end + 1 >= bytes.len() {
                return false;
            }
            bytes[end / 2] ^= 0x5a;
            std::fs::write(path, bytes).expect("write shard");
            true
        });
    assert!(damaged, "no shard holds two chunks");
}

#[test]
fn a_corrupted_spill_chunk_raises_fail_ratio() {
    // Large enough that a shard holds several chunks.
    let params = IngestParams {
        scale: 8,
        shards: 1,
        ..tiny_ingest()
    };
    let report = ingest::run_with(
        &params,
        &settings("ingest-corrupt", GOLDEN_SEED, false),
        &corrupt_first_chunk,
    );
    assert!(report.fail_ratio() > 0.0, "{:?}", report.notes);
    assert!(
        report.notes.iter().any(|n| n.contains("quarantined")),
        "{:?}",
        report.notes
    );
}

#[test]
fn an_out_of_band_hit_rate_raises_fail_ratio() {
    let params = ServeParams {
        cache_apps: 1,
        ..tiny_serve()
    };
    let report = serve::run(&params, &settings("serve-cold", GOLDEN_SEED, false));
    assert!(report.fail_ratio() > 0.0);
    let outside = report
        .notes
        .iter()
        .filter(|n| n.contains("outside"))
        .count();
    assert_eq!(outside, 2, "{:?}", report.notes);
}

fn benchmark_metrics(key: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_file("BENCHMARK.json")).expect("read BENCHMARK.json");
    let doc = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect("string field");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn printed_metrics(report: &Report, trace: bool) -> Vec<(String, String)> {
    let doc = serde_json::parse_value(&report.result_json(trace)).expect("result parses");
    doc.get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn printed_metrics_match_benchmark_json_and_do_not_depend_on_the_seed() {
    let as_owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(benchmark_metrics("end_to_end"), as_owned(&END_TO_END));
    assert_eq!(benchmark_metrics("per_layer"), as_owned(&PER_LAYER));
    for workload in hostbench::WORKLOADS {
        for trace in [false, true] {
            let key = if trace { "per_layer" } else { "end_to_end" };
            let a = tiny_run(workload, 1, trace);
            let b = tiny_run(workload, 2, trace);
            assert_eq!(
                printed_metrics(&a, trace),
                benchmark_metrics(key),
                "{workload}"
            );
            assert_eq!(
                printed_metrics(&b, trace),
                benchmark_metrics(key),
                "{workload}"
            );
            let names = |r: &Report| r.metrics.keys().copied().collect::<Vec<_>>();
            assert_eq!(names(&a), names(&b), "{workload} trace {trace}");
        }
    }
}

#[test]
fn a_different_seed_changes_the_inputs() {
    assert_ne!(fit::setup(GOLDEN_SCALE, 1), fit::setup(GOLDEN_SCALE, 2));
    let events = |seed| -> Vec<(u32, u32)> {
        serve::trace_chunks(seed)
            .iter()
            .flat_map(|chunks| chunks[0].events.clone())
            .collect()
    };
    assert_ne!(events(1), events(2));
    let truth = |seed| {
        ingest::setup(GOLDEN_SCALE, seed).bundles[0]
            .store
            .dataset
            .snapshots
            .clone()
    };
    assert_ne!(truth(1), truth(2));
}
