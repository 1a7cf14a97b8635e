//! The `ingest` workload: data entering the reproduction, written and
//! then read.
//!
//! One round is one op: the `crawl` experiment through
//! `bench::run_experiment` (a campaign through 40/60 PlanetLab proxies
//! with 5 % dropped and 5 % corrupted payloads), then
//! `StreamingStores::generate_pure` spilling the four stores to 4-shard
//! files in a fresh directory, then `fold_downloads` over every store and
//! `fold_comments` over Anzhi — the work of `repro --streaming fig3 fig5`.
//! `crawler`, `synth`, `core::spill` and the folds do all the work here
//! and none in `fit` or `serve`.

use crate::spans::{Recorder, SETUP_OP};
use crate::{
    median, ratio, repeated_setup, set_round_metrics, timed_rounds, traced_round, Report, Settings,
};
use appstore_core::{Seed, StoreId};
use appstore_obs::{names, Registry};
use appstore_synth::{generate_many, StoreProfile};
use bench::{fold_comments, fold_downloads, run_experiment, StoreBundle, Stores, StreamingStores};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};

/// Workload size.
#[derive(Clone, Debug)]
pub struct IngestParams {
    /// Store scale divisor (`repro --scale`).
    pub scale: u32,
    /// Spill shards per store.
    pub shards: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Timed rounds run even when the time is up.
    pub min_rounds: usize,
}

impl Default for IngestParams {
    fn default() -> IngestParams {
        IngestParams {
            scale: 2,
            shards: 4,
            setups: 9,
            min_rounds: 3,
        }
    }
}

/// The crawl's ground truth: Anzhi, generated single-threaded with the
/// seed chain `repro` uses (store seeds derive from profile names, so
/// generating Anzhi alone gives the same dataset as generating all four).
pub fn setup(scale: u32, seed: u64) -> Stores {
    let (index, profile) = StoreProfile::all_stores()
        .into_iter()
        .enumerate()
        .find(|(_, p)| p.name == "anzhi")
        .expect("anzhi is a calibrated store");
    let profile = if scale > 1 {
        profile.scaled_down(scale)
    } else {
        profile
    };
    let store = generate_many(
        vec![(profile.clone(), StoreId(index as u32))],
        Seed::new(seed).child("stores"),
        1,
    )
    .pop()
    .expect("one store generated");
    Stores {
        bundles: vec![StoreBundle { profile, store }],
    }
}

/// Registry counters read over the first timed round.
const COUNTERS: [&str; 10] = [
    names::CRAWL_REQUESTS,
    names::CRAWL_RETRIES,
    names::CRAWL_DROPPED,
    names::CRAWL_CORRUPTED,
    names::SPILL_BYTES_WRITTEN,
    names::SPILL_CHUNKS_WRITTEN,
    names::SYNTH_DOWNLOADS,
    names::SPILL_BYTES_MERGED,
    names::SPILL_CHUNKS_MERGED,
    names::SPILL_CHUNKS_QUARANTINED,
];

/// Seconds one round spent in each layer.
#[derive(Default)]
struct Phases {
    crawl: f64,
    spill: f64,
    fold_downloads: f64,
    fold_comments: f64,
}

/// Runs one round into `dir` (created fresh, removed afterwards) and
/// checks its outputs. Returns the round's output digest, or `None` when
/// a call failed. `damage` runs between the spill and the folds.
#[allow(clippy::too_many_arguments)]
fn round(
    params: &IngestParams,
    seed: u64,
    stores: &Stores,
    dir: &Path,
    traced: bool,
    op: u64,
    recorder: &mut Recorder,
    report: &mut Report,
    damage: &dyn Fn(&StreamingStores),
) -> (Option<u64>, Phases) {
    let mut phases = Phases::default();
    let mut digest = DefaultHasher::new();

    let (crawl, secs) = recorder.traced_span(traced, "crawler.crawl", op, || {
        run_experiment("crawl", stores, Seed::new(seed).child("experiments"))
    });
    phases.crawl = secs;
    let crawl = crawl.expect("crawl is an experiment id");
    let lossless = crawl
        .json
        .get("lossless")
        .and_then(serde_json::Value::as_bool);
    report.check(lossless == Some(true), || {
        format!("round {op}: crawl harvest is not lossless ({lossless:?})")
    });
    crawl.lines.hash(&mut digest);

    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create the spill directory");
    let (spilled, secs) = recorder.traced_span(traced, "synth.spill", op, || {
        StreamingStores::generate_pure(
            params.scale,
            Seed::new(seed).child("stores"),
            1,
            dir,
            params.shards,
        )
    });
    phases.spill = secs;
    let streaming = match spilled {
        Ok(streaming) => streaming,
        Err(err) => {
            report.check(false, || format!("round {op}: spill failed: {err}"));
            let _ = std::fs::remove_dir_all(dir);
            return (None, phases);
        }
    };
    damage(&streaming);

    let mut complete = true;
    for (profile, spill) in &streaming.spills {
        let (fold, secs) = recorder.traced_span(traced, "streaming.fold_downloads", op, || {
            fold_downloads(spill, None)
        });
        phases.fold_downloads += secs;
        let ok = match &fold {
            Ok(fold) => {
                fold.free_counts.hash(&mut digest);
                fold.paid_counts.hash(&mut digest);
                fold.quarantined == 0
                    && fold.torn_tails == 0
                    && fold.rows == spill.total_downloads
                    && fold.free_counts.iter().sum::<u64>() == spill.total_downloads
                    && fold.paid_counts.iter().sum::<u64>() == spill.total_paid
            }
            Err(_) => false,
        };
        complete &= fold.is_ok();
        report.check(ok, || {
            format!(
                "round {op}: {} download fold is damaged or disagrees with its spill",
                profile.name
            )
        });
        if profile.name == "anzhi" {
            let (fold, secs) = recorder.traced_span(traced, "streaming.fold_comments", op, || {
                fold_comments(spill)
            });
            phases.fold_comments += secs;
            let ok = match &fold {
                Ok(fold) => {
                    let raw: usize = fold.profiles.iter().map(|p| p.raw_comments).sum();
                    for p in &fold.profiles {
                        (p.user.0, p.raw_comments, p.stream_len, &p.category_counts)
                            .hash(&mut digest);
                    }
                    fold.quarantined == 0
                        && fold.torn_tails == 0
                        && raw as u64 == spill.total_comments
                }
                Err(_) => false,
            };
            complete &= fold.is_ok();
            report.check(ok, || {
                format!("round {op}: anzhi comment fold is damaged or disagrees with its spill")
            });
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    (complete.then(|| digest.finish()), phases)
}

/// Runs the workload with `damage` applied to every round's spill (the
/// benchmark itself passes a no-op; tests pass a corruption).
pub fn run_with(
    params: &IngestParams,
    settings: &Settings,
    damage: &dyn Fn(&StreamingStores),
) -> Report {
    let mut report = Report::default();
    let (stores, setup_secs) = repeated_setup(params.setups, || setup(params.scale, settings.seed));
    report.set("setup_s", median(&setup_secs));
    report.set("ingest.setup.truth_s", median(&setup_secs));
    let dir: PathBuf = settings
        .work_dir
        .join(format!("ingest-spill-{}", std::process::id()));

    let mut recorder = Recorder::new();
    if settings.trace {
        // In-memory generation (`synth.generate`) runs only in set-up, so
        // the traced run traces one extra, unmeasured set-up.
        recorder.traced_span(true, "ingest.setup", SETUP_OP, || {
            setup(params.scale, settings.seed)
        });
        let setup_spans: Vec<_> = recorder
            .spans()
            .iter()
            .filter(|s| s.op == SETUP_OP)
            .cloned()
            .collect();
        let self_s = crate::spans::self_times(&setup_spans);
        report.set(
            "synth.generate.self_s",
            self_s
                .get(names::SPAN_SYNTH_GENERATE)
                .copied()
                .unwrap_or(0.0),
        );
    }
    let mut first_digest = None;
    let mut phases: Vec<Phases> = Vec::new();
    let mut counters: Option<Vec<f64>> = None;
    let (rounds, steal) = timed_rounds(settings.seconds, params.min_rounds, |index| {
        let traced = traced_round(settings, index);
        let registry = Registry::new();
        let (digest, round_phases) = appstore_obs::with_registry(&registry, || {
            round(
                params,
                settings.seed,
                &stores,
                &dir,
                traced,
                index as u64,
                &mut recorder,
                &mut report,
                damage,
            )
        });
        let quarantined = registry.counter_value(names::SPILL_CHUNKS_QUARANTINED);
        report.check(quarantined == 0, || {
            format!("round {index}: {quarantined} spill chunk(s) quarantined")
        });
        match (&first_digest, digest) {
            (None, Some(digest)) => first_digest = Some(digest),
            (Some(first), Some(digest)) => report.check(*first == digest, || {
                format!("round {index}: outputs differ from the first round")
            }),
            (_, None) => {}
        }
        if index > 0 {
            if counters.is_none() {
                counters = Some(
                    COUNTERS
                        .iter()
                        .map(|name| registry.counter_value(name) as f64)
                        .collect(),
                );
            }
            if !traced {
                phases.push(round_phases);
            }
        }
        1.0
    });

    set_round_metrics(&mut report, &rounds);
    let phase = |of: fn(&Phases) -> f64| median(&phases.iter().map(of).collect::<Vec<_>>());
    let (crawl_s, spill_s) = (phase(|p| p.crawl), phase(|p| p.spill));
    let (downloads_s, comments_s) = (phase(|p| p.fold_downloads), phase(|p| p.fold_comments));
    report.set("crawler.crawl_s", crawl_s);
    report.set("synth.spill_s", spill_s);
    report.set("streaming.fold_downloads_s", downloads_s);
    report.set("streaming.fold_comments_s", comments_s);
    let counters = counters.unwrap_or_else(|| vec![0.0; COUNTERS.len()]);
    let counter: BTreeMap<&str, f64> = COUNTERS.iter().copied().zip(counters).collect();
    for name in COUNTERS {
        if let Some(&(known, _)) = crate::PER_LAYER.iter().find(|(n, _)| *n == name) {
            report.set(known, counter[name]);
        }
    }
    let requests = counter[names::CRAWL_REQUESTS];
    report.set("crawler.us_per_request", ratio(crawl_s * 1e6, requests));
    report.set(
        "crawler.retry_ratio",
        ratio(counter[names::CRAWL_RETRIES], requests),
    );
    const MIB: f64 = 1024.0 * 1024.0;
    report.set(
        "spill.write_mib_per_s",
        ratio(counter[names::SPILL_BYTES_WRITTEN] / MIB, spill_s),
    );
    report.set(
        "spill.read_mib_per_s",
        ratio(
            counter[names::SPILL_BYTES_MERGED] / MIB,
            downloads_s + comments_s,
        ),
    );
    report.notes.push(format!(
        "ingest: crawl {crawl_s:.3} s, spill {spill_s:.3} s, download folds {downloads_s:.3} s, \
         comment fold {comments_s:.3} s per round at scale {}",
        params.scale
    ));
    if settings.trace {
        let self_s = crate::traced_self_times(&mut report, settings, &rounds, &recorder);
        for (span, name) in [
            (names::SPAN_CRAWL_DAY, "crawl.day.self_s"),
            (names::SPAN_SPILL_STORE, "spill.store.self_s"),
            (names::SPAN_SPILL_FOLD, "spill.fold.self_s"),
        ] {
            report.set(name, self_s.get(span).copied().unwrap_or(0.0));
        }
    }
    report.finish(steal, recorder);
    report
}

/// Runs the workload.
pub fn run(params: &IngestParams, settings: &Settings) -> Report {
    run_with(params, settings, &|_| {})
}
