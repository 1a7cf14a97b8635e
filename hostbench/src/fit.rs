//! The `fit` workload: the models work of `repro fig8 fig9 fig10`.
//!
//! For each fit store the round runs fig8's three fits on the final
//! curve, fig9's three fits on the first-day and last-day curves, and
//! fig10's clustering fit and user-count sweep — the same calls, specs
//! and seeds the figures use, with `FitSpec.threads = 1` so the fits are
//! serial. One op is one models call. `models` does nearly all the work;
//! `serve`, `crawler` and spill do none.

use crate::spans::Recorder;
use crate::{median, ratio, repeated_setup, set_round_metrics, timed_rounds, Report, Settings};
use appstore_core::{assess, Seed, StoreId};
use appstore_models::{
    fit_clustering, fit_zipf, fit_zipf_amo, user_count_sweep, FitOutcome, FitSpec,
};
use appstore_obs::{names, Registry};
use appstore_synth::{generate_many, StoreProfile};
use bench::experiments::model_fit::FIT_STORES;
use std::collections::BTreeMap;

/// Fig. 10's user-count fractions of the top app's downloads.
const SWEEP_FRACTIONS: [f64; 9] = [0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0];

/// Workload size.
#[derive(Clone, Debug)]
pub struct FitParams {
    /// Store scale divisor (`repro --scale`).
    pub scale: u32,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Timed rounds run even when the time is up.
    pub min_rounds: usize,
}

impl Default for FitParams {
    fn default() -> FitParams {
        FitParams {
            scale: 16,
            setups: 9,
            min_rounds: 3,
        }
    }
}

/// The curves one fit store contributes.
#[derive(Clone, Debug, PartialEq)]
pub struct StoreCurves {
    /// Store name.
    pub name: &'static str,
    /// APP-CLUSTERING cluster count (the store's categories).
    pub clusters: usize,
    /// Final downloads ranked descending (fig8, fig10).
    pub final_curve: Vec<u64>,
    /// First-day downloads ranked descending (fig9).
    pub first_day: Vec<u64>,
    /// Last-day downloads ranked descending (fig9).
    pub last_day: Vec<u64>,
    /// Whether every crawl day is present (otherwise the figures would
    /// fit a gap-repaired view, and these curves would differ).
    pub complete: bool,
}

/// Generates the three fit stores single-threaded and extracts their
/// curves, exactly as `repro --scale <scale> --seed <seed>` does.
pub fn setup(scale: u32, seed: u64) -> Vec<StoreCurves> {
    let profiles: Vec<(StoreProfile, StoreId)> = StoreProfile::all_stores()
        .into_iter()
        .enumerate()
        .filter(|(_, p)| FIT_STORES.contains(&p.name.as_str()))
        .map(|(i, p)| {
            let p = if scale > 1 { p.scaled_down(scale) } else { p };
            (p, StoreId(i as u32))
        })
        .collect();
    let stores = generate_many(profiles.clone(), Seed::new(seed).child("stores"), 1);
    FIT_STORES
        .iter()
        .map(|&name| {
            let i = profiles
                .iter()
                .position(|(p, _)| p.name == name)
                .expect("every fit store has a profile");
            let dataset = &stores[i].dataset;
            StoreCurves {
                name,
                clusters: profiles[i].0.categories,
                final_curve: dataset.final_downloads_ranked(),
                first_day: dataset.first().downloads_ranked(),
                last_day: dataset.last().downloads_ranked(),
                complete: assess(dataset).is_complete(),
            }
        })
        .collect()
}

/// Which models entry point a call uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Model {
    /// `fit_zipf`.
    Zipf,
    /// `fit_zipf_amo`.
    Amo,
    /// `fit_clustering`.
    Clustering,
    /// fig10: `fit_clustering`, then `user_count_sweep` around its best.
    Sweep,
}

impl Model {
    /// The benchmark span name of a call.
    pub fn span(self) -> &'static str {
        match self {
            Model::Zipf => "models.zipf",
            Model::Amo => "models.amo",
            Model::Clustering => "models.clustering",
            Model::Sweep => "models.sweep",
        }
    }
}

/// Which curve of a store a call fits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Curve {
    /// Final downloads (fig8, fig10).
    Final,
    /// First crawl day (fig9).
    First,
    /// Last crawl day (fig9).
    Last,
}

/// One models call of a round.
#[derive(Clone, Copy, Debug)]
pub struct Call {
    /// Index into the store list.
    pub store: usize,
    /// Entry point.
    pub model: Model,
    /// Curve fitted.
    pub curve: Curve,
    /// Seed passed to the call (unused by `fit_zipf`).
    pub seed: Seed,
}

/// A call's output: one fit, or fig10's best fit plus its sweep.
#[derive(Clone, Debug, PartialEq)]
pub enum CallOutput {
    /// A fitted model.
    Fit(FitOutcome),
    /// fig10: the sweep's `(fraction, distance)` points.
    Sweep(Vec<(f64, f64)>),
}

/// The calls of one round, in figure order, seeded as the figures seed
/// them: `experiments` is `Seed::new(seed).child("experiments")`.
pub fn round_calls(stores: &[StoreCurves], experiments: Seed) -> Vec<Call> {
    let mut calls = Vec::new();
    let trio = |calls: &mut Vec<Call>, store: usize, curve: Curve, seed: Seed| {
        for (model, seed) in [
            (Model::Zipf, seed),
            (Model::Amo, seed.child("amo")),
            (Model::Clustering, seed.child("clustering")),
        ] {
            calls.push(Call {
                store,
                model,
                curve,
                seed,
            });
        }
    };
    for (i, store) in stores.iter().enumerate() {
        let by_store = experiments.child(store.name);
        trio(&mut calls, i, Curve::Final, by_store);
        trio(&mut calls, i, Curve::First, by_store.child("first"));
        trio(&mut calls, i, Curve::Last, by_store.child("last"));
        calls.push(Call {
            store: i,
            model: Model::Sweep,
            curve: Curve::Final,
            seed: by_store,
        });
    }
    calls
}

/// fig8's spec: the standard grid, refining the 5 best candidates with
/// one replication each, on one thread.
pub fn spec(clusters: usize, apps: usize) -> FitSpec {
    let mut spec = FitSpec::standard(clusters.min(apps).max(1));
    spec.refine_top = 5;
    spec.replications = 1;
    spec.threads = 1;
    spec
}

/// Runs one call. `None` when the models layer returned no fit.
pub fn run_call(stores: &[StoreCurves], call: &Call) -> Option<CallOutput> {
    let store = &stores[call.store];
    let curve = match call.curve {
        Curve::Final => &store.final_curve,
        Curve::First => &store.first_day,
        Curve::Last => &store.last_day,
    };
    let spec = spec(store.clusters, curve.len());
    Some(match call.model {
        Model::Zipf => CallOutput::Fit(fit_zipf(curve, &spec)?),
        Model::Amo => CallOutput::Fit(fit_zipf_amo(curve, &spec, call.seed)?),
        Model::Clustering => CallOutput::Fit(fit_clustering(curve, &spec, call.seed)?),
        Model::Sweep => {
            let best = fit_clustering(curve, &spec, call.seed.child("fit"))?;
            CallOutput::Sweep(user_count_sweep(
                curve,
                &best,
                spec.clusters,
                &SWEEP_FRACTIONS,
                1,
                call.seed.child("sweep"),
                1,
            ))
        }
    })
}

/// Whether a call's output is present and every distance finite.
pub fn output_ok(output: &Option<CallOutput>) -> bool {
    match output {
        Some(CallOutput::Fit(fit)) => fit.distance.is_finite(),
        Some(CallOutput::Sweep(points)) => {
            !points.is_empty() && points.iter().all(|(f, d)| f.is_finite() && d.is_finite())
        }
        None => false,
    }
}

/// Counters read from one round's registry.
const COUNTERS: [&str; 9] = [
    names::FIT_CLUSTERING_GRID_CANDIDATES,
    names::FIT_CLUSTERING_SCREENED,
    names::FIT_COARSE_PRUNED,
    names::FIT_CLUSTERING_REFINED,
    names::FIT_SIM_REPLICATIONS,
    names::SIM_DOWNLOADS,
    names::CORE_PAR_CALLS,
    names::CORE_PAR_TASKS,
    names::FIT_CACHE_MISSES,
];

/// Runs the workload.
pub fn run(params: &FitParams, settings: &Settings) -> Report {
    let mut report = Report::default();
    let (stores, setup_secs) = repeated_setup(params.setups, || setup(params.scale, settings.seed));
    report.set("setup_s", median(&setup_secs));
    report.set("fit.setup.stores_s", median(&setup_secs));
    for store in &stores {
        report.check(store.complete, || {
            format!("{}: generated store has crawl gaps", store.name)
        });
    }
    let calls = round_calls(&stores, Seed::new(settings.seed).child("experiments"));

    let mut recorder = Recorder::new();
    let mut first_outputs: Option<Vec<Option<CallOutput>>> = None;
    let mut per_model: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut counters: Option<Registry> = None;
    let mut op = 0u64;
    let (rounds, steal) = timed_rounds(settings.seconds, params.min_rounds, |round| {
        let traced = crate::traced_round(settings, round);
        // One registry per round, as `repro` installs one per experiment.
        let registry = Registry::new();
        let mut outputs = Vec::with_capacity(calls.len());
        let mut model_secs: BTreeMap<&'static str, f64> = BTreeMap::new();
        let round_span = recorder.begin("fit.round", op);
        appstore_obs::with_registry(&registry, || {
            for call in &calls {
                op += 1;
                let (output, secs) = recorder.traced_span(traced, call.model.span(), op, || {
                    std::hint::black_box(run_call(&stores, call))
                });
                outputs.push(output);
                if round > 0 && !traced {
                    *model_secs.entry(call.model.span()).or_default() += secs;
                }
            }
        });
        recorder.end(round_span);
        for (i, output) in outputs.iter().enumerate() {
            report.check(output_ok(output), || {
                format!(
                    "round {round} call {i}: {:?} returned no finite fit",
                    calls[i]
                )
            });
        }
        match &first_outputs {
            None => first_outputs = Some(outputs),
            Some(first) => {
                for (i, (a, b)) in first.iter().zip(&outputs).enumerate() {
                    report.check(a == b, || {
                        format!("round {round} call {i}: output differs from round 0")
                    });
                }
            }
        }
        if round > 0 {
            for (model, secs) in model_secs {
                per_model.entry(model).or_default().push(secs);
            }
            if counters.is_none() {
                counters = Some(registry);
            }
        }
        calls.len() as f64
    });

    set_round_metrics(&mut report, &rounds);
    for (model, name) in [
        ("models.zipf", "models.zipf_s"),
        ("models.amo", "models.amo_s"),
        ("models.clustering", "models.clustering_s"),
        ("models.sweep", "models.sweep_s"),
    ] {
        report.set(
            name,
            median(per_model.get(model).map_or(&[][..], Vec::as_slice)),
        );
    }
    if let Some(registry) = &counters {
        set_counter_metrics(&mut report, registry);
    }
    report.notes.push(format!(
        "fit: {} stores at scale {}, {} models calls per round",
        stores.len(),
        params.scale,
        calls.len()
    ));
    if settings.trace {
        let self_s = crate::traced_self_times(&mut report, settings, &rounds, &recorder);
        let screen = self_s.get(names::SPAN_FIT_SCREEN).copied().unwrap_or(0.0);
        let refine = self_s.get(names::SPAN_FIT_REFINE).copied().unwrap_or(0.0);
        report.set("models.screen_s", screen);
        report.set("models.refine_s", refine);
        let screened = report.metrics["fit.clustering.screened"];
        let sim_downloads = report.metrics["sim.downloads"];
        report.set(
            "models.screen_ns_per_candidate",
            ratio(screen * 1e9, screened),
        );
        report.set(
            "models.refine_ns_per_sim_download",
            ratio(refine * 1e9, sim_downloads),
        );
    }
    report.finish(steal, recorder);
    report
}

/// Per-round work counts, read from the first timed round's registry.
fn set_counter_metrics(report: &mut Report, registry: &Registry) {
    let value = |name: &str| registry.counter_value(name) as f64;
    for name in COUNTERS {
        if let Some(&(known, _)) = crate::PER_LAYER.iter().find(|(n, _)| *n == name) {
            report.set(known, value(name));
        }
    }
    report.set(
        "models.coarse_prune_ratio",
        ratio(
            value(names::FIT_COARSE_PRUNED),
            value(names::FIT_CLUSTERING_GRID_CANDIDATES),
        ),
    );
    let hits = value(names::FIT_CACHE_HITS);
    report.set(
        "models.cache_hit_ratio",
        ratio(hits, hits + value(names::FIT_CACHE_MISSES)),
    );
    report.set("core.par.worker_tasks", worker_batches(registry));
}

/// Observations of the `core.par.worker_tasks` histogram: one per
/// worker batch, so it equals `core.par.calls` when every parallel map
/// ran serially.
pub fn worker_batches(registry: &Registry) -> f64 {
    let snapshot = registry.snapshot_json(false);
    let doc = serde_json::parse_value(&snapshot).expect("registry snapshots are JSON");
    doc.get("histograms")
        .and_then(|h| h.get(names::CORE_PAR_WORKER_TASKS))
        .and_then(|h| h.get("count"))
        .and_then(serde_json::Value::as_f64)
        .unwrap_or(0.0)
}
