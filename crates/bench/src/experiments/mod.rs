//! One function per paper table/figure, plus the ablations.

pub mod behavior;
pub mod breakeven;
pub mod cache;
pub mod failover;
pub mod income;
pub mod model_fit;
pub mod popularity;
pub mod prefetch;
pub mod pricing;
pub mod recommend;
pub mod recovery;
pub mod serve_replay;
pub mod table1;

use crate::stores::Stores;
use appstore_core::{assess, par_map_indexed, repair_gaps, Dataset, GapRepair, Seed};
use serde_json::Value;
use std::borrow::Cow;
use std::time::Instant;

/// Gap-aware view of a dataset for the analysis experiments: assess
/// coverage, carry-forward-repair any missing days, and hand back the
/// dataset to analyze plus a coverage annotation for the report. On a
/// complete dataset this is a borrow and the annotation says so.
pub(crate) fn gap_repaired(dataset: &Dataset) -> (Cow<'_, Dataset>, String) {
    let quality = assess(dataset);
    if quality.is_complete() {
        (Cow::Borrowed(dataset), quality.annotation())
    } else {
        let (repaired, report) = repair_gaps(dataset, GapRepair::CarryForward);
        let note = format!("{}; {}", quality.annotation(), report.annotation());
        (Cow::Owned(repaired), note)
    }
}

/// A regenerated experiment: printable lines plus a JSON series for
/// EXPERIMENTS.md.
pub struct ExperimentResult {
    /// Experiment id, e.g. `"fig3"`.
    pub id: &'static str,
    /// Human title matching the paper artifact.
    pub title: &'static str,
    /// Printable rows (one per output line).
    pub lines: Vec<String>,
    /// The structured series behind the rows.
    pub json: Value,
}

impl ExperimentResult {
    /// Renders the result as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

/// Every experiment id the harness knows, in paper order.
pub const EXPERIMENT_IDS: [&str; 32] = [
    "table1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "crawl",
    "crawl-recovery",
    "fit-recovery",
    "recommend",
    "prefetch",
    "ablate-depth",
    "ablate-drift",
    "ablate-policies",
    "ablate-cluster-size",
    "ablate-cutoff",
    "ablate-p",
    "serve-replay",
    "serve-failover",
];

/// Runs a batch of experiments on up to `threads` workers (0 ⇒ one per
/// CPU), returning `(result, wall_seconds, registry)` triples **in the
/// order of `ids`** regardless of completion order.
///
/// Every experiment receives the same `seed.child("experiments")` a
/// sequential [`run_experiment`] loop would pass and derives its own
/// child seeds internally, so the rendered results are bit-identical
/// for every thread count; only the wall times vary. `progress` is
/// invoked from worker threads as each experiment finishes (completion
/// order), for live wall-time reporting.
///
/// Each experiment's metrics land in its own fresh
/// [`appstore_obs::Registry`], returned alongside the result.
///
/// Each experiment's registry is installed for exactly the duration of
/// that experiment (and carried onto any worker threads it spawns), so
/// the snapshots partition cleanly by experiment id no matter how the
/// batch was scheduled. Deterministic metrics are identical for every
/// thread count; volatile ones are zeroed when the snapshot is taken in
/// no-timings mode.
///
/// # Panics
/// Panics on an unknown id — validate against [`EXPERIMENT_IDS`] first.
pub fn run_experiments_observed(
    ids: &[&str],
    stores: &Stores,
    seed: Seed,
    threads: usize,
    progress: impl Fn(&str, f64) + Sync,
) -> Vec<(ExperimentResult, f64, appstore_obs::Registry)> {
    run_experiments_observed_with(ids, seed, threads, progress, |id, seed| {
        run_experiment(id, stores, seed).unwrap_or_else(|| panic!("unknown experiment id: {id}"))
    })
}

/// The scheduling/observation shell of [`run_experiments_observed`],
/// generic over how one experiment id becomes a result — the streaming
/// path plugs its fold-based runner in here so both paths share the
/// per-experiment registry, track-labelling, and ordering machinery.
///
/// `run` receives the id and the batch's `experiments`-child seed,
/// exactly what [`run_experiment`] gets.
pub fn run_experiments_observed_with<'a>(
    ids: &[&'a str],
    seed: Seed,
    threads: usize,
    progress: impl Fn(&str, f64) + Sync,
    run: impl Fn(&'a str, Seed) -> ExperimentResult + Sync,
) -> Vec<(ExperimentResult, f64, appstore_obs::Registry)> {
    par_map_indexed(ids.to_vec(), threads, |_, id: &'a str| {
        let registry = appstore_obs::Registry::new();
        let started = Instant::now();
        // Name the experiment's trace track after its id so a `--trace`
        // timeline reads "fig8", not "task 1.4".
        appstore_obs::label_track(id);
        let result = appstore_obs::with_registry(&registry, || run(id, seed.child("experiments")));
        let secs = started.elapsed().as_secs_f64();
        progress(id, secs);
        (result, secs, registry)
    })
}

/// Runs one experiment by id. Returns `None` for an unknown id.
pub fn run_experiment(id: &str, stores: &Stores, seed: Seed) -> Option<ExperimentResult> {
    Some(match id {
        "table1" => table1::run(stores),
        "fig2" => popularity::fig2(stores),
        "fig3" => popularity::fig3(stores),
        "fig4" => popularity::fig4(stores),
        "fig5" => behavior::fig5(stores),
        "fig6" => behavior::fig6(stores),
        "fig7" => behavior::fig7(stores),
        "fig8" => model_fit::fig8(stores, seed),
        "fig9" => model_fit::fig9(stores, seed),
        "fig10" => model_fit::fig10(stores, seed),
        "fig11" => pricing::fig11(stores),
        "fig12" => pricing::fig12(stores),
        "fig13" => income::fig13(stores),
        "fig14" => income::fig14(stores),
        "fig15" => income::fig15(stores),
        "fig16" => income::fig16(stores),
        "fig17" => breakeven::fig17(stores),
        "fig18" => breakeven::fig18(stores),
        "fig19" => cache::fig19(seed),
        "crawl" => table1::crawl(stores, seed),
        "crawl-recovery" => recovery::run(stores, seed),
        "fit-recovery" => recovery::fit_recovery(stores, seed),
        "recommend" => recommend::run(stores),
        "prefetch" => prefetch::run(stores),
        "ablate-depth" => behavior::ablate_depth(stores),
        "ablate-drift" => behavior::ablate_drift(stores),
        "ablate-policies" => cache::ablate_policies(seed),
        "ablate-cluster-size" => cache::ablate_cluster_size(seed),
        "ablate-cutoff" => popularity::ablate_cutoff(stores),
        "ablate-p" => model_fit::ablate_p(stores, seed),
        "serve-replay" => serve_replay::run(seed),
        "serve-failover" => failover::run(seed),
        _ => return None,
    })
}
