//! Same-host benchmark of the planet-apps reproduction.
//!
//! Three workloads, each a closed loop driven from one thread, call the
//! workspace crates through their public entry points and time those
//! calls from outside:
//!
//! * [`fit`] — the models work of `repro fig8 fig9 fig10`;
//! * [`serve`] — the §5 download traces replayed against the serving
//!   layer over loopback sockets;
//! * [`ingest`] — a crawl campaign, a spill of the four stores and the
//!   streaming folds over the spill.
//!
//! A run sets its inputs up several times (the median is `setup_s`),
//! runs one untimed warm-up round, then repeats whole rounds until the
//! requested seconds have passed. Every output is checked; a missing or
//! wrong output counts as failed. With tracing on, the run records the
//! benchmark's own spans around every layer call, installs an
//! `appstore_obs::Tracer` so the program's spans land on the same
//! timeline, and reports the per-layer metrics instead of the
//! end-to-end ones.

pub mod fit;
pub mod host;
pub mod ingest;
pub mod serve;
pub mod spans;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["fit", "serve", "ingest"];

/// Default workload seed (the reproduction's own default).
pub const DEFAULT_SEED: u64 = 2013;

/// End-to-end metrics `(name, unit)`, reported by the untraced run of
/// every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("round_wall_s", "s"),
    ("round_cpu_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics `(name, unit)`, reported by the traced run of every
/// workload. A metric of a layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 70] = [
    // models
    ("models.zipf_s", "s"),
    ("models.amo_s", "s"),
    ("models.clustering_s", "s"),
    ("models.sweep_s", "s"),
    ("models.screen_s", "s"),
    ("models.refine_s", "s"),
    ("fit.clustering.grid_candidates", "count"),
    ("fit.clustering.screened", "count"),
    ("fit.coarse.pruned", "count"),
    ("fit.clustering.refined", "count"),
    ("fit.sim.replications", "count"),
    ("sim.downloads", "count"),
    ("models.coarse_prune_ratio", "ratio"),
    ("models.cache_hit_ratio", "ratio"),
    ("models.screen_ns_per_candidate", "ns"),
    ("models.refine_ns_per_sim_download", "ns"),
    // core
    ("core.par.calls", "count"),
    ("core.par.tasks", "count"),
    ("core.par.worker_tasks", "count"),
    // serve, cache, obs
    ("serve.zipf.wall_us_per_req", "us"),
    ("serve.clustering.wall_us_per_req", "us"),
    ("serve.cpu_us_per_req", "us"),
    ("serve.handler_us_per_req", "us"),
    ("serve.outside_handler_us_per_req", "us"),
    ("serve.chunk_p50_ms", "ms"),
    ("serve.chunk_p90_ms", "ms"),
    ("serve.requests", "count"),
    ("serve.edge.hits", "count"),
    ("serve.edge.misses", "count"),
    ("serve.backing.calls", "count"),
    ("balancer.routed", "count"),
    ("balancer.hedges.fired", "count"),
    ("serve.rankings.fresh", "count"),
    ("serve.zipf.edge_hit_ratio", "ratio"),
    ("serve.clustering.edge_hit_ratio", "ratio"),
    ("serve.backing_share", "ratio"),
    ("obs.registry_overhead_pct", "%"),
    ("serve.setup.traces_s", "s"),
    ("serve.setup.start_s", "s"),
    // crawler
    ("crawler.crawl_s", "s"),
    ("crawl.requests", "count"),
    ("crawl.retries", "count"),
    ("crawl.dropped", "count"),
    ("crawl.corrupted", "count"),
    ("crawler.us_per_request", "us"),
    ("crawler.retry_ratio", "ratio"),
    // synth, core spill
    ("synth.spill_s", "s"),
    ("spill.bytes.written", "bytes"),
    ("spill.chunks.written", "count"),
    ("synth.downloads", "count"),
    ("spill.write_mib_per_s", "MiB/s"),
    // bench folds, core spill
    ("streaming.fold_downloads_s", "s"),
    ("streaming.fold_comments_s", "s"),
    ("spill.bytes.merged", "bytes"),
    ("spill.chunks.merged", "count"),
    ("spill.read_mib_per_s", "MiB/s"),
    ("spill.chunks.quarantined", "count"),
    // program span self time (traced run)
    ("crawl.day.self_s", "s"),
    ("synth.generate.self_s", "s"),
    ("spill.store.self_s", "s"),
    ("spill.fold.self_s", "s"),
    // set-up
    ("fit.setup.stores_s", "s"),
    ("ingest.setup.truth_s", "s"),
    // the traced run itself
    ("trace.overhead_pct", "%"),
    ("trace.dropped_events", "count"),
    ("trace.program_spans", "count"),
    ("trace.bench_spans", "count"),
    ("fail_ratio", "ratio"),
    ("host.steal_s", "s"),
    ("host.steal_share", "ratio"),
];

/// How one invocation runs.
#[derive(Clone, Debug)]
pub struct Settings {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Directory for spill files and the span dump (inside the checkout).
    pub work_dir: PathBuf,
}

/// What a workload run produced: checked outputs, metrics and notes.
#[derive(Default)]
pub struct Report {
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs missing or wrong.
    pub failed: u64,
    /// Metric values by name (units come from the spec tables).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Host steal over the timed phase.
    pub steal: host::Steal,
    /// The run's spans, written out when the traced run ends.
    pub recorder: Option<spans::Recorder>,
}

impl Report {
    /// Stores the timed phase's steal and the run's spans, and sets the
    /// metrics every workload reports about itself.
    pub fn finish(&mut self, steal: host::Steal, recorder: spans::Recorder) {
        self.set("host.steal_s", steal.seconds);
        self.set("host.steal_share", steal.share);
        self.set("trace.dropped_events", recorder.dropped_events() as f64);
        self.set(
            "trace.program_spans",
            recorder.count(spans::Origin::Program) as f64,
        );
        self.set(
            "trace.bench_spans",
            recorder.count(spans::Origin::Bench) as f64,
        );
        self.set("fail_ratio", self.fail_ratio());
        self.steal = steal;
        self.recorder = Some(recorder);
    }

    /// Records one checked output; a failed check leaves a note.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 200 {
                self.notes.push(format!("FAILED: {}", what()));
            }
        }
    }

    /// Records `attempted` outputs of which `failed` were missing or wrong.
    pub fn tally(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Sets a metric. The name must be in [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the spec tables"
        );
        self.metrics.insert(name, value);
    }

    /// Failed outputs over attempted outputs.
    pub fn fail_ratio(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    /// The result object: the metrics of one table, every one of them.
    ///
    /// # Panics
    /// Panics if an end-to-end metric was never set, or a value is not
    /// finite — both are bugs in a workload.
    pub fn result_json(&self, trace: bool) -> String {
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            let sep = if i == 0 { "" } else { ", " };
            write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
            .expect("write to String");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Renders a finite float with all its digits.
fn json_number(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{value:.1}")
    } else {
        format!("{value}")
    }
}

/// The unit of a metric in either spec table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The `q`-quantile of `values` by linear interpolation (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Wall and CPU time of one round of a workload.
#[derive(Clone, Copy, Debug)]
pub struct RoundTime {
    /// Wall seconds.
    pub wall: f64,
    /// Process CPU seconds (user + sys, every thread).
    pub cpu: f64,
    /// Ops the round completed (the unit of `ops_per_s`).
    pub ops: f64,
}

/// Runs `round` once untimed, then repeatedly until `seconds` of wall
/// time have passed (at least `min_rounds` times), and returns each timed
/// round's wall and CPU time with the timed phase's host steal. `round`
/// gets the round index (0 is the warm-up) and returns the ops it did.
pub fn timed_rounds(
    seconds: f64,
    min_rounds: usize,
    mut round: impl FnMut(usize) -> f64,
) -> (Vec<RoundTime>, host::Steal) {
    round(0);
    let steal = host::Steal::start();
    let started = Instant::now();
    let mut times = Vec::new();
    let mut index = 1;
    while times.len() < min_rounds || started.elapsed().as_secs_f64() < seconds {
        let wall = Instant::now();
        let cpu = host::process_cpu_s();
        let ops = round(index);
        times.push(RoundTime {
            wall: wall.elapsed().as_secs_f64(),
            cpu: host::process_cpu_s() - cpu,
            ops,
        });
        index += 1;
    }
    (times, steal.finish(started.elapsed().as_secs_f64()))
}

/// Sets the metrics shared by every workload: the median round wall and
/// CPU time, the median per-round rate of ops, and peak RSS.
pub fn set_round_metrics(report: &mut Report, rounds: &[RoundTime]) {
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall).collect();
    let cpus: Vec<f64> = rounds.iter().map(|r| r.cpu).collect();
    let rates: Vec<f64> = rounds.iter().map(|r| ratio(r.ops, r.wall)).collect();
    report.set("round_wall_s", median(&walls));
    report.set("round_cpu_s", median(&cpus));
    report.set("ops_per_s", median(&rates));
    report.set("peak_rss_mib", host::peak_rss_mib());
    report.notes.push(format!(
        "rounds: {} timed, wall median {:.4} s (q1 {:.4}, q3 {:.4})",
        rounds.len(),
        median(&walls),
        quantile(&walls, 0.25),
        quantile(&walls, 0.75),
    ));
}

/// In the traced run, odd rounds run traced and even rounds untraced, so
/// one run yields both the program's spans and the tracing overhead.
pub fn traced_round(settings: &Settings, round: usize) -> bool {
    settings.trace && round % 2 == 1
}

/// For the traced run of a round-based workload: sets the tracing
/// overhead (median traced round against median untraced round) and
/// returns the self time per span name, per traced round.
pub fn traced_self_times(
    report: &mut Report,
    settings: &Settings,
    rounds: &[RoundTime],
    recorder: &spans::Recorder,
) -> BTreeMap<String, f64> {
    // `rounds[i]` is round `i + 1`: round 0 is the untimed warm-up.
    let (traced, plain): (Vec<_>, Vec<_>) = rounds
        .iter()
        .enumerate()
        .partition(|(i, _)| traced_round(settings, i + 1));
    let wall =
        |set: &[(usize, &RoundTime)]| median(&set.iter().map(|(_, r)| r.wall).collect::<Vec<_>>());
    report.set(
        "trace.overhead_pct",
        (ratio(wall(&traced), wall(&plain)) - 1.0) * 100.0,
    );
    let per_round = traced.len().max(1) as f64;
    let in_rounds: Vec<spans::Span> = recorder
        .spans()
        .iter()
        .filter(|s| s.op != spans::SETUP_OP)
        .cloned()
        .collect();
    spans::self_times(&in_rounds)
        .into_iter()
        .map(|(name, secs)| (name, secs / per_round))
        .collect()
}

/// Runs `setup` `times` times and returns the last product with the
/// median set-up time, so work moved into set-up shows in `setup_s`.
pub fn repeated_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let started = Instant::now();
        let product = setup();
        secs.push(started.elapsed().as_secs_f64());
        last = Some(product);
    }
    (last.expect("at least one set-up ran"), secs)
}

/// Runs one workload by name. `None` for an unknown name.
pub fn run_workload(name: &str, settings: &Settings) -> Option<Report> {
    Some(match name {
        "fit" => fit::run(&fit::FitParams::default(), settings),
        "serve" => serve::run(&serve::ServeParams::default(), settings),
        "ingest" => ingest::run(&ingest::IngestParams::default(), settings),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn a_failed_check_makes_the_result_incorrect() {
        let mut report = Report::default();
        for (name, _) in END_TO_END {
            report.set(name, 1.5);
        }
        let field = |r: &Report, key: &str| {
            serde_json::parse_value(&r.result_json(false))
                .expect("valid JSON")
                .get(key)
                .cloned()
        };
        report.check(true, String::new);
        assert_eq!(
            field(&report, "correct"),
            Some(serde_json::Value::Bool(true))
        );
        report.check(false, || "broken".into());
        assert_eq!(
            field(&report, "correct"),
            Some(serde_json::Value::Bool(false))
        );
        assert_eq!(report.fail_ratio(), 0.5);
        assert_eq!(report.notes, ["FAILED: broken"]);
    }
}
