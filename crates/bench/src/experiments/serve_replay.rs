//! The serve-replay experiment: the serving layer under the paper's §5
//! workloads, over real sockets, with a chaos window in the middle.
//!
//! Phase 1 replays the ZIPF and APP-CLUSTERING download traces from the
//! Fig. 19 setup against `appstore-serve` fronting a 6,000-app store
//! with a 15% edge cache warmed with the most popular apps — the edge
//! hit rates must land inside the paper's published bands (ZIPF ≥ 99%,
//! APP-CLUSTERING 67.1–96.3%). Phase 2 re-runs the clustering workload
//! with a deterministic fault window armed: injected backing-store I/O
//! errors trip the circuit breaker, handler panics and slowdowns land
//! mid-stream, and the server is required to *shed and degrade* (503s
//! with Retry-After, stale rankings) instead of stalling or dying —
//! then recover to fresh serving once the window passes. A final probe
//! replay pins the recovery: zero sheds, zero errors.
//!
//! Everything runs on virtual time stamped by the replay client, so the
//! output is bit-identical across machines, thread counts, and scales.

use crate::experiments::{cache::fig19_params, ExperimentResult};
use appstore_core::faults::{with_injector, FaultInjector, FaultKind, FaultPlan, FaultTrigger};
use appstore_core::{
    App, AppId, AppObservation, CategoryId, CategorySet, Cents, DailySnapshot, Dataset, Day,
    Developer, DeveloperId, PricingTier, Seed, StoreId, StoreMeta,
};
use appstore_models::{ModelKind, Simulator};
use appstore_serve::http::{read_response, HttpResponse};
use appstore_serve::{
    replay, with_server, ReplayConfig, ReplayStats, ServeConfig, SloSummary, Workload,
    SITE_SERVE_BACKING, SITE_SERVE_HANDLER,
};
use serde_json::json;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};

/// Edge cache size as a fraction of the app population (the 15% point
/// of Fig. 19, where both workloads sit comfortably inside their
/// published bands).
const CACHE_FRACTION: f64 = 0.15;

/// The chaos window, in request indices: every backing call in
/// `[CHAOS_START, CHAOS_END)` fails with an injected I/O error.
const CHAOS_START: u64 = 5_000;
const CHAOS_END: u64 = 5_600;

/// Handler-level faults inside the window: panics and a pathological
/// slowdown, at fixed request indices.
const PANIC_INDICES: [u64; 3] = [5_050, 5_250, 5_450];
const DELAY_INDICES: [u64; 2] = [5_150, 5_350];

/// Disjoint `X-Trace-Id` bases per replay phase, so all four phases
/// share one timeline without colliding tracks. Every base is a
/// multiple of the trace sampling period, so each phase's first
/// request is always sampled.
const TRACE_BASE_ZIPF: u64 = 0;
const TRACE_BASE_CLUSTERING: u64 = 10_000_000;
const TRACE_BASE_CHAOS: u64 = 20_000_000;
const TRACE_BASE_PROBE: u64 = 30_000_000;

/// A single-day marketplace whose app ids are popularity ranks — the
/// store the §5 workload models assume. The serving layer fronts this
/// dataset; the backing `MarketplaceServer` serves its pages.
pub(crate) fn rank_ordered_dataset(apps: usize, categories: usize) -> Dataset {
    let registry: Vec<App> = (0..apps)
        .map(|i| App {
            id: AppId(i as u32),
            category: CategoryId((i % categories) as u32),
            developer: DeveloperId(0),
            tier: PricingTier::Free,
            price: Cents::ZERO,
            created: Day(0),
            apk_size: 3_500_000,
            libraries: Vec::new(),
        })
        .collect();
    let observations = (0..apps)
        .map(|i| AppObservation {
            app: AppId(i as u32),
            category: CategoryId((i % categories) as u32),
            developer: DeveloperId(0),
            downloads: (apps - i) as u64,
            comments: 0,
            version: 1,
            price: Cents::ZERO,
        })
        .collect();
    Dataset {
        store: StoreMeta {
            id: StoreId(0),
            name: "serve-replay".into(),
            has_paid_apps: false,
        },
        categories: CategorySet::anonymous(categories),
        apps: registry,
        developers: vec![Developer::numbered(DeveloperId(0))],
        snapshots: vec![DailySnapshot {
            day: Day(0),
            observations,
        }],
        comments: Vec::new(),
        updates: Vec::new(),
    }
}

fn serve_config(seed: Seed, cache_apps: usize) -> ServeConfig {
    let mut config = ServeConfig::replay_default(seed.child("server"));
    config.cache_capacity = cache_apps;
    config.warm_apps = cache_apps;
    // A short rankings TTL so refreshes are due *inside* the chaos
    // window — forcing the stale-while-revalidate rung of the ladder.
    config.rankings_ttl_ms = 2_000;
    config
}

/// The phase-2 fault plan: a bounded, index-keyed chaos window.
fn chaos_plan() -> FaultPlan {
    let mut plan = FaultPlan::seeded(2013);
    for index in CHAOS_START..CHAOS_END {
        plan = plan.rule(
            SITE_SERVE_BACKING,
            FaultKind::IoError,
            FaultTrigger::AtIndex(index),
        );
    }
    for index in PANIC_INDICES {
        plan = plan.rule(
            SITE_SERVE_HANDLER,
            FaultKind::WorkerPanic,
            FaultTrigger::AtIndex(index),
        );
    }
    for index in DELAY_INDICES {
        plan = plan.rule(
            SITE_SERVE_HANDLER,
            FaultKind::Delay { virtual_ms: 5_000 },
            FaultTrigger::AtIndex(index),
        );
    }
    plan
}

/// One mid-replay scrape of a telemetry endpoint, over its own
/// connection but through the same admission queue as product traffic.
pub(crate) fn scrape(addr: SocketAddr, path: &str, now_ms: u64) -> HttpResponse {
    let stream = TcpStream::connect(addr).expect("connect for scrape");
    let mut reader = BufReader::new(stream.try_clone().expect("clone scrape stream"));
    let mut writer = BufWriter::new(stream);
    write!(
        writer,
        "GET {path} HTTP/1.1\r\nX-Client: 0\r\nX-Now-Ms: {now_ms}\r\n\r\n"
    )
    .expect("write scrape");
    writer.flush().expect("flush scrape");
    read_response(&mut reader).expect("read scrape response")
}

/// The value of a bare `name value` sample line in a Prometheus text
/// exposition body.
fn prometheus_value(body: &str, name: &str) -> Option<u64> {
    let prefix = format!("{name} ");
    body.lines()
        .find_map(|line| line.strip_prefix(&prefix)?.trim().parse().ok())
}

/// The string value of `"key": "value"` in a flat JSON body.
pub(crate) fn json_str_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\": \"");
    let start = body.find(&needle)? + needle.len();
    let end = body[start..].find('"')?;
    Some(&body[start..start + end])
}

/// The numeric value of `"key": N` in a flat JSON body.
pub(crate) fn json_u64_field(body: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\": ");
    let start = body.find(&needle)? + needle.len();
    let digits: String = body[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

pub(crate) fn slo_json(summary: &SloSummary) -> serde_json::Value {
    json!({
        "good": summary.good,
        "errors": summary.errors,
        "sheds_excluded": summary.sheds_excluded,
        "availability_ppm": summary.availability_ppm,
        "fast_burn_fired": summary.fast_burn_fired,
        "fast_burn_recovered": summary.fast_burn_recovered,
        "slow_burn_fired": summary.slow_burn_fired,
        "slow_burn_recovered": summary.slow_burn_recovered,
        "max_burn_centi": summary.max_burn_centi,
        "p99_checks": summary.p99_checks,
        "p99_breaches": summary.p99_breaches,
        "p99_max_ms": summary.p99_max_ms,
    })
}

pub(crate) fn stats_json(stats: &ReplayStats) -> serde_json::Value {
    json!({
        "requests_sent": stats.requests_sent,
        "app_ok": stats.app_ok,
        "edge_hits": stats.app_edge_hits,
        "backing": stats.app_backing,
        "hit_rate": stats.hit_rate(),
        "rankings_fresh": stats.rankings_fresh,
        "rankings_stale": stats.rankings_stale,
        "shed_503": stats.shed_503,
        "shed_504": stats.shed_504,
        "rate_limited": stats.rate_limited_429,
        "server_errors": stats.server_errors,
        "retries": stats.retries,
        "retries_denied": stats.retries_denied,
        "exhausted": stats.exhausted,
        "p99_virtual_ms": stats.p99_virtual_ms(),
    })
}

/// `serve-replay`: hit-rate bands over real sockets, then chaos.
pub fn run(seed: Seed) -> ExperimentResult {
    let params = fig19_params();
    let apps = params.population.apps;
    let cache_apps = ((apps as f64 * CACHE_FRACTION).round() as usize).max(1);
    let dataset = rank_ordered_dataset(apps, params.clusters);
    let serve_seed = seed.child("serve-replay");

    let mut lines = Vec::new();
    lines.push(format!(
        "store: {} apps, edge cache {} apps ({:.0}%), warm-started; workloads from fig19",
        apps,
        cache_apps,
        CACHE_FRACTION * 100.0
    ));

    // Phase 1 — healthy serving: both §5 workloads, published bands.
    // The clustering trace is kept for phase 2, which replays the same
    // workload (same seed chain, so reuse is bit-identical) under chaos.
    let mut band_results = Vec::new();
    let mut healthy = Vec::new();
    let mut clustering_trace = None;
    for kind in [ModelKind::Zipf, ModelKind::AppClustering] {
        let trace =
            Simulator::for_kind(kind, params).simulate_trace(serve_seed.child(kind.name()), 30);
        let workload = Workload::from_trace(kind.name(), &trace.events);
        let config = serve_config(serve_seed, cache_apps);
        let mut replay_config = ReplayConfig::new(serve_seed.child("client").child(kind.name()));
        replay_config.trace_base = match kind {
            ModelKind::Zipf => TRACE_BASE_ZIPF,
            _ => TRACE_BASE_CLUSTERING,
        };
        let stats = with_server(&dataset, &config, |handle| {
            replay(handle.addr(), &workload, &replay_config).expect("loopback replay")
        });
        lines.push(format!(
            "{:<16} {:>6} requests: hit rate {:>5.1}%, {} sheds, {} retries, p99 {} virtual ms",
            kind.name(),
            workload.len(),
            stats.hit_rate() * 100.0,
            stats.sheds(),
            stats.retries,
            stats.p99_virtual_ms()
        ));
        band_results.push((kind, stats.clone()));
        healthy.push(json!({ "model": kind.name(), "stats": stats_json(&stats) }));
        if kind == ModelKind::AppClustering {
            clustering_trace = Some(trace);
        }
    }
    let zipf_hit = band_results[0].1.hit_rate();
    let clustering_hit = band_results[1].1.hit_rate();
    lines.push("paper bands: ZIPF >=99%; APP-CLUSTERING 67.1-96.3% at this cache size".into());

    // Phase 2 — the same clustering workload with the chaos window
    // armed: breaker trips, panics are caught, rankings degrade to
    // stale, and the tail of the stream recovers.
    let trace = clustering_trace.expect("phase 1 always runs the clustering workload");
    let workload = Workload::from_trace("clustering-chaos", &trace.events);
    let mut config = serve_config(serve_seed, cache_apps);
    // Optional flight-recorder dump on caught panics: CI points this at
    // an artifact path. Purely a side-channel — stdout and the JSON are
    // identical with or without it.
    config.flight_dump = std::env::var_os("SERVE_FLIGHT_DUMP").map(std::path::PathBuf::from);
    let mut replay_config = ReplayConfig::new(serve_seed.child("client").child("chaos"));
    replay_config.trace_base = TRACE_BASE_CHAOS;
    replay_config.slo = true;
    let mut probe_config = replay_config.clone();
    probe_config.trace_base = TRACE_BASE_PROBE;
    let probe_events: Vec<_> = workload.events[workload.events.len() - 2_000..].to_vec();
    let probe_workload = Workload {
        name: "recovery-probe".into(),
        events: probe_events,
    };
    let injector = FaultInjector::new(chaos_plan());
    let (chaos, scrapes, probe, panics_caught, flight_events) = with_injector(&injector, || {
        with_server(&dataset, &config, |handle| {
            let chaos = replay(handle.addr(), &workload, &replay_config).expect("loopback replay");
            // Mid-run telemetry scrape: the server is still up between
            // the chaos replay and the probe, and must answer all three
            // reserved routes through the normal request path.
            let now_ms = chaos.final_clock_ms;
            let scrapes = [
                scrape(handle.addr(), "/metrics", now_ms),
                scrape(handle.addr(), "/healthz", now_ms),
                scrape(handle.addr(), "/statusz", now_ms),
            ];
            // The window is long past: the breaker must have closed and
            // fresh serving resumed. The probe sees a healthy server.
            let probe =
                replay(handle.addr(), &probe_workload, &probe_config).expect("loopback replay");
            (
                chaos,
                scrapes,
                probe,
                handle.panics_caught(),
                handle.flight().len() as u64,
            )
        })
    });
    let events = injector.events();
    let panics_fired = events
        .iter()
        .filter(|e| matches!(e.kind, FaultKind::WorkerPanic))
        .count() as u64;
    let io_errors_fired = events
        .iter()
        .filter(|e| matches!(e.kind, FaultKind::IoError))
        .count() as u64;
    let panics_escaped = panics_fired.saturating_sub(panics_caught);
    let recovered = probe.sheds() == 0 && probe.server_errors == 0 && probe.panics_seen == 0;
    lines.push(format!(
        "chaos window [{CHAOS_START}, {CHAOS_END}): {} backing I/O errors, {} panics fired",
        io_errors_fired, panics_fired
    ));
    lines.push(format!(
        "  server shed {} (503={} 504={}), served {} stale rankings, hit rate {:>5.1}%",
        chaos.sheds(),
        chaos.shed_503,
        chaos.shed_504,
        chaos.rankings_stale,
        chaos.hit_rate() * 100.0
    ));
    lines.push(format!(
        "  panics: {} fired / {} caught / {} escaped; client saw {} panic responses",
        panics_fired, panics_caught, panics_escaped, chaos.panics_seen
    ));
    lines.push(format!(
        "  client retries {} ({} denied by budget, {} exhausted), p99 {} virtual ms",
        chaos.retries,
        chaos.retries_denied,
        chaos.exhausted,
        chaos.p99_virtual_ms()
    ));
    lines.push(format!(
        "recovery probe ({} requests): {} sheds, {} errors -> recovered: {}",
        probe_workload.len(),
        probe.sheds(),
        probe.server_errors,
        recovered
    ));

    // Mid-run scrape extracts: only deterministic values make stdout
    // (the raw bodies also carry volatile wall-clock series).
    let metrics_body = String::from_utf8_lossy(&scrapes[0].body).into_owned();
    let healthz_body = String::from_utf8_lossy(&scrapes[1].body).into_owned();
    let statusz_body = String::from_utf8_lossy(&scrapes[2].body).into_owned();
    let scraped_requests = prometheus_value(&metrics_body, "serve_requests").unwrap_or(0);
    let health_state = json_str_field(&healthz_body, "state")
        .unwrap_or("?")
        .to_string();
    let uptime_virtual_ms = json_u64_field(&statusz_body, "uptime_virtual_ms").unwrap_or(0);
    lines.push(format!(
        "mid-run scrape: /metrics serve_requests {}, /healthz {}, /statusz uptime {} virtual ms",
        scraped_requests, health_state, uptime_virtual_ms
    ));
    if let Some(dir) = std::env::var_os("SERVE_SCRAPE_DIR") {
        // Raw scrape bodies as CI artifacts; never part of the output.
        let dir = std::path::PathBuf::from(dir);
        let _ = std::fs::create_dir_all(&dir);
        let _ = std::fs::write(dir.join("metrics.prom"), &metrics_body);
        let _ = std::fs::write(dir.join("healthz.json"), &healthz_body);
        let _ = std::fs::write(dir.join("statusz.json"), &statusz_body);
    }

    // SLO grading: the chaos window must trip the fast-burn alert and
    // recover before the replay ends; the probe must burn nothing.
    let chaos_slo = chaos
        .slo
        .clone()
        .expect("chaos replay runs the SLO monitor");
    let probe_slo = probe
        .slo
        .clone()
        .expect("probe replay runs the SLO monitor");
    lines.push(format!(
        "slo chaos: fast-burn fired {} / recovered {}, max burn {}.{:02}x, availability {} ppm",
        chaos_slo.fast_burn_fired,
        chaos_slo.fast_burn_recovered,
        chaos_slo.max_burn_centi / 100,
        chaos_slo.max_burn_centi % 100,
        chaos_slo.availability_ppm
    ));
    lines.push(format!(
        "slo probe: fast-burn fired {}, availability {} ppm, p99 breaches {}/{}",
        probe_slo.fast_burn_fired,
        probe_slo.availability_ppm,
        probe_slo.p99_breaches,
        probe_slo.p99_checks
    ));

    let fault_log: Vec<_> = events
        .iter()
        .map(|e| {
            json!({
                "site": e.site,
                "index": e.index,
                "attempt": e.attempt,
                "kind": e.kind.label(),
            })
        })
        .collect();

    ExperimentResult {
        id: "serve-replay",
        title: "Serving layer under replayed §5 workloads with chaos",
        lines,
        json: json!({
            "apps": apps,
            "cache_apps": cache_apps,
            "zipf_hit_rate": zipf_hit,
            "clustering_hit_rate": clustering_hit,
            "healthy": healthy,
            "chaos": stats_json(&chaos),
            "probe": stats_json(&probe),
            "sheds": chaos.sheds(),
            "stale_served": chaos.rankings_stale,
            "panics_fired": panics_fired,
            "panics_caught": panics_caught,
            "panics_escaped": panics_escaped,
            "p99_virtual_ms": chaos.p99_virtual_ms(),
            "recovered": if recovered { 1.0 } else { 0.0 },
            "slo": {
                "chaos": slo_json(&chaos_slo),
                "probe": slo_json(&probe_slo),
                "fast_burn_fired": chaos_slo.fast_burn_fired.min(1),
                "fast_burn_recovered": chaos_slo.fast_burn_recovered.min(1),
                "probe_availability_ppm": probe_slo.availability_ppm,
            },
            "telemetry": {
                "scrapes": 3,
                "scraped_requests": scraped_requests,
                "health_state": health_state,
                "uptime_virtual_ms": uptime_virtual_ms,
                "flight_events": flight_events,
            },
            "fault_log": fault_log,
        }),
    }
}
