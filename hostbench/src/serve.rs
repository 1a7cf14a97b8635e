//! The `serve` workload: the §5 download traces of `repro serve-replay`,
//! without its chaos window, sent through the serving layer.
//!
//! The ZIPF and APP-CLUSTERING 30-day traces use fig19's parameters
//! (6,000 apps, about 180 k app requests each, plus rankings and
//! downloads). Each goes to its own `with_server` with a 15 % warm edge
//! and a 3-replica backing tier, with a registry installed as `repro`
//! does. One op is one `replay` call of 1,000 trace events (about 1,060
//! requests in pipelined batches of 64) over one connection, so two
//! threads are busy: this client and one server worker. Per-request HTTP,
//! edge and obs work dominates; `models` does none.
//!
//! The traced run replays every chunk on three servers per trace, in
//! rotating order: one with a registry and a tracer, one with a registry
//! only, and one with neither. The last two give the registry's own cost.

use crate::spans::Recorder;
use crate::{
    host, median, quantile, ratio, set_round_metrics, timed_rounds, Report, RoundTime, Settings,
};
use appstore_core::{
    App, AppId, AppObservation, CategoryId, CategorySet, Cents, DailySnapshot, Dataset, Day,
    Developer, DeveloperId, PricingTier, Seed, StoreId, StoreMeta,
};
use appstore_models::{ClusterLayout, ClusteringParams, ModelKind, PopulationParams, Simulator};
use appstore_obs::{names, Context, Registry, Tracer};
use appstore_serve::{replay, with_server, ReplayConfig, ReplayStats, ServeConfig, Workload};
use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::Instant;

/// The two §5 traces, in replay order.
pub const KINDS: [ModelKind; 2] = [ModelKind::Zipf, ModelKind::AppClustering];

/// The edge hit-rate bands `serve-replay` grades, per kind: ZIPF at
/// least 99 %, APP-CLUSTERING 67.1–96.3 % at a 15 % edge.
pub const HIT_BANDS: [(f64, f64); 2] = [(0.99, 1.0), (0.671, 0.963)];

/// Workload size.
#[derive(Clone, Debug)]
pub struct ServeParams {
    /// Apps held (and warmed) at the edge.
    pub cache_apps: usize,
    /// Chunks of each trace per round.
    pub chunks_per_round: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Timed rounds run even when the time is up.
    pub min_rounds: usize,
}

impl Default for ServeParams {
    fn default() -> ServeParams {
        ServeParams {
            // 15 % of fig19's 6,000 apps.
            cache_apps: 900,
            chunks_per_round: 10,
            setups: 9,
            min_rounds: 10,
        }
    }
}

/// Trace events per `replay` call.
pub const CHUNK_EVENTS: usize = 1_000;

/// Length of each simulated trace in days.
pub const TRACE_DAYS: u32 = 30;

/// fig19's population and clustering parameters.
pub fn fig19_params() -> ClusteringParams {
    ClusteringParams {
        population: PopulationParams {
            apps: 6_000,
            users: 60_000,
            downloads_per_user: 3,
            zipf_exponent: 1.7,
        },
        clusters: 30,
        p: 0.9,
        cluster_exponent: 1.4,
        layout: ClusterLayout::Interleaved,
    }
}

/// A single-day store whose app ids are popularity ranks, as
/// `serve-replay` builds it.
pub fn rank_ordered_dataset(apps: usize, categories: usize) -> Dataset {
    let category = |i: usize| CategoryId((i % categories) as u32);
    Dataset {
        store: StoreMeta {
            id: StoreId(0),
            name: "serve-replay".into(),
            has_paid_apps: false,
        },
        categories: CategorySet::anonymous(categories),
        apps: (0..apps)
            .map(|i| App {
                id: AppId(i as u32),
                category: category(i),
                developer: DeveloperId(0),
                tier: PricingTier::Free,
                price: Cents::ZERO,
                created: Day(0),
                apk_size: 3_500_000,
                libraries: Vec::new(),
            })
            .collect(),
        developers: vec![Developer::numbered(DeveloperId(0))],
        snapshots: vec![DailySnapshot {
            day: Day(0),
            observations: (0..apps)
                .map(|i| AppObservation {
                    app: AppId(i as u32),
                    category: category(i),
                    developer: DeveloperId(0),
                    downloads: (apps - i) as u64,
                    comments: 0,
                    version: 1,
                    price: Cents::ZERO,
                })
                .collect(),
        }],
        comments: Vec::new(),
        updates: Vec::new(),
    }
}

/// The seed `serve-replay` derives from the run seed.
fn serve_seed(seed: u64) -> Seed {
    Seed::new(seed).child("experiments").child("serve-replay")
}

/// Simulates both traces and cuts each into `CHUNK_EVENTS`-event chunks
/// (a trailing partial chunk is dropped).
pub fn trace_chunks(seed: u64) -> Vec<Vec<Workload>> {
    let serve_seed = serve_seed(seed);
    KINDS
        .iter()
        .map(|&kind| {
            let trace = Simulator::for_kind(kind, fig19_params())
                .simulate_trace(serve_seed.child(kind.name()), TRACE_DAYS);
            trace
                .events
                .chunks_exact(CHUNK_EVENTS)
                .map(|events| Workload::from_trace(kind.name(), events))
                .collect()
        })
        .collect()
}

/// `serve-replay`'s server: warm edge, short rankings TTL, and the
/// 3-replica backing tier.
pub fn server_config(seed: u64, params: &ServeParams) -> ServeConfig {
    let mut config = ServeConfig::replay_default(serve_seed(seed).child("server"));
    config.cache_capacity = params.cache_apps;
    config.warm_apps = params.cache_apps;
    config.rankings_ttl_ms = 2_000;
    config.replicas = 3;
    config
}

/// Starts one server per context (each on a holder thread that installs
/// the context first, so the server's workers inherit it), runs `f` with
/// their addresses, then stops and joins them all.
fn with_servers<R>(
    dataset: &Dataset,
    config: &ServeConfig,
    contexts: &[Option<Context>],
    f: impl FnOnce(&[SocketAddr]) -> R,
) -> R {
    std::thread::scope(|scope| {
        let (addr_tx, addr_rx) = mpsc::channel();
        let mut stops = Vec::with_capacity(contexts.len());
        for (i, ctx) in contexts.iter().enumerate() {
            let (stop_tx, stop_rx) = mpsc::channel::<()>();
            stops.push(stop_tx);
            let addr_tx = addr_tx.clone();
            scope.spawn(move || {
                let serve = || {
                    with_server(dataset, config, |handle| {
                        addr_tx
                            .send((i, handle.addr()))
                            .expect("the caller waits for every address");
                        // Serve until the caller drops the stop sender.
                        let _ = stop_rx.recv();
                    })
                };
                match ctx {
                    Some(ctx) => ctx.run(serve),
                    None => serve(),
                }
            });
        }
        drop(addr_tx);
        let mut addrs = vec![None; contexts.len()];
        for (i, addr) in addr_rx.iter().take(contexts.len()) {
            addrs[i] = Some(addr);
        }
        let addrs: Vec<SocketAddr> = addrs
            .into_iter()
            .map(|a| a.expect("every server reported its address"))
            .collect();
        let result = f(&addrs);
        drop(stops);
        result
    })
}

/// One server and what was sent to it.
struct Leg {
    /// Trace kind index into [`KINDS`].
    kind: usize,
    /// Traced run: 0 registry and tracer, 1 registry only, 2 bare.
    /// Measured run: 0 registry.
    slot: usize,
    /// Context the client runs under (the server's workers inherit the
    /// same one); `None` runs with no registry and no tracer.
    ctx: Option<Context>,
    /// Requests sent so far (the next call's trace-id base).
    sent: u64,
    /// Wall seconds spent in timed calls.
    wall: f64,
    /// Process CPU seconds spent in timed calls.
    cpu: f64,
    /// Requests sent in timed calls.
    timed_requests: u64,
    /// Edge hits and backing fetches of app pages in timed calls.
    hits: u64,
    backing: u64,
}

/// Requests that got no 2xx answer.
fn failed_requests(stats: &ReplayStats) -> u64 {
    let ok = stats.app_ok + stats.rankings_fresh + stats.rankings_stale + stats.downloads_ok;
    stats.requests_sent.saturating_sub(ok)
}

/// Counters read from the registry over the first timed round.
const COUNTERS: [&str; 7] = [
    names::SERVE_REQUESTS,
    names::SERVE_EDGE_HITS,
    names::SERVE_EDGE_MISSES,
    names::SERVE_BACKING_CALLS,
    names::BALANCER_ROUTED,
    names::BALANCER_HEDGES_FIRED,
    names::SERVE_RANKINGS_FRESH,
];

/// Sum and count of the server's `serve.latency.real_us` histogram.
fn handler_us(registry: &Registry) -> (f64, f64) {
    let doc = serde_json::parse_value(&registry.snapshot_json(false))
        .expect("registry snapshots are JSON");
    let hist = doc
        .get("histograms")
        .and_then(|h| h.get(names::SERVE_LATENCY_REAL_US));
    let field = |key: &str| {
        hist.and_then(|h| h.get(key))
            .and_then(serde_json::Value::as_f64)
            .unwrap_or(0.0)
    };
    (field("sum"), field("count"))
}

/// What the timed phase measured.
struct Timed {
    rounds: Vec<RoundTime>,
    call_ms: Vec<f64>,
    /// [`COUNTERS`] over the first timed round.
    round_counters: Vec<f64>,
    steal: host::Steal,
}

/// Runs the workload.
pub fn run(params: &ServeParams, settings: &Settings) -> Report {
    let mut report = Report::default();
    let population = fig19_params();
    let dataset = rank_ordered_dataset(population.population.apps, population.clusters);
    let config = server_config(settings.seed, params);

    // The measured run shares one registry between both servers, as
    // `repro` installs one per experiment. The traced run has three legs
    // per trace: registry and tracer, registry only, and bare.
    let mut recorder = Recorder::new();
    let registry = Registry::new();
    let traced_registry = Registry::new();
    let tracer_offset = recorder.now_ns();
    let tracer = Tracer::with_capacity(1 << 16);
    let with_registry = appstore_obs::with_registry(&registry, appstore_obs::capture);
    let with_tracer = appstore_obs::with_tracer(&tracer, || {
        appstore_obs::with_registry(&traced_registry, appstore_obs::capture)
    });
    let slots = if settings.trace {
        vec![with_tracer, with_registry, None]
    } else {
        vec![with_registry]
    };
    let mut legs: Vec<Leg> = (0..KINDS.len())
        .flat_map(|kind| {
            slots.iter().enumerate().map(move |(slot, ctx)| Leg {
                kind,
                slot,
                ctx: ctx.clone(),
                sent: 0,
                wall: 0.0,
                cpu: 0.0,
                timed_requests: 0,
                hits: 0,
                backing: 0,
            })
        })
        .collect();
    let contexts: Vec<Option<Context>> = legs.iter().map(|l| l.ctx.clone()).collect();

    let mut traces_s = Vec::new();
    let mut start_s = Vec::new();
    let mut setup_s = Vec::new();
    let mut timed = None;
    let setups = params.setups.max(1);
    for setup in 0..setups {
        let started = Instant::now();
        let chunks = trace_chunks(settings.seed);
        traces_s.push(started.elapsed().as_secs_f64());
        let starting = Instant::now();
        with_servers(&dataset, &config, &contexts, |addrs| {
            start_s.push(starting.elapsed().as_secs_f64());
            setup_s.push(started.elapsed().as_secs_f64());
            if setup + 1 == setups {
                timed = Some(timed_phase(
                    params,
                    settings,
                    &chunks,
                    addrs,
                    &mut legs,
                    &registry,
                    &mut recorder,
                    &mut report,
                ));
            }
        });
    }
    let timed = timed.expect("the last set-up runs the timed phase");

    report.set("setup_s", median(&setup_s));
    report.set("serve.setup.traces_s", median(&traces_s));
    report.set("serve.setup.start_s", median(&start_s));
    set_round_metrics(&mut report, &timed.rounds);
    report.set("serve.chunk_p50_ms", quantile(&timed.call_ms, 0.5));
    report.set("serve.chunk_p90_ms", quantile(&timed.call_ms, 0.9));

    // Edge hit rates per trace over every timed call, graded against the
    // bands `serve-replay` uses.
    for (kind, &(lo, hi)) in HIT_BANDS.iter().enumerate() {
        let (hits, backing) = legs
            .iter()
            .filter(|l| l.kind == kind)
            .fold((0, 0), |(h, b), l| (h + l.hits, b + l.backing));
        let rate = ratio(hits as f64, (hits + backing) as f64);
        let name = KINDS[kind].name();
        report.check((lo..=hi).contains(&rate), || {
            format!("{name} edge hit rate {rate:.4} outside {lo}-{hi}")
        });
        report.notes.push(format!(
            "serve: {name} edge hit rate {rate:.4} (band {lo}-{hi})"
        ));
        report.set(
            [
                "serve.zipf.edge_hit_ratio",
                "serve.clustering.edge_hit_ratio",
            ][kind],
            rate,
        );
    }

    // Per-request costs of the registry-only servers: the configuration
    // `repro` runs, without the tracer's cost.
    let registry_slot = usize::from(settings.trace);
    let per_req = |keep: &dyn Fn(&Leg) -> bool, of: fn(&Leg) -> f64| {
        let (total, requests) = legs
            .iter()
            .filter(|l| keep(l))
            .fold((0.0, 0u64), |(t, r), l| (t + of(l), r + l.timed_requests));
        ratio(total * 1e6, requests as f64)
    };
    let wall = |l: &Leg| l.wall;
    for (kind, name) in [
        "serve.zipf.wall_us_per_req",
        "serve.clustering.wall_us_per_req",
    ]
    .into_iter()
    .enumerate()
    {
        report.set(
            name,
            per_req(&|l| l.slot == registry_slot && l.kind == kind, wall),
        );
    }
    let wall_us = per_req(&|l| l.slot == registry_slot, wall);
    report.set(
        "serve.cpu_us_per_req",
        per_req(&|l| l.slot == registry_slot, |l| l.cpu),
    );
    let (sum_us, count) = handler_us(&registry);
    let handler = ratio(sum_us, count);
    report.set("serve.handler_us_per_req", handler);
    report.set("serve.outside_handler_us_per_req", wall_us - handler);
    for (name, value) in COUNTERS.iter().zip(&timed.round_counters) {
        if let Some(&(known, _)) = crate::PER_LAYER.iter().find(|(n, _)| n == name) {
            report.set(known, *value);
        }
    }
    report.set(
        "serve.backing_share",
        ratio(timed.round_counters[3], timed.round_counters[0]),
    );
    if settings.trace {
        let traced_us = per_req(&|l| l.slot == 0, wall);
        let bare_us = per_req(&|l| l.slot == 2, wall);
        report.set(
            "trace.overhead_pct",
            (ratio(traced_us, wall_us) - 1.0) * 100.0,
        );
        report.set(
            "obs.registry_overhead_pct",
            (ratio(wall_us, bare_us) - 1.0) * 100.0,
        );
        report.notes.push(format!(
            "serve legs: traced {traced_us:.3} us/req, registry only {wall_us:.3} us/req, \
             bare {bare_us:.3} us/req"
        ));
        recorder.absorb(&tracer, tracer_offset, 0);
    }
    report.notes.push(format!(
        "serve: {} servers, {} events per call, {} calls per trace per round",
        legs.len(),
        CHUNK_EVENTS,
        params.chunks_per_round
    ));
    report.finish(timed.steal, recorder);
    report
}

/// Replays whole rounds of chunks until the time is up. Every chunk goes
/// to each server of its trace, in an order that rotates with the chunk.
#[allow(clippy::too_many_arguments)]
fn timed_phase(
    params: &ServeParams,
    settings: &Settings,
    chunks: &[Vec<Workload>],
    addrs: &[SocketAddr],
    legs: &mut [Leg],
    registry: &Registry,
    recorder: &mut Recorder,
    report: &mut Report,
) -> Timed {
    let legs_per_kind = legs.len() / KINDS.len();
    let client_seed = serve_seed(settings.seed).child("client");
    let configs: Vec<ReplayConfig> = KINDS
        .iter()
        .map(|kind| ReplayConfig::new(client_seed.child(kind.name())))
        .collect();
    let read = || -> Vec<f64> {
        COUNTERS
            .iter()
            .map(|name| registry.counter_value(name) as f64)
            .collect()
    };
    let mut call_ms = Vec::new();
    let mut round_counters = vec![0.0; COUNTERS.len()];
    let registry_slot = usize::from(settings.trace);
    // The hit-rate bands hold over a whole trace, so the timed phase
    // replays every chunk of each trace at least once.
    let longest = chunks.iter().map(Vec::len).max().unwrap_or(0);
    let full_pass = longest.div_ceil(params.chunks_per_round.max(1));
    let min_rounds = params.min_rounds.max(full_pass);
    let (rounds, steal) = timed_rounds(settings.seconds, min_rounds, |round| {
        let before = (round == 1).then(read);
        let mut requests = 0;
        for c in 0..params.chunks_per_round {
            let n = round * params.chunks_per_round + c;
            for (kind, span) in ["serve.replay.zipf", "serve.replay.clustering"]
                .into_iter()
                .enumerate()
            {
                let chunk = &chunks[kind][n % chunks[kind].len()];
                for k in 0..legs_per_kind {
                    let i = kind * legs_per_kind + (n + k) % legs_per_kind;
                    let leg = &mut legs[i];
                    let mut config = configs[kind].clone();
                    config.trace_base = leg.sent;
                    let cpu = host::process_cpu_s();
                    let (result, secs) = recorder.span(span, n as u64, || match &leg.ctx {
                        Some(ctx) => ctx.run(|| replay(addrs[i], chunk, &config)),
                        None => replay(addrs[i], chunk, &config),
                    });
                    let cpu = host::process_cpu_s() - cpu;
                    let stats = match result {
                        Ok(stats) => stats,
                        Err(err) => {
                            let events = chunk.len() as u64;
                            report.tally(events, events);
                            report.notes.push(format!("FAILED: replay call {n}: {err}"));
                            continue;
                        }
                    };
                    leg.sent += stats.requests_sent;
                    requests += stats.requests_sent;
                    report.tally(stats.requests_sent, failed_requests(&stats));
                    if round > 0 {
                        leg.wall += secs;
                        leg.cpu += cpu;
                        leg.timed_requests += stats.requests_sent;
                        leg.hits += stats.app_edge_hits;
                        leg.backing += stats.app_backing;
                        if leg.slot == registry_slot {
                            call_ms.push(secs * 1e3);
                        }
                    }
                }
            }
        }
        if let Some(before) = before {
            round_counters = read().iter().zip(&before).map(|(a, b)| a - b).collect();
        }
        requests as f64
    });
    Timed {
        rounds,
        call_ms,
        round_counters,
        steal,
    }
}
