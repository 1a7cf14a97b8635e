//! The deterministic load generator: replays download traces over a
//! real socket.
//!
//! A [`Workload`] is a trace of `(user, app)` download events — in the
//! experiments, traces simulated from the paper's §5 workload models
//! (ZIPF, APP-CLUSTERING with fetch-at-most-once and category
//! affinity), so the request stream inherits exactly the locality the
//! paper measured. [`replay`] drives the workload through the serving
//! layer at 200 requests per *virtual* second: each request advances
//! the clock by 5 ms and stamps it into `X-Now-Ms`, so TTLs, rate-limit
//! refills, and breaker probation windows all run in deterministic
//! virtual time no matter how fast the real socket is. Requests are
//! pipelined in batches (write the whole batch, flush, read the
//! responses back) to keep six-figure replays fast.
//!
//! Failures (429/5xx) are retried with the shared
//! [`appstore_core::backoff`] schedule — jittered exponential delays,
//! seeded per attempt — governed by a [`RetryBudget`] so a broken
//! server sees its load *drop*, not multiply. `Retry-After` hints are
//! honored by advancing the virtual clock past them, which is what
//! lets a tripped breaker's probation actually expire mid-replay.
//!
//! The client is also the origin of the cross-tier trace: every
//! request is stamped with `X-Trace-Id` (sequential from
//! [`ReplayConfig::trace_base`]) and `X-Parent-Span`, and completed
//! requests emit a client-side span on the same per-trace track the
//! server annotates — so one trace id stitches client, queue, edge,
//! and backing on a single timeline. With [`ReplayConfig::slo`] set,
//! every completed request also feeds a [`SloMonitor`] grading the
//! availability and p99 objectives of [`crate::slo`] over rolling
//! virtual-time windows.

use crate::http::{read_response, HttpResponse};
use crate::server::TRACE_SAMPLE_EVERY;
use crate::slo::{SloMonitor, SloSummary};
use appstore_core::backoff::{BackoffSchedule, RetryBudget};
use appstore_core::{DownloadEvent, Seed};
use appstore_obs::{names, LogLinearHistogram};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};

/// A named request stream derived from a download trace.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Display name (e.g. `"app-clustering"`).
    pub name: String,
    /// `(client, app)` pairs in replay order.
    pub events: Vec<(u32, u32)>,
}

impl Workload {
    /// Maps a simulated download trace onto the serving layer: each
    /// download becomes an app-page fetch by that user. The trace
    /// already embodies the workload model's structure (Zipf ranks,
    /// fetch-at-most-once, category affinity) — the mapping adds
    /// nothing and removes nothing.
    pub fn from_trace(name: &str, trace: &[DownloadEvent]) -> Workload {
        Workload {
            name: name.to_string(),
            events: trace.iter().map(|e| (e.user.0, e.app.0)).collect(),
        }
    }

    /// Number of app-page requests the workload will issue.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the workload holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Requests per virtual second (sets the virtual clock step).
const QPS: u64 = 200;

/// Virtual ms the clock advances per request.
const STEP_MS: u64 = 1_000 / QPS;

/// Deadline budget stamped on every request (`X-Deadline-Ms`).
const DEADLINE_MS: u64 = 1_000;

/// Requests pipelined per batch.
const BATCH: usize = 64;

/// A rankings fetch is issued before every this many app requests.
const RANKINGS_EVERY: usize = 50;

/// A download fetch is issued after every this many app requests.
const DOWNLOAD_EVERY: usize = 25;

/// Retry attempts per failed request.
const MAX_ATTEMPTS: u32 = 3;

/// Base backoff delay before the first retry (virtual ms).
const BACKOFF_BASE_MS: u64 = 100;

/// Retry tokens earned per fresh request (0.1 = 10% retry ratio).
const RETRY_BUDGET_RATIO: f64 = 0.1;

/// Retry tokens available up front (burst allowance).
const RETRY_BUDGET_BURST: u64 = 50;

/// What varies between replays: the seed, the trace ids, and whether
/// the replay is graded against the SLOs.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Seed for the jittered backoff schedule.
    pub seed: Seed,
    /// Base for the `X-Trace-Id` stamped on each request (the id is
    /// `trace_base + requests_sent`, so distinct replay phases get
    /// disjoint id ranges on one shared timeline).
    pub trace_base: u64,
    /// Grade this replay with a [`SloMonitor`].
    pub slo: bool,
}

impl ReplayConfig {
    /// A replay seeded by `seed`, trace ids from 0, no SLO grading.
    pub fn new(seed: Seed) -> ReplayConfig {
        ReplayConfig {
            seed,
            trace_base: 0,
            slo: false,
        }
    }
}

/// One request the replay client can issue.
#[derive(Debug, Clone, Copy)]
enum Op {
    App { client: u32, app: u32 },
    Rankings,
    Download { app: u32 },
}

/// What one replay run saw, counted client-side from status codes and
/// the resilience headers — independent of the server's own metrics,
/// so the two can cross-check each other.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayStats {
    /// Requests written to the socket, including retries.
    pub requests_sent: u64,
    /// App-page responses with status 200.
    pub app_ok: u64,
    /// App-page 200s answered by the edge cache (`X-Source: edge`).
    pub app_edge_hits: u64,
    /// App-page 200s that needed the backing store.
    pub app_backing: u64,
    /// Rankings 200s served fresh (edge-within-TTL or live refresh).
    pub rankings_fresh: u64,
    /// Rankings 200s served stale (`X-Degraded: stale`).
    pub rankings_stale: u64,
    /// Download-endpoint 200s.
    pub downloads_ok: u64,
    /// 503 responses (queue, breaker, or backing sheds).
    pub shed_503: u64,
    /// 504 responses (deadline sheds).
    pub shed_504: u64,
    /// 429 responses (per-client rate limiting).
    pub rate_limited_429: u64,
    /// 500/502 responses (handler faults, backing failures).
    pub server_errors: u64,
    /// Responses flagged `X-Degraded: panic` (a caught handler panic).
    pub panics_seen: u64,
    /// 404 responses.
    pub not_found: u64,
    /// Retries actually sent.
    pub retries: u64,
    /// Retries suppressed because the budget was empty.
    pub retries_denied: u64,
    /// Requests still failing after their last permitted attempt.
    pub exhausted: u64,
    /// Per-response deterministic virtual latency (`X-Virtual-Ms`).
    pub latencies_virtual_ms: Vec<u64>,
    /// Virtual clock value when the replay finished.
    pub final_clock_ms: u64,
    /// SLO grading, when [`ReplayConfig::slo`] enabled the monitor.
    pub slo: Option<SloSummary>,
}

impl ReplayStats {
    /// Edge hit rate over completed app-page requests, in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        let total = self.app_edge_hits + self.app_backing;
        if total == 0 {
            0.0
        } else {
            self.app_edge_hits as f64 / total as f64
        }
    }

    /// Shed responses of either kind.
    pub fn sheds(&self) -> u64 {
        self.shed_503 + self.shed_504
    }

    /// The p99 of the deterministic virtual latencies (0 when empty),
    /// computed through the same log-linear histogram the server's
    /// telemetry plane uses, so the client-side number and a scraped
    /// `/metrics` quantile can never disagree about bucketing.
    pub fn p99_virtual_ms(&self) -> u64 {
        self.latency_histogram().p99()
    }

    /// The deterministic virtual latencies folded into a log-linear
    /// histogram (exact up to bucket resolution: values ≤ 64 exact,
    /// above that within 1/32 of an octave).
    pub fn latency_histogram(&self) -> LogLinearHistogram {
        let mut hist = LogLinearHistogram::new();
        for &latency in &self.latencies_virtual_ms {
            hist.record(latency);
        }
        hist
    }
}

fn retryable(status: u16) -> bool {
    matches!(status, 429 | 500 | 502 | 503 | 504)
}

fn op_target(op: Op) -> (String, u32) {
    match op {
        Op::App { client, app } => (format!("/app?id={app}"), client),
        Op::Rankings => ("/rankings".to_string(), 0),
        Op::Download { app } => (format!("/download?app={app}"), 0),
    }
}

fn write_op(writer: &mut impl Write, op: Op, now_ms: u64, trace_id: u64) -> io::Result<()> {
    let (target, client) = op_target(op);
    write!(
        writer,
        "GET {target} HTTP/1.1\r\nX-Client: {client}\r\nX-Now-Ms: {now_ms}\r\nX-Deadline-Ms: {DEADLINE_MS}\r\nX-Trace-Id: {trace_id}\r\nX-Parent-Span: client-{trace_id}\r\n\r\n"
    )
}

fn record(stats: &mut ReplayStats, op: Op, response: &HttpResponse) {
    if let Some(latency) = response.header_u64("x-virtual-ms") {
        stats.latencies_virtual_ms.push(latency);
    }
    if response.header("x-degraded") == Some("panic") {
        stats.panics_seen += 1;
    }
    match response.status {
        200 => match op {
            Op::App { .. } => {
                stats.app_ok += 1;
                if response.header("x-source") == Some("edge") {
                    stats.app_edge_hits += 1;
                } else {
                    stats.app_backing += 1;
                }
            }
            Op::Rankings => {
                if response.header("x-degraded") == Some("stale") {
                    stats.rankings_stale += 1;
                } else {
                    stats.rankings_fresh += 1;
                }
            }
            Op::Download { .. } => stats.downloads_ok += 1,
        },
        429 => stats.rate_limited_429 += 1,
        503 => stats.shed_503 += 1,
        504 => stats.shed_504 += 1,
        500 | 502 => stats.server_errors += 1,
        404 => stats.not_found += 1,
        _ => {}
    }
}

/// Feeds one completed request into the SLO monitor (if enabled), on
/// the virtual clock the request was stamped with.
fn observe_slo(monitor: &mut Option<SloMonitor>, sent_ms: u64, response: &HttpResponse) {
    if let Some(monitor) = monitor {
        monitor.observe(
            sent_ms,
            response.status,
            response.header_u64("x-virtual-ms").unwrap_or(0),
        );
    }
}

/// Emits the client-side leg of the cross-tier trace: a
/// [`names::SPAN_SERVE_CLIENT`] frame on the track named by the trace
/// id, using the same deterministic gate as the server (sampled id, or
/// anything degraded/erroring), so client and server legs always
/// stitch for the same requests.
fn trace_client(op: Op, trace_id: u64, sent_ms: u64, response: &HttpResponse) {
    let degraded = response.header("x-degraded");
    if !trace_id.is_multiple_of(TRACE_SAMPLE_EVERY) && response.status < 500 && degraded.is_none() {
        return;
    }
    let (target, _) = op_target(op);
    appstore_obs::with_track(trace_id, || {
        appstore_obs::span_args(
            names::SPAN_SERVE_CLIENT,
            &[
                ("trace_id", &trace_id.to_string()),
                ("target", &target),
                ("status", &response.status.to_string()),
                ("degraded", degraded.unwrap_or("")),
                ("now_ms", &sent_ms.to_string()),
            ],
            || {},
        );
    });
}

/// Replays `workload` against the server at `addr`, returning
/// client-side statistics. Deterministic for a fixed workload, config,
/// and server state: the virtual clock, retry schedule, and request
/// order are all seeded or sequential.
pub fn replay(
    addr: SocketAddr,
    workload: &Workload,
    config: &ReplayConfig,
) -> io::Result<ReplayStats> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);

    let mut ops = Vec::with_capacity(workload.events.len() + workload.events.len() / 16);
    for (i, &(client, app)) in workload.events.iter().enumerate() {
        if i % RANKINGS_EVERY == 0 {
            ops.push(Op::Rankings);
        }
        ops.push(Op::App { client, app });
        if i % DOWNLOAD_EVERY == 0 {
            ops.push(Op::Download { app });
        }
    }

    let schedule = BackoffSchedule::new(BACKOFF_BASE_MS, config.seed.child("backoff"));
    let mut budget = RetryBudget::new(RETRY_BUDGET_RATIO, RETRY_BUDGET_BURST);
    let mut stats = ReplayStats::default();
    let mut monitor = config.slo.then(SloMonitor::default);
    let mut clock_ms = 0u64;

    for batch in ops.chunks(BATCH) {
        // Pipeline the whole batch: stamp, write, flush once.
        let mut pending = Vec::with_capacity(batch.len());
        for &op in batch {
            clock_ms += STEP_MS;
            budget.deposit();
            let trace_id = config.trace_base + stats.requests_sent;
            write_op(&mut writer, op, clock_ms, trace_id)?;
            stats.requests_sent += 1;
            pending.push((op, clock_ms, trace_id));
        }
        writer.flush()?;
        // Read the batch back in order; queue failures for retry only
        // after the batch is fully drained (a mid-batch resend would
        // interleave with responses still in flight).
        let mut retry_queue = Vec::new();
        for (op, sent_ms, trace_id) in pending {
            let response = read_response(&mut reader)?;
            record(&mut stats, op, &response);
            observe_slo(&mut monitor, sent_ms, &response);
            trace_client(op, trace_id, sent_ms, &response);
            if retryable(response.status) {
                retry_queue.push((op, response));
            }
        }
        for (op, mut response) in retry_queue {
            let mut attempt = 0;
            while retryable(response.status) && attempt < MAX_ATTEMPTS {
                if !budget.try_spend() {
                    stats.retries_denied += 1;
                    break;
                }
                // Honor the server's backpressure hint, then add the
                // jittered backoff on top.
                let hinted = response.header_u64("x-retry-after-ms").unwrap_or(0);
                clock_ms = clock_ms
                    .saturating_add(hinted)
                    .saturating_add(schedule.delay_ms(attempt));
                let trace_id = config.trace_base + stats.requests_sent;
                write_op(&mut writer, op, clock_ms, trace_id)?;
                writer.flush()?;
                stats.requests_sent += 1;
                stats.retries += 1;
                response = read_response(&mut reader)?;
                record(&mut stats, op, &response);
                observe_slo(&mut monitor, clock_ms, &response);
                trace_client(op, trace_id, clock_ms, &response);
                attempt += 1;
            }
            if retryable(response.status) {
                stats.exhausted += 1;
            }
        }
    }
    stats.final_clock_ms = clock_ms;
    stats.slo = monitor.map(SloMonitor::finish);
    Ok(stats)
}

/// A minimal single-day dataset for the serving-layer tests: `apps`
/// apps in one category, app id `i` ranked `i`-th by downloads.
#[cfg(test)]
pub(crate) fn test_dataset(apps: usize) -> appstore_core::Dataset {
    use appstore_core::{
        App, AppId, AppObservation, CategoryId, CategorySet, Cents, DailySnapshot, Dataset, Day,
        Developer, DeveloperId, PricingTier, StoreId, StoreMeta,
    };
    let registry: Vec<App> = (0..apps)
        .map(|i| App {
            id: AppId(i as u32),
            category: CategoryId(0),
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
            category: CategoryId(0),
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
            name: "serve-test".into(),
            has_paid_apps: false,
        },
        categories: CategorySet::anonymous(1),
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

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::server::{with_server, ServeConfig};
    use crate::SITE_SERVE_HANDLER;
    use appstore_core::faults::{with_injector, FaultInjector, FaultKind, FaultPlan, FaultTrigger};
    use appstore_core::{AppId, Day, UserId};

    fn trace(pairs: &[(u32, u32)]) -> Vec<DownloadEvent> {
        pairs
            .iter()
            .map(|&(user, app)| DownloadEvent {
                user: UserId(user),
                app: AppId(app),
                day: Day(0),
            })
            .collect()
    }

    fn serve_config() -> ServeConfig {
        ServeConfig {
            cache_capacity: 4,
            warm_apps: 4,
            ..ServeConfig::replay_default(Seed::new(3))
        }
    }

    #[test]
    fn workload_maps_trace_events() {
        let workload = Workload::from_trace("t", &trace(&[(1, 10), (2, 11)]));
        assert_eq!(workload.name, "t");
        assert_eq!(workload.events, vec![(1, 10), (2, 11)]);
        assert_eq!(workload.len(), 2);
        assert!(!workload.is_empty());
    }

    #[test]
    fn replay_collects_hits_misses_and_interleaved_endpoints() {
        let dataset = test_dataset(16);
        // Apps 0-3 are warm; 8 and 9 are cold (one miss each, then hits).
        let workload = Workload::from_trace(
            "mixed",
            &trace(&[(1, 0), (2, 1), (3, 8), (4, 8), (5, 9), (6, 2), (7, 9)]),
        );
        let config = ReplayConfig::new(Seed::new(7));
        let stats = with_server(&dataset, &serve_config(), |handle| {
            replay(handle.addr(), &workload, &config).unwrap()
        });
        assert_eq!(stats.app_ok, 7);
        // First touches of 8 and 9 go to backing; filling them evicts
        // warm apps 2 and 3 (capacity 4), so 2's later fetch does too.
        assert_eq!(stats.app_backing, 3);
        assert_eq!(stats.app_edge_hits, 4);
        assert_eq!(stats.rankings_fresh, 1, "before app request 0");
        assert_eq!(stats.downloads_ok, 1, "after app request 0");
        assert_eq!(stats.sheds(), 0);
        assert_eq!(stats.retries, 0);
        assert!(stats.hit_rate() > 0.57 && stats.hit_rate() < 0.58);
        assert_eq!(stats.latencies_virtual_ms.len() as u64, stats.requests_sent);
    }

    #[test]
    fn replay_is_deterministic_across_runs() {
        let dataset = test_dataset(24);
        let workload = Workload::from_trace(
            "det",
            &trace(&[(1, 5), (2, 6), (1, 5), (3, 7), (2, 6), (4, 20), (5, 21)]),
        );
        let config = ReplayConfig::new(Seed::new(99));
        let run = || {
            with_server(&dataset, &serve_config(), |handle| {
                replay(handle.addr(), &workload, &config).unwrap()
            })
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn failed_requests_retry_under_the_budget_and_recover() {
        let dataset = test_dataset(16);
        // The stream is rankings, app 0, download, app 1, app 2, app 3:
        // request index 3 (app 1) hits an injected I/O error; the client
        // retries and succeeds.
        let plan = FaultPlan::seeded(17).rule(
            SITE_SERVE_HANDLER,
            FaultKind::IoError,
            FaultTrigger::AtIndex(3),
        );
        let injector = FaultInjector::new(plan);
        let workload = Workload::from_trace("retry", &trace(&[(1, 0), (2, 1), (3, 2), (4, 3)]));
        let config = ReplayConfig::new(Seed::new(5));
        let stats = with_injector(&injector, || {
            with_server(&dataset, &serve_config(), |handle| {
                replay(handle.addr(), &workload, &config).unwrap()
            })
        });
        assert_eq!(stats.server_errors, 1, "the injected 500");
        assert_eq!(stats.retries, 1, "one retry fixed it");
        assert_eq!(stats.app_ok, 4, "all four app pages served in the end");
        assert_eq!(stats.exhausted, 0);
        assert_eq!(stats.requests_sent, 7);
    }

    #[test]
    fn slo_monitor_grades_a_clean_replay_without_alerts() {
        let dataset = test_dataset(16);
        let events: Vec<(u32, u32)> = (0..30).map(|i| (i, i % 4)).collect();
        let workload = Workload::from_trace("clean", &trace(&events));
        let mut config = ReplayConfig::new(Seed::new(12));
        config.slo = true;
        let stats = with_server(&dataset, &serve_config(), |handle| {
            replay(handle.addr(), &workload, &config).unwrap()
        });
        let slo = stats.slo.expect("monitor enabled");
        assert_eq!(slo.errors, 0);
        assert_eq!(slo.fast_burn_fired, 0);
        assert_eq!(slo.slow_burn_fired, 0);
        assert_eq!(slo.availability_ppm, 1_000_000);
        assert_eq!(slo.good, stats.requests_sent);
    }

    #[test]
    fn p99_comes_from_the_log_linear_histogram() {
        let stats = ReplayStats {
            latencies_virtual_ms: (0..100).map(|i| if i < 99 { 5 } else { 81 }).collect(),
            ..ReplayStats::default()
        };
        // Rank ceil(0.99 * 100) = 99 lands on the last of the 5 ms
        // observations; both 5 and 81 are exactly representable.
        assert_eq!(stats.p99_virtual_ms(), 5);
        let hist = stats.latency_histogram();
        assert_eq!(hist.count(), 100);
        assert_eq!(hist.max(), 81);
    }

    #[test]
    fn retry_budget_denies_when_exhausted() {
        let dataset = test_dataset(8);
        // Every handler roll fails: retries burn the budget down and
        // the client stops multiplying load.
        let plan = FaultPlan::seeded(23).rule(
            SITE_SERVE_HANDLER,
            FaultKind::IoError,
            FaultTrigger::Probability(1.0),
        );
        let injector = FaultInjector::new(plan);
        let events: Vec<(u32, u32)> = (0..40).map(|i| (i, i % 8)).collect();
        let workload = Workload::from_trace("storm", &trace(&events));
        let config = ReplayConfig::new(Seed::new(6));
        let stats = with_injector(&injector, || {
            with_server(&dataset, &serve_config(), |handle| {
                replay(handle.addr(), &workload, &config).unwrap()
            })
        });
        assert_eq!(stats.app_ok, 0);
        assert!(stats.retries_denied > 0, "budget said no at some point");
        // Budget cap: burst + ratio * fresh traffic, never more.
        let fresh = stats.requests_sent - stats.retries;
        assert!(stats.retries <= RETRY_BUDGET_BURST + fresh / 10 + 1);
    }
}
