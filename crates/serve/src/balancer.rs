//! The replicated backing tier: health-checked routing, hedged reads,
//! and anti-entropy reconciliation.
//!
//! [`BackingTier`] fronts N [`Replica`]s with:
//!
//! * **per-replica circuit breakers** — one [`ProxyPool`] "proxy" per
//!   replica reuses the crawler's breaker state machine verbatim
//!   (streaks, doubling probation, health ledgers). The balancer never
//!   inspects a replica's liveness directly: crashes and partitions
//!   manifest as call failures, failures trip the breaker, and routing
//!   avoids open breakers — detection is health-checked, not
//!   oracle-assisted;
//! * **seeded power-of-two-choices routing** — the two candidate
//!   replicas for call `i` are a pure function of `(seed, i)`; among
//!   the candidates the breaker decides (closed beats open, a
//!   half-open replica gets the probe, ties go to the health score and
//!   then the lower id);
//! * **hedged reads** — a failed primary hedges immediately (the
//!   failover path); a slow primary hedges once its virtual latency
//!   exceeds a delay clamped around the live backing-latency p99
//!   ([`crate::hedge`]). Every hedge must be admitted by the *target*
//!   replica's [`RetryBudget`] — fresh traffic to a replica earns its
//!   tokens, so hedges cannot multiply load during a brown-out;
//! * **anti-entropy** — [`BackingTier::reconcile`] fingerprints every
//!   replica's rankings page against the authoritative payload (read
//!   over the unmetered replication channel) and clears drift on
//!   mismatch; [`BackingTier::rejoin_all`] heals crashes/partitions,
//!   deliberately *without* clearing drift — that is reconciliation's
//!   job, which is what the failover experiment verifies.
//!
//! With one replica the tier degenerates to exactly the single-backing
//! behaviour the serving layer had before replication: candidate pair
//! `(0, 0)`, no hedging, one breaker named `backing-0`. The serve-replay
//! goldens pin that equivalence byte for byte.

use crate::deadline::Deadline;
use crate::hedge;
use crate::replica::{fingerprint64, Replica, ReplicaError};
use crate::telemetry::BreakerState;
use crate::SITE_SERVE_BACKING;
use appstore_core::backoff::RetryBudget;
use appstore_core::faults::{self, FaultKind};
use appstore_core::{Dataset, Day, Seed};
use appstore_crawler::{Proxy, ProxyPool, Region, Request, ServerPolicy, WireError};
use appstore_obs::{names, LogLinearHistogram};
use bytes::Bytes;
use rand::Rng;

/// Builds the fault-injection site name for replica `id` — rules at
/// `serve.replica.<id>` drive that replica's crash/partition/slow/drift
/// schedule, keyed by the tier's sequential call counter.
pub fn replica_site(id: usize) -> String {
    format!("serve.replica.{id}")
}

/// Why a tier call produced no payload. Mirrors the single-backing
/// error ladder so the serving layer's degradation arms are unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierError {
    /// Every viable breaker is open: not probing until the given time.
    Open {
        /// Earliest virtual time any replica accepts a probe.
        retry_at_ms: u64,
    },
    /// The call failed (injected fault, transport error, replica down).
    Failed,
    /// The deadline cannot cover (or no longer covers) the fetch.
    Deadline,
    /// Per-client token bucket said wait.
    RateLimited {
        /// Suggested wait before retrying, in virtual ms.
        retry_after_ms: u64,
    },
    /// The client is blacklisted at the backing store.
    Blacklisted,
    /// Unknown app or day.
    NotFound,
}

/// What one anti-entropy pass found and repaired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconcileReport {
    /// Replicas fingerprinted.
    pub checked: usize,
    /// Replica ids whose rankings fingerprint diverged (now repaired).
    pub divergent: Vec<usize>,
    /// The authoritative rankings fingerprint all replicas now serve.
    pub reference_fingerprint: u64,
}

impl ReconcileReport {
    /// Divergent replicas repaired (every divergence is repaired).
    pub fn repaired(&self) -> usize {
        self.divergent.len()
    }
}

/// A deterministic snapshot of the tier's routing/hedging counters,
/// served by `/admin/tier`.
#[derive(Debug, Clone, PartialEq)]
pub struct TierStats {
    /// Replicas in the tier.
    pub replicas: usize,
    /// Backing calls routed (the hedge/route decision index).
    pub calls: u64,
    /// Hedges fired.
    pub hedges_fired: u64,
    /// Hedges whose response won.
    pub hedges_won: u64,
    /// Hedges denied by an exhausted target budget.
    pub hedges_denied: u64,
    /// Failed primaries recovered by a successful hedge.
    pub failovers: u64,
    /// The hedge delay the next slow call would be measured against.
    pub hedge_delay_ms: u64,
    /// Per-replica retry-budget tokens currently available.
    pub budget_available: Vec<u64>,
}

/// The replicated backing tier behind the serving layer.
pub struct BackingTier<'a> {
    replicas: Vec<Replica<'a>>,
    pool: ProxyPool,
    proxies: Vec<Proxy>,
    budgets: Vec<RetryBudget>,
    /// Per-call `ReplicaSlow` surcharge, reset every call.
    slow: Vec<u64>,
    sites: Vec<String>,
    /// Virtual latency of calls the tier answered with — the live
    /// histogram whose p99 sets the hedge delay.
    latency: LogLinearHistogram,
    seed: Seed,
    base_latency_ms: u64,
    calls: u64,
    hedges_fired: u64,
    hedges_won: u64,
    hedges_denied: u64,
    failovers: u64,
}

impl<'a> BackingTier<'a> {
    /// Builds a tier of `replicas` marketplace servers (at least one)
    /// over the shared dataset, all under `policy`, with per-replica
    /// seeds derived from `seed`.
    pub fn new(
        dataset: &'a Dataset,
        replicas: usize,
        policy: ServerPolicy,
        seed: Seed,
    ) -> BackingTier<'a> {
        let n = replicas.max(1);
        let pool = ProxyPool::planetlab(0, n);
        let proxies: Vec<Proxy> = pool.health().iter().map(|h| h.proxy).collect();
        BackingTier {
            replicas: (0..n)
                .map(|i| Replica::new(i, dataset, policy, seed))
                .collect(),
            pool,
            proxies,
            budgets: (0..n)
                .map(|_| RetryBudget::new(hedge::BUDGET_RATIO, hedge::BUDGET_BURST))
                .collect(),
            slow: vec![0; n],
            sites: (0..n).map(replica_site).collect(),
            latency: LogLinearHistogram::new(),
            seed,
            base_latency_ms: policy.latency_ms,
            calls: 0,
            hedges_fired: 0,
            hedges_won: 0,
            hedges_denied: 0,
            failovers: 0,
        }
    }

    /// Replicas in the tier.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Never true — the tier always holds at least one replica.
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// The power-of-two-choices candidate pair for call `index`, pure
    /// in `(seed, index)`: one replica short-circuits to `(0, 0)`,
    /// otherwise two *distinct* replicas are drawn.
    pub fn candidates(&self, index: u64) -> (usize, usize) {
        let n = self.replicas.len() as u64;
        if n <= 1 {
            return (0, 0);
        }
        let mut rng = self.seed.child_indexed("route", index).rng();
        let a = rng.gen::<u64>() % n;
        let b = (a + 1 + rng.gen::<u64>() % (n - 1)) % n;
        (a as usize, b as usize)
    }

    /// Picks the primary among the candidate pair using breaker state
    /// only: closed beats open, a half-open replica (quarantine expired,
    /// episode not yet closed by a success) gets the probe, and
    /// otherwise the better health score — lower id on ties — wins.
    fn choose(&self, a: usize, b: usize, now_ms: u64) -> usize {
        if a == b {
            return a;
        }
        let quarantined = |i: usize| self.pool.is_quarantined(self.proxies[i], now_ms);
        match (quarantined(a), quarantined(b)) {
            (false, true) => a,
            (true, false) => b,
            (true, true) => a.min(b),
            (false, false) => {
                match (
                    self.pool.breaker_open(self.proxies[a]),
                    self.pool.breaker_open(self.proxies[b]),
                ) {
                    // Exactly one is half-open: it gets the probe, so a
                    // recovered replica can close its breaker instead of
                    // being starved by its now-worse lifetime score.
                    (true, false) => a,
                    (false, true) => b,
                    _ => {
                        let score_a = self.pool.health_of(self.proxies[a]).score();
                        let score_b = self.pool.health_of(self.proxies[b]).score();
                        if score_a > score_b {
                            a
                        } else if score_b > score_a {
                            b
                        } else {
                            a.min(b)
                        }
                    }
                }
            }
        }
    }

    /// Rolls every replica's fault site for this call and applies what
    /// fired. `ReplicaSlow` is recorded as a per-call latency surcharge;
    /// the other kinds flip replica state that call outcomes then
    /// surface through the breakers.
    fn roll_replica_faults(&mut self, call: u64, now_ms: u64) {
        for i in 0..self.replicas.len() {
            self.slow[i] = 0;
            match faults::roll(&self.sites[i], call, 0) {
                Some(FaultKind::ReplicaCrash) => self.replicas[i].crash(),
                Some(FaultKind::ReplicaPartition { virtual_ms }) => {
                    self.replicas[i].partition(now_ms.saturating_add(virtual_ms));
                }
                Some(FaultKind::ReplicaSlow { virtual_ms }) => self.slow[i] = virtual_ms,
                Some(FaultKind::ReplicaDrift) => self.replicas[i].drift(),
                _ => {}
            }
        }
    }

    /// One attempt against one replica: breaker guard, deadline guard,
    /// fault roll, metered replica call. Success latency is *returned*,
    /// not charged — the caller charges the effective latency exactly
    /// once, which is what lets a winning hedge cost
    /// `hedge_delay + hedge_latency` instead of the slow primary's
    /// latency. Failure-path charges (an injected covered `Delay`)
    /// happen inline, exactly like the single-backing path always did.
    #[allow(clippy::too_many_arguments)]
    fn attempt(
        &mut self,
        replica: usize,
        client: u32,
        now_ms: u64,
        request_index: u64,
        attempt: u64,
        deadline: &mut Deadline,
        note: &mut Option<&'static str>,
        request: Request,
    ) -> Result<(Bytes, u64), TierError> {
        let proxy = self.proxies[replica];
        if self.pool.is_quarantined(proxy, now_ms) {
            let retry_at_ms = self
                .pool
                .acquire(now_ms, None)
                .map(|(_, at)| at)
                .unwrap_or(now_ms);
            *note = Some("open");
            return Err(TierError::Open { retry_at_ms });
        }
        // Deadline propagation: don't start a fetch the budget can't cover.
        if !deadline.covers(self.base_latency_ms) {
            *note = Some("deadline");
            return Err(TierError::Deadline);
        }
        appstore_obs::counter(names::SERVE_BACKING_CALLS, 1);
        match faults::roll(SITE_SERVE_BACKING, request_index, attempt) {
            Some(FaultKind::IoError | FaultKind::Corrupt | FaultKind::PartialWrite) => {
                appstore_obs::counter(names::SERVE_BACKING_FAILURES, 1);
                self.pool.record_failure(proxy, now_ms);
                *note = Some("failed");
                return Err(TierError::Failed);
            }
            // An injected slowdown: charge it; past the deadline the fetch
            // counts as a timeout — a breaker failure. (A covered delay
            // charges in the guard and falls through to the live call.)
            Some(FaultKind::Delay { virtual_ms }) if !deadline.charge(virtual_ms) => {
                appstore_obs::counter(names::SERVE_BACKING_FAILURES, 1);
                self.pool.record_failure(proxy, now_ms);
                *note = Some("deadline");
                return Err(TierError::Deadline);
            }
            Some(FaultKind::WorkerPanic) => panic!("injected panic in backing call"),
            _ => {}
        }
        match self.replicas[replica].handle(client, Region::Europe, now_ms, request) {
            Ok((payload, latency_ms)) => {
                self.pool.record_success(proxy);
                *note = Some("ok");
                Ok((payload, latency_ms + self.slow[replica]))
            }
            Err(ReplicaError::Wire(WireError::RateLimited { retry_after_ms })) => {
                appstore_obs::counter(names::SERVE_RATE_LIMITED, 1);
                *note = Some("rate-limited");
                Err(TierError::RateLimited { retry_after_ms })
            }
            Err(ReplicaError::Wire(WireError::Blacklisted)) => {
                *note = Some("blacklisted");
                Err(TierError::Blacklisted)
            }
            Err(ReplicaError::Wire(WireError::NotFound)) => {
                *note = Some("not-found");
                Err(TierError::NotFound)
            }
            // A crashed/partitioned replica (or any other transport
            // fault) looks like a failed call: the breaker learns, the
            // client — via the hedge — usually never does.
            Err(_) => {
                appstore_obs::counter(names::SERVE_BACKING_FAILURES, 1);
                self.pool.record_failure(proxy, now_ms);
                *note = Some("failed");
                Err(TierError::Failed)
            }
        }
    }

    /// One backing fetch through the tier: fault rolls, routing, the
    /// primary attempt, and — when warranted and budgeted — a hedge.
    /// Charges `deadline` for the virtual time the caller actually
    /// waited and records it in the live latency histogram.
    #[allow(clippy::too_many_arguments)]
    pub fn call(
        &mut self,
        client: u32,
        now_ms: u64,
        request_index: u64,
        deadline: &mut Deadline,
        note: &mut Option<&'static str>,
        request: Request,
    ) -> Result<Bytes, TierError> {
        let call = self.calls;
        self.calls += 1;
        appstore_obs::counter(names::BALANCER_ROUTED, 1);
        self.roll_replica_faults(call, now_ms);
        let (a, b) = self.candidates(call);
        let primary = self.choose(a, b, now_ms);
        let secondary = if primary == a { b } else { a };
        self.budgets[primary].deposit();
        match self.attempt(
            primary,
            client,
            now_ms,
            request_index,
            0,
            deadline,
            note,
            request,
        ) {
            Ok((payload, latency_ms)) => {
                let hedge_delay = hedge::delay_ms(self.latency.p99());
                if secondary != primary && latency_ms > hedge_delay {
                    if self.budgets[secondary].try_spend() {
                        self.hedges_fired += 1;
                        appstore_obs::counter(names::BALANCER_HEDGES_FIRED, 1);
                        let mut hedge_note = None;
                        if let Ok((hedge_payload, hedge_latency)) = self.attempt(
                            secondary,
                            client,
                            now_ms,
                            request_index,
                            1,
                            deadline,
                            &mut hedge_note,
                            request,
                        ) {
                            let hedged_ms = hedge_delay + hedge_latency;
                            if hedged_ms < latency_ms {
                                self.hedges_won += 1;
                                appstore_obs::counter(names::BALANCER_HEDGES_WON, 1);
                                deadline.charge(hedged_ms);
                                self.latency.record(hedged_ms);
                                *note = Some("hedge-won");
                                return Ok(hedge_payload);
                            }
                        }
                    } else {
                        self.hedges_denied += 1;
                        appstore_obs::counter(names::BALANCER_HEDGES_DENIED, 1);
                    }
                }
                deadline.charge(latency_ms);
                self.latency.record(latency_ms);
                Ok(payload)
            }
            // A failed or breaker-blocked primary hedges immediately:
            // the failover path. Deadline/throttle/not-found errors are
            // not replica-specific, so a second replica cannot help.
            Err(error @ (TierError::Open { .. } | TierError::Failed)) if secondary != primary => {
                if !self.budgets[secondary].try_spend() {
                    self.hedges_denied += 1;
                    appstore_obs::counter(names::BALANCER_HEDGES_DENIED, 1);
                    return Err(error);
                }
                self.hedges_fired += 1;
                appstore_obs::counter(names::BALANCER_HEDGES_FIRED, 1);
                match self.attempt(
                    secondary,
                    client,
                    now_ms,
                    request_index,
                    1,
                    deadline,
                    note,
                    request,
                ) {
                    Ok((payload, latency_ms)) => {
                        self.hedges_won += 1;
                        self.failovers += 1;
                        appstore_obs::counter(names::BALANCER_HEDGES_WON, 1);
                        appstore_obs::counter(names::BALANCER_FAILOVERS, 1);
                        deadline.charge(latency_ms);
                        self.latency.record(latency_ms);
                        Ok(payload)
                    }
                    Err(hedge_error) => Err(hedge_error),
                }
            }
            Err(error) => Err(error),
        }
    }

    /// True while every replica's breaker is open — the tier-wide
    /// "shedding" condition (with one replica: that replica's breaker).
    pub fn all_open(&self, now_ms: u64) -> bool {
        self.proxies
            .iter()
            .all(|&proxy| self.pool.is_quarantined(proxy, now_ms))
    }

    /// Per-replica breaker ledgers for `/healthz`, named `backing-<id>`.
    pub fn breaker_states(&self, now_ms: u64) -> Vec<BreakerState> {
        self.pool
            .health()
            .iter()
            .map(|h| BreakerState {
                name: format!("backing-{}", h.proxy.addr),
                open: self.pool.is_quarantined(h.proxy, now_ms),
                successes: h.successes,
                failures: h.failures,
                quarantines: h.quarantines,
                banned: h.banned,
            })
            .collect()
    }

    /// Heals every crashed or partitioned replica (the admin rejoin).
    /// Drift persists — only [`BackingTier::reconcile`] repairs state.
    pub fn rejoin_all(&mut self) -> usize {
        self.replicas.iter_mut().map(|r| r.rejoin() as usize).sum()
    }

    /// One anti-entropy pass over `day`'s rankings: fingerprints every
    /// replica's page against the authoritative payload and clears
    /// drift on mismatch. Returns what diverged; after this call every
    /// replica serves the reference fingerprint again.
    pub fn reconcile(&mut self, day: Day) -> ReconcileReport {
        let reference_fingerprint = self.replicas[0]
            .peek_authoritative(Request::Index { day })
            .map(|payload| fingerprint64(&payload))
            .unwrap_or(0);
        let mut divergent = Vec::new();
        for i in 0..self.replicas.len() {
            appstore_obs::counter(names::BALANCER_RECONCILE_CHECKS, 1);
            let fingerprint = self.replicas[i]
                .rankings_payload(day)
                .map(|payload| fingerprint64(&payload))
                .unwrap_or(0);
            if fingerprint != reference_fingerprint {
                self.replicas[i].clear_drift();
                divergent.push(i);
                appstore_obs::counter(names::BALANCER_RECONCILE_REPAIRS, 1);
            }
        }
        ReconcileReport {
            checked: self.replicas.len(),
            divergent,
            reference_fingerprint,
        }
    }

    /// The deterministic routing/hedging counters for `/admin/tier`.
    pub fn stats(&self) -> TierStats {
        TierStats {
            replicas: self.replicas.len(),
            calls: self.calls,
            hedges_fired: self.hedges_fired,
            hedges_won: self.hedges_won,
            hedges_denied: self.hedges_denied,
            failovers: self.failovers,
            hedge_delay_ms: hedge::delay_ms(self.latency.p99()),
            budget_available: self.budgets.iter().map(|b| b.available()).collect(),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::replay::test_dataset;
    use appstore_core::faults::{with_injector, FaultInjector, FaultPlan, FaultTrigger};

    fn tier(dataset: &Dataset, replicas: usize) -> BackingTier<'_> {
        BackingTier::new(
            dataset,
            replicas,
            ServerPolicy {
                requests_per_second: 10_000.0,
                burst: 100_000,
                ..ServerPolicy::default()
            },
            Seed::new(2013),
        )
    }

    fn decision_log(tier: &BackingTier<'_>, calls: u64) -> Vec<(usize, usize)> {
        (0..calls).map(|i| tier.candidates(i)).collect()
    }

    #[test]
    fn routing_decisions_are_pure_in_seed_and_index() {
        let dataset = test_dataset(8);
        let tier_a = tier(&dataset, 3);
        let forward = decision_log(&tier_a, 512);
        let mut backward: Vec<_> = (0..512).rev().map(|i| tier_a.candidates(i)).collect();
        backward.reverse();
        assert_eq!(forward, backward, "evaluation order is irrelevant");
        // Candidates are always distinct with n > 1.
        assert!(forward.iter().all(|&(a, b)| a != b));
        // Byte-identical logs from concurrent threads — the property
        // the cross-thread goldens pin end to end.
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|_| scope.spawn(|| decision_log(&tier_a, 512)))
                .collect();
            for handle in handles {
                assert_eq!(handle.join().unwrap(), forward);
            }
        });
        // A different seed routes differently.
        let tier_b = BackingTier::new(&dataset, 3, ServerPolicy::default(), Seed::new(2014));
        assert_ne!(decision_log(&tier_b, 512), forward);
    }

    #[test]
    fn single_replica_short_circuits_routing() {
        let dataset = test_dataset(8);
        let solo = tier(&dataset, 1);
        for i in 0..64 {
            assert_eq!(solo.candidates(i), (0, 0));
        }
    }

    #[test]
    fn retry_budget_never_admits_a_hedge_once_exhausted() {
        let dataset = test_dataset(8);
        let mut t = tier(&dataset, 2);
        // A tiny budget that fresh traffic never refills keeps the
        // exhaustion point a handful of calls away.
        t.budgets = vec![RetryBudget::new(0.0, 2); 2];
        // Every attempt (primary and hedge alike) fails at the backing
        // site, so each call is hedge-eligible and each fired hedge
        // spends one token.
        let plan = FaultPlan::seeded(1).rule(
            SITE_SERVE_BACKING,
            FaultKind::IoError,
            FaultTrigger::Probability(1.0),
        );
        let injector = FaultInjector::new(plan);
        with_injector(&injector, || {
            for i in 0..50 {
                let mut deadline = Deadline::new(1_000_000);
                let mut note = None;
                let result = t.call(
                    1,
                    i,
                    i,
                    &mut deadline,
                    &mut note,
                    Request::Index { day: Day(0) },
                );
                assert!(result.is_err(), "everything fails by construction");
            }
        });
        let stats = t.stats();
        // Token conservation: ratio 0 earns nothing, so every fired
        // hedge spent exactly one of the 2 × burst-2 initial tokens.
        let remaining: u64 = stats.budget_available.iter().sum();
        assert_eq!(stats.hedges_fired + remaining, 4);
        assert_eq!(stats.hedges_fired + stats.hedges_denied, 50);
        // The deterministic trace: once both breakers trip, the tie
        // always routes primary→0, so only replica 1's budget drains.
        assert_eq!(stats.hedges_fired, 3);
        assert_eq!(stats.budget_available, vec![1, 0]);
        // The hot secondary's budget stays dry: more traffic, zero new
        // hedges — an exhausted budget never admits one.
        with_injector(&injector, || {
            for i in 50..80 {
                let mut deadline = Deadline::new(1_000_000);
                let mut note = None;
                let _ = t.call(
                    1,
                    i,
                    i,
                    &mut deadline,
                    &mut note,
                    Request::Index { day: Day(0) },
                );
            }
        });
        assert_eq!(t.stats().hedges_fired, 3, "exhausted budgets admit nothing");
        assert_eq!(t.stats().hedges_denied, 77);
    }

    #[test]
    fn breaker_open_replicas_get_zero_routes_until_the_half_open_probe() {
        let dataset = test_dataset(8);
        let mut t = tier(&dataset, 2);
        // Trip replica 0's breaker at t=1000: quarantined until 6000.
        for _ in 0..3 {
            t.pool.record_failure(t.proxies[0], 1_000);
        }
        assert!(t.pool.is_quarantined(t.proxies[0], 1_000));
        for i in 0..200 {
            let mut deadline = Deadline::new(1_000_000);
            let mut note = None;
            let result = t.call(
                1,
                2_000,
                i,
                &mut deadline,
                &mut note,
                Request::Index { day: Day(0) },
            );
            assert!(result.is_ok());
        }
        let healths = t.pool.health();
        assert_eq!(
            healths[0].successes, 0,
            "zero requests routed to the open replica"
        );
        assert_eq!(healths[1].successes, 200);
        // Past the quarantine window the replica is half-open: the very
        // next call probes it, and the success closes the breaker.
        let mut deadline = Deadline::new(1_000_000);
        let mut note = None;
        assert!(t
            .call(
                1,
                6_000,
                200,
                &mut deadline,
                &mut note,
                Request::Index { day: Day(0) },
            )
            .is_ok());
        assert_eq!(t.pool.health()[0].successes, 1, "the probe landed on 0");
        assert!(!t.pool.breaker_open(t.proxies[0]));
    }

    #[test]
    fn crashed_replica_fails_over_via_hedge_and_clients_never_see_it() {
        let dataset = test_dataset(8);
        let mut t = tier(&dataset, 3);
        // Crash replica 1 on the very first call.
        let plan = FaultPlan::seeded(4).rule(
            &replica_site(1),
            FaultKind::ReplicaCrash,
            FaultTrigger::AtIndex(0),
        );
        let injector = FaultInjector::new(plan);
        let mut failures = 0;
        with_injector(&injector, || {
            for i in 0..300 {
                let mut deadline = Deadline::new(1_000_000);
                let mut note = None;
                if t.call(
                    1,
                    i * 10,
                    i,
                    &mut deadline,
                    &mut note,
                    Request::Index { day: Day(0) },
                )
                .is_err()
                {
                    failures += 1;
                }
            }
        });
        assert_eq!(failures, 0, "every crashed-primary call was hedged");
        let stats = t.stats();
        assert!(stats.failovers > 0, "the crash actually hit the routing");
        assert_eq!(stats.hedges_won, stats.failovers);
        assert_eq!(injector.events().len(), 1);
    }

    #[test]
    fn reconcile_repairs_exactly_the_drifted_replica() {
        let dataset = test_dataset(16);
        let mut t = tier(&dataset, 3);
        let clean = t.reconcile(Day(0));
        assert_eq!(clean.checked, 3);
        assert!(clean.divergent.is_empty());
        t.replicas[1].drift();
        let report = t.reconcile(Day(0));
        assert_eq!(report.divergent, vec![1]);
        assert_eq!(report.repaired(), 1);
        assert_eq!(report.reference_fingerprint, clean.reference_fingerprint);
        // Idempotent: a second pass finds nothing.
        assert!(t.reconcile(Day(0)).divergent.is_empty());
    }

    #[test]
    fn partition_heals_by_deadline_and_crash_only_by_rejoin() {
        let dataset = test_dataset(8);
        let mut t = tier(&dataset, 2);
        t.replicas[0].crash();
        t.replicas[1].partition(5_000);
        assert_eq!(t.rejoin_all(), 2);
        assert!(t.replicas.iter().all(|r| r.is_up(0)));
        assert_eq!(t.rejoin_all(), 0, "nothing left to heal");
    }
}
