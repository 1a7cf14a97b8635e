//! Service-level objectives graded over rolling virtual-time windows,
//! with multi-window burn-rate alerts.
//!
//! The replay client holds the serving layer to two objectives: an
//! availability target ([`AVAILABILITY_TARGET_PPM`], the fraction of
//! completed requests that succeed, with *explicit sheds excluded* — a
//! 503/504/429 is the resilience machinery working, not an SLO
//! violation) and a p99 latency budget of 200 virtual milliseconds.
//! The [`SloMonitor`] consumes every response the replay client reads,
//! classified by status code, and evaluates the objectives over two
//! rolling windows of the virtual clock:
//!
//! * the **fast window** (2 s) catches sharp error bursts — its alert
//!   fires when the burn rate (error rate divided by the error budget
//!   `1 - target`) reaches 10×, and clears as soon as the window drains
//!   back under it;
//! * the **slow window** (10 s) catches sustained low-grade burn at a
//!   lower 2× threshold.
//!
//! All arithmetic is integer (parts-per-million targets, centi-multiples
//! for burn rates) on the deterministic virtual clock, so two replays of
//! the same seed produce bit-identical alert transition counts — which
//! is what lets the fidelity report grade "the chaos window tripped the
//! fast-burn alert and it recovered" as a hard invariant.

use std::collections::VecDeque;

/// Minimum completed (non-shed) requests a window must hold before its
/// burn rate can raise an alert — keeps a lone early error from firing
/// a 1-sample "100% error rate".
const MIN_WINDOW_SAMPLES: u64 = 10;

/// Availability target in parts per million of completed requests
/// (sheds excluded): 99.5%.
pub const AVAILABILITY_TARGET_PPM: u64 = 995_000;

/// p99 virtual-latency budget (ms) for successfully served requests.
const P99_BUDGET_MS: u64 = 200;

/// The error budget implied by the availability target, in ppm.
const BUDGET_PPM: u64 = 1_000_000 - AVAILABILITY_TARGET_PPM;

/// Fast burn-rate window, in virtual ms.
const FAST_WINDOW_MS: u64 = 2_000;

/// Slow burn-rate window, in virtual ms.
const SLOW_WINDOW_MS: u64 = 10_000;

/// Fast-window alert threshold in centi-multiples of the error budget
/// (1_000 = burning 10× the budget rate).
const FAST_BURN_THRESHOLD_CENTI: u64 = 1_000;

/// Slow-window alert threshold in centi-multiples (200 = 2×).
const SLOW_BURN_THRESHOLD_CENTI: u64 = 200;

/// Evaluate the rolling p99 objective every this many virtual ms.
const P99_CHECK_EVERY_MS: u64 = 500;

/// How a response counts against the availability objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// Served (fresh, stale, or a well-formed client error): counts as
    /// availability.
    Good,
    /// 5xx that is not an explicit shed: burns the error budget.
    Error,
    /// Explicit shed or throttle (503/504/429): excluded entirely.
    Shed,
}

fn classify(status: u16) -> Outcome {
    match status {
        503 | 504 | 429 => Outcome::Shed,
        500 | 502 => Outcome::Error,
        _ => Outcome::Good,
    }
}

/// One rolling window over the virtual clock with running outcome
/// counts.
#[derive(Debug, Default)]
struct Window {
    samples: VecDeque<(u64, Outcome, u64)>,
    good: u64,
    errors: u64,
}

impl Window {
    fn push(&mut self, now_ms: u64, outcome: Outcome, latency_ms: u64, window_ms: u64) {
        self.samples.push_back((now_ms, outcome, latency_ms));
        match outcome {
            Outcome::Good => self.good += 1,
            Outcome::Error => self.errors += 1,
            Outcome::Shed => {}
        }
        while let Some(&(at, outcome, _)) = self.samples.front() {
            if at + window_ms > now_ms {
                break;
            }
            self.samples.pop_front();
            match outcome {
                Outcome::Good => self.good -= 1,
                Outcome::Error => self.errors -= 1,
                Outcome::Shed => {}
            }
        }
    }

    fn completed(&self) -> u64 {
        self.good + self.errors
    }

    /// Burn rate in centi-multiples of the error budget: 100 means the
    /// window is erroring at exactly the budgeted rate.
    fn burn_centi(&self) -> u64 {
        let completed = self.completed();
        if completed == 0 {
            return 0;
        }
        let numerator = u128::from(self.errors) * 100_000_000;
        (numerator / (u128::from(completed) * u128::from(BUDGET_PPM))) as u64
    }

    /// Exact p99 of the window's successfully served latencies, using
    /// the same ceil-rank definition as the log-linear histogram.
    fn p99_ms(&self) -> Option<u64> {
        let mut latencies: Vec<u64> = self
            .samples
            .iter()
            .filter(|(_, outcome, _)| *outcome == Outcome::Good)
            .map(|&(_, _, latency)| latency)
            .collect();
        if latencies.is_empty() {
            return None;
        }
        latencies.sort_unstable();
        let rank = ((0.99 * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len());
        Some(latencies[rank - 1])
    }
}

/// Deterministic integer summary of one monitored replay, embedded in
/// the experiment JSON and graded by the fidelity report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SloSummary {
    /// Requests that counted toward availability.
    pub good: u64,
    /// Requests that burned the error budget (non-shed 5xx).
    pub errors: u64,
    /// Explicit sheds/throttles excluded from the objective.
    pub sheds_excluded: u64,
    /// Availability over completed requests, in ppm (1_000_000 when
    /// nothing completed).
    pub availability_ppm: u64,
    /// Fast-burn alert raise transitions.
    pub fast_burn_fired: u64,
    /// Fast-burn alert clear transitions.
    pub fast_burn_recovered: u64,
    /// Slow-burn alert raise transitions.
    pub slow_burn_fired: u64,
    /// Slow-burn alert clear transitions.
    pub slow_burn_recovered: u64,
    /// Highest fast-window burn rate seen, in centi-multiples.
    pub max_burn_centi: u64,
    /// Rolling-p99 evaluations performed.
    pub p99_checks: u64,
    /// Evaluations where the window p99 exceeded the budget.
    pub p99_breaches: u64,
    /// Highest window p99 observed (virtual ms).
    pub p99_max_ms: u64,
}

/// Evaluates the objectives over a response stream on the virtual
/// clock. Feed it every response the replay client reads (including
/// retries) via [`SloMonitor::observe`], then take the summary.
#[derive(Debug, Default)]
pub struct SloMonitor {
    fast: Window,
    slow: Window,
    fast_active: bool,
    slow_active: bool,
    last_p99_check_ms: u64,
    summary: SloSummary,
}

impl SloMonitor {
    /// Records one response observed at virtual time `now_ms` and
    /// re-evaluates both burn-rate alerts (and, on its cadence, the
    /// rolling p99 objective).
    pub fn observe(&mut self, now_ms: u64, status: u16, latency_virtual_ms: u64) {
        let outcome = classify(status);
        match outcome {
            Outcome::Good => self.summary.good += 1,
            Outcome::Error => self.summary.errors += 1,
            Outcome::Shed => self.summary.sheds_excluded += 1,
        }
        self.fast
            .push(now_ms, outcome, latency_virtual_ms, FAST_WINDOW_MS);
        self.slow
            .push(now_ms, outcome, latency_virtual_ms, SLOW_WINDOW_MS);

        let fast_burn = self.fast.burn_centi();
        self.summary.max_burn_centi = self.summary.max_burn_centi.max(fast_burn);
        let fast_now =
            self.fast.completed() >= MIN_WINDOW_SAMPLES && fast_burn >= FAST_BURN_THRESHOLD_CENTI;
        match (self.fast_active, fast_now) {
            (false, true) => self.summary.fast_burn_fired += 1,
            (true, false) => self.summary.fast_burn_recovered += 1,
            _ => {}
        }
        self.fast_active = fast_now;

        let slow_now = self.slow.completed() >= MIN_WINDOW_SAMPLES
            && self.slow.burn_centi() >= SLOW_BURN_THRESHOLD_CENTI;
        match (self.slow_active, slow_now) {
            (false, true) => self.summary.slow_burn_fired += 1,
            (true, false) => self.summary.slow_burn_recovered += 1,
            _ => {}
        }
        self.slow_active = slow_now;

        if now_ms >= self.last_p99_check_ms + P99_CHECK_EVERY_MS {
            self.last_p99_check_ms = now_ms;
            if let Some(p99) = self.fast.p99_ms() {
                self.summary.p99_checks += 1;
                self.summary.p99_max_ms = self.summary.p99_max_ms.max(p99);
                if p99 > P99_BUDGET_MS {
                    self.summary.p99_breaches += 1;
                }
            }
        }
    }

    /// True while the fast-burn alert is raised.
    pub fn fast_burn_active(&self) -> bool {
        self.fast_active
    }

    /// True while the slow-burn alert is raised.
    pub fn slow_burn_active(&self) -> bool {
        self.slow_active
    }

    /// Finishes the run: a still-raised alert is counted as recovered
    /// (the stream ended, the window will drain), then the summary with
    /// final availability is returned.
    pub fn finish(mut self) -> SloSummary {
        if self.fast_active {
            self.summary.fast_burn_recovered += 1;
        }
        if self.slow_active {
            self.summary.slow_burn_recovered += 1;
        }
        let completed = self.summary.good + self.summary.errors;
        self.summary.availability_ppm = if completed == 0 {
            1_000_000
        } else {
            ((u128::from(self.summary.good) * 1_000_000) / u128::from(completed)) as u64
        };
        self.summary
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn clean_stream_never_alerts_and_reports_full_availability() {
        let mut monitor = SloMonitor::default();
        for i in 0..1_000u64 {
            monitor.observe(i * 5, 200, 5);
        }
        assert!(!monitor.fast_burn_active());
        let summary = monitor.finish();
        assert_eq!(summary.fast_burn_fired, 0);
        assert_eq!(summary.slow_burn_fired, 0);
        assert_eq!(summary.availability_ppm, 1_000_000);
        assert_eq!(summary.good, 1_000);
        assert!(summary.p99_checks > 0, "{summary:?}");
        assert_eq!(summary.p99_breaches, 0);
    }

    #[test]
    fn error_burst_trips_fast_burn_and_recovers_when_the_window_drains() {
        let mut monitor = SloMonitor::default();
        let mut clock = 0u64;
        for _ in 0..400 {
            clock += 5;
            monitor.observe(clock, 200, 5);
        }
        // A sharp burst: 30% errors for 100 requests — far above 10×
        // the 0.5% budget.
        for i in 0..100u64 {
            clock += 5;
            let status = if i % 3 == 0 { 500 } else { 200 };
            monitor.observe(clock, status, 5);
        }
        assert!(monitor.fast_burn_active(), "burst must trip the alert");
        // Healthy traffic until the burst leaves the fast window.
        for _ in 0..800 {
            clock += 5;
            monitor.observe(clock, 200, 5);
        }
        assert!(!monitor.fast_burn_active(), "alert must clear");
        let summary = monitor.finish();
        assert_eq!(summary.fast_burn_fired, 1);
        assert_eq!(summary.fast_burn_recovered, 1);
        assert!(summary.max_burn_centi >= 1_000, "{summary:?}");
        assert!(summary.availability_ppm < 1_000_000);
    }

    #[test]
    fn sheds_are_excluded_from_the_availability_objective() {
        let mut monitor = SloMonitor::default();
        for i in 0..200u64 {
            // Alternating success and explicit shed: availability stays
            // perfect because sheds never enter the denominator.
            let status = if i % 2 == 0 { 200 } else { 503 };
            monitor.observe(i * 5, status, 5);
        }
        assert!(!monitor.fast_burn_active());
        let summary = monitor.finish();
        assert_eq!(summary.good, 100);
        assert_eq!(summary.sheds_excluded, 100);
        assert_eq!(summary.errors, 0);
        assert_eq!(summary.availability_ppm, 1_000_000);
    }

    #[test]
    fn rolling_p99_objective_breaches_on_slow_windows() {
        let mut monitor = SloMonitor::default();
        let mut clock = 0u64;
        for _ in 0..200 {
            clock += 5;
            monitor.observe(clock, 200, 500); // 500 ms ≫ the 200 ms budget
        }
        let summary = monitor.finish();
        assert!(summary.p99_breaches > 0, "{summary:?}");
        assert_eq!(summary.p99_max_ms, 500);
    }

    #[test]
    fn a_lone_error_cannot_fire_from_a_thin_window() {
        let mut monitor = SloMonitor::default();
        monitor.observe(5, 500, 5);
        assert!(
            !monitor.fast_burn_active(),
            "one sample is not a burn signal"
        );
        let summary = monitor.finish();
        assert_eq!(summary.fast_burn_fired, 0);
        assert_eq!(summary.availability_ppm, 0);
    }

    #[test]
    fn finish_counts_a_still_raised_alert_as_recovered() {
        let mut monitor = SloMonitor::default();
        let mut clock = 0u64;
        for _ in 0..50 {
            clock += 5;
            monitor.observe(clock, 200, 5);
        }
        for _ in 0..50 {
            clock += 5;
            monitor.observe(clock, 502, 5);
        }
        assert!(monitor.fast_burn_active());
        let summary = monitor.finish();
        assert_eq!(summary.fast_burn_fired, 1);
        assert_eq!(summary.fast_burn_recovered, 1, "closed at finish");
    }

    #[test]
    fn summaries_are_deterministic() {
        let run = || {
            let mut monitor = SloMonitor::default();
            for i in 0..500u64 {
                let status = match i % 97 {
                    0 => 502,
                    1 => 503,
                    _ => 200,
                };
                monitor.observe(i * 5, status, (i % 40) + 1);
            }
            monitor.finish()
        };
        assert_eq!(run(), run());
    }
}
