//! Hedged-request policy: when a second replica is asked.
//!
//! Classic tail-latency hedging ("The Tail at Scale"): if the primary
//! replica's answer costs more virtual time than a delay derived from
//! the live backing-latency histogram's p99, a hedge fires at a second
//! replica and the cheaper of the two answers wins. A failed primary
//! hedges immediately — that is the failover path. Both conditions
//! depend only on tier state that is itself deterministic, so a
//! replayed workload hedges identically at any thread count.
//!
//! The budget side lives in the balancer: every hedge must be admitted
//! by the *target* replica's [`appstore_core::backoff::RetryBudget`],
//! so hedges can add at most [`BUDGET_BURST`] + [`BUDGET_RATIO`] ×
//! routed extra calls to a replica no matter how sick its peers are.

/// Floor for the hedge delay (virtual ms): with an empty latency
/// histogram the p99 reads 0, which must not mean "hedge everything".
const MIN_DELAY_MS: u64 = 100;

/// Ceiling for the hedge delay (virtual ms): a histogram poisoned by a
/// few huge outliers must not disable hedging entirely.
const MAX_DELAY_MS: u64 = 1_000;

/// Retry-budget deposit per routed call (tokens earned by fresh
/// traffic to a replica, spent by hedges targeting it).
pub const BUDGET_RATIO: f64 = 0.1;

/// Retry-budget burst: hedges a replica will absorb before any fresh
/// traffic has earned tokens.
pub const BUDGET_BURST: u64 = 50;

/// The virtual-time delay after which a slow primary is hedged, given
/// the live p99 of successful backing calls.
pub(crate) fn delay_ms(latency_p99_ms: u64) -> u64 {
    latency_p99_ms.clamp(MIN_DELAY_MS, MAX_DELAY_MS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_clamps_to_the_policy_window() {
        assert_eq!(delay_ms(0), 100, "empty histogram hits the floor");
        assert_eq!(delay_ms(250), 250);
        assert_eq!(delay_ms(50_000), 1_000, "outliers hit the ceiling");
    }
}
