//! The daily crawl loop (the paper's two-phase collection process).
//!
//! Phase one gathers the initial snapshot; thereafter the crawler
//! revisits every indexed app daily, discovers newly added apps through
//! the index endpoint, and pulls the day's comment pages. The harvested
//! pages are re-assembled into an [`appstore_core::Dataset`] with the
//! same shape as the ground truth, so the entire analysis pipeline can
//! run on *crawled* data — and tests can assert the crawl is lossless
//! under faults.

use crate::client::{ClientStats, CrawlError, CrawlerClient, FaultPlan};
use crate::proxy::{ProxyPool, Region};
use crate::server::MarketplaceServer;
use crate::storage::{read_journal_lossy, JournalHealth, JournalWriter, Record, StorageError};
use crate::wire::{Request, Response};
use appstore_core::{CommentEvent, DailySnapshot, Dataset, Day, Seed, UpdateEvent};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Statistics of one campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrawlReport {
    /// Days crawled.
    pub days: u32,
    /// App pages fetched successfully.
    pub app_pages: u64,
    /// Comment pages fetched successfully.
    pub comment_pages: u64,
    /// Requests attempted, including retries.
    pub requests: u64,
    /// Retries performed.
    pub retries: u64,
    /// Injected drops observed.
    pub dropped: u64,
    /// Corrupted payloads observed.
    pub corrupted: u64,
    /// Rate-limit refusals observed.
    pub rate_limited: u64,
    /// Proxies banned by the server.
    pub proxies_banned: u64,
    /// App pages that remained unfetchable after retries.
    pub failed_pages: u64,
    /// Virtual milliseconds the campaign took.
    pub virtual_ms: u64,
}

impl CrawlReport {
    /// Folds one client's counters in. Saturating: a pathological fault
    /// plan (or a resumed campaign summing many runs) must degrade the
    /// statistics, never wrap them.
    fn absorb(&mut self, stats: ClientStats) {
        self.requests = self.requests.saturating_add(stats.requests);
        self.retries = self.retries.saturating_add(stats.retries);
        self.dropped = self.dropped.saturating_add(stats.dropped);
        self.corrupted = self.corrupted.saturating_add(stats.corrupted);
        self.rate_limited = self.rate_limited.saturating_add(stats.rate_limited);
        self.proxies_banned = self.proxies_banned.saturating_add(stats.proxies_banned);
    }

    /// Publishes the report's counters to the installed observability
    /// registry (no-op without one). The crawl is fully deterministic
    /// given its seeds, so every value here is a deterministic metric.
    fn flush_metrics(&self) {
        appstore_obs::counter(appstore_obs::names::CRAWL_DAYS, u64::from(self.days));
        appstore_obs::counter(appstore_obs::names::CRAWL_APP_PAGES, self.app_pages);
        appstore_obs::counter(appstore_obs::names::CRAWL_COMMENT_PAGES, self.comment_pages);
        appstore_obs::counter(appstore_obs::names::CRAWL_REQUESTS, self.requests);
        appstore_obs::counter(appstore_obs::names::CRAWL_RETRIES, self.retries);
        appstore_obs::counter(appstore_obs::names::CRAWL_DROPPED, self.dropped);
        appstore_obs::counter(appstore_obs::names::CRAWL_CORRUPTED, self.corrupted);
        appstore_obs::counter(appstore_obs::names::CRAWL_RATE_LIMITED, self.rate_limited);
        appstore_obs::counter(
            appstore_obs::names::CRAWL_PROXIES_BANNED,
            self.proxies_banned,
        );
        appstore_obs::counter(appstore_obs::names::CRAWL_FAILED_PAGES, self.failed_pages);
    }

    /// Merges another report (e.g. across the runs of a crash/resume
    /// cycle), saturating on every counter.
    pub fn merge(&mut self, other: &CrawlReport) {
        self.days = self.days.saturating_add(other.days);
        self.app_pages = self.app_pages.saturating_add(other.app_pages);
        self.comment_pages = self.comment_pages.saturating_add(other.comment_pages);
        self.requests = self.requests.saturating_add(other.requests);
        self.retries = self.retries.saturating_add(other.retries);
        self.dropped = self.dropped.saturating_add(other.dropped);
        self.corrupted = self.corrupted.saturating_add(other.corrupted);
        self.rate_limited = self.rate_limited.saturating_add(other.rate_limited);
        self.proxies_banned = self.proxies_banned.saturating_add(other.proxies_banned);
        self.failed_pages = self.failed_pages.saturating_add(other.failed_pages);
        self.virtual_ms = self.virtual_ms.max(other.virtual_ms);
    }
}

/// The result of a crawl campaign.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// The dataset as reconstructed from harvested pages. Store
    /// metadata, taxonomy and registries are copied from the ground
    /// truth (the paper likewise knew each store's identity and
    /// category list out of band); snapshots and comments come from the
    /// wire.
    pub dataset: Dataset,
    /// Crawl statistics.
    pub report: CrawlReport,
}

/// Crawls every day of the ground-truth campaign through the simulated
/// network and reassembles the dataset.
///
/// `updates_out_of_band`: version changes are *derived* from the crawled
/// app pages (a version bump between consecutive daily observations is
/// recorded as an update event), exactly how the paper detected updates
/// from its daily APK/version diffs.
pub fn run_campaign(
    server: &MarketplaceServer<'_>,
    ground_truth: &Dataset,
    pool: &mut ProxyPool,
    region: Option<Region>,
    faults: FaultPlan,
    seed: Seed,
) -> Result<CampaignOutcome, CrawlError> {
    let mut client = CrawlerClient::new(region, faults, seed);
    let mut report = CrawlReport::default();
    let mut snapshots: Vec<DailySnapshot> = Vec::new();
    let mut comments: Vec<CommentEvent> = Vec::new();
    let mut updates: Vec<UpdateEvent> = Vec::new();
    // Last seen version per app id, to derive update events.
    let mut last_version: Vec<Option<u32>> = vec![None; ground_truth.apps.len()];

    let days: Vec<Day> = ground_truth.snapshots.iter().map(|s| s.day).collect();
    for (day_index, &day) in days.iter().enumerate() {
        appstore_obs::span(
            appstore_obs::names::SPAN_CRAWL_DAY,
            || -> Result<(), CrawlError> {
                // A new virtual day begins every 24h of virtual time; crawling
                // is much faster than a day, so the clock jumps forward.
                client.advance_to(day_index as u64 * 86_400_000);

                let (snapshot, mut day_updates) = crawl_app_pages(
                    &mut client,
                    server,
                    pool,
                    day,
                    &mut last_version,
                    &mut report,
                )?;
                snapshots.push(snapshot);
                updates.append(&mut day_updates);
                comments.append(&mut crawl_comment_pages(
                    &mut client,
                    server,
                    pool,
                    day,
                    &mut report,
                )?);
                Ok(())
            },
        )?;
    }

    report.days = days.len() as u32;
    report.virtual_ms = client.now_ms();
    report.absorb(client.stats);
    report.flush_metrics();

    let dataset = Dataset {
        store: ground_truth.store.clone(),
        categories: ground_truth.categories.clone(),
        apps: ground_truth.apps.clone(),
        developers: ground_truth.developers.clone(),
        snapshots,
        comments,
        updates,
    };
    Ok(CampaignOutcome { dataset, report })
}

/// The first half of a crawl day, up to the mid-day crash point:
/// discovers the day's app directory, then fetches every app page.
/// Update events are derived from version bumps against `last_version`,
/// which this call advances.
fn crawl_app_pages(
    client: &mut CrawlerClient,
    server: &MarketplaceServer<'_>,
    pool: &mut ProxyPool,
    day: Day,
    last_version: &mut [Option<u32>],
    report: &mut CrawlReport,
) -> Result<(DailySnapshot, Vec<UpdateEvent>), CrawlError> {
    let index = client.fetch(server, pool, Request::Index { day })?;
    let Response::Index { apps } = index else {
        return Err(CrawlError::RetriesExhausted {
            last: crate::wire::WireError::Corrupt,
        });
    };
    let mut observations = Vec::with_capacity(apps.len());
    let mut updates = Vec::new();
    for app in apps {
        match client.fetch(server, pool, Request::AppPage { app, day }) {
            Ok(Response::AppPage { observation }) => {
                report.app_pages += 1;
                if let Some(previous) = last_version[observation.app.index()] {
                    if observation.version > previous {
                        updates.push(UpdateEvent {
                            app: observation.app,
                            day,
                            version: observation.version,
                        });
                    }
                }
                last_version[observation.app.index()] = Some(observation.version);
                observations.push(observation);
            }
            Ok(_) | Err(CrawlError::NotFound) => {
                report.failed_pages += 1;
            }
            Err(e) => return Err(e),
        }
    }
    observations.sort_by_key(|o| o.app);
    Ok((DailySnapshot { day, observations }, updates))
}

/// The second half of a crawl day: pulls the day's comment pages until
/// the server reports no more.
fn crawl_comment_pages(
    client: &mut CrawlerClient,
    server: &MarketplaceServer<'_>,
    pool: &mut ProxyPool,
    day: Day,
    report: &mut CrawlReport,
) -> Result<Vec<CommentEvent>, CrawlError> {
    let mut comments = Vec::new();
    let mut page = 0u32;
    loop {
        match client.fetch(server, pool, Request::CommentsPage { day, page }) {
            Ok(Response::CommentsPage {
                comments: mut batch,
                has_more,
            }) => {
                report.comment_pages += 1;
                comments.append(&mut batch);
                if !has_more {
                    break;
                }
                page += 1;
            }
            Ok(_) | Err(CrawlError::NotFound) => break,
            Err(e) => return Err(e),
        }
    }
    Ok(comments)
}

/// Campaign-level fault injection: where a resumable run crashes.
///
/// Both points are day *indexes* into the campaign (0-based). A crash is
/// surfaced as [`CampaignError::Crashed`]; the journal written so far
/// stays intact, and a subsequent [`run_campaign_resumable`] on the same
/// journal continues from it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignFaultPlan {
    /// Crash right after day N is checkpointed (`DayComplete` flushed).
    pub crash_after_day: Option<u32>,
    /// Crash in the middle of day N: after the day's snapshot is
    /// flushed, before its comments, updates, and `DayComplete` marker —
    /// leaving a partially-written day in the journal.
    pub crash_mid_day: Option<u32>,
}

impl CampaignFaultPlan {
    /// A plan with no injected crashes.
    pub const NONE: CampaignFaultPlan = CampaignFaultPlan {
        crash_after_day: None,
        crash_mid_day: None,
    };
}

/// Errors from a resumable campaign run.
#[derive(Debug)]
pub enum CampaignError {
    /// The crawl itself failed (retries exhausted, no proxies, ...).
    Crawl(CrawlError),
    /// The journal could not be written.
    Storage(StorageError),
    /// An injected [`CampaignFaultPlan`] crash fired while working on
    /// `day`. The journal remains valid up to the crash point.
    Crashed {
        /// The day being crawled when the crash fired.
        day: Day,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Crawl(e) => write!(f, "campaign crawl error: {e}"),
            CampaignError::Storage(e) => write!(f, "campaign storage error: {e}"),
            CampaignError::Crashed { day } => {
                write!(f, "injected crash while crawling day {}", day.0)
            }
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<CrawlError> for CampaignError {
    fn from(e: CrawlError) -> CampaignError {
        CampaignError::Crawl(e)
    }
}

impl From<StorageError> for CampaignError {
    fn from(e: StorageError) -> CampaignError {
        CampaignError::Storage(e)
    }
}

/// What a (possibly resumed) campaign run produced.
#[derive(Debug, Clone)]
pub struct ResumeOutcome {
    /// The dataset as replayed from the journal after this run — i.e.
    /// what an analysis reading the journal would see.
    pub dataset: Dataset,
    /// Statistics of *this run only* (resumed days are not re-counted).
    pub report: CrawlReport,
    /// Day index this run started crawling at (0 for a fresh campaign;
    /// `days` when the journal was already complete).
    pub resumed_at: usize,
    /// Health of the pre-existing journal as found at startup.
    pub initial_health: JournalHealth,
}

/// Puts a replayed dataset into canonical order.
///
/// A recovered journal can interleave records out of order: a record
/// destroyed by corruption is re-crawled on resume and appended *after*
/// records that survived. Replay preserves first-occurrence order, so
/// the recovered vectors end up day-shuffled. Sorting by each record's
/// natural key — snapshots by day, comments by `(day, user, seq)`,
/// updates by `(day, app, version)`, registries by id — yields the same
/// dataset no matter what crash/corruption history produced the journal,
/// which is what lets recovery tests assert byte-identical convergence.
pub fn canonicalize(dataset: &mut Dataset) {
    dataset.apps.sort_by_key(|a| a.id);
    dataset.developers.sort_by_key(|d| d.id);
    dataset.snapshots.sort_by_key(|s| s.day);
    dataset
        .comments
        .sort_by_key(|c| (c.day, c.user, c.seq, c.app));
    dataset.updates.sort_by_key(|u| (u.day, u.app, u.version));
}

/// Checkpointed variant of [`run_campaign`]: crawls into `journal`,
/// flushing every completed day, and resumes from whatever the journal
/// already contains.
///
/// On startup the journal is replayed with [`read_journal_lossy`]: the
/// last contiguous `DayComplete` checkpoint determines the resume point,
/// quarantined lines are skipped, and a damaged or missing header starts
/// the campaign over. Each crawl day uses a fresh client seeded by the
/// day index (`seed.child_indexed("day", index)`), so a re-crawled day
/// replays the exact request stream of the uninterrupted run and the
/// deduplicating journal replay converges to the identical dataset — the
/// core crash-consistency guarantee the recovery tests assert.
#[allow(clippy::too_many_arguments)]
pub fn run_campaign_resumable(
    server: &MarketplaceServer<'_>,
    ground_truth: &Dataset,
    pool: &mut ProxyPool,
    region: Option<Region>,
    faults: FaultPlan,
    crashes: CampaignFaultPlan,
    seed: Seed,
    journal: &mut Vec<u8>,
) -> Result<ResumeOutcome, CampaignError> {
    let days: Vec<Day> = ground_truth.snapshots.iter().map(|s| s.day).collect();

    // Replay whatever survived in the journal.
    let (replayed, initial_health) = read_journal_lossy(journal.as_slice());
    let fresh = replayed.is_none();
    if fresh {
        // No usable header: whatever bytes are present are unrecoverable.
        journal.clear();
    }
    // Only *trusted* checkpoints count: a day whose journal segment
    // contains quarantined lines lost records and must re-crawl.
    let done: HashSet<u32> = initial_health.trusted_days().iter().map(|d| d.0).collect();
    let resume_index = if fresh {
        0
    } else {
        days.iter().take_while(|d| done.contains(&d.0)).count()
    };

    // Rebuild the per-app version ledger from the *completed* days, so
    // update derivation continues exactly where the crashed run left off
    // (partially-flushed days are re-crawled, not trusted).
    let mut last_version: Vec<Option<u32>> = vec![None; ground_truth.apps.len()];
    if let Some(replayed) = &replayed {
        let completed = &days[..resume_index];
        let mut prefix: Vec<&DailySnapshot> = replayed
            .snapshots
            .iter()
            .filter(|s| completed.contains(&s.day))
            .collect();
        prefix.sort_by_key(|s| s.day);
        for snapshot in prefix {
            for obs in &snapshot.observations {
                last_version[obs.app.index()] = Some(obs.version);
            }
        }
    }

    let mut out = if fresh {
        let mut out =
            JournalWriter::create(&mut *journal, &ground_truth.store, &ground_truth.categories)?;
        // Registries are known out of band (as the paper knew each
        // store's identity and taxonomy); flush them up front.
        out.append_chunked(&ground_truth.apps, Record::Apps)?;
        out.append_chunked(&ground_truth.developers, Record::Developers)?;
        out
    } else {
        // A non-fresh journal replayed a header; a missing dataset here
        // means the journal bytes changed under us — surface it as the
        // typed storage error instead of panicking.
        let Some(replayed) = replayed.as_ref() else {
            return Err(CampaignError::Storage(StorageError::MissingHeader));
        };
        let mut out = JournalWriter::resume(&mut *journal);
        // Re-flush registry entries lost to corruption or truncation;
        // replay dedup keeps exactly one copy of each.
        if replayed.apps.len() < ground_truth.apps.len() {
            let seen: HashSet<u32> = replayed.apps.iter().map(|a| a.id.0).collect();
            let missing: Vec<_> = ground_truth
                .apps
                .iter()
                .filter(|a| !seen.contains(&a.id.0))
                .cloned()
                .collect();
            out.append_chunked(&missing, Record::Apps)?;
        }
        if replayed.developers.len() < ground_truth.developers.len() {
            let seen: HashSet<u32> = replayed.developers.iter().map(|d| d.id.0).collect();
            let missing: Vec<_> = ground_truth
                .developers
                .iter()
                .filter(|d| !seen.contains(&d.id.0))
                .cloned()
                .collect();
            out.append_chunked(&missing, Record::Developers)?;
        }
        out
    };

    appstore_obs::gauge(appstore_obs::names::CRAWL_RESUME_INDEX, resume_index as i64);
    let mut report = CrawlReport::default();
    for (day_index, &day) in days.iter().enumerate().skip(resume_index) {
        appstore_obs::span(
            appstore_obs::names::SPAN_CRAWL_DAY,
            || -> Result<(), CampaignError> {
                // A fresh client per day, seeded by the day index: the request
                // stream of day N is identical whether or not the process died
                // and restarted in between.
                let mut client =
                    CrawlerClient::new(region, faults, seed.child_indexed("day", day_index as u64));
                client.advance_to(day_index as u64 * 86_400_000);

                let (snapshot, day_updates) = crawl_app_pages(
                    &mut client,
                    server,
                    pool,
                    day,
                    &mut last_version,
                    &mut report,
                )?;
                out.append(&Record::Snapshot(snapshot))?;

                if crashes.crash_mid_day == Some(day_index as u32) {
                    // Simulated process death: snapshot flushed, the rest of
                    // the day (comments, updates, checkpoint) lost.
                    return Err(CampaignError::Crashed { day });
                }

                let day_comments =
                    crawl_comment_pages(&mut client, server, pool, day, &mut report)?;
                out.append_chunked(&day_comments, Record::Comments)?;
                if !day_updates.is_empty() {
                    out.append_chunked(&day_updates, Record::Updates)?;
                }

                // Checkpoint: the day is durable.
                out.day_complete(day)?;
                report.days += 1;
                report.virtual_ms = report.virtual_ms.max(client.now_ms());
                report.absorb(client.stats);

                if crashes.crash_after_day == Some(day_index as u32) {
                    return Err(CampaignError::Crashed { day });
                }
                Ok(())
            },
        )?;
    }
    report.flush_metrics();

    // The dataset is whatever the journal now replays to — the analysis
    // pipeline reads the same bytes. Canonical order makes the result
    // independent of the crash/corruption history behind the journal.
    let (dataset, _) = read_journal_lossy(journal.as_slice());
    // This run wrote (or resumed past) a header, so replay must yield a
    // dataset; anything else is a storage-layer failure, not a bug to
    // panic over.
    let Some(mut dataset) = dataset else {
        return Err(CampaignError::Storage(StorageError::MissingHeader));
    };
    canonicalize(&mut dataset);
    Ok(ResumeOutcome {
        dataset,
        report,
        resumed_at: resume_index,
        initial_health,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::server::ServerPolicy;
    use appstore_core::StoreId;
    use appstore_synth::{generate, StoreProfile};

    fn ground_truth() -> Dataset {
        let mut profile = StoreProfile::anzhi().scaled_down(40);
        profile.commenter_fraction = 0.5;
        profile.comment_rate = 0.10;
        profile.spam_users = 1;
        profile.spam_comments_each = 30;
        generate(&profile, StoreId(0), Seed::new(11)).dataset
    }

    #[test]
    fn clean_crawl_is_lossless() {
        let truth = ground_truth();
        let server = MarketplaceServer::new(
            &truth,
            ServerPolicy {
                requests_per_second: 1_000.0,
                burst: 1_000,
                ..ServerPolicy::default()
            },
        );
        let mut pool = ProxyPool::planetlab(0, 10);
        let outcome = run_campaign(
            &server,
            &truth,
            &mut pool,
            None,
            FaultPlan::default(),
            Seed::new(12),
        )
        .unwrap();
        // Snapshots identical to ground truth.
        assert_eq!(outcome.dataset.snapshots, truth.snapshots);
        // All comments harvested (order may differ within a day).
        assert_eq!(outcome.dataset.comments.len(), truth.comments.len());
        // Update events match the ground truth's within campaign days
        // (updates on day 0 are invisible: no previous version to diff).
        let observable: Vec<&UpdateEvent> = truth
            .updates
            .iter()
            .filter(|u| u.day > Day(0) && u.app.index() < truth.apps.len())
            .filter(|u| truth.apps[u.app.index()].created < u.day || u.day > Day(0))
            .collect();
        // Derived updates can merge multiple same-day bumps into one, so
        // compare per-app final versions instead of raw event counts.
        let final_crawled: &DailySnapshot = outcome.dataset.snapshots.last().unwrap();
        let final_truth = truth.last();
        assert_eq!(final_crawled, final_truth);
        assert!(outcome.dataset.updates.len() <= observable.len() + truth.updates.len());
        assert!(outcome.dataset.validate().is_ok());
        assert_eq!(outcome.report.failed_pages, 0);
        assert_eq!(outcome.report.days, truth.snapshots.len() as u32);
    }

    #[test]
    fn faulty_crawl_still_converges() {
        let truth = ground_truth();
        let server = MarketplaceServer::new(
            &truth,
            ServerPolicy {
                requests_per_second: 2_000.0,
                burst: 2_000,
                ..ServerPolicy::default()
            },
        );
        let mut pool = ProxyPool::planetlab(0, 20);
        let outcome = run_campaign(
            &server,
            &truth,
            &mut pool,
            None,
            FaultPlan {
                drop_chance: 0.15,
                corrupt_chance: 0.15,
            },
            Seed::new(13),
        )
        .unwrap();
        assert_eq!(outcome.dataset.snapshots, truth.snapshots);
        assert!(outcome.report.retries > 0);
        assert!(outcome.report.dropped > 0 || outcome.report.corrupted > 0);
        assert_eq!(outcome.report.failed_pages, 0);
    }

    #[test]
    fn rate_limited_crawl_finishes_in_bounded_virtual_time() {
        let truth = ground_truth();
        let server = MarketplaceServer::new(
            &truth,
            ServerPolicy {
                requests_per_second: 50.0,
                burst: 50,
                ..ServerPolicy::default()
            },
        );
        let mut pool = ProxyPool::planetlab(0, 10);
        let outcome = run_campaign(
            &server,
            &truth,
            &mut pool,
            None,
            FaultPlan::default(),
            Seed::new(14),
        )
        .unwrap();
        assert_eq!(outcome.dataset.snapshots, truth.snapshots);
        // The campaign must not exceed one virtual day per ground-truth
        // day (plus one tail day of slack).
        let budget = (truth.snapshots.len() as u64 + 1) * 86_400_000;
        assert!(
            outcome.report.virtual_ms < budget,
            "virtual time {} exceeds budget {}",
            outcome.report.virtual_ms,
            budget
        );
    }

    fn quiet_server(truth: &Dataset) -> MarketplaceServer<'_> {
        MarketplaceServer::new(
            truth,
            ServerPolicy {
                requests_per_second: 1_000.0,
                burst: 1_000,
                ..ServerPolicy::default()
            },
        )
    }

    #[test]
    fn resumable_uninterrupted_crawl_is_lossless() {
        let truth = ground_truth();
        let server = quiet_server(&truth);
        let mut pool = ProxyPool::planetlab(0, 10);
        let mut journal = Vec::new();
        let outcome = run_campaign_resumable(
            &server,
            &truth,
            &mut pool,
            None,
            FaultPlan::default(),
            CampaignFaultPlan::NONE,
            Seed::new(21),
            &mut journal,
        )
        .unwrap();
        assert_eq!(outcome.resumed_at, 0);
        assert_eq!(outcome.dataset.snapshots, truth.snapshots);
        assert_eq!(outcome.dataset.apps, truth.apps);
        assert_eq!(outcome.dataset.comments.len(), truth.comments.len());
        assert!(outcome.dataset.validate().is_ok());
        // Every day is checkpointed in the journal.
        let (_, health) = read_journal_lossy(journal.as_slice());
        assert_eq!(health.days_complete.len(), truth.snapshots.len());
        assert!(health.is_clean());
    }

    #[test]
    fn crash_after_checkpoint_resumes_and_converges() {
        let truth = ground_truth();
        let server = quiet_server(&truth);
        let seed = Seed::new(22);

        // Reference: uninterrupted resumable run.
        let mut reference_journal = Vec::new();
        let reference = run_campaign_resumable(
            &server,
            &truth,
            &mut ProxyPool::planetlab(0, 10),
            None,
            FaultPlan::default(),
            CampaignFaultPlan::NONE,
            seed,
            &mut reference_journal,
        )
        .unwrap();

        // Crashed run: dies right after day 1's checkpoint.
        let mut journal = Vec::new();
        let mut pool = ProxyPool::planetlab(0, 10);
        let err = run_campaign_resumable(
            &server,
            &truth,
            &mut pool,
            None,
            FaultPlan::default(),
            CampaignFaultPlan {
                crash_after_day: Some(1),
                crash_mid_day: None,
            },
            seed,
            &mut journal,
        )
        .unwrap_err();
        assert!(matches!(err, CampaignError::Crashed { day: Day(1) }));

        // Restart on the same journal with no crashes.
        let resumed = run_campaign_resumable(
            &server,
            &truth,
            &mut ProxyPool::planetlab(0, 10),
            None,
            FaultPlan::default(),
            CampaignFaultPlan::NONE,
            seed,
            &mut journal,
        )
        .unwrap();
        assert_eq!(resumed.resumed_at, 2, "days 0 and 1 were checkpointed");
        assert_eq!(resumed.dataset, reference.dataset);
    }

    #[test]
    fn crash_mid_day_leaves_a_partial_day_that_replays_cleanly() {
        let truth = ground_truth();
        let server = quiet_server(&truth);
        let seed = Seed::new(23);

        let mut reference_journal = Vec::new();
        let reference = run_campaign_resumable(
            &server,
            &truth,
            &mut ProxyPool::planetlab(0, 10),
            None,
            FaultPlan::default(),
            CampaignFaultPlan::NONE,
            seed,
            &mut reference_journal,
        )
        .unwrap();

        let mut journal = Vec::new();
        let err = run_campaign_resumable(
            &server,
            &truth,
            &mut ProxyPool::planetlab(0, 10),
            None,
            FaultPlan::default(),
            CampaignFaultPlan {
                crash_after_day: None,
                crash_mid_day: Some(2),
            },
            seed,
            &mut journal,
        )
        .unwrap_err();
        assert!(matches!(err, CampaignError::Crashed { day: Day(2) }));

        let resumed = run_campaign_resumable(
            &server,
            &truth,
            &mut ProxyPool::planetlab(0, 10),
            None,
            FaultPlan::default(),
            CampaignFaultPlan::NONE,
            seed,
            &mut journal,
        )
        .unwrap();
        // Day 2 was partially flushed (snapshot only) and re-crawled:
        // the duplicate snapshot is deduplicated on replay.
        assert_eq!(resumed.resumed_at, 2);
        assert!(resumed.initial_health.days_complete.len() == 2);
        assert_eq!(resumed.dataset, reference.dataset);
        let (_, health) = read_journal_lossy(journal.as_slice());
        assert!(health.records_deduplicated > 0, "partial day overlaps");
    }

    #[test]
    fn completed_journal_resumes_as_a_no_op() {
        let truth = ground_truth();
        let server = quiet_server(&truth);
        let seed = Seed::new(24);
        let mut journal = Vec::new();
        let first = run_campaign_resumable(
            &server,
            &truth,
            &mut ProxyPool::planetlab(0, 10),
            None,
            FaultPlan::default(),
            CampaignFaultPlan::NONE,
            seed,
            &mut journal,
        )
        .unwrap();
        let len_before = journal.len();
        let second = run_campaign_resumable(
            &server,
            &truth,
            &mut ProxyPool::planetlab(0, 10),
            None,
            FaultPlan::default(),
            CampaignFaultPlan::NONE,
            seed,
            &mut journal,
        )
        .unwrap();
        assert_eq!(second.resumed_at, truth.snapshots.len());
        assert_eq!(second.report.requests, 0, "nothing left to crawl");
        assert_eq!(journal.len(), len_before, "no bytes appended");
        assert_eq!(second.dataset, first.dataset);
    }

    #[test]
    fn china_only_store_is_crawlable_through_chinese_proxies() {
        let truth = ground_truth();
        let server = MarketplaceServer::new(
            &truth,
            ServerPolicy {
                requests_per_second: 500.0,
                burst: 500,
                china_only: true,
                ..ServerPolicy::default()
            },
        );
        let mut pool = ProxyPool::planetlab(8, 8);
        let outcome = run_campaign(
            &server,
            &truth,
            &mut pool,
            Some(Region::China),
            FaultPlan::default(),
            Seed::new(15),
        )
        .unwrap();
        assert_eq!(outcome.dataset.snapshots, truth.snapshots);
    }
}
