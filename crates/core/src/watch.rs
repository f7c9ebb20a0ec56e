//! `rdx watch`: a supervised, self-healing continuous-analysis daemon.
//!
//! Operators push router configs a few at a time; the analysis must keep
//! answering queries through bad pushes, partial writes, and transient
//! failures. [`Watcher`] polls a config directory for changes — a cheap
//! mtime/size sweep first, then per-router FNV fingerprints
//! ([`crate::diff::config_fingerprint`]) so cosmetic churn (comments,
//! whitespace, `!` separators) never triggers a rebuild — debounced so a
//! mid-push partial state coalesces into one re-analysis. Rebuilds run
//! through the incremental delta engine
//! ([`DeltaEngine`](crate::incremental::DeltaEngine)): only the networks
//! the change actually touched are re-analyzed, every other network's
//! encoded snapshot bytes splice through unchanged, and the output stays
//! byte-identical to a cold run. Analysis runs
//! in a failure-isolated worker: a panic, a parse failure, or an
//! over-budget network ([`nettopo::error_budget`]) marks the attempt
//! failed without touching the serving snapshot. Results persist through
//! the crash-safe [`rd_snap::write_atomic`] and publish into the
//! co-hosted `rd-serve` instance via its atomic-Arc swap
//! ([`rd_serve::Controller::publish`]), so the last-good snapshot keeps
//! serving whenever the new analysis fails.
//!
//! Failure handling is a small state machine surfaced at `/healthz` and
//! `/admin/debug/watch`:
//!
//! - `fresh` — the served snapshot reflects the latest config state;
//! - `stale-serving-last-good` — the latest attempt failed, last-good
//!   serves, a retry is scheduled with exponential backoff plus
//!   `rd_rng` jitter (so a fleet of watchers never thunders in sync);
//! - `degraded` — [`WatchOptions::degraded_after`] consecutive failures;
//!   `/healthz` turns 503 while queries still answer from last-good.
//!
//! A successful publish — or the configs reverting to the last published
//! state — converges back to `fresh` and resets the backoff.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rd_chaos::DiskFault;
use rd_rng::StdRng;
use rd_serve::{Controller, HealthState, ServeOptions, Server, WatchStatus};
use rd_snap::Corpus;

use crate::diff::config_fingerprint;
use crate::incremental::DeltaEngine;
use crate::layout::{ConfigFile, Layout};
use crate::snapshot::snap_dir;

/// Supervisor tuning knobs.
#[derive(Clone, Debug)]
pub struct WatchOptions {
    /// How often the config directory is scanned.
    pub poll_interval: Duration,
    /// How long the directory must be quiet after a change before
    /// re-analysis — mid-push partial states coalesce into one rebuild.
    pub debounce: Duration,
    /// First retry delay after a failed analysis; doubles per
    /// consecutive failure.
    pub backoff_base: Duration,
    /// Retry delay ceiling (jitter excluded).
    pub backoff_max: Duration,
    /// Consecutive failures before `stale-serving-last-good` escalates
    /// to `degraded` (and `/healthz` turns 503).
    pub degraded_after: u32,
    /// Seed for the backoff jitter (and any injected faults).
    pub seed: u64,
}

impl Default for WatchOptions {
    fn default() -> WatchOptions {
        WatchOptions {
            poll_interval: Duration::from_millis(500),
            debounce: Duration::from_millis(1000),
            backoff_base: Duration::from_millis(1000),
            backoff_max: Duration::from_secs(60),
            degraded_after: 3,
            seed: 0,
        }
    }
}

/// The outcome of one [`Watcher::tick`], for callers that drive the
/// watcher manually (tests, the chaos soak).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tick {
    /// Nothing to do: no change pending, serving state is current.
    Idle,
    /// A change is pending but still inside the debounce window or the
    /// retry backoff.
    Waiting,
    /// An analysis attempt ran and published successfully.
    Published,
    /// An analysis attempt ran and failed; last-good keeps serving.
    Failed,
}

/// The supervised continuous-analysis loop. Create with [`Watcher::new`]
/// against a running server's [`Controller`], then either [`run`]
/// (daemon) or [`tick`](Watcher::tick) manually (tests, soak harnesses).
///
/// [`run`]: Watcher::run
pub struct Watcher {
    dir: PathBuf,
    snapshot_path: PathBuf,
    ctrl: Controller,
    opts: WatchOptions,
    rng: StdRng,
    /// The incremental re-analysis engine: rebuild ticks recompute only
    /// the networks the debounced change actually touched and splice
    /// every other network's snapshot bytes through unchanged
    /// (`incr.*` metrics record the split).
    engine: DeltaEngine,
    /// Cheap signature (names + sizes + mtimes) of the last scan;
    /// fingerprints are only recomputed when it moves.
    scan_sig: u64,
    /// Per-config semantic fingerprints of the latest observed state.
    latest: BTreeMap<String, u64>,
    /// Fingerprints at the last successful publish (what is serving).
    published: BTreeMap<String, u64>,
    /// When `latest` last changed — the debounce clock. `None` once the
    /// change has been acted on (or at a quiet start).
    changed_at: Option<Instant>,
    /// Earliest time the next analysis attempt may run (backoff gate).
    next_attempt: Instant,
    consecutive_failures: u32,
    status: WatchStatus,
    /// One-shot injected persist fault (chaos soak / tests).
    inject_fault: Option<DiskFault>,
    /// One-shot injected analysis panic (failure-isolation tests).
    inject_panic: bool,
}

impl Watcher {
    /// Builds a watcher over `dir`, persisting snapshots to
    /// `snapshot_path` and publishing into `ctrl`. The initial scan's
    /// fingerprints are taken as *published* — correct when the server
    /// was just booted from a fresh analysis of the same directory. If
    /// the server booted from a previously persisted (possibly stale)
    /// snapshot instead, follow with [`mark_boot_stale`], which forces
    /// the first tick to re-analyze.
    ///
    /// [`mark_boot_stale`]: Watcher::mark_boot_stale
    pub fn new(dir: &Path, snapshot_path: &Path, ctrl: Controller, opts: WatchOptions) -> Watcher {
        let mut w = Watcher {
            dir: dir.to_path_buf(),
            snapshot_path: snapshot_path.to_path_buf(),
            ctrl,
            rng: StdRng::seed_from_u64(opts.seed ^ 0x77a7c8_57a7e5),
            engine: DeltaEngine::new(dir),
            opts,
            scan_sig: 0,
            latest: BTreeMap::new(),
            published: BTreeMap::new(),
            changed_at: None,
            next_attempt: Instant::now(),
            consecutive_failures: 0,
            status: WatchStatus::default(),
            inject_fault: None,
            inject_panic: false,
        };
        let (sig, prints) = w.scan();
        w.scan_sig = sig;
        w.latest = prints.unwrap_or_default();
        w.published = w.latest.clone();
        w.status.fingerprints = w.latest.len();
        w.publish_status();
        w
    }

    /// Declares the serving snapshot potentially stale (booted from a
    /// persisted file): the first tick re-analyzes regardless of whether
    /// the configs changed since.
    pub fn mark_boot_stale(&mut self) {
        self.published.clear();
    }

    /// Seeds the incremental engine from persisted snapshot container
    /// bytes (the boot snapshot): the first rebuild tick then re-analyzes
    /// only the networks whose config files no longer hash the way the
    /// snapshot recorded. Returns false (and leaves the engine cold) when
    /// the bytes do not decode.
    pub fn seed_from_snapshot(&mut self, bytes: &[u8]) -> bool {
        self.engine.seed_from_snapshot(bytes).is_ok()
    }

    /// Arms a one-shot injected panic inside the next analysis attempt —
    /// how tests prove a worker panic cannot take the daemon down.
    pub fn inject_analysis_panic(&mut self) {
        self.inject_panic = true;
    }

    /// Arms a one-shot disk fault for the next snapshot persist.
    pub fn inject_disk_fault(&mut self, fault: DiskFault) {
        self.inject_fault = Some(fault);
    }

    /// The server's current health state.
    pub fn health(&self) -> HealthState {
        self.ctrl.health()
    }

    /// Successful publishes since the watcher started.
    pub fn generation(&self) -> u64 {
        self.status.generation
    }

    /// Failed attempts since the last success.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// Failed attempts over the watcher's whole lifetime.
    pub fn total_failures(&self) -> u64 {
        self.status.failures
    }

    /// True when the serving snapshot reflects the latest observed
    /// config state (nothing pending).
    pub fn settled(&self) -> bool {
        self.latest == self.published
    }

    /// One poll cycle: scan, debounce, and — when a change is due and
    /// the backoff allows — re-analyze, persist, and publish.
    pub fn tick(&mut self) -> Tick {
        let _span = rd_obs::span!("watch.tick");
        rd_obs::metrics::counter_add("watch.scans", 1);
        let now = Instant::now();

        let (sig, prints) = self.scan();
        if sig != self.scan_sig {
            self.scan_sig = sig;
            let prints = prints.unwrap_or_default();
            if prints != self.latest {
                // A semantic change (cosmetic churn fingerprints
                // identically and falls through). Restart the debounce
                // window so a push in progress coalesces.
                self.latest = prints;
                self.changed_at = Some(now);
                self.status.last_change_ms = self.ctrl.uptime_ms();
                self.status.fingerprints = self.latest.len();
                rd_obs::metrics::counter_add("watch.changes", 1);
                self.publish_status();
            }
        }

        if self.settled() {
            // Nothing pending. If we were failing and the configs
            // reverted to the last published state, the served snapshot
            // is current again: converge back to fresh.
            if self.consecutive_failures > 0 {
                self.clear_failures();
                self.ctrl.set_health(HealthState::Fresh);
                self.publish_status();
            }
            self.changed_at = None;
            return Tick::Idle;
        }
        if let Some(at) = self.changed_at {
            if now.duration_since(at) < self.opts.debounce {
                return Tick::Waiting;
            }
        }
        if now < self.next_attempt {
            return Tick::Waiting;
        }
        self.changed_at = None;
        if self.attempt() {
            Tick::Published
        } else {
            Tick::Failed
        }
    }

    /// The daemon loop: tick at `poll_interval` until the co-hosted
    /// server shuts down (signal or programmatic).
    pub fn run(mut self) {
        while !self.ctrl.is_shutdown() {
            self.tick();
            std::thread::sleep(self.opts.poll_interval);
        }
    }

    /// One failure-isolated analyze → persist → publish attempt.
    /// Returns true on publish.
    fn attempt(&mut self) -> bool {
        let _span = rd_obs::span!("watch.analyze");
        let attempt_prints = self.latest.clone();
        let inject_panic = std::mem::take(&mut self.inject_panic);

        // The worker: anything it throws — an injected panic, a parser
        // bug, an allocation failure surfaced as panic — is caught here
        // and handled as a failed attempt. The daemon itself never dies.
        // The delta engine recomputes only the networks the change
        // touched and splices the rest through (it commits its cache
        // only after a complete pass, so a panic here cannot leave it
        // half-updated).
        let engine = &mut self.engine;
        let result = catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!("injected analysis panic");
            }
            engine.refresh()
        }));
        let (corpus, bytes) = match result {
            Err(payload) => {
                rd_obs::metrics::counter_add("watch.analysis_panics", 1);
                let what = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".to_string());
                return self.fail(format!("analysis panicked: {what}"));
            }
            Ok(Err(e)) => return self.fail(format!("analysis failed: {e}")),
            Ok(Ok(refresh)) => {
                let outcome = refresh.outcome;
                if !outcome.dropped.is_empty() {
                    // Over-budget parse damage: publishing would silently
                    // shrink the corpus. Keep last-good serving instead.
                    let names: Vec<&str> =
                        outcome.dropped.iter().map(|d| d.name.as_str()).collect();
                    return self.fail(format!(
                        "{} network(s) over error budget: {}",
                        outcome.dropped.len(),
                        names.join(", ")
                    ));
                }
                if outcome.corpus.networks.iter().all(|n| n.network.routers.is_empty()) {
                    // A vanished or emptied config dir analyzes "cleanly"
                    // into zero routers. Publishing that would wipe the
                    // served corpus on what is far more likely a broken
                    // push (rm + copy in flight) than a real decommission
                    // of every router at once. Keep last-good.
                    return self.fail("analysis produced an empty corpus".to_string());
                }
                (outcome.corpus, refresh.bytes)
            }
        };

        let persisted = match self.inject_fault.take() {
            Some(fault) => {
                rd_chaos::faulty_persist(&mut self.rng, fault, &self.snapshot_path, &bytes)
            }
            None => rd_snap::write_atomic(&self.snapshot_path, &bytes),
        };
        if let Err(e) = persisted {
            // The staging `.tmp` may be torn; last-good under the final
            // name is untouched by design. Serve memory? No: a snapshot
            // we could not persist is a snapshot a restart would lose —
            // treat the attempt as failed and retry whole.
            return self.fail(format!("snapshot persist failed: {e}"));
        }

        let _publish = rd_obs::span!("watch.publish");
        self.ctrl.publish(corpus, rd_snap::trailer_of(&bytes), "watch");
        self.ctrl.set_health(HealthState::Fresh);
        self.published = attempt_prints;
        self.clear_failures();
        self.status.generation += 1;
        self.status.last_publish_ms = self.ctrl.uptime_ms();
        rd_obs::metrics::counter_add("watch.publish_ok", 1);
        self.publish_status();
        true
    }

    /// Books a failed attempt: count it, keep last-good serving, move
    /// the health state, and schedule the retry with exponential backoff
    /// plus seeded jitter.
    fn fail(&mut self, error: String) -> bool {
        self.consecutive_failures += 1;
        self.status.failures += 1;
        self.status.consecutive_failures = self.consecutive_failures;
        self.status.last_error = Some(error.clone());
        self.ctrl.record_failure(&error);
        self.ctrl.set_health(if self.consecutive_failures >= self.opts.degraded_after {
            HealthState::Degraded
        } else {
            HealthState::Stale
        });

        let base_ms = self.opts.backoff_base.as_millis().max(1) as u64;
        let cap_ms = self.opts.backoff_max.as_millis().max(1) as u64;
        let exp_ms =
            base_ms.saturating_mul(1u64 << (self.consecutive_failures - 1).min(20)).min(cap_ms);
        // Up to +25% jitter so a fleet of watchers retrying against the
        // same flapping input decorrelates.
        let jitter_ms = self.rng.gen_range(0..=exp_ms / 4);
        let backoff = Duration::from_millis(exp_ms + jitter_ms);
        self.next_attempt = Instant::now() + backoff;
        self.status.backoff_ms = backoff.as_millis() as u64;

        rd_obs::metrics::counter_add("watch.publish_failed", 1);
        rd_obs::metrics::gauge_set("watch.consecutive_failures", self.consecutive_failures as i64);
        rd_obs::metrics::gauge_set("watch.backoff_ms", self.status.backoff_ms as i64);
        eprintln!(
            "rdx watch: analysis attempt failed ({error}); serving last-good, retry in {} ms",
            self.status.backoff_ms
        );
        self.publish_status();
        false
    }

    fn clear_failures(&mut self) {
        self.consecutive_failures = 0;
        self.status.consecutive_failures = 0;
        self.status.backoff_ms = 0;
        self.status.last_error = None;
        self.next_attempt = Instant::now();
        rd_obs::metrics::gauge_set("watch.consecutive_failures", 0);
        rd_obs::metrics::gauge_set("watch.backoff_ms", 0);
    }

    fn publish_status(&self) {
        self.ctrl.set_watch_status(self.status.clone());
    }

    /// Scans the config directory through its [`Layout`]: returns a
    /// cheap signature over (name, size, mtime) of every config file, and
    /// — only when the signature moved since the last scan — the
    /// per-config semantic fingerprints. Keys are `net/file` in a study
    /// and the file name in a single network; files the layout does not
    /// count (stray root files, dotfiles, snapshot artifacts) never move
    /// either, so a snapshot path inside the watched tree cannot churn
    /// the scan on every persist.
    fn scan(&self) -> (u64, Option<BTreeMap<String, u64>>) {
        let _span = rd_obs::span!("watch.scan");
        let mut entries: Vec<(String, ConfigFile)> = Vec::new();
        // An unlistable directory scans as empty: nothing to fingerprint.
        if let Ok(layout) = Layout::scan(&self.dir) {
            for unit in layout.units {
                let Ok(files) = unit.files else { continue };
                for file in files {
                    let key = if layout.study {
                        format!("{}/{}", unit.name, file.name)
                    } else {
                        file.name.clone()
                    };
                    entries.push((key, file));
                }
            }
        }
        let mut sig_bytes = Vec::with_capacity(entries.len() * 32);
        for (key, file) in &entries {
            sig_bytes.extend_from_slice(key.as_bytes());
            sig_bytes.push(0);
            sig_bytes.extend_from_slice(&file.size.to_le_bytes());
            sig_bytes.extend_from_slice(&file.mtime_nanos.to_le_bytes());
        }
        let sig = rd_snap::fnv1a64(&sig_bytes);
        if sig == self.scan_sig {
            return (sig, None);
        }
        let mut prints = BTreeMap::new();
        for (key, file) in entries {
            let Ok(bytes) = std::fs::read(&file.path) else {
                // Vanished or unreadable mid-scan: fingerprint the gap.
                prints.insert(key, 0);
                continue;
            };
            let fp = match std::str::from_utf8(&bytes) {
                // The semantic fingerprint when it parses: cosmetic
                // churn is invisible, any config change moves it.
                Ok(text) => match ioscfg::parse_config(text) {
                    Ok(config) => config_fingerprint(&config),
                    Err(_) => rd_snap::fnv1a64(&bytes),
                },
                Err(_) => rd_snap::fnv1a64(&bytes),
            };
            prints.insert(key, fp);
        }
        (sig, Some(prints))
    }
}

/// Boots the full daemon: recovery sweep, initial snapshot (from the
/// persisted last-good file when it is valid, else a fresh synchronous
/// analysis), a co-hosted server on `addr`, and the watch loop on a
/// supervisor thread. Blocks until shutdown (SIGTERM/SIGINT). This is
/// `rdx watch`.
pub fn run_daemon(
    dir: &Path,
    snapshot_path: &Path,
    addr: &str,
    watch_opts: WatchOptions,
    serve_opts: ServeOptions,
) -> Result<(), String> {
    // The snapshot must live outside the watched tree. The layout skips
    // `*.rdsnap` names, but the path is user input and a tree holding the
    // persisted artifact is a misconfiguration worth refusing outright.
    let canonical_dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let canonical_snap = snapshot_path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .and_then(|p| std::fs::canonicalize(p).ok());
    if canonical_snap.is_some_and(|p| p.starts_with(&canonical_dir)) {
        return Err(format!(
            "snapshot path {} is inside the watched directory {}; pass --snapshot \
             pointing outside it",
            snapshot_path.display(),
            dir.display()
        ));
    }

    // Crash recovery first: a torn `.tmp` from a previous life must not
    // sit where the next write_atomic stages.
    if let Some(parent) = snapshot_path.parent().filter(|p| !p.as_os_str().is_empty()) {
        let swept = rd_snap::recover_dir(parent)
            .map_err(|e| format!("recovery sweep of {} failed: {e}", parent.display()))?;
        for q in &swept {
            eprintln!("rdx watch: quarantined stale staging file -> {}", q.display());
        }
    }

    // Boot corpus: prefer the persisted last-good snapshot (instant
    // start, survives a config dir that is currently broken); fall back
    // to a fresh analysis.
    let mut boot_stale = false;
    if Corpus::read_file_with_trailer(snapshot_path).is_ok() {
        boot_stale = true;
    } else {
        let outcome = snap_dir(dir).map_err(|e| format!("initial analysis failed: {e}"))?;
        if !outcome.dropped.is_empty() {
            let names: Vec<&str> = outcome.dropped.iter().map(|d| d.name.as_str()).collect();
            return Err(format!(
                "initial analysis dropped {} network(s) ({}) and no last-good snapshot exists",
                outcome.dropped.len(),
                names.join(", ")
            ));
        }
        if outcome.corpus.networks.iter().all(|n| n.network.routers.is_empty()) {
            return Err("initial analysis produced an empty corpus".to_string());
        }
        rd_snap::write_atomic(snapshot_path, &outcome.corpus.to_bytes())
            .map_err(|e| format!("cannot persist initial snapshot: {e}"))?;
    }

    let server = Server::start_file(snapshot_path, addr, serve_opts)
        .map_err(|e| format!("cannot start server: {e}"))?;
    println!(
        "listening on http://{} ({} network(s) from {})",
        server.local_addr(),
        server.network_count(),
        snapshot_path.display()
    );
    println!("watching {} (poll {} ms, debounce {} ms)", dir.display(),
        watch_opts.poll_interval.as_millis(), watch_opts.debounce.as_millis());
    use std::io::Write as _;
    std::io::stdout().flush().ok();

    let mut watcher = Watcher::new(dir, snapshot_path, server.controller(), watch_opts);
    if boot_stale {
        watcher.mark_boot_stale();
    }
    // Both boot paths leave a valid snapshot at snapshot_path; seeding
    // the delta engine from it means the first rebuild tick re-analyzes
    // only the networks that actually changed since it was written.
    if let Ok(bytes) = std::fs::read(snapshot_path) {
        watcher.seed_from_snapshot(&bytes);
    }
    let supervisor = std::thread::Builder::new()
        .name("rdx-watch".to_string())
        .spawn(move || watcher.run())
        .map_err(|e| format!("cannot spawn watch loop: {e}"))?;
    server.run_until_shutdown();
    supervisor.join().map_err(|_| "watch loop panicked".to_string())?;
    Ok(())
}
