//! The incremental re-analysis engine: fingerprint-scoped delta
//! recomputation for config churn.
//!
//! Operational networks change a few routers at a time (Section 8.1's
//! maintenance reality), yet a cold `rdx snap` pays parse + topology +
//! routing-model cost for all 31 networks on every run. [`DeltaEngine`]
//! keeps the previous refresh's per-network state — file stats, raw-byte
//! FNV hashes, cached parse products, the finished [`NetworkSnapshot`]
//! and its encoded section payload — and on each [`refresh`] recomputes
//! only the networks whose inputs actually moved:
//!
//! 1. the `(name, size, mtime)` stats of the corpus [`Layout`] — one
//!    stat per file, taken while listing — skip networks whose directory
//!    is bit-for-bit untouched without reading any file;
//! 2. for networks the stat sweep flags, raw-byte FNV hashes
//!    ([`rd_snap::fnv1a64`]) decide file by file what really changed —
//!    a `touch` or an rsync that rewrote identical bytes reuses the
//!    cached analysis;
//! 3. changed networks re-parse **only their changed files**, splicing
//!    cached [`PreparsedFile`] products for the rest, and rebuild
//!    through the exact cold-path assembly
//!    ([`Network::from_parsed`] → [`NetworkAnalysis::from_network`]);
//! 4. unchanged networks' encoded section bytes are copied straight
//!    into the output container ([`rd_snap::assemble_container`])
//!    instead of being re-encoded.
//!
//! The result — snapshot bytes, restored corpus, and everything derived
//! from them — is **byte-identical to a cold [`snap_dir`] run at any
//! `RD_THREADS`**, because every recomputed network flows through the
//! same deterministic pipeline and every reused network contributes the
//! very bytes a cold run would re-produce. The engine can also be
//! seeded from a persisted snapshot ([`seed_from_snapshot`]): the
//! manifest footer locates each network's payload and
//! [`NetworkSnapshot::file_hashes`] carries the hashes, so a freshly
//! booted `rdx watch` daemon reuses everything that did not change
//! while it was down (the parse-product cache starts empty, so the
//! first change to a seeded network re-parses that network whole).
//!
//! Observability: each refresh runs under an `analyze.incr` profile
//! span and records `incr.networks_reused`, `incr.networks_recomputed`
//! and `incr.files_reparsed` counters plus an `incr.last_wall_us`
//! gauge.
//!
//! [`refresh`]: DeltaEngine::refresh
//! [`seed_from_snapshot`]: DeltaEngine::seed_from_snapshot
//! [`snap_dir`]: crate::snapshot::snap_dir
//! [`Layout`]: crate::layout::Layout

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use nettopo::{Network, PreparsedFile};
use rd_snap::{assemble_container, Corpus, Manifest, NetworkSnapshot, Snap, Writer};

use crate::layout::{read_configs, ConfigFile, Layout};
use crate::snapshot::{capture, DroppedNetwork, SnapOutcome};
use crate::{LoadError, NetworkAnalysis};

/// What one [`DeltaEngine::refresh`] actually did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefreshStats {
    /// Networks considered (readable or not).
    pub networks: usize,
    /// Networks whose cached analysis was reused unchanged.
    pub reused: usize,
    /// Networks re-analyzed because at least one input file moved.
    pub recomputed: usize,
    /// Config files actually fed to the parser (changed files of
    /// recomputed networks; spliced cache hits are not counted).
    pub files_reparsed: usize,
    /// Networks excluded from the output (unreadable or over the error
    /// budget) — mirrors [`SnapOutcome::dropped`].
    pub dropped: usize,
}

/// The product of one [`DeltaEngine::refresh`]: the same outcome a cold
/// [`snap_dir`](crate::snapshot::snap_dir) would return, the serialized
/// container bytes (byte-identical to `outcome.corpus.to_bytes()`), and
/// the delta statistics.
pub struct Refresh {
    /// Surviving corpus plus dropped networks, exactly as a cold run.
    pub outcome: SnapOutcome,
    /// The container bytes, spliced from cached payloads where possible.
    pub bytes: Vec<u8>,
    /// What the delta pass reused and recomputed.
    pub stats: RefreshStats,
}

/// Cached state of one network between refreshes.
struct NetCache {
    /// The network's config files (with their stats) as the layout
    /// listed them at the last refresh — the no-syscall-beyond-stat skip
    /// check. Empty on a cache seeded from a snapshot (forces one hash
    /// pass).
    stats: Vec<ConfigFile>,
    /// Raw-byte FNV-1a-64 per file, in input order.
    hashes: Vec<(String, u64)>,
    /// Parse products aligned with `hashes`; empty when seeded from a
    /// snapshot (raw parse products are not part of the artifact).
    parsed: Vec<PreparsedFile>,
    /// The finished analysis, shared with every corpus handed out — a
    /// reused network costs a refcount bump per refresh, not a deep copy.
    snap: Arc<NetworkSnapshot>,
    /// `snap`'s encoded section payload — the bytes spliced into the
    /// output container when the network is reused.
    payload: Vec<u8>,
}

/// Per-network classification produced by the (cheap, sequential) scan
/// phase of a refresh, before any parallel recomputation.
enum Work {
    /// Inputs unchanged; the cached entry (keyed by name) stands. Fresh
    /// stats ride along when the hash pass proved a stat-moved network
    /// identical (touch, same-byte rewrite).
    Reuse(Option<Vec<ConfigFile>>),
    /// Inputs changed: re-analyze from these files, splicing cached
    /// parse products for files whose hash is unchanged.
    Recompute { stats: Vec<ConfigFile>, files: Vec<(String, Vec<u8>)> },
    /// The network directory could not be listed or read.
    Unreadable(std::io::Error),
}

/// The incremental re-analysis engine. One engine watches one directory
/// (a single network or a `netN/` study layout, re-detected on every
/// refresh); its cache key is the network name, i.e. the directory
/// basename.
pub struct DeltaEngine {
    dir: PathBuf,
    nets: BTreeMap<String, NetCache>,
}

impl DeltaEngine {
    /// An engine over `dir` with an empty cache: the first
    /// [`refresh`](DeltaEngine::refresh) is a cold run that populates it.
    pub fn new(dir: &Path) -> DeltaEngine {
        DeltaEngine { dir: dir.to_path_buf(), nets: BTreeMap::new() }
    }

    /// The directory this engine analyzes.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Seeds the cache from a previously persisted container: each
    /// network's payload bytes come straight from the manifest footer and
    /// its file hashes from [`NetworkSnapshot::file_hashes`], so the next
    /// refresh reuses every network whose files still hash the same —
    /// without re-parsing or re-encoding anything. Returns the number of
    /// networks seeded. The parse-product cache starts empty, so the
    /// first *change* to a seeded network re-parses that network whole.
    pub fn seed_from_snapshot(&mut self, bytes: &[u8]) -> Result<usize, rd_snap::DecodeError> {
        let corpus = Corpus::from_bytes(bytes)?;
        let manifest = Manifest::read(bytes)?;
        let mut nets = BTreeMap::new();
        for snap in corpus.networks {
            let payload = manifest
                .payload(bytes, &snap.name)
                .map(|p| p.to_vec())
                .unwrap_or_else(|| encode_payload(&snap));
            nets.insert(
                snap.name.clone(),
                NetCache {
                    stats: Vec::new(),
                    hashes: snap.file_hashes.clone(),
                    parsed: Vec::new(),
                    snap,
                    payload,
                },
            );
        }
        let count = nets.len();
        self.nets = nets;
        Ok(count)
    }

    /// Brings the cache up to date with the directory and returns the
    /// corpus, container bytes, and delta statistics. The outputs are
    /// byte-identical to a cold [`snap_dir`](crate::snapshot::snap_dir)
    /// + `to_bytes()` of the same directory at any `RD_THREADS`; only
    /// the work done differs. A failure (I/O error in single-network
    /// mode, or a panic out of the pipeline) leaves the cache as it was
    /// — commits happen only after every network's result is in hand.
    pub fn refresh(&mut self) -> Result<Refresh, LoadError> {
        let _span = rd_obs::span!("analyze.incr");
        let started = Instant::now();
        let layout = Layout::scan(&self.dir)?;
        let warnings = layout.warnings();
        let budget = nettopo::error_budget();

        // Scan phase (sequential, cheap): compare the layout's stats,
        // then raw-byte hashes only for networks the stats flagged.
        let mut classified: Vec<(String, Work)> = Vec::with_capacity(layout.units.len());
        for unit in layout.units {
            let work = match unit.files {
                Ok(files) => self.classify(&unit.name, files),
                Err(e) => Work::Unreadable(e),
            };
            match work {
                // Single-network mode mirrors cold snap_dir: a read
                // failure is a hard error, not a dropped network.
                Work::Unreadable(e) if !layout.study => return Err(LoadError::Io(e)),
                work => classified.push((unit.name, work)),
            }
        }

        // Recompute phase: the changed networks, in parallel. Results
        // come back in input order, so output never depends on the
        // worker count.
        let todo: Vec<(&str, &[ConfigFile], &[(String, Vec<u8>)])> = classified
            .iter()
            .filter_map(|(name, work)| match work {
                Work::Recompute { stats, files } => {
                    Some((name.as_str(), stats.as_slice(), files.as_slice()))
                }
                _ => None,
            })
            .collect();
        let recomputed = rd_par::par_map(&todo, |_, (name, stats, files)| {
            self.recompute(name, stats, files)
        });

        // Commit phase: splice the new cache together, apply the error
        // budget (study mode only — cold single-network runs never
        // drop), and assemble the output.
        let mut stats = RefreshStats { networks: classified.len(), ..Default::default() };
        let mut fresh = recomputed.into_iter();
        let mut nets = BTreeMap::new();
        let mut dropped = Vec::new();
        let mut dropped_names = BTreeSet::new();
        for (name, work) in classified {
            match work {
                Work::Reuse(new_stats) => {
                    stats.reused += 1;
                    let mut cache = match self.nets.remove(&name) {
                        Some(c) => c,
                        // classify() only returns Reuse for cached names.
                        None => continue,
                    };
                    if let Some(s) = new_stats {
                        cache.stats = s;
                    }
                    nets.insert(name, cache);
                }
                Work::Recompute { .. } => {
                    stats.recomputed += 1;
                    let Some((cache, reparsed)) = fresh.next() else { continue };
                    stats.files_reparsed += reparsed;
                    nets.insert(name, cache);
                }
                Work::Unreadable(e) => {
                    dropped.push(DroppedNetwork::unreadable(&name, &e));
                    dropped_names.insert(name);
                }
            }
        }
        if layout.study {
            for cache in nets.values() {
                if let Some(drop) = DroppedNetwork::over_budget(&cache.snap, budget) {
                    dropped_names.insert(drop.name.clone());
                    dropped.push(drop);
                }
            }
            // Cold snap_dir reports drops in subdir (name) order; the
            // two loops above may interleave unreadable and over-budget
            // entries out of order.
            dropped.sort_by(|a, b| a.name.cmp(&b.name));
        }
        self.nets = nets;
        stats.dropped = dropped.len();

        let survivors: Vec<&NetCache> = self
            .nets
            .values()
            .filter(|c| !dropped_names.contains(&c.snap.name))
            .collect();
        let sections: Vec<(&str, &[u8])> = survivors
            .iter()
            .map(|c| (c.snap.name.as_str(), c.payload.as_slice()))
            .collect();
        let bytes = assemble_container(&sections);
        let corpus = Corpus::from_shared(survivors.iter().map(|c| c.snap.clone()).collect());

        rd_obs::metrics::counter_add("incr.networks_reused", stats.reused as u64);
        rd_obs::metrics::counter_add("incr.networks_recomputed", stats.recomputed as u64);
        rd_obs::metrics::counter_add("incr.files_reparsed", stats.files_reparsed as u64);
        rd_obs::metrics::gauge_set(
            "incr.last_wall_us",
            started.elapsed().as_micros().min(i64::MAX as u128) as i64,
        );
        rd_obs::trace::event(
            "incr.refresh",
            &[
                ("networks", stats.networks.into()),
                ("reused", stats.reused.into()),
                ("recomputed", stats.recomputed.into()),
                ("files_reparsed", stats.files_reparsed.into()),
            ],
        );
        Ok(Refresh { outcome: SnapOutcome { corpus, dropped, warnings }, bytes, stats })
    }

    /// Decides what a single network needs this refresh, given its
    /// files as the layout listed them: nothing (stats unchanged),
    /// nothing but fresh stats (hashes unchanged), or a recompute from
    /// freshly read files.
    fn classify(&self, name: &str, stats: Vec<ConfigFile>) -> Work {
        let cache = self.nets.get(name);
        if cache.is_some_and(|c| !c.stats.is_empty() && c.stats == stats) {
            return Work::Reuse(None);
        }
        let files = match read_configs(&stats) {
            Ok(f) => f,
            Err(e) => return Work::Unreadable(e),
        };
        let hashes: Vec<(String, u64)> = files
            .iter()
            .map(|(file, bytes)| (file.clone(), rd_snap::fnv1a64(bytes)))
            .collect();
        if cache.is_some_and(|c| c.hashes == hashes) {
            return Work::Reuse(Some(stats));
        }
        Work::Recompute { stats, files }
    }

    /// Re-analyzes one changed network, splicing cached parse products
    /// for files whose raw hash is unchanged and parsing only the rest.
    /// Returns the new cache entry and the number of files re-parsed.
    fn recompute(
        &self,
        name: &str,
        stats: &[ConfigFile],
        files: &[(String, Vec<u8>)],
    ) -> (NetCache, usize) {
        let hashes: Vec<(String, u64)> = files
            .iter()
            .map(|(file, bytes)| (file.clone(), rd_snap::fnv1a64(bytes)))
            .collect();
        let mut cached: BTreeMap<(&str, u64), &PreparsedFile> = BTreeMap::new();
        if let Some(cache) = self.nets.get(name) {
            if cache.parsed.len() == cache.hashes.len() {
                for ((file, hash), product) in cache.hashes.iter().zip(&cache.parsed) {
                    cached.insert((file.as_str(), *hash), product);
                }
            }
        }
        let mut slots: Vec<Option<PreparsedFile>> = files.iter().map(|_| None).collect();
        let mut fresh_files: Vec<(String, Vec<u8>)> = Vec::new();
        let mut fresh_slots: Vec<usize> = Vec::new();
        for (i, (file, hash)) in hashes.iter().enumerate() {
            match cached.get(&(file.as_str(), *hash)) {
                Some(product) => slots[i] = Some((*product).clone()),
                None => {
                    fresh_slots.push(i);
                    fresh_files.push(files[i].clone());
                }
            }
        }
        let reparsed = fresh_files.len();
        for (i, product) in fresh_slots.into_iter().zip(Network::parse_files(&fresh_files)) {
            slots[i] = Some(product);
        }
        let parsed: Vec<PreparsedFile> = slots.into_iter().flatten().collect();
        let network = Network::from_parsed(parsed.clone());
        let mut analysis = NetworkAnalysis::from_network(network);
        analysis.file_hashes = hashes.clone();
        let snap = Arc::new(capture(name, analysis));
        let payload = encode_payload(&snap);
        (NetCache { stats: stats.to_vec(), hashes, parsed, snap, payload }, reparsed)
    }
}

/// Encodes one network's section payload — the same bytes
/// [`Corpus::to_bytes`] would produce for its section.
fn encode_payload(snap: &NetworkSnapshot) -> Vec<u8> {
    let mut w = Writer::new();
    snap.encode(&mut w);
    w.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::snap_dir;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let path = std::env::temp_dir().join(format!(
                "rd-incr-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id(),
            ));
            let _ = std::fs::remove_dir_all(&path);
            std::fs::create_dir_all(&path).expect("create temp dir");
            TempDir(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn write_config(dir: &Path, name: &str, text: &str) {
        std::fs::create_dir_all(dir).expect("network dir");
        std::fs::write(dir.join(name), text).expect("write config");
    }

    fn config(host: &str, octet: u8) -> String {
        format!(
            "hostname {host}\n\
             interface Serial0\n ip address 10.0.{octet}.1 255.255.255.252\n\
             router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n"
        )
    }

    fn study(tag: &str) -> TempDir {
        let tmp = TempDir::new(tag);
        for (net, host) in [("net1", "alpha"), ("net2", "bravo"), ("net3", "charlie")] {
            let dir = tmp.0.join(net);
            write_config(&dir, "config1", &config(host, 1));
            write_config(&dir, "config2", &config(&format!("{host}2"), 2));
        }
        tmp
    }

    fn cold_bytes(dir: &Path) -> Vec<u8> {
        snap_dir(dir).expect("cold snap").corpus.to_bytes()
    }

    #[test]
    fn first_refresh_matches_cold_run() {
        let tmp = study("cold");
        let mut engine = DeltaEngine::new(&tmp.0);
        let refresh = engine.refresh().expect("refresh");
        assert_eq!(refresh.bytes, cold_bytes(&tmp.0));
        assert_eq!(refresh.bytes, refresh.outcome.corpus.to_bytes());
        assert_eq!(refresh.stats.networks, 3);
        assert_eq!(refresh.stats.recomputed, 3);
        assert_eq!(refresh.stats.reused, 0);
        assert_eq!(refresh.stats.files_reparsed, 6);
    }

    #[test]
    fn untouched_refresh_reuses_everything() {
        let tmp = study("idle");
        let mut engine = DeltaEngine::new(&tmp.0);
        let first = engine.refresh().expect("first");
        let second = engine.refresh().expect("second");
        assert_eq!(second.bytes, first.bytes);
        assert_eq!(second.stats.reused, 3);
        assert_eq!(second.stats.recomputed, 0);
        assert_eq!(second.stats.files_reparsed, 0);
    }

    #[test]
    fn one_file_change_recomputes_one_network_one_file() {
        let tmp = study("delta");
        let mut engine = DeltaEngine::new(&tmp.0);
        engine.refresh().expect("warm up");
        let changed = tmp.0.join("net2").join("config1");
        let mut text = std::fs::read_to_string(&changed).expect("read");
        text.push_str("interface Loopback0\n ip address 10.9.0.1 255.255.255.255\n");
        std::fs::write(&changed, text).expect("write");

        let refresh = engine.refresh().expect("delta refresh");
        assert_eq!(refresh.stats.recomputed, 1);
        assert_eq!(refresh.stats.reused, 2);
        assert_eq!(refresh.stats.files_reparsed, 1);
        assert_eq!(refresh.bytes, cold_bytes(&tmp.0));
    }

    #[test]
    fn touch_without_content_change_is_reuse() {
        let tmp = study("touch");
        let mut engine = DeltaEngine::new(&tmp.0);
        engine.refresh().expect("warm up");
        // Rewrite identical bytes: size stays, mtime moves.
        let path = tmp.0.join("net1").join("config1");
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes).expect("rewrite");
        let refresh = engine.refresh().expect("refresh");
        assert_eq!(refresh.stats.reused, 3);
        assert_eq!(refresh.stats.recomputed, 0);
    }

    #[test]
    fn added_and_removed_networks_track_the_directory() {
        let tmp = study("addrm");
        let mut engine = DeltaEngine::new(&tmp.0);
        engine.refresh().expect("warm up");
        write_config(&tmp.0.join("net4"), "config1", &config("delta", 4));
        std::fs::remove_dir_all(tmp.0.join("net1")).expect("remove net1");
        let refresh = engine.refresh().expect("refresh");
        assert_eq!(refresh.stats.networks, 3);
        assert_eq!(refresh.stats.recomputed, 1); // net4 is new
        assert_eq!(refresh.stats.reused, 2); // net2 + net3
        assert_eq!(refresh.bytes, cold_bytes(&tmp.0));
        let names: Vec<&str> =
            refresh.outcome.corpus.networks.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(names, vec!["net2", "net3", "net4"]);
    }

    #[test]
    fn snapshot_seeded_engine_reuses_without_parsing() {
        let tmp = study("seed");
        let bytes = cold_bytes(&tmp.0);
        let mut engine = DeltaEngine::new(&tmp.0);
        assert_eq!(engine.seed_from_snapshot(&bytes).expect("seed"), 3);
        let refresh = engine.refresh().expect("refresh");
        assert_eq!(refresh.stats.reused, 3);
        assert_eq!(refresh.stats.recomputed, 0);
        assert_eq!(refresh.stats.files_reparsed, 0);
        assert_eq!(refresh.bytes, bytes);
    }

    #[test]
    fn snapshot_seeded_engine_recovers_from_a_change() {
        let tmp = study("seedchg");
        let bytes = cold_bytes(&tmp.0);
        let mut engine = DeltaEngine::new(&tmp.0);
        engine.seed_from_snapshot(&bytes).expect("seed");
        let changed = tmp.0.join("net3").join("config2");
        let mut text = std::fs::read_to_string(&changed).expect("read");
        text.push_str("interface Loopback0\n ip address 10.8.0.1 255.255.255.255\n");
        std::fs::write(&changed, text).expect("write");
        let refresh = engine.refresh().expect("refresh");
        assert_eq!(refresh.stats.recomputed, 1);
        // Seeded caches hold no parse products: the whole changed
        // network re-parses, the other two splice through.
        assert_eq!(refresh.stats.files_reparsed, 2);
        assert_eq!(refresh.bytes, cold_bytes(&tmp.0));
    }

    #[test]
    fn single_network_dir_matches_cold_run() {
        let tmp = TempDir::new("single");
        write_config(&tmp.0, "config1", &config("solo", 1));
        write_config(&tmp.0, "config2", &config("solo2", 2));
        let mut engine = DeltaEngine::new(&tmp.0);
        let first = engine.refresh().expect("first");
        assert_eq!(first.bytes, cold_bytes(&tmp.0));
        let second = engine.refresh().expect("second");
        assert_eq!(second.stats.reused, 1);
        assert_eq!(second.bytes, first.bytes);
    }

    #[test]
    fn over_budget_network_drops_exactly_like_cold() {
        let tmp = study("budget");
        let mut engine = DeltaEngine::new(&tmp.0);
        engine.refresh().expect("warm up");
        // Corrupt both files of net2: 2/2 quarantined, over any budget.
        write_config(&tmp.0.join("net2"), "config1", "interface E0\n ip address bad 255.0.0.0\n");
        write_config(&tmp.0.join("net2"), "config2", "interface E0\n ip address bad 255.0.0.0\n");
        let refresh = engine.refresh().expect("refresh");
        assert_eq!(refresh.stats.dropped, 1);
        assert_eq!(refresh.outcome.dropped.len(), 1);
        let cold = snap_dir(&tmp.0).expect("cold");
        assert_eq!(cold.dropped.len(), 1);
        assert_eq!(refresh.outcome.dropped[0].name, cold.dropped[0].name);
        assert_eq!(refresh.outcome.dropped[0].reason, cold.dropped[0].reason);
        assert_eq!(refresh.bytes, cold.corpus.to_bytes());
        // The dropped network stays cached: restoring its files brings
        // it back (recomputed, because its contents changed again).
        write_config(&tmp.0.join("net2"), "config1", &config("bravo", 1));
        write_config(&tmp.0.join("net2"), "config2", &config("bravo2", 2));
        let healed = engine.refresh().expect("healed");
        assert_eq!(healed.stats.dropped, 0);
        assert_eq!(healed.bytes, cold_bytes(&tmp.0));
    }
}
