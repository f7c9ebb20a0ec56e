//! The incremental re-analysis engine: the one change funnel between a
//! config directory and its snapshot.
//!
//! Operational networks change a few routers at a time (Section 8.1's
//! maintenance reality), yet a cold `rdx snap` pays parse + topology +
//! routing-model cost for all 31 networks on every run. [`DeltaEngine`]
//! is the only code that lists, stats, reads, hashes, parses and
//! fingerprints config files between runs, and its work follows the
//! change:
//!
//! 1. [`poll`] takes one [`Layout`] scan (one stat per file), reads and
//!    hashes ([`rd_snap::fnv1a64`]) only files whose stat moved, and
//!    parses, in parallel, only files whose hash moved. It returns a
//!    digest of the semantic fingerprints ([`config_fingerprint`]) that
//!    cosmetic churn leaves unchanged: `rdx watch` debounces on it;
//! 2. [`refresh`] polls, re-analyzes only networks whose file hashes
//!    differ from their cached snapshot's — from the parse products the
//!    polls held, through the cold-path assembly ([`Network::from_parsed`]
//!    → [`NetworkAnalysis::from_network`]) — and copies every other
//!    network's encoded section bytes into the output container
//!    ([`rd_snap::assemble_container`]).
//!
//! Only detection tells cosmetic from semantic: a refresh re-analyzes a
//! cosmetically edited network, since [`NetworkSnapshot::file_hashes`] is
//! part of its payload. Output is thus **byte-identical to a cold
//! [`snap_dir`] run at any `RD_THREADS`**. A persisted snapshot can seed
//! the engine ([`seed_from_snapshot`]), so a rebooted `rdx watch` reuses
//! every network that did not change while it was down (with no parse
//! products held, a seeded network's first change re-parses it whole).
//!
//! Observability: `incr.poll` and `analyze.incr` spans; each refresh
//! records `incr.networks_reused`, `incr.networks_recomputed` and
//! `incr.files_reparsed` counters plus an `incr.last_wall_us` gauge.
//!
//! [`poll`]: DeltaEngine::poll
//! [`refresh`]: DeltaEngine::refresh
//! [`seed_from_snapshot`]: DeltaEngine::seed_from_snapshot
//! [`snap_dir`]: crate::snapshot::snap_dir

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use nettopo::{Network, PreparsedFile};
use rd_obs::Diagnostic;
use rd_snap::{assemble_container, Corpus, Manifest, NetworkSnapshot, Snap, Writer};

use crate::diff::config_fingerprint;
use crate::layout::Layout;
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
    /// Config files of recomputed networks parsed for this refresh — by
    /// the refresh or by a poll since the previous one. Parse products
    /// held from earlier refreshes are not counted.
    pub files_reparsed: usize,
    /// Networks excluded from the output (unreadable or over the error
    /// budget) — mirrors [`SnapOutcome::dropped`].
    pub dropped: usize,
}

impl RefreshStats {
    /// The counters as `(name, value)` pairs, in field order.
    pub fn counters(&self) -> [(&'static str, usize); 5] {
        [
            ("networks", self.networks),
            ("reused", self.reused),
            ("recomputed", self.recomputed),
            ("files_reparsed", self.files_reparsed),
            ("dropped", self.dropped),
        ]
    }
}

/// The product of one [`DeltaEngine::refresh`]: the same outcome a cold
/// [`snap_dir`](crate::snapshot::snap_dir) would return, the serialized
/// container bytes (byte-identical to `outcome.corpus.to_bytes()`), and
/// what the delta pass did.
pub struct Refresh {
    /// Surviving corpus plus dropped networks, exactly as a cold run.
    pub outcome: SnapOutcome,
    /// The container bytes, spliced from cached payloads where possible.
    pub bytes: Vec<u8>,
    /// What the delta pass reused and recomputed.
    pub stats: RefreshStats,
    /// The networks this refresh re-analyzed, in layout order.
    pub recomputed: Vec<String>,
    /// The [`DeltaEngine::poll`] digest of the directory state analyzed.
    pub digest: u64,
}

/// What the engine last observed of one config file.
struct FileState {
    name: String,
    path: PathBuf,
    /// `(size, mtime_nanos)` as listed; `None` forces a read.
    stat: Option<(u64, u128)>,
    /// Raw-byte FNV-1a-64; 0 until read.
    hash: u64,
    /// [`config_fingerprint`], or `hash` for a file that does not parse.
    print: u64,
    /// The parse product of the bytes `hash` covers, while held.
    parsed: Option<PreparsedFile>,
    /// Parsed since the last refresh.
    fresh: bool,
}

impl FileState {
    /// A file nothing is known about: the next poll reads and parses it.
    fn unknown(name: String) -> FileState {
        let path = PathBuf::new();
        FileState { name, path, stat: None, hash: 0, print: 0, parsed: None, fresh: false }
    }
}

/// One network's files as the last poll listed them.
struct NetFiles {
    name: String,
    /// In layout order.
    files: Vec<FileState>,
    /// Why the network could not be listed, or one of its files read.
    error: Option<io::Error>,
}

impl NetFiles {
    /// A network known only from a snapshot: its recorded hashes and
    /// configs' fingerprints, so a poll parses only files that moved.
    fn seeded(snap: &NetworkSnapshot) -> NetFiles {
        let configs: BTreeMap<&str, _> =
            snap.network.routers.iter().map(|r| (r.file_name.as_str(), &r.config)).collect();
        let files = snap
            .file_hashes
            .iter()
            .map(|(name, hash)| FileState {
                hash: *hash,
                print: configs.get(name.as_str()).map_or(*hash, |c| config_fingerprint(c)),
                ..FileState::unknown(name.clone())
            })
            .collect();
        NetFiles { name: snap.name.clone(), files, error: None }
    }
}

/// Cached analysis of one network between refreshes.
struct NetCache {
    /// The finished analysis (its `file_hashes` are the inputs it was
    /// built from), shared with every corpus handed out — a reused
    /// network costs a refcount bump per refresh, not a deep copy.
    snap: Arc<NetworkSnapshot>,
    /// `snap`'s encoded section payload — the bytes spliced into the
    /// output container when the network is reused.
    payload: Vec<u8>,
}

/// The incremental re-analysis engine. One engine watches one directory
/// (a single network or a `netN/` study layout, re-detected on every
/// poll); its cache key is the network name, i.e. the directory
/// basename.
pub struct DeltaEngine {
    dir: PathBuf,
    /// The last poll: a study root or not, or why the root was unlistable.
    study: io::Result<bool>,
    /// The per-file table, per network in layout order.
    units: Vec<NetFiles>,
    warnings: Vec<Diagnostic>,
    nets: BTreeMap<String, NetCache>,
}

impl DeltaEngine {
    /// An engine over `dir` with an empty cache: the first
    /// [`refresh`](DeltaEngine::refresh) is a cold run that populates it.
    pub fn new(dir: &Path) -> DeltaEngine {
        let (units, warnings, nets) = Default::default();
        DeltaEngine { dir: dir.to_path_buf(), study: Ok(false), units, warnings, nets }
    }

    /// Config files in the per-file table.
    pub fn tracked_files(&self) -> usize {
        self.units.iter().map(|n| n.files.len()).sum()
    }

    /// The last poll's `stray-root-file` warnings ([`Layout::warnings`]).
    pub fn warnings(&self) -> &[Diagnostic] {
        &self.warnings
    }

    /// Seeds the cache from a previously persisted container: each
    /// network's payload bytes come straight from the manifest footer and
    /// its file hashes from [`NetworkSnapshot::file_hashes`], so the next
    /// refresh reuses every network whose files still hash the same —
    /// without re-parsing or re-encoding anything. Returns the number of
    /// networks seeded. Files already polled keep their observed state;
    /// every held parse product is dropped, so the first *change* to a
    /// seeded network re-parses that network whole.
    pub fn seed_from_snapshot(&mut self, bytes: &[u8]) -> Result<usize, rd_snap::DecodeError> {
        let corpus = Corpus::from_bytes(bytes)?;
        let manifest = Manifest::read(bytes)?;
        for file in self.units.iter_mut().flat_map(|n| &mut n.files) {
            file.parsed = None;
            file.fresh = false;
        }
        let mut nets = BTreeMap::new();
        for snap in corpus.networks {
            let payload = manifest
                .payload(bytes, &snap.name)
                .map(|p| p.to_vec())
                .unwrap_or_else(|| encode_payload(&snap));
            if !self.units.iter().any(|n| n.name == snap.name) {
                self.units.push(NetFiles::seeded(&snap));
            }
            nets.insert(snap.name.clone(), NetCache { snap, payload });
        }
        let count = nets.len();
        self.nets = nets;
        Ok(count)
    }

    /// Brings the per-file table up to date with one [`Layout`] scan:
    /// files whose stat moved are read and hashed, files whose hash moved
    /// are parsed (in parallel) and fingerprinted, and their parse
    /// products are held for the next [`refresh`](DeltaEngine::refresh).
    /// Returns a digest of the directory's semantics: cosmetic churn
    /// leaves it unchanged, any semantic change moves it. A file that
    /// cannot be read (one vanishing mid-push) folds in as a gap and an
    /// unlistable root as a state of its own; neither is an error.
    pub fn poll(&mut self) -> u64 {
        let _span = rd_obs::span!("incr.poll");
        let layout = match Layout::scan(&self.dir) {
            Ok(layout) => layout,
            Err(e) => {
                self.study = Err(e);
                return rd_snap::fnv1a64(b"unlistable");
            }
        };
        self.study = Ok(layout.study);
        self.warnings = layout.warnings();
        let mut known: BTreeMap<String, BTreeMap<String, FileState>> =
            std::mem::take(&mut self.units)
                .into_iter()
                .map(|n| (n.name, n.files.into_iter().map(|f| (f.name.clone(), f)).collect()))
                .collect();
        let (mut inputs, mut slots) = (Vec::new(), Vec::new());
        for unit in layout.units {
            let mut known = known.remove(&unit.name).unwrap_or_default();
            let (listed, mut error) =
                unit.files.map_or_else(|e| (Vec::new(), Some(e)), |f| (f, None));
            let mut files = Vec::with_capacity(listed.len());
            for file in listed {
                let stat = Some((file.size, file.mtime_nanos));
                let mut state =
                    known.remove(&file.name).unwrap_or_else(|| FileState::unknown(file.name));
                state.path = file.path;
                if state.stat != stat {
                    match std::fs::read(&state.path) {
                        Ok(bytes) => {
                            state.stat = stat;
                            let hash = rd_snap::fnv1a64(&bytes);
                            if hash != state.hash {
                                state.hash = hash;
                                slots.push((self.units.len(), files.len()));
                                inputs.push((state.name.clone(), bytes));
                            }
                        }
                        Err(e) => {
                            error.get_or_insert(e);
                            state =
                                FileState { path: state.path, ..FileState::unknown(state.name) };
                        }
                    }
                }
                files.push(state);
            }
            self.units.push(NetFiles { name: unit.name, files, error });
        }
        for ((n, f), product) in slots.into_iter().zip(Network::parse_files(&inputs)) {
            let state = &mut self.units[n].files[f];
            state.print = product.config().map_or(state.hash, config_fingerprint);
            state.parsed = Some(product);
            state.fresh = true;
        }
        // The digest: FNV-1a-64 over the layout, names and fingerprints.
        let mut sig = vec![layout.study as u8];
        for net in &self.units {
            sig.extend_from_slice(net.name.as_bytes());
            sig.push(net.error.is_some() as u8);
            for file in &net.files {
                sig.extend_from_slice(file.name.as_bytes());
                sig.push(0);
                sig.extend_from_slice(&file.print.to_le_bytes());
            }
            sig.push(0xff);
        }
        rd_snap::fnv1a64(&sig)
    }

    /// Polls, then brings the cache up to date and returns the corpus,
    /// container bytes, and delta statistics. The outputs are
    /// byte-identical to a cold [`snap_dir`](crate::snapshot::snap_dir)
    /// and `to_bytes()` of the same directory at any `RD_THREADS`; only
    /// the work done differs. A failure (I/O error in single-network
    /// mode, or a panic out of the pipeline) leaves the cache as it was
    /// — commits happen only after every network's result is in hand.
    pub fn refresh(&mut self) -> Result<Refresh, LoadError> {
        let _span = rd_obs::span!("analyze.incr");
        let started = Instant::now();
        let digest = self.poll();
        let study = *self.study.as_ref().map_err(|e| io::Error::new(e.kind(), e.to_string()))?;
        let budget = nettopo::error_budget();
        let mut errors: Vec<Option<io::Error>> =
            self.units.iter_mut().map(|n| n.error.take()).collect();
        if !study {
            // Single-network mode mirrors cold snap_dir: a read failure
            // is a hard error, not a dropped network.
            if let Some(e) = errors.iter_mut().find_map(Option::take) {
                return Err(LoadError::Io(e));
            }
        }

        // Recompute phase, in parallel: networks whose files no longer
        // hash as their cached snapshot was built from. Results come back
        // in input order, so output never depends on the worker count.
        let results = rd_par::par_map(&self.units, |i, net| {
            let skip = errors[i].is_some()
                || self.nets.get(&net.name).is_some_and(|c| unchanged(c, &net.files));
            (!skip).then(|| recompute(net))
        });

        // Commit phase: splice the new cache together, apply the error
        // budget (study mode only — cold single-network runs never
        // drop), and assemble the output.
        let mut stats = RefreshStats { networks: self.units.len(), ..Default::default() };
        let (mut nets, mut dropped, mut recomputed) = (BTreeMap::new(), Vec::new(), Vec::new());
        for ((net, error), result) in self.units.iter_mut().zip(errors).zip(results) {
            let result = match (error, result) {
                (Some(e), _) => Err(e),
                (None, Some(result)) => result,
                (None, None) => {
                    stats.reused += 1;
                    if let Some(cache) = self.nets.remove(&net.name) {
                        nets.insert(net.name.clone(), cache);
                    }
                    continue;
                }
            };
            match result {
                Ok((cache, parsed, reparsed)) => {
                    stats.recomputed += 1;
                    stats.files_reparsed += reparsed;
                    for (i, product) in parsed {
                        // Held only while it matches the table's bytes.
                        if cache.snap.file_hashes[i].1 == net.files[i].hash {
                            net.files[i].parsed = Some(product);
                        }
                    }
                    recomputed.push(net.name.clone());
                    nets.insert(net.name.clone(), cache);
                }
                // A single network is the only unit: nothing committed yet.
                Err(e) if !study => return Err(LoadError::Io(e)),
                Err(e) => dropped.push(DroppedNetwork::unreadable(&net.name, &e)),
            }
        }
        if study {
            for cache in nets.values() {
                dropped.extend(DroppedNetwork::over_budget(&cache.snap, budget));
            }
            // Cold snap_dir reports drops in subdir (name) order; the
            // two loops above may interleave unreadable and over-budget
            // entries out of order.
            dropped.sort_by(|a, b| a.name.cmp(&b.name));
        }
        for file in self.units.iter_mut().flat_map(|n| &mut n.files) {
            file.fresh = false;
        }
        self.nets = nets;
        stats.dropped = dropped.len();

        let dropped_names: BTreeSet<&str> = dropped.iter().map(|d| d.name.as_str()).collect();
        let survivors: Vec<&NetCache> = self
            .nets
            .values()
            .filter(|c| !dropped_names.contains(c.snap.name.as_str()))
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
        rd_obs::trace::event("incr.refresh", &stats.counters().map(|(k, v)| (k, v.into())));
        let outcome = SnapOutcome { corpus, dropped, warnings: self.warnings.clone() };
        Ok(Refresh { outcome, bytes, stats, recomputed, digest })
    }
}

/// True when `files` hash exactly as the inputs `cache` was built from.
fn unchanged(cache: &NetCache, files: &[FileState]) -> bool {
    let current = files.iter().map(|f| (f.name.as_str(), f.hash));
    cache.snap.file_hashes.iter().map(|(name, hash)| (name.as_str(), *hash)).eq(current)
}

type Recomputed = (NetCache, Vec<(usize, PreparsedFile)>, usize);

/// Re-analyzes one changed network through the cold-path assembly. Held
/// parse products splice in; files without one (a network seeded from a
/// snapshot) are read and parsed here. Returns the new cache entry, the
/// products parsed here by file index, and the number of files parsed
/// for this refresh.
fn recompute(net: &NetFiles) -> io::Result<Recomputed> {
    let mut hashes: Vec<(String, u64)> =
        net.files.iter().map(|f| (f.name.clone(), f.hash)).collect();
    let (mut slots, mut inputs) = (Vec::new(), Vec::new());
    for (i, file) in net.files.iter().enumerate().filter(|(_, f)| f.parsed.is_none()) {
        let bytes = std::fs::read(&file.path)?;
        hashes[i].1 = rd_snap::fnv1a64(&bytes);
        slots.push(i);
        inputs.push((file.name.clone(), bytes));
    }
    let parsed: Vec<(usize, PreparsedFile)> =
        slots.into_iter().zip(Network::parse_files(&inputs)).collect();
    let mut products: Vec<Option<PreparsedFile>> =
        net.files.iter().map(|f| f.parsed.clone()).collect();
    for (i, product) in &parsed {
        products[*i] = Some(product.clone());
    }
    let reparsed = parsed.len() + net.files.iter().filter(|f| f.fresh).count();
    let network = Network::from_parsed(products.into_iter().flatten().collect());
    let mut analysis = NetworkAnalysis::from_network(network);
    analysis.file_hashes = hashes;
    let snap = Arc::new(capture(&net.name, analysis));
    let payload = encode_payload(&snap);
    Ok((NetCache { snap, payload }, parsed, reparsed))
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

    fn append(path: &Path, text: &str) {
        let mut body = std::fs::read_to_string(path).expect("read");
        body.push_str(text);
        std::fs::write(path, body).expect("write");
    }

    #[test]
    fn poll_digest_ignores_cosmetic_churn_and_refresh_reuses_its_parses() {
        let tmp = study("poll");
        let mut engine = DeltaEngine::new(&tmp.0);
        let boot = engine.poll();
        assert_eq!(engine.tracked_files(), 6);
        assert_eq!(engine.poll(), boot, "an untouched directory polls the same");
        let cold = engine.refresh().expect("cold refresh");
        assert_eq!((cold.digest, cold.stats.files_reparsed), (boot, 6));

        // Cosmetic: the digest stays, yet the refresh re-analyzes the
        // network (its payload records the new raw hash) from the
        // product the poll held, so the file is parsed once.
        append(&tmp.0.join("net1").join("config1"), "!\n! a comment\n!\n");
        assert_eq!(engine.poll(), boot);
        let cosmetic = engine.refresh().expect("cosmetic refresh");
        assert_eq!(cosmetic.digest, boot);
        assert_eq!(cosmetic.recomputed, vec!["net1"]);
        assert_eq!(cosmetic.stats.files_reparsed, 1);
        assert_eq!(cosmetic.bytes, cold_bytes(&tmp.0));

        // Semantic: the digest moves; the refresh parses nothing the
        // poll already parsed.
        append(
            &tmp.0.join("net2").join("config2"),
            "interface Loopback0\n ip address 10.7.0.1 255.255.255.255\n",
        );
        let moved = engine.poll();
        assert_ne!(moved, boot);
        assert!(engine.units[1].files[1].fresh);
        let semantic = engine.refresh().expect("semantic refresh");
        assert_eq!(semantic.digest, moved);
        assert_eq!(semantic.recomputed, vec!["net2"]);
        assert_eq!((semantic.stats.reused, semantic.stats.files_reparsed), (2, 1));
        assert_eq!(semantic.bytes, cold_bytes(&tmp.0));
        assert!(engine.units.iter().flat_map(|n| &n.files).all(|f| !f.fresh));

        // A removed file and a new empty network both move the digest.
        std::fs::remove_file(tmp.0.join("net3").join("config2")).expect("remove");
        let removed = engine.poll();
        assert_ne!(removed, moved);
        assert_eq!(engine.tracked_files(), 5);
        std::fs::create_dir(tmp.0.join("net4")).expect("empty network");
        assert_ne!(engine.poll(), removed);
    }

    #[test]
    fn seeded_state_fingerprints_like_a_poll_and_keeps_what_was_observed() {
        let tmp = study("seedprint");
        let net1 = tmp.0.join("net1");
        write_config(&net1, "config3", &config("alpha3", 3));
        write_config(&net1, "config4", &config("alpha4", 4));
        // 1 of net1's 5 files quarantines: inside the default budget.
        write_config(&net1, "config5", "interface E0\n ip address bad 255.0.0.0\n");
        let bytes = cold_bytes(&tmp.0);
        let polled = DeltaEngine::new(&tmp.0).poll();

        // Seeded alone: every file is read, none parsed, same digest.
        let mut seeded = DeltaEngine::new(&tmp.0);
        seeded.seed_from_snapshot(&bytes).expect("seed");
        assert_eq!(seeded.poll(), polled);
        assert!(seeded.units.iter().flat_map(|n| &n.files).all(|f| f.parsed.is_none()));

        // Seeded after a poll: the observed table stays, its parse
        // products go.
        let mut observed = DeltaEngine::new(&tmp.0);
        assert_eq!(observed.poll(), polled);
        observed.seed_from_snapshot(&bytes).expect("seed");
        assert_eq!(observed.tracked_files(), 9);
        assert!(observed.units.iter().flat_map(|n| &n.files).all(|f| f.stat.is_some()));
        assert!(observed.units.iter().flat_map(|n| &n.files).all(|f| f.parsed.is_none()));
        assert_eq!(observed.poll(), polled);
        let refresh = observed.refresh().expect("refresh");
        assert_eq!((refresh.stats.reused, refresh.stats.files_reparsed), (3, 0));
        assert_eq!(refresh.bytes, bytes);
    }
}
