//! The incremental delta engine must be observationally invisible: after
//! any sequence of config churn, a refresh produces snapshot bytes,
//! reports, and summary JSON byte-identical to a cold re-run of the same
//! directory — at any `RD_THREADS` setting. Churn comes from the seeded
//! `rd-chaos` config mutators applied router-by-router, so the engine is
//! exercised against realistic damage (truncation, duplication, garbage,
//! cosmetic noise), not just clean edits.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

use netgen::StudyScale;
use routing_design::incremental::DeltaEngine;
use routing_design::report::{StudyNetwork, StudyReport};
use routing_design::watch::{Tick, WatchOptions, Watcher};

/// Tests here mutate the process-global `RD_THREADS` environment
/// variable; the lock keeps them from racing each other.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Two generated small-study networks as `(name, files)` — enough churn
/// surface without analyzing the whole roster every round.
fn study_files() -> Vec<(String, Vec<(String, String)>)> {
    netgen::study::generate_study(StudyScale::Small)
        .into_iter()
        .filter(|g| g.spec.name == "net1" || g.spec.name == "net2")
        .map(|g| (g.spec.name.clone(), g.texts))
        .collect()
}

fn write_study(base: &Path, networks: &[(String, Vec<(String, String)>)]) {
    for (net, files) in networks {
        let sub = base.join(net);
        std::fs::create_dir_all(&sub).expect("network dir");
        for (name, text) in files {
            std::fs::write(sub.join(name), text).expect("config file");
        }
    }
}

/// Everything a refresh must reproduce byte-for-byte: the encoded
/// container, every per-network summary JSON body, and the study report.
fn observable(corpus: &rd_snap::Corpus) -> String {
    let mut out = String::new();
    for snap in &corpus.networks {
        out.push_str(&rd_serve::render::network_summary(snap));
    }
    let networks: Vec<StudyNetwork> = corpus
        .networks
        .iter()
        .map(|snap| StudyNetwork {
            name: snap.name.clone(),
            analysis: routing_design::snapshot::restore((**snap).clone()),
        })
        .collect();
    let report = StudyReport::build(&networks);
    out.push_str(&report.table1.to_string());
    out.push_str(&report.section7.to_string());
    out
}

/// Cold ground truth for the directory's current state.
fn cold_outputs(dir: &Path) -> (Vec<u8>, String) {
    let outcome = routing_design::snapshot::snap_dir(dir).expect("cold run");
    let bytes = outcome.corpus.to_bytes();
    let rendered = observable(&outcome.corpus);
    (bytes, rendered)
}

/// One full churn run at the given thread count: seed the engine from a
/// cold snapshot, then mutate one router file per round (cycling the
/// seeded rd-chaos mutators across networks and routers), refreshing and
/// checking against a cold re-run after every round. Returns the
/// per-round outputs so runs at different thread counts can be compared.
fn run_churn(threads: &str) -> Vec<(Vec<u8>, String)> {
    std::env::set_var(rd_par::THREADS_ENV, threads);
    let base: PathBuf = std::env::temp_dir()
        .join(format!("rd-incr-churn-{}-t{threads}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let networks = study_files();
    write_study(&base, &networks);

    // Seed from a cold snapshot rather than a warm refresh, so the
    // restart path (cache rebuilt from persisted bytes) is on trial too.
    let (seed_bytes, _) = cold_outputs(&base);
    let mut engine = DeltaEngine::new(&base);
    engine.seed_from_snapshot(&seed_bytes).expect("snapshot seeds the engine");

    let mut outputs = Vec::new();
    let mut round = 0usize;
    for (net, files) in &networks {
        for (file_name, _) in files.iter().take(3) {
            let mutator =
                rd_chaos::CONFIG_MUTATORS[round % rd_chaos::CONFIG_MUTATORS.len()];
            let mut rng = rd_rng::StdRng::seed_from_u64(
                0x5eed ^ (round as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            );
            let path = base.join(net).join(file_name);
            let bytes = std::fs::read(&path).expect("victim readable");
            match rd_chaos::mutate_config(&mut rng, mutator, &bytes) {
                Some(mutated) => std::fs::write(&path, mutated).expect("victim rewritten"),
                None => std::fs::remove_file(&path).expect("victim removed"),
            }

            let refresh = engine.refresh().expect("incremental refresh");
            let (cold_bytes, cold_rendered) = cold_outputs(&base);
            assert_eq!(
                refresh.bytes, cold_bytes,
                "round {round} ({} on {net}/{file_name}): incremental snapshot \
                 bytes diverge from a cold run at RD_THREADS={threads}",
                mutator.name(),
            );
            let incr_rendered = observable(&refresh.outcome.corpus);
            assert_eq!(
                incr_rendered, cold_rendered,
                "round {round}: incremental reports/summaries diverge from cold",
            );
            outputs.push((refresh.bytes, incr_rendered));
            round += 1;
        }
    }
    let _ = std::fs::remove_dir_all(&base);
    outputs
}

#[test]
fn seeded_churn_stays_byte_identical_to_cold_at_any_thread_count() {
    let _env = ENV_LOCK.lock().expect("env lock");
    let one = run_churn("1");
    let four = run_churn("4");
    std::env::remove_var(rd_par::THREADS_ENV);

    assert!(!one.is_empty(), "churn run produced no rounds");
    assert_eq!(one.len(), four.len());
    for (i, ((bytes_1, text_1), (bytes_4, text_4))) in one.iter().zip(&four).enumerate() {
        assert_eq!(bytes_1, bytes_4, "round {i}: snapshot bytes differ by thread count");
        assert_eq!(text_1, text_4, "round {i}: rendered output differs by thread count");
    }
    // The churn must have actually moved the corpus at least once,
    // otherwise every assertion above compared a fixed point.
    assert!(
        one.windows(2).any(|w| w[0].0 != w[1].0),
        "no mutation round ever changed the snapshot"
    );
}

/// Stray names dropped into a study, each with whether the layout must
/// report it as a `stray-root-file` when it sits at the study root. The
/// skipped artifact names are also dropped inside one network directory.
const STRAYS: [(&str, bool); 5] = [
    ("README", true),
    (".DS_Store", false),
    ("x.tmp", false),
    ("y.rdsnap", false),
    ("z.quarantined", false),
];

fn network_names(corpus: &rd_snap::Corpus) -> Vec<String> {
    corpus.networks.iter().map(|n| n.name.clone()).collect()
}

#[test]
fn stray_files_never_change_the_network_set_or_the_bytes() {
    let _env = ENV_LOCK.lock().expect("env lock");
    let base: PathBuf =
        std::env::temp_dir().join(format!("rd-incr-stray-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let study = base.join("study");
    write_study(&study, &study_files());
    let clean = routing_design::snapshot::snap_dir(&study).expect("clean cold run");
    let clean_bytes = clean.corpus.to_bytes();
    let clean_names = network_names(&clean.corpus);
    assert_eq!(clean_names, vec!["net1", "net2"]);
    assert!(clean.warnings.is_empty());

    // Each stray would parse as a router if read: a config-shaped body.
    let body = "hostname stray\ninterface Serial0\n ip address 10.250.0.1 255.255.255.252\n";
    for (name, _) in STRAYS {
        std::fs::write(study.join(name), body).expect("root stray");
    }
    for (name, _) in STRAYS.iter().filter(|(_, warns)| !warns) {
        std::fs::write(study.join("net1").join(name), body).expect("network stray");
    }

    // Cold run: same networks, same bytes, one warning per root file.
    let cold = routing_design::snapshot::snap_dir(&study).expect("cold run");
    assert_eq!(network_names(&cold.corpus), clean_names);
    assert!(cold.dropped.is_empty());
    assert_eq!(cold.corpus.to_bytes(), clean_bytes, "cold bytes moved");
    let warned: Vec<&str> = cold.warnings.iter().map(|d| d.file.as_str()).collect();
    let expected: Vec<&str> =
        STRAYS.iter().filter(|(_, warns)| *warns).map(|(name, _)| *name).collect();
    assert_eq!(warned, expected);
    assert!(cold.warnings.iter().all(|d| d.code == "stray-root-file"));

    // Delta refresh: a fresh engine and a snapshot-seeded one.
    let refresh = DeltaEngine::new(&study).refresh().expect("refresh");
    assert_eq!(network_names(&refresh.outcome.corpus), clean_names);
    assert_eq!(refresh.bytes, clean_bytes, "refresh bytes moved");
    assert_eq!(refresh.outcome.warnings, cold.warnings);
    let mut seeded = DeltaEngine::new(&study);
    seeded.seed_from_snapshot(&clean_bytes).expect("seed");
    let reseeded = seeded.refresh().expect("seeded refresh");
    assert_eq!(reseeded.stats.reused, 2, "strays must not invalidate a network");
    assert_eq!(reseeded.bytes, clean_bytes);

    // Watch: booted stale so the first tick re-analyzes and persists.
    let snapshot_path = base.join("last-good.rdsnap");
    rd_snap::write_atomic(&snapshot_path, &clean_bytes).expect("seed snapshot");
    let server = rd_serve::Server::start(clean.corpus, "127.0.0.1:0", 1).expect("server");
    let opts = WatchOptions { debounce: Duration::ZERO, ..WatchOptions::default() };
    let mut watcher = Watcher::new(&study, &snapshot_path, server.controller(), opts);
    watcher.mark_boot_stale();
    assert_eq!(watcher.tick(), Tick::Published);
    let persisted = std::fs::read(&snapshot_path).expect("persisted snapshot");
    assert_eq!(persisted, clean_bytes, "watch bytes moved");
    let served = rd_snap::Corpus::from_bytes(&persisted).expect("persisted decodes");
    assert_eq!(network_names(&served), clean_names);
    // The strays are invisible to the scan: nothing is pending after.
    assert_eq!(watcher.tick(), Tick::Idle);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&base);
}
