//! The traced run's layer sweep: every layer's calls made one by one
//! through its public functions, each inside a span, so each layer's
//! time is measured where its work happens.
//!
//! 1. Analysis: per network, `nettopo::Network::from_bytes_list`
//!    (the `ioscfg` parse) and each stage function in pipeline order,
//!    cross-checked against `NetworkAnalysis::timings`; then encode,
//!    trailer and decode of the container, and a parallel `snap_dir`
//!    for the `par` efficiency.
//! 2. Change path: a cosmetic and a semantic edit, taken apart — `tick()`
//!    on a watcher whose debounce outlasts the run (detection only), a
//!    `DeltaEngine::refresh()`, `write_atomic`, `Controller::publish`,
//!    the per-endpoint renders and the `/pathways` traces of the new
//!    corpus, and the poller's first 200 with the new ETag.
//! 3. Request path: a loadgen window between two `/metrics` scrapes.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use nettopo::{ExternalAnalysis, LinkMap, Network, RouterId};
use rd_serve::{render, Server};
use rd_snap::Corpus;
use routing_design::incremental::DeltaEngine;
use routing_design::watch::{Tick, WatchOptions, Watcher};
use routing_design::NetworkAnalysis;
use routing_model::{
    classify_network, Adjacencies, InstanceGraph, Instances, PathwayIndex, ProcessGraph, Processes,
    Table1,
};

use crate::edits::{EditStream, Kind};
use crate::poll::Poller;
use crate::promtext::{delta, get};
use crate::report::Report;
use crate::trace::Tracer;
use crate::{query, scrape, stats, Ctx, Res, LOOP_THREADS};

/// Stage spans, in pipeline order, with the `StageTimings` name each
/// corresponds to.
const STAGES: [(&str, &str); 9] = [
    ("ioscfg.parse", "parse"),
    ("nettopo.links", "links"),
    ("nettopo.external", "external"),
    ("routing-model.processes", "processes"),
    ("routing-model.adjacencies", "adjacencies"),
    ("routing-model.instances", "instances"),
    ("routing-model.graphs", "graphs"),
    ("netaddr.blocks", "blocks"),
    ("routing-model.classify", "classify"),
];

/// A whole-corpus `rd_serve::render` function.
type Render = fn(&Corpus) -> String;

/// The whole-corpus renders, timed one by one after a publish.
const RENDERS: [(&str, Render); 4] = [
    ("serve.render_networks", render::networks_index),
    ("serve.render_instances", render::instances),
    ("serve.render_pathways", render::pathways),
    ("serve.render_diag", render::diag),
];

const SERVE_TIMEOUT: Duration = Duration::from_secs(90);

pub fn sweep(
    ctx: &Ctx,
    tracer: &mut Tracer,
    report: &mut Report,
    server: Option<&Server>,
) -> Res<()> {
    tracer.set_enabled(true);
    let study = ctx.study_dir();
    let bytes = analysis(ctx, tracer, report, &study)?;
    let owned = match server {
        Some(_) => None,
        None => Some(crate::serve_snapshot(&ctx.snapshot_path(), &bytes)?),
    };
    let server = server.or(owned.as_ref()).expect("a server to sweep");
    let corpus = change_path(ctx, tracer, report, server, &study)?;
    request_path(ctx, tracer, report, server.local_addr(), &corpus)?;
    crate::check_served_is_cold(report, &study, &server.etag())?;
    if let Some(s) = owned {
        s.shutdown();
    }
    report.metric("proc.peak_rss_mb", crate::peak_rss_mb(), "MB", 1);
    std::fs::create_dir_all(&ctx.out).map_err(|e| format!("create {}: {e}", ctx.out.display()))?;
    let path = ctx
        .out
        .join(format!("trace-{}-seed{}.jsonl", ctx.workload, ctx.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    report.note(format!("spans written to {}", path.display()));
    Ok(())
}

fn sorted_entries(dir: &Path, want_dirs: bool) -> Res<Vec<PathBuf>> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| if want_dirs { p.is_dir() } else { p.is_file() })
        .collect();
    out.sort();
    Ok(out)
}

fn read_files(dir: &Path) -> Res<Vec<(String, Vec<u8>)>> {
    sorted_entries(dir, false)?
        .into_iter()
        .map(|p| {
            let name = p
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            std::fs::read(&p)
                .map(|b| (name, b))
                .map_err(|e| format!("read {}: {e}", p.display()))
        })
        .collect()
}

/// Phase 1; returns the container bytes of the decomposed analysis.
fn analysis(ctx: &Ctx, tracer: &mut Tracer, report: &mut Report, study: &Path) -> Res<Vec<u8>> {
    let (mut files_n, mut bytes_n, mut timings_ms) = (0usize, 0usize, 0.0f64);
    let mut snapshots = Vec::new();
    for dir in sorted_entries(study, true)? {
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let files = read_files(&dir)?;
        files_n += files.len();
        bytes_n += files.iter().map(|(_, b)| b.len()).sum::<usize>();

        tracer.next_op();
        let op = tracer.open("analysis.network");
        let input = files.clone();
        let network = tracer.time("ioscfg.parse", move || Network::from_bytes_list(input));
        let links = tracer.time("nettopo.links", || LinkMap::build(&network));
        let external = tracer.time("nettopo.external", || {
            ExternalAnalysis::build(&network, &links)
        });
        let processes = tracer.time("routing-model.processes", || Processes::extract(&network));
        let adjacencies = tracer.time("routing-model.adjacencies", || {
            Adjacencies::build(&network, &links, &processes, &external)
        });
        let instances = tracer.time("routing-model.instances", || {
            Instances::compute(&processes, &adjacencies)
        });
        let graphs = tracer.time("routing-model.graphs", || {
            (
                InstanceGraph::build(&network, &processes, &adjacencies, &instances),
                ProcessGraph::build(&network, &processes, &adjacencies),
            )
        });
        black_box(tracer.time("netaddr.blocks", || network.address_blocks()));
        black_box(tracer.time("routing-model.classify", || {
            let table1 = Table1::compute(&instances, &graphs.0, &adjacencies);
            classify_network(&network, &instances, &graphs.0, &adjacencies, &table1)
        }));
        tracer.close(op);

        // The same network through the pipeline's own stopwatch.
        let analysis = NetworkAnalysis::from_bytes_list(files);
        timings_ms += STAGES
            .iter()
            .filter_map(|(_, stage)| analysis.timings.get(stage))
            .map(crate::ms)
            .sum::<f64>();
        snapshots.push(routing_design::snapshot::capture(&name, analysis));
    }
    let direct_ms: f64 = STAGES.iter().map(|(span, _)| tracer.total_ms(span)).sum();
    let parse_ms = tracer.total_ms("ioscfg.parse");
    report.metric("ioscfg.files", files_n as f64, "count", files_n);
    report.metric(
        "ioscfg.parse_ms",
        parse_ms,
        "ms",
        tracer.count("ioscfg.parse"),
    );
    report.metric(
        "ioscfg.parse_mb_per_s",
        bytes_n as f64 / 1e6 / (parse_ms / 1e3),
        "MB/s",
        files_n,
    );
    for (span, _) in &STAGES[1..] {
        report.metric(
            &format!("{span}_ms"),
            tracer.total_ms(span),
            "ms",
            tracer.count(span),
        );
    }
    // The stage spans must account for what the pipeline's own stopwatch
    // saw; a wide band, since both are single timings of the same work.
    let ratio = direct_ms / timings_ms;
    report.note(format!(
        "stage spans {direct_ms:.1} ms vs NetworkAnalysis::timings {timings_ms:.1} ms"
    ));
    report.check((0.5..2.0).contains(&ratio), || {
        format!("stage spans sum to {direct_ms:.1} ms but NetworkAnalysis::timings to {timings_ms:.1} ms")
    });

    let corpus = Corpus::new(snapshots);
    let bytes = tracer.time("snap.encode", || corpus.to_bytes());
    black_box(tracer.time("snap.trailer", || rd_snap::fnv1a64(&bytes)));
    let decoded = tracer
        .time("snap.decode", || Corpus::from_bytes(&bytes))
        .map_err(|e| format!("decode: {e}"))?;
    report.check(decoded.networks.len() == corpus.networks.len(), || {
        "decode lost networks".to_string()
    });
    let cold = tracer.time("par.snap_dir", || crate::snapshot_study(study))?;
    report.check(cold == bytes, || {
        "the stage-by-stage analysis differs from snap_dir".to_string()
    });

    let mb = bytes.len() as f64 / 1e6;
    for (name, span) in [
        ("snap.encode", "snap.encode"),
        ("snap.decode", "snap.decode"),
    ] {
        let ms = tracer.total_ms(span);
        report.metric(&format!("{name}_ms"), ms, "ms", 1);
        report.metric(&format!("{name}_mb_per_s"), mb / (ms / 1e3), "MB/s", 1);
    }
    report.metric("snap.trailer_ms", tracer.total_ms("snap.trailer"), "ms", 1);
    report.metric("snap.bytes", bytes.len() as f64, "bytes", 1);
    let wall_ms = tracer.total_ms("par.snap_dir");
    report.metric(
        "par.efficiency",
        direct_ms / (wall_ms * ctx.threads as f64),
        "ratio",
        ctx.threads,
    );
    Ok(bytes)
}

/// Phase 2; returns the corpus the semantic edit published.
fn change_path(
    ctx: &Ctx,
    tracer: &mut Tracer,
    report: &mut Report,
    server: &Server,
    study: &Path,
) -> Res<Corpus> {
    let ctrl = server.controller();
    let snap = ctx.snapshot_path();
    let served = std::fs::read(&snap).map_err(|e| format!("read {}: {e}", snap.display()))?;
    let mut engine = DeltaEngine::new(study);
    engine
        .seed_from_snapshot(&served)
        .map_err(|e| format!("seed delta engine: {e}"))?;
    // Untimed: the first refresh after seeding hashes every file once.
    let warm = engine.refresh().map_err(|e| format!("refresh: {e}"))?;
    report.check(crate::etag_of(&warm.bytes) == ctrl.etag(), || {
        "the delta engine disagrees with what is served".to_string()
    });
    let long = WatchOptions {
        debounce: Duration::from_secs(24 * 3600),
        seed: ctx.seed,
        ..WatchOptions::default()
    };
    let mut watcher = Watcher::new(study, &snap, ctrl.clone(), long);

    let mut files = Vec::new();
    for dir in sorted_entries(study, true)? {
        files.extend(sorted_entries(&dir, false)?);
    }
    let mut stream = EditStream::new(ctx.seed.wrapping_add(1), files);
    let poller =
        Poller::start(server.local_addr(), ctrl.etag()).map_err(|e| format!("poller: {e}"))?;
    let before_scrape = scrape(server.local_addr())?;

    let cosmetic = stream
        .next_edit()
        .map_err(|e| format!("edit stream: {e}"))?;
    report.check(cosmetic.kind == Kind::Cosmetic, || {
        "the first edit is not cosmetic".to_string()
    });
    tracer.next_op();
    let op = tracer.open("change.cosmetic_edit");
    let etag = ctrl.etag();
    std::fs::write(&cosmetic.path, &cosmetic.bytes).map_err(|e| format!("write: {e}"))?;
    let tick = tracer.time("core.cosmetic_tick", || watcher.tick());
    tracer.close(op);
    report.check(tick == Tick::Idle && ctrl.etag() == etag, || {
        format!("a cosmetic edit ticked {tick:?}")
    });

    let semantic = stream
        .next_edit()
        .map_err(|e| format!("edit stream: {e}"))?;
    report.check(semantic.kind == Kind::Semantic, || {
        "the second edit is not semantic".to_string()
    });
    tracer.next_op();
    let op = tracer.open("change.semantic_edit");
    let written = Instant::now();
    tracer
        .time("edit.write", || {
            std::fs::write(&semantic.path, &semantic.bytes)
        })
        .map_err(|e| format!("write: {e}"))?;
    let tick = tracer.time("core.detect", || watcher.tick());
    report.check(tick == Tick::Waiting, || {
        format!("detection ticked {tick:?}, expected a pending change")
    });
    let refresh = tracer
        .time("core.refresh", || engine.refresh())
        .map_err(|e| format!("refresh: {e}"))?;
    tracer
        .time("snap.persist", || {
            rd_snap::write_atomic(&snap, &refresh.bytes)
        })
        .map_err(|e| format!("persist: {e}"))?;
    let corpus = refresh.outcome.corpus;
    let trailer = rd_snap::trailer_of(&refresh.bytes);
    tracer.time("serve.cache_build", || {
        ctrl.publish(corpus.clone(), trailer, "perfbench")
    });
    let new_etag = ctrl.etag();
    report.check(
        new_etag != etag && new_etag == crate::etag_of(&refresh.bytes),
        || format!("publish served {new_etag}, expected the refreshed container's ETag"),
    );
    for (span, render) in RENDERS {
        black_box(tracer.time(span, || render(&corpus)));
    }
    black_box(tracer.time("serve.render_per_network", || {
        corpus
            .networks
            .iter()
            .map(|n| render::network_summary(n).len() + render::network_processes(n).len())
            .sum::<usize>()
    }));
    let traces = tracer.time("routing-model.pathway_trace", || pathway_traces(&corpus));
    match poller.served_at(&new_etag, SERVE_TIMEOUT) {
        Some(at) => tracer.record("serve.served", written, at),
        None => report.problem(format!(
            "ETag {new_etag} not served within {SERVE_TIMEOUT:?}"
        )),
    }
    tracer.close(op);
    let after_scrape = scrape(server.local_addr())?;
    let polled = poller.stop();
    report.attempted += 2 + polled.latencies_us.len() as u64;
    report.failed += polled.errors;

    let rs = refresh.stats;
    report.metric("core.detect_ms", tracer.total_ms("core.detect"), "ms", 1);
    report.metric(
        "core.cosmetic_tick_ms",
        tracer.total_ms("core.cosmetic_tick"),
        "ms",
        1,
    );
    report.metric("core.refresh_ms", tracer.total_ms("core.refresh"), "ms", 1);
    report.metric("core.refresh_reused", rs.reused as f64, "count", 1);
    report.metric("core.refresh_recomputed", rs.recomputed as f64, "count", 1);
    report.metric(
        "core.refresh_files_reparsed",
        rs.files_reparsed as f64,
        "count",
        1,
    );
    report.metric(
        "core.refresh_reuse_ratio",
        rs.reused as f64 / rs.networks as f64,
        "ratio",
        rs.networks,
    );
    report.metric("snap.persist_ms", tracer.total_ms("snap.persist"), "ms", 1);
    let build = tracer.total_ms("serve.cache_build");
    report.metric("serve.cache_build_ms", build, "ms", 1);
    let mut rendered = 0.0;
    let spans = RENDERS.iter().map(|(span, _)| *span);
    for span in spans.chain(["serve.render_per_network"]) {
        let ms = tracer.total_ms(span);
        rendered += ms;
        report.metric(&format!("{span}_ms"), ms, "ms", 1);
    }
    report.metric(
        "serve.render_share",
        rendered / build,
        "ratio",
        RENDERS.len() + 1,
    );
    report.metric(
        "routing-model.pathway_traces",
        traces as f64,
        "count",
        traces,
    );
    report.metric(
        "routing-model.pathway_trace_ms",
        tracer.total_ms("routing-model.pathway_trace"),
        "ms",
        traces,
    );
    let d = delta(&before_scrape, &after_scrape);
    report.metric(
        "serve.not_modified",
        get(&d, "http_responses_3xx_total"),
        "count",
        polled.latencies_us.len(),
    );
    let mut poll_us = polled.latencies_us;
    poll_us.sort_by(f64::total_cmp);
    report.metric(
        "serve.poll_us.p50",
        stats::percentile(&poll_us, 0.5).unwrap_or(f64::NAN),
        "us",
        poll_us.len(),
    );
    report.metric(
        "serve.poll_us.p99",
        stats::percentile(&poll_us, 0.99).unwrap_or(f64::NAN),
        "us",
        poll_us.len(),
    );
    Ok(corpus)
}

/// `PathwayIndex::new` per network plus one trace per distinct seed —
/// the traces `/pathways` runs. Returns how many ran.
fn pathway_traces(corpus: &Corpus) -> usize {
    let mut traces = 0;
    for n in &corpus.networks {
        let index = PathwayIndex::new(&n.instances, &n.instance_graph);
        let mut seen = BTreeSet::new();
        for rid in (0..n.network.routers.len()).map(RouterId) {
            if seen.insert(index.seed(rid).to_vec()) {
                let p = index.trace(rid);
                black_box((
                    p.max_depth(),
                    p.reaches_external_world(),
                    p.nodes.len(),
                    p.edges.len(),
                ));
                traces += 1;
            }
        }
    }
    traces
}

/// Phase 3.
fn request_path(
    ctx: &Ctx,
    tracer: &mut Tracer,
    report: &mut Report,
    addr: SocketAddr,
    corpus: &Corpus,
) -> Res<()> {
    let paths = query::request_paths(corpus, ctx.seed);
    let duration = (ctx.window / 4).max(Duration::from_secs(1));
    tracer.next_op();
    let started = Instant::now();
    let before = scrape(addr)?;
    let load = tracer.time("loadgen.window", || query::load(addr, &paths, duration))?;
    let after = scrape(addr)?;
    let window_us = started.elapsed().as_secs_f64() * 1e6;
    report.attempted += load.requests + load.errors;
    report.failed += load.errors;

    let d = delta(&before, &after);
    // The first scrape is itself counted by the second.
    let requests = get(&d, "http_requests_total") - 1.0;
    let (hits, misses) = (
        get(&d, "http_cache_hit_total"),
        get(&d, "http_cache_miss_total"),
    );
    let n = load.requests as usize;
    report.metric("serve.requests", requests, "count", n);
    report.metric(
        "serve.server_us_mean",
        get(&d, "http_request_us_sum") / get(&d, "http_request_us_count"),
        "us",
        n,
    );
    report.metric(
        "serve.loop_wait_share",
        get(&d, "loop_epoll_wait_us_sum") / (window_us * LOOP_THREADS as f64),
        "ratio",
        n,
    );
    report.metric(
        "serve.requests_per_wakeup",
        requests / get(&d, "loop_wakeups_total"),
        "ratio",
        n,
    );
    report.metric("serve.cache_hit_ratio", hits / (hits + misses), "ratio", n);
    report.metric(
        "serve.rejected_busy",
        get(&d, "http_rejected_busy_total"),
        "count",
        n,
    );
    report.metric(
        "serve.body_mb_per_s",
        load.body_bytes as f64 / 1e6 / load.duration.as_secs_f64(),
        "MB/s",
        n,
    );
    for (name, path) in [
        ("serve.healthz_us.p50", "/healthz"),
        ("serve.instances_us.p50", "/instances"),
    ] {
        let e = load.endpoints.iter().find(|e| e.path == path);
        report.metric(
            name,
            e.map_or(f64::NAN, |e| e.p50_us as f64),
            "us",
            e.map_or(0, |e| e.requests as usize),
        );
    }
    report.metric("serve.query_us.p99", load.p99_us as f64, "us", n);
    Ok(())
}
