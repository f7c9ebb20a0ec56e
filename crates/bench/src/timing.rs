//! The self-contained bench mode behind `repro --bench`: times the
//! generate + analyze pipeline per network and per stage, and renders the
//! result as `BENCH_repro.json` — hand-rolled JSON, so the harness works
//! with no external crates and no network access (criterion stays an
//! opt-in feature; see `criterion-benches` in this crate's manifest).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use netgen::{study_roster, StudyScale};
use rd_par::StageTimings;
use rd_snap::Corpus;
use routing_design::report::StudyNetwork;
use routing_design::NetworkAnalysis;

/// Timing record of one network's generate + analyze run.
pub struct NetworkBench {
    /// Roster name (`net1`...).
    pub name: String,
    /// Router count of the generated corpus.
    pub routers: usize,
    /// Wall-clock of corpus generation (netgen).
    pub generate: Duration,
    /// Per-stage wall-clock of the analysis (includes `"parse"`).
    pub stages: StageTimings,
}

impl NetworkBench {
    /// Generation plus every analysis stage.
    pub fn total(&self) -> Duration {
        self.generate + self.stages.total()
    }
}

/// Timing record of one whole-study run at one scale.
pub struct ScaleBench {
    /// `"small"` or `"full"`.
    pub scale: &'static str,
    /// Worker threads the parallel run used.
    pub threads: usize,
    /// End-to-end wall-clock of the parallel run.
    pub wall: Duration,
    /// End-to-end wall-clock of the same work on one thread, measured
    /// only when `threads > 1` (it is the same run otherwise).
    pub sequential_wall: Option<Duration>,
    /// Per-network records from the parallel run, in roster order.
    pub networks: Vec<NetworkBench>,
}

impl ScaleBench {
    /// Stage durations summed across every network.
    pub fn stage_totals(&self) -> StageTimings {
        let mut totals = StageTimings::new();
        totals.push("generate", self.networks.iter().map(|n| n.generate).sum());
        for n in &self.networks {
            totals.merge(&n.stages);
        }
        totals
    }

    /// `sequential_wall / wall`, when both were measured.
    pub fn speedup(&self) -> Option<f64> {
        self.sequential_wall.map(|s| s.as_secs_f64() / self.wall.as_secs_f64())
    }
}

/// Runs the whole study at `scale` on `threads` workers, timing each
/// network's generation and each analysis stage. Per-network work runs
/// through the same `rd_par` fan-out as `analyzed_study`.
pub fn bench_study(scale: StudyScale, threads: usize) -> Vec<NetworkBench> {
    let roster = study_roster(scale);
    rd_par::par_map_threads(threads, &roster, |_, spec| {
        let started = Instant::now();
        let generated = netgen::study::generate_network(spec, scale);
        let generate = started.elapsed();
        let analysis = NetworkAnalysis::from_texts(generated.texts)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        rd_obs::trace::event(
            "bench.network",
            &[
                ("name", spec.name.as_str().into()),
                ("routers", analysis.network.len().into()),
            ],
        );
        NetworkBench {
            name: spec.name.clone(),
            routers: analysis.network.len(),
            generate,
            stages: analysis.timings,
        }
    })
}

/// Benches one scale end to end: a parallel run on [`rd_par::thread_count`]
/// workers plus, when that is more than one, a single-thread run of the
/// same work for the speedup baseline.
pub fn bench_scale(scale: StudyScale) -> ScaleBench {
    let threads = rd_par::thread_count();
    let started = Instant::now();
    let networks = bench_study(scale, threads);
    let wall = started.elapsed();
    let sequential_wall = (threads > 1).then(|| {
        let started = Instant::now();
        // The inner parse fan-out still sees RD_THREADS; pin it to 1 so
        // the baseline is truly sequential, then restore.
        let saved = std::env::var(rd_par::THREADS_ENV).ok();
        std::env::set_var(rd_par::THREADS_ENV, "1");
        let baseline = bench_study(scale, 1);
        match saved {
            Some(v) => std::env::set_var(rd_par::THREADS_ENV, v),
            None => std::env::remove_var(rd_par::THREADS_ENV),
        }
        drop(baseline);
        started.elapsed()
    });
    ScaleBench {
        scale: match scale {
            StudyScale::Small => "small",
            StudyScale::Full => "full",
        },
        threads,
        wall,
        sequential_wall,
        networks,
    }
}

/// Timing record of one isolated `ExternalAnalysis::build` run — the
/// address-analytics stage the `netaddr` prefix index layer serves.
pub struct ExternalBench {
    /// Roster name of the measured network.
    pub network: String,
    /// Routers in the generated corpus.
    pub routers: usize,
    /// Interfaces the build classified.
    pub interfaces: usize,
    /// Wall-clock of one `ExternalAnalysis::build`.
    pub build: Duration,
}

/// Times `ExternalAnalysis::build` in isolation on the largest roster
/// network (`net18`, 1,750 routers at full scale; the last roster entry
/// should that name ever disappear). Generation, parse, and link
/// inference all run outside the timed region, so the record tracks just
/// the external-classification stage across benchmark history.
pub fn bench_external(scale: StudyScale) -> ExternalBench {
    let roster = study_roster(scale);
    let spec = roster
        .iter()
        .find(|s| s.name == "net18")
        .or_else(|| roster.last())
        .expect("non-empty study roster");
    let generated = netgen::study::generate_network(spec, scale);
    let net = nettopo::Network::from_texts(generated.texts)
        .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
    let links = nettopo::LinkMap::build(&net);
    let started = Instant::now();
    let analysis = nettopo::ExternalAnalysis::build(&net, &links);
    let build = started.elapsed();
    ExternalBench {
        network: spec.name.clone(),
        routers: net.len(),
        interfaces: analysis.classes.len(),
        build,
    }
}

/// Timing record of the snapshot (`rd-snap`) round trip over an analyzed
/// study: encode-to-bytes vs decode-from-bytes vs the analysis wall that
/// produced the corpus in the first place.
pub struct SnapBench {
    /// Networks in the snapshotted corpus.
    pub networks: usize,
    /// Encoded container size.
    pub bytes: usize,
    /// Wall-clock of encoding the whole corpus (`snap:write`).
    pub write: Duration,
    /// Wall-clock of decoding it back (`snap:load`).
    pub load: Duration,
    /// Summed per-stage analysis wall of the same corpus — what a load
    /// replaces, measured on the same (sequential) terms.
    pub analyze: Duration,
}

impl SnapBench {
    /// How many times faster loading the snapshot is than re-analyzing.
    pub fn speedup(&self) -> f64 {
        self.analyze.as_secs_f64() / self.load.as_secs_f64().max(1e-9)
    }
}

/// Snapshots an analyzed study in memory, timing the encode and decode
/// halves. Returns the record plus the decoded corpus (handy for pushing
/// straight into [`bench_serve`]).
///
/// Consumes the analyses so at most one full copy of the study is alive
/// at a time — on memory-tight machines, extra resident copies perturb
/// the very timings being measured.
pub fn bench_snapshot(networks: Vec<StudyNetwork>) -> (SnapBench, Corpus) {
    let count = networks.len();
    let mut analyze = Duration::ZERO;
    let mut snaps = Vec::with_capacity(count);
    for n in networks {
        analyze += n.analysis.timings.total();
        snaps.push(routing_design::snapshot::capture(&n.name, n.analysis));
    }
    let corpus = Corpus::new(snaps);
    let started = Instant::now();
    let bytes = corpus.to_bytes();
    let write = started.elapsed();
    drop(corpus);
    let started = Instant::now();
    let loaded = Corpus::from_bytes(&bytes).expect("snapshot roundtrip");
    let load = started.elapsed();
    (SnapBench { networks: count, bytes: bytes.len(), write, load, analyze }, loaded)
}

/// Builds the snapshot corpus of a study scale without timing anything
/// — for benches that need a served corpus but measure the query
/// server, not snapshot I/O.
pub fn study_corpus(scale: StudyScale) -> Corpus {
    let networks = crate::analyzed_study(scale);
    Corpus::new(
        networks
            .into_iter()
            .map(|n| routing_design::snapshot::capture(&n.name, n.analysis))
            .collect(),
    )
}

/// Borrowing variant of [`bench_snapshot`] for callers that still need
/// the analyses afterwards (`repro --timings`): clones each analysis
/// into its snapshot form first.
pub fn bench_snapshot_ref(networks: &[StudyNetwork]) -> (SnapBench, Corpus) {
    let analyze = networks.iter().map(|n| n.analysis.timings.total()).sum();
    let snaps = networks
        .iter()
        .map(|n| routing_design::snapshot::capture_ref(&n.name, &n.analysis))
        .collect();
    let corpus = Corpus::new(snaps);
    let started = Instant::now();
    let bytes = corpus.to_bytes();
    let write = started.elapsed();
    drop(corpus);
    let started = Instant::now();
    let loaded = Corpus::from_bytes(&bytes).expect("snapshot roundtrip");
    let load = started.elapsed();
    (
        SnapBench { networks: networks.len(), bytes: bytes.len(), write, load, analyze },
        loaded,
    )
}

/// Latency record of a short `rd-serve` request burst.
pub struct ServeBench {
    /// Requests measured (after warmup).
    pub requests: usize,
    /// Median request latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: u64,
    /// Requests per second over the whole burst.
    pub throughput_rps: f64,
}

/// One HTTP/1.1 GET over an existing keep-alive connection, framed by
/// `content-length`. Returns the body length.
fn keepalive_get(stream: &mut TcpStream, path: &str) -> usize {
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nhost: bench\r\n\r\n").as_bytes())
        .expect("request written");
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("response head");
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).expect("ascii head");
    assert!(head.starts_with("HTTP/1.1 200"), "unexpected status: {head}");
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length: "))
        .expect("content-length")
        .parse()
        .expect("numeric length");
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).expect("response body");
    len
}

/// Measures `requests` sequential GETs of `path` over one keep-alive
/// connection to an already-running server.
fn serve_burst(server: &rd_serve::Server, path: &str, requests: usize) -> ServeBench {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    for _ in 0..5 {
        keepalive_get(&mut stream, path);
    }
    let mut latencies = Vec::with_capacity(requests);
    let started = Instant::now();
    for _ in 0..requests {
        let t = Instant::now();
        keepalive_get(&mut stream, path);
        latencies.push(t.elapsed().as_micros() as u64);
    }
    let wall = started.elapsed();
    latencies.sort_unstable();
    let pick = |q: f64| latencies[((latencies.len() - 1) as f64 * q) as usize];
    ServeBench {
        requests,
        p50_us: pick(0.50),
        p99_us: pick(0.99),
        throughput_rps: requests as f64 / wall.as_secs_f64().max(1e-9),
    }
}

/// Serves `corpus` on an ephemeral port and measures `requests` GETs of
/// `/networks/{first}` over one keep-alive connection.
pub fn bench_serve(corpus: Corpus, requests: usize) -> ServeBench {
    let path = match corpus.networks.first() {
        Some(n) => format!("/networks/{}", n.name),
        None => "/networks".to_string(),
    };
    let server = rd_serve::Server::start(corpus, "127.0.0.1:0", 0).expect("bench server");
    let result = serve_burst(&server, &path, requests);
    server.shutdown();
    result
}

/// Result of the pipelined mixed-endpoint load run (`bench_serve` in
/// `BENCH_repro.json`): what the epoll server sustains when clients
/// batch requests instead of strict request/response lockstep.
pub struct ServeLoadBench {
    /// Concurrent keep-alive connections.
    pub conns: usize,
    /// Requests pipelined per write.
    pub pipeline: usize,
    /// Measured window wall-clock.
    pub duration: Duration,
    /// Responses received.
    pub requests: u64,
    /// Non-200 responses plus I/O failures (must be zero).
    pub errors: u64,
    /// `requests / duration`.
    pub throughput_rps: f64,
    /// Median latency, microseconds (batch send → response completion).
    pub p50_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// 99.9th-percentile latency, microseconds.
    pub p999_us: u64,
}

/// Starts one server over `corpus` and measures both serve benchmarks
/// against it: the sequential single-connection burst (the `serve`
/// section, comparable across benchmark history) and the pipelined
/// mixed-endpoint load run (the `bench_serve` section).
pub fn bench_serve_with_load(
    corpus: Corpus,
    requests: usize,
    load: &crate::loadgen::LoadOptions,
) -> (ServeBench, ServeLoadBench) {
    let names: Vec<String> = corpus.networks.iter().map(|n| n.name.clone()).collect();
    let burst_path = match names.first() {
        Some(n) => format!("/networks/{n}"),
        None => "/networks".to_string(),
    };
    let server = rd_serve::Server::start(corpus, "127.0.0.1:0", 0).expect("bench server");
    let burst = serve_burst(&server, &burst_path, requests);
    let opts = crate::loadgen::LoadOptions {
        conns: load.conns,
        pipeline: load.pipeline,
        duration: load.duration,
        max_batches: load.max_batches,
        paths: if load.paths.is_empty() {
            crate::loadgen::mixed_paths(&names)
        } else {
            load.paths.clone()
        },
        connect_retries: load.connect_retries,
    };
    let stats = crate::loadgen::run(server.local_addr(), &opts).expect("load run");
    server.shutdown();
    let load_bench = ServeLoadBench {
        conns: opts.conns,
        pipeline: opts.pipeline,
        duration: stats.duration,
        requests: stats.requests,
        errors: stats.errors,
        throughput_rps: stats.throughput_rps,
        p50_us: stats.p50_us,
        p99_us: stats.p99_us,
        p999_us: stats.p999_us,
    };
    (burst, load_bench)
}

/// Timing record of one reconfiguration-planning scenario (`bench_plan`
/// in `BENCH_repro.json`): the rd-plan diff → DAG → verified-search
/// pipeline run end to end through the real analysis bridge.
pub struct PlanBench {
    /// Scenario label (`"demo"`, `"star6"`).
    pub scenario: &'static str,
    /// Router count of the target corpus.
    pub routers: usize,
    /// Atomic change units between the corpora.
    pub units: usize,
    /// Steps in the safe ordering (equals `units` on success).
    pub steps: usize,
    /// Intermediate corpus states fully re-analyzed by the search.
    pub states_analyzed: usize,
    /// Wall-clock of the fingerprint diff phase.
    pub diff: Duration,
    /// Wall-clock of the dependency-DAG build.
    pub dag: Duration,
    /// Wall-clock of the verified ordering search (dominant phase: it
    /// re-analyzes every intermediate state).
    pub search: Duration,
}

/// Plans the two seeded rd-plan scenarios (the four-router demo whose
/// naive order is unsafe, and a six-spoke hub renumbering) through the
/// full analysis pipeline and records per-phase wall-clock.
pub fn bench_plan() -> Vec<PlanBench> {
    let scenarios: [(&'static str, _); 2] = [
        ("demo", rd_plan::scenario::demo(42)),
        ("star6", rd_plan::scenario::star(6, 7)),
    ];
    scenarios
        .into_iter()
        .map(|(scenario, (current, target))| {
            let routers = target.len();
            let plan = routing_design::plan::plan_corpora(&current, &target)
                .unwrap_or_else(|e| panic!("bench_plan {scenario}: {e}"));
            let phase = |name: &str| {
                plan.timings
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, d)| *d)
                    .unwrap_or_default()
            };
            PlanBench {
                scenario,
                routers,
                units: plan.units.len(),
                steps: plan.order.len(),
                states_analyzed: plan.stats.states_analyzed,
                diff: phase("diff"),
                dag: phase("dag"),
                search: phase("search"),
            }
        })
        .collect()
}

/// Timing record of the incremental re-analysis engine (`bench_incremental`
/// in `BENCH_repro.json`): a cold study snapshot vs delta refreshes after
/// small config changes, with the engine's reuse accounting.
pub struct IncrementalBench {
    /// Networks in the study.
    pub networks: usize,
    /// Wall-clock of the cold run (`snap_dir` + encode), the baseline a
    /// refresh competes against.
    pub cold: Duration,
    /// Wall-clock of one refresh after a single-router change.
    pub one_change: Duration,
    /// Engine accounting for the single-router refresh.
    pub one_stats: routing_design::incremental::RefreshStats,
    /// Wall-clock of one refresh after changes in five networks.
    pub five_change: Duration,
    /// Engine accounting for the five-network refresh.
    pub five_stats: routing_design::incremental::RefreshStats,
}

impl IncrementalBench {
    /// `cold / one_change`: how many times faster a one-router refresh is.
    pub fn one_change_speedup(&self) -> f64 {
        self.cold.as_secs_f64() / self.one_change.as_secs_f64().max(1e-9)
    }
}

/// Benches the delta engine over the generated study at `scale`: writes
/// the corpus to a scratch directory, times a cold `snap_dir` run, then
/// times delta refreshes after a one-router change and after changes in
/// five networks. The scratch directory is removed afterwards.
pub fn bench_incremental(scale: StudyScale) -> IncrementalBench {
    let dir = std::env::temp_dir().join(format!("rd_bench_incr_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let roster = study_roster(scale);
    for spec in &roster {
        let sub = dir.join(&spec.name);
        std::fs::create_dir_all(&sub).expect("scratch network dir");
        let generated = netgen::study::generate_network(spec, scale);
        for (name, text) in &generated.texts {
            std::fs::write(sub.join(name), text).expect("scratch config");
        }
    }

    let started = Instant::now();
    let outcome = routing_design::snapshot::snap_dir(&dir).expect("cold study run");
    let cold_bytes = outcome.corpus.to_bytes();
    let cold = started.elapsed();
    drop(cold_bytes);

    let mut engine = routing_design::incremental::DeltaEngine::new(&dir);
    engine.refresh().expect("warm-up refresh");

    // One router in one network grows a loopback.
    let touch = |net: &str| {
        let files = routing_design::layout::list_configs(&dir.join(net))
            .expect("scratch network readable");
        let victim = &files.first().expect("network has files").path;
        let mut text = std::fs::read_to_string(victim).expect("victim readable");
        text.push_str("interface Loopback99\n ip address 10.99.0.1 255.255.255.255\n");
        std::fs::write(victim, text).expect("victim rewritten");
    };
    // Best-of-three shaves scheduler noise, same as the parallel-speedup
    // bench: each round appends another line to the same router and
    // refreshes, so every round recomputes exactly one network.
    let mut one_change = Duration::MAX;
    let mut one_stats = routing_design::incremental::RefreshStats::default();
    for _ in 0..3 {
        touch(&roster[0].name);
        let started = Instant::now();
        let one = engine.refresh().expect("one-change refresh");
        one_change = one_change.min(started.elapsed());
        one_stats = one.stats;
    }

    for spec in roster.iter().take(5) {
        touch(&spec.name);
    }
    let started = Instant::now();
    let five = engine.refresh().expect("five-change refresh");
    let five_change = started.elapsed();

    let _ = std::fs::remove_dir_all(&dir);
    IncrementalBench {
        networks: roster.len(),
        cold,
        one_change,
        one_stats,
        five_change,
        five_stats: five.stats,
    }
}

fn json_ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

fn json_stages(indent: &str, t: &StageTimings) -> String {
    let body: Vec<String> = t
        .stages
        .iter()
        .map(|(name, d)| format!("{indent}  \"{name}\": {}", json_ms(*d)))
        .collect();
    format!("{{\n{}\n{indent}}}", body.join(",\n"))
}

/// Renders bench results as the `BENCH_repro.json` document. The
/// document additionally carries the `rd-obs` metrics registry as a
/// top-level `"metrics"` object (counters/gauges as numbers, histograms
/// as objects), and — when measured — `"snap"` (snapshot size and
/// write/load timings vs re-analysis), `"serve"` (sequential request
/// latency percentiles), `"bench_serve"` (the pipelined mixed-endpoint
/// load run: throughput plus p50/p99/p999), `"bench_external"` (the
/// isolated external-classification stage), `"bench_plan"` (the
/// reconfiguration-planning scenarios), and `"bench_incremental"` (cold
/// study wall vs delta refreshes with reuse accounting) objects. All
/// additive, so existing consumers of `"scales"` are unaffected.
pub fn render_json(
    scales: &[ScaleBench],
    snap: Option<&SnapBench>,
    serve: Option<&ServeBench>,
    serve_load: Option<&ServeLoadBench>,
    external: Option<&ExternalBench>,
    plan: Option<&[PlanBench]>,
    incremental: Option<&IncrementalBench>,
) -> String {
    let mut out = String::from("{\n  \"benchmark\": \"repro\",\n  \"unit\": \"ms\",\n");
    out.push_str(&format!(
        "  \"metrics\": {},\n",
        rd_obs::metrics::render_json("  ")
    ));
    if let Some(s) = snap {
        out.push_str(&format!(
            "  \"snap\": {{\n    \"networks\": {},\n    \"bytes\": {},\n    \
             \"write_ms\": {},\n    \"load_ms\": {},\n    \"analyze_ms\": {},\n    \
             \"load_speedup\": {:.1}\n  }},\n",
            s.networks,
            s.bytes,
            json_ms(s.write),
            json_ms(s.load),
            json_ms(s.analyze),
            s.speedup(),
        ));
    }
    if let Some(s) = serve {
        out.push_str(&format!(
            "  \"serve\": {{\n    \"requests\": {},\n    \"p50_us\": {},\n    \
             \"p99_us\": {},\n    \"throughput_rps\": {:.0}\n  }},\n",
            s.requests, s.p50_us, s.p99_us, s.throughput_rps,
        ));
    }
    if let Some(l) = serve_load {
        out.push_str(&format!(
            "  \"bench_serve\": {{\n    \"conns\": {},\n    \"pipeline\": {},\n    \
             \"duration_ms\": {},\n    \"requests\": {},\n    \"errors\": {},\n    \
             \"throughput_rps\": {:.0},\n    \"p50_us\": {},\n    \"p99_us\": {},\n    \
             \"p999_us\": {}\n  }},\n",
            l.conns,
            l.pipeline,
            json_ms(l.duration),
            l.requests,
            l.errors,
            l.throughput_rps,
            l.p50_us,
            l.p99_us,
            l.p999_us,
        ));
    }
    if let Some(e) = external {
        out.push_str(&format!(
            "  \"bench_external\": {{\n    \"network\": \"{}\",\n    \
             \"routers\": {},\n    \"interfaces\": {},\n    \"build_ms\": {}\n  }},\n",
            e.network,
            e.routers,
            e.interfaces,
            json_ms(e.build),
        ));
    }
    if let Some(plans) = plan {
        let blocks: Vec<String> = plans
            .iter()
            .map(|p| {
                format!(
                    "    {{\n      \"scenario\": \"{}\",\n      \"routers\": {},\n      \
                     \"units\": {},\n      \"steps\": {},\n      \"states_analyzed\": {},\n      \
                     \"diff_ms\": {},\n      \"dag_ms\": {},\n      \"search_ms\": {}\n    }}",
                    p.scenario,
                    p.routers,
                    p.units,
                    p.steps,
                    p.states_analyzed,
                    json_ms(p.diff),
                    json_ms(p.dag),
                    json_ms(p.search),
                )
            })
            .collect();
        out.push_str(&format!("  \"bench_plan\": [\n{}\n  ],\n", blocks.join(",\n")));
    }
    if let Some(i) = incremental {
        out.push_str(&format!(
            "  \"bench_incremental\": {{\n    \"networks\": {},\n    \"cold_ms\": {},\n    \
             \"one_change_ms\": {},\n    \"one_change_reused\": {},\n    \
             \"one_change_recomputed\": {},\n    \"one_change_files_reparsed\": {},\n    \
             \"one_change_speedup\": {:.1},\n    \"five_change_ms\": {},\n    \
             \"five_change_reused\": {},\n    \"five_change_recomputed\": {},\n    \
             \"five_change_files_reparsed\": {}\n  }},\n",
            i.networks,
            json_ms(i.cold),
            json_ms(i.one_change),
            i.one_stats.reused,
            i.one_stats.recomputed,
            i.one_stats.files_reparsed,
            i.one_change_speedup(),
            json_ms(i.five_change),
            i.five_stats.reused,
            i.five_stats.recomputed,
            i.five_stats.files_reparsed,
        ));
    }
    out.push_str("  \"scales\": [\n");
    let rendered: Vec<String> = scales
        .iter()
        .map(|s| {
            let mut block = String::from("    {\n");
            block.push_str(&format!("      \"scale\": \"{}\",\n", s.scale));
            block.push_str(&format!("      \"threads\": {},\n", s.threads));
            block.push_str(&format!("      \"wall_ms\": {},\n", json_ms(s.wall)));
            if let Some(seq) = s.sequential_wall {
                block.push_str(&format!("      \"sequential_wall_ms\": {},\n", json_ms(seq)));
                block.push_str(&format!(
                    "      \"speedup\": {:.2},\n",
                    s.speedup().expect("speedup measured")
                ));
            }
            block.push_str(&format!(
                "      \"stage_totals_ms\": {},\n",
                json_stages("      ", &s.stage_totals())
            ));
            let nets: Vec<String> = s
                .networks
                .iter()
                .map(|n| {
                    format!(
                        "        {{\n          \"name\": \"{}\",\n          \"routers\": {},\n          \"total_ms\": {},\n          \"generate_ms\": {},\n          \"stages_ms\": {}\n        }}",
                        n.name,
                        n.routers,
                        json_ms(n.total()),
                        json_ms(n.generate),
                        json_stages("          ", &n.stages)
                    )
                })
                .collect();
            block.push_str(&format!("      \"networks\": [\n{}\n      ]\n", nets.join(",\n")));
            block.push_str("    }");
            block
        })
        .collect();
    out.push_str(&rendered.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_small_scale_records_every_network_and_stage() {
        let networks = bench_study(StudyScale::Small, 1);
        assert_eq!(networks.len(), study_roster(StudyScale::Small).len());
        for n in &networks {
            assert!(n.routers > 0, "{} generated no routers", n.name);
            for stage in
                ["parse", "links", "external", "processes", "adjacencies", "instances"]
            {
                assert!(n.stages.get(stage).is_some(), "{} missing stage {stage}", n.name);
            }
        }
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let scales = vec![ScaleBench {
            scale: "small",
            threads: 2,
            wall: Duration::from_millis(10),
            sequential_wall: Some(Duration::from_millis(18)),
            networks: vec![NetworkBench {
                name: "net1".into(),
                routers: 7,
                generate: Duration::from_millis(1),
                stages: {
                    let mut t = StageTimings::new();
                    t.push("parse", Duration::from_millis(2));
                    t.push("links", Duration::from_millis(3));
                    t
                },
            }],
        }];
        let snap = SnapBench {
            networks: 1,
            bytes: 4096,
            write: Duration::from_millis(1),
            load: Duration::from_millis(2),
            analyze: Duration::from_millis(40),
        };
        let serve = ServeBench {
            requests: 100,
            p50_us: 180,
            p99_us: 950,
            throughput_rps: 5000.0,
        };
        let external = ExternalBench {
            network: "net18".into(),
            routers: 1750,
            interfaces: 7000,
            build: Duration::from_millis(120),
        };
        let serve_load = ServeLoadBench {
            conns: 4,
            pipeline: 64,
            duration: Duration::from_secs(3),
            requests: 360000,
            errors: 0,
            throughput_rps: 120000.0,
            p50_us: 150,
            p99_us: 210,
            p999_us: 400,
        };
        let plans = vec![PlanBench {
            scenario: "demo",
            routers: 4,
            units: 4,
            steps: 4,
            states_analyzed: 9,
            diff: Duration::from_millis(1),
            dag: Duration::from_millis(1),
            search: Duration::from_millis(30),
        }];
        let incremental = IncrementalBench {
            networks: 31,
            cold: Duration::from_millis(3100),
            one_change: Duration::from_millis(100),
            one_stats: routing_design::incremental::RefreshStats {
                networks: 31,
                reused: 30,
                recomputed: 1,
                files_reparsed: 1,
                dropped: 0,
            },
            five_change: Duration::from_millis(500),
            five_stats: routing_design::incremental::RefreshStats {
                networks: 31,
                reused: 26,
                recomputed: 5,
                files_reparsed: 5,
                dropped: 0,
            },
        };
        let text = render_json(
            &scales,
            Some(&snap),
            Some(&serve),
            Some(&serve_load),
            Some(&external),
            Some(&plans),
            Some(&incremental),
        );
        assert!(text.contains("\"speedup\": 1.80"));
        assert!(text.contains("\"parse\": 2.000"));
        assert!(text.contains("\"routers\": 7"));
        assert!(text.contains("\"load_speedup\": 20.0"));
        assert!(text.contains("\"p99_us\": 950"));
        assert!(text.contains("\"bench_serve\""));
        assert!(text.contains("\"throughput_rps\": 120000"));
        assert!(text.contains("\"p999_us\": 400"));
        assert!(text.contains("\"bench_external\""));
        assert!(text.contains("\"build_ms\": 120.000"));
        assert!(text.contains("\"bench_plan\""));
        assert!(text.contains("\"states_analyzed\": 9"));
        assert!(text.contains("\"search_ms\": 30.000"));
        assert!(text.contains("\"bench_incremental\""));
        assert!(text.contains("\"one_change_reused\": 30"));
        assert!(text.contains("\"one_change_speedup\": 31.0"));
        assert!(text.contains("\"five_change_recomputed\": 5"));
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        assert_eq!(text.matches('[').count(), text.matches(']').count());

        // Without the optional sections the legacy shape is untouched.
        let legacy = render_json(&scales, None, None, None, None, None, None);
        assert!(!legacy.contains("\"snap\""));
        assert!(!legacy.contains("\"serve\""));
        assert!(!legacy.contains("\"bench_serve\""));
        assert!(!legacy.contains("\"bench_external\""));
        assert!(!legacy.contains("\"bench_plan\""));
        assert!(!legacy.contains("\"bench_incremental\""));
    }

    #[test]
    fn external_bench_isolates_the_largest_network() {
        let e = bench_external(StudyScale::Small);
        assert_eq!(e.network, "net18");
        assert!(e.routers > 0, "no routers generated");
        assert!(e.interfaces > 0, "no interfaces classified");
    }

    #[test]
    fn snapshot_bench_roundtrips_and_beats_reanalysis_floor() {
        let networks = rd_bench_study_subset();
        let count = networks.len();
        let (snap, corpus) = bench_snapshot_ref(&networks);
        assert_eq!(snap.networks, count);
        assert_eq!(corpus.networks.len(), count);
        assert!(snap.bytes > 0);
        // No wall-clock assertion beyond sanity: timings are environment
        // dependent, the ≥10x claim is checked by the verify harness.
        assert!(snap.speedup() > 0.0);
    }

    #[test]
    fn serve_bench_measures_latency_percentiles() {
        let networks = rd_bench_study_subset();
        let (_, corpus) = bench_snapshot(networks);
        let result = bench_serve(corpus, 20);
        assert_eq!(result.requests, 20);
        assert!(result.p50_us <= result.p99_us);
        assert!(result.throughput_rps > 0.0);
    }

    #[test]
    fn serve_load_bench_runs_mixed_pipelined_traffic() {
        let networks = rd_bench_study_subset();
        let (_, corpus) = bench_snapshot(networks);
        let load = crate::loadgen::LoadOptions {
            conns: 2,
            pipeline: 8,
            duration: Duration::from_millis(300),
            max_batches: None,
            paths: Vec::new(),
            connect_retries: 3,
        };
        let (burst, stats) = bench_serve_with_load(corpus, 20, &load);
        assert_eq!(burst.requests, 20);
        assert_eq!(stats.errors, 0, "load run saw errors");
        assert!(stats.requests >= stats.conns as u64 * stats.pipeline as u64);
        assert!(stats.p50_us <= stats.p99_us && stats.p99_us <= stats.p999_us);
        assert!(stats.throughput_rps > 0.0);
    }

    #[test]
    fn incremental_bench_reuses_unchanged_networks() {
        let bench = bench_incremental(StudyScale::Small);
        assert_eq!(bench.networks, study_roster(StudyScale::Small).len());
        assert_eq!(bench.one_stats.recomputed, 1, "one changed network recomputed");
        assert_eq!(bench.one_stats.reused, bench.networks - 1);
        assert_eq!(bench.one_stats.files_reparsed, 1, "only the changed file reparses");
        assert_eq!(bench.five_stats.recomputed, 5);
        assert_eq!(bench.five_stats.reused, bench.networks - 5);
        assert_eq!(bench.five_stats.files_reparsed, 5);
    }

    /// Two small study networks analyzed for the snapshot/serve benches.
    fn rd_bench_study_subset() -> Vec<StudyNetwork> {
        study_roster(StudyScale::Small)
            .into_iter()
            .filter(|spec| spec.name == "net1" || spec.name == "net2")
            .map(|spec| {
                let generated = netgen::study::generate_network(&spec, StudyScale::Small);
                let analysis =
                    NetworkAnalysis::from_texts(generated.texts).expect("subset analyzes");
                StudyNetwork { name: spec.name.clone(), analysis }
            })
            .collect()
    }
}
