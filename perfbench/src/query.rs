//! `query_mix`: the full-study snapshot served with no changes.
//!
//! `rd_bench::loadgen` runs a closed loop of keep-alive connections with
//! 4-deep pipelines over the standard `mixed_paths` set, rotated by the
//! seed. Bodies range from 52 B (`/healthz`) to 2.26 MB (`/instances`).
//! Analysis and the cache build happen in set-up, so only the request
//! path runs in the timed window.

use std::net::SocketAddr;
use std::time::Duration;

use rd_bench::loadgen::{self, LoadOptions, LoadStats};
use rd_rng::StdRng;
use rd_serve::{render, Server};
use rd_snap::Corpus;

use crate::report::Report;
use crate::trace::Tracer;
use crate::{http, layers, stats, study, Ctx, Res};

/// Client connections (one thread each).
pub const CONNS: usize = 2;
const PIPELINE: usize = 4;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 1;
/// Untimed load before the window, so the first sub-window does not
/// pay for cold connections and caches.
const WARM_UP: Duration = Duration::from_millis(500);
/// The window runs as sub-windows of this length; `op_ms.p50` and the
/// printed rate are medians over them, so a stall of the shared host
/// that covers a few sub-windows moves neither. Loadgen reports whole
/// microseconds, and the median of an even count keeps digits a single
/// one would lose.
const SUB_WINDOW: Duration = Duration::from_millis(500);
/// The window is cut into this many stretches with the body checks
/// between them, so its sub-windows sample a longer span of time than
/// the window itself.
const STRETCHES: usize = 4;

fn setup(ctx: &Ctx) -> Res<Server> {
    let study_dir = ctx.study_dir();
    study::emit(&study_dir).map_err(|e| format!("emit study: {e}"))?;
    let bytes = crate::snapshot_study(&study_dir)?;
    crate::serve_snapshot(&ctx.snapshot_path(), &bytes)
}

/// The standard request mix over the corpus's networks, rotated by a
/// seeded offset. A rotation keeps which paths share a pipelined batch,
/// so every seed sends the same mix of batches from another start.
pub fn request_paths(corpus: &Corpus, seed: u64) -> Vec<String> {
    let names: Vec<String> = corpus.networks.iter().map(|n| n.name.clone()).collect();
    let mut paths = loadgen::mixed_paths(&names);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e77_a11c);
    let by = rng.gen_range(0..paths.len());
    paths.rotate_left(by);
    paths
}

/// One loadgen window of `duration` over `paths`.
pub fn load(addr: SocketAddr, paths: &[String], duration: Duration) -> Res<LoadStats> {
    let opts = LoadOptions {
        conns: CONNS,
        pipeline: PIPELINE,
        duration,
        max_batches: None,
        paths: paths.to_vec(),
        connect_retries: 3,
    };
    loadgen::run(addr, &opts)
}

/// The body `rd_serve::render` gives for a static path.
fn expected_body(corpus: &Corpus, path: &str) -> Option<String> {
    match path
        .split('/')
        .filter(|s| !s.is_empty())
        .collect::<Vec<_>>()
        .as_slice()
    {
        ["networks"] => Some(render::networks_index(corpus)),
        ["instances"] => Some(render::instances(corpus)),
        ["pathways"] => Some(render::pathways(corpus)),
        ["diag"] => Some(render::diag(corpus)),
        ["networks", id] => corpus.get(id).map(render::network_summary),
        ["networks", id, "processes"] => corpus.get(id).map(render::network_processes),
        _ => None,
    }
}

/// Every static path's served body must equal the renderer's output for
/// the decoded snapshot.
fn check_bodies(
    report: &mut Report,
    addr: SocketAddr,
    corpus: &Corpus,
    paths: &[String],
) -> Res<()> {
    for path in paths {
        // A fresh connection each: rendering the reference can outlast
        // the server's keep-alive idle deadline.
        let resp = http::get_once(addr, path).map_err(|e| format!("GET {path}: {e}"))?;
        report.check(resp.status == 200, || {
            format!("GET {path} answered {}", resp.status)
        });
        if path == "/healthz" {
            continue;
        }
        let expected =
            expected_body(corpus, path).ok_or_else(|| format!("no renderer for {path}"))?;
        report.check(resp.body == expected.as_bytes(), || {
            format!("GET {path} differs from rd_serve::render")
        });
    }
    Ok(())
}

pub fn run(ctx: &Ctx) -> Res<Report> {
    let mut report = Report::default();
    let (server, mut setups) = crate::repeat_setup(
        if ctx.traced { 1 } else { SETUPS },
        || setup(ctx),
        Server::shutdown,
    )?;
    let addr = server.local_addr();
    let (corpus, _) = Corpus::read_file_with_trailer(&ctx.snapshot_path())?;
    let paths = request_paths(&corpus, ctx.seed);
    let mut checks = paths.chunks(paths.len().div_ceil(STRETCHES - 1));
    let warm = load(addr, &paths, WARM_UP)?;
    report.attempted += warm.requests + warm.errors;
    report.failed += warm.errors;

    // A traced run spends its first half with spans off.
    let mut tracer = Tracer::new(false);
    let (mut untraced, mut traced, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let (mut requests, mut busy) = (0usize, Duration::ZERO);
    let subs =
        ((ctx.window.as_secs_f64() / SUB_WINDOW.as_secs_f64()).round() as usize).max(STRETCHES);
    for i in 0..subs {
        if i > 0 && i * STRETCHES / subs != (i - 1) * STRETCHES / subs {
            if let Some(chunk) = checks.next() {
                check_bodies(&mut report, addr, &corpus, chunk)?;
            }
        }
        let spans_on = ctx.traced && i >= subs / 2 && !untraced.is_empty();
        tracer.set_enabled(spans_on);
        tracer.next_op();
        match tracer.time("loadgen.window", || load(addr, &paths, SUB_WINDOW)) {
            Ok(s) => {
                report.attempted += s.requests + s.errors;
                report.failed += s.errors;
                requests += s.requests as usize;
                busy += s.duration;
                rates.push(s.throughput_rps);
                let p50_ms = s.p50_us as f64 / 1e3;
                if spans_on {
                    traced.push(p50_ms)
                } else {
                    untraced.push(p50_ms)
                }
            }
            Err(e) => {
                report.attempted += 1;
                report.failed += 1;
                report.problem(format!("loadgen: {e}"));
                break;
            }
        }
    }
    for chunk in checks {
        check_bodies(&mut report, addr, &corpus, chunk)?;
    }
    report.note(format!(
        "query_mix: {requests} responses in {:.3} s over {} paths; {} sub-windows in {STRETCHES} stretches",
        busy.as_secs_f64(),
        paths.len(),
        rates.len(),
    ));

    if ctx.traced {
        crate::trace_overhead(&mut report, &mut untraced, &mut traced);
        layers::sweep(ctx, &mut tracer, &mut report, Some(&server))?;
    } else {
        let p50 = stats::median(&mut untraced).unwrap_or(f64::NAN);
        let rate = stats::median(&mut rates).unwrap_or(f64::NAN);
        crate::end_to_end(&mut report, &mut setups, p50, requests, rate, requests);
    }
    server.shutdown();
    Ok(report)
}
