//! The repository benchmark: the full study (31 networks, 8,035 configs)
//! driven through the program's public functions.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_study|churn|query_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` it prints the
//! end-to-end metrics; with `--trace 1` it records spans around every
//! call into a layer, writes them to `.perfbench_out/`, and prints the
//! per-layer metrics. The last line of standard output is the JSON
//! result. See `perfbench/README.md` for the workloads and metrics.

mod churn;
mod cold;
mod edits;
mod http;
mod layers;
mod poll;
mod promtext;
mod query;
mod report;
mod stats;
mod study;
mod trace;

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rd_serve::{ServeOptions, Server};

use report::Report;

pub type Res<T> = Result<T, String>;

/// What every workload needs to know about the run.
pub struct Ctx {
    pub seed: u64,
    pub window: Duration,
    pub traced: bool,
    /// `RD_THREADS` for the analysis, at most the machine's core count.
    pub threads: usize,
    /// Scratch directory of this run, removed when it ends.
    pub work: PathBuf,
    /// Where the traced run leaves its spans.
    pub out: PathBuf,
    pub workload: String,
}

impl Ctx {
    pub fn study_dir(&self) -> PathBuf {
        self.work.join("study")
    }

    /// The snapshot lives beside, never inside, the watched study: a
    /// stray file at the study root would turn it into one network.
    pub fn snapshot_path(&self) -> PathBuf {
        self.work.join("snap").join("study.rdsnap")
    }
}

/// Event-loop threads of every in-process server.
pub const LOOP_THREADS: usize = 1;

/// The container bytes of a cold `snap_dir` of the study; a dropped
/// network is an error.
pub fn snapshot_study(study: &Path) -> Res<Vec<u8>> {
    let outcome =
        routing_design::snapshot::snap_dir(study).map_err(|e| format!("snap_dir: {e}"))?;
    if let Some(d) = outcome.dropped.first() {
        return Err(format!("network {} dropped: {}", d.name, d.reason));
    }
    Ok(outcome.corpus.to_bytes())
}

/// The ETag the server derives from a container's trailer.
pub fn etag_of(bytes: &[u8]) -> String {
    format!(
        "\"{:016x}\"",
        rd_snap::trailer_of(bytes).unwrap_or_default()
    )
}

/// Persists `bytes` and serves them the way `rdx serve` does.
pub fn serve_snapshot(path: &Path, bytes: &[u8]) -> Res<Server> {
    rd_snap::write_atomic(path, bytes).map_err(|e| format!("persist {}: {e}", path.display()))?;
    let opts = ServeOptions {
        workers: LOOP_THREADS,
        ..ServeOptions::default()
    };
    Server::start_file(path, "127.0.0.1:0", opts).map_err(|e| format!("server start: {e}"))
}

/// Scrapes `/metrics` into samples.
pub fn scrape(addr: SocketAddr) -> Res<promtext::Scrape> {
    let resp = http::get_once(addr, "/metrics").map_err(|e| format!("scrape /metrics: {e}"))?;
    if resp.status != 200 {
        return Err(format!("/metrics answered {}", resp.status));
    }
    Ok(promtext::parse(&String::from_utf8_lossy(&resp.body)))
}

/// Peak resident set (`VmHWM`) of this process, which hosts the
/// server, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `n` ops over `window`, per second.
pub fn per_s(n: usize, window: Duration) -> f64 {
    n as f64 / window.as_secs_f64()
}

/// Runs `setup` `n` times, timing each, and keeps the last result;
/// earlier ones go to `teardown` outside the timed part.
pub fn repeat_setup<T>(
    n: usize,
    mut setup: impl FnMut() -> Res<T>,
    mut teardown: impl FnMut(T),
) -> Res<(T, Vec<f64>)> {
    let mut times = Vec::with_capacity(n);
    let mut last: Option<T> = None;
    for _ in 0..n.max(1) {
        if let Some(old) = last.take() {
            teardown(old);
        }
        let started = Instant::now();
        last = Some(setup()?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), times))
}

/// Checks that the served ETag is the one a cold snapshot of the study
/// directory produces: the change path ends where a cold run would.
pub fn check_served_is_cold(report: &mut Report, study: &Path, served: &str) -> Res<()> {
    let cold = etag_of(&snapshot_study(study)?);
    report.check(served == cold, || {
        format!("served ETag {served} but a cold snapshot gives {cold}")
    });
    Ok(())
}

/// The end-to-end metrics every workload reports: set-up time and the
/// median op time with its sample count. Completed ops per second of
/// the window and peak memory are printed beside them but not gated:
/// the query mix's rate follows the shared host's memory bandwidth (it
/// halved in a busy period that moved the latency median by a third),
/// and the allocator's per-thread arenas move peak memory by ±10% from
/// run to run.
pub fn end_to_end(
    report: &mut Report,
    setups: &mut [f64],
    op_ms_p50: f64,
    op_samples: usize,
    ops_per_s: f64,
    ops: usize,
) {
    let n = setups.len();
    report.metric("setup_s", stats::median(setups).unwrap_or(f64::NAN), "s", n);
    report.metric("op_ms.p50", op_ms_p50, "ms", op_samples);
    report.note(format!(
        "ops_per_s {ops_per_s:.1} 1/s over {ops} ops (not gated)"
    ));
    report.note(format!(
        "peak_rss_mb {:.1} MB (VmHWM; not gated)",
        peak_rss_mb()
    ));
}

/// `obs.trace_overhead_pct`: how much slower the workload's op ran with
/// spans on than with them off, in the same traced run.
pub fn trace_overhead(report: &mut Report, untraced: &mut [f64], traced: &mut [f64]) {
    let (Some(off), Some(on)) = (stats::median(untraced), stats::median(traced)) else {
        report.problem("the traced run measured no op with and without spans".to_string());
        return;
    };
    report.metric(
        "obs.trace_overhead_pct",
        (on - off) / off * 100.0,
        "%",
        untraced.len() + traced.len(),
    );
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Res<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["cold_study", "churn", "query_mix"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds: u64 = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <cold_study|churn|query_mix> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = cores.min(2);
    // Set before any thread starts; rd-par reads it on every fan-out.
    std::env::set_var("RD_THREADS", threads.to_string());
    let ctx = Ctx {
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
        traced: args.trace,
        threads,
        work: PathBuf::from(".perfbench_work").join(format!(
            "{}-{}",
            args.workload,
            std::process::id()
        )),
        out: PathBuf::from(".perfbench_out"),
        workload: args.workload.clone(),
    };
    let result = std::fs::create_dir_all(ctx.work.join("snap"))
        .map_err(|e| format!("create {}: {e}", ctx.work.display()))
        .and_then(|()| match args.workload.as_str() {
            "cold_study" => cold::run(&ctx),
            "churn" => churn::run(&ctx),
            _ => query::run(&ctx),
        });
    std::fs::remove_dir_all(&ctx.work).ok();
    // Only when no other run is using it.
    std::fs::remove_dir(".perfbench_work").ok();
    match result {
        Ok(report) => {
            println!(
                "perfbench: workload={} seed={} seconds={} trace={} cores={cores} RD_THREADS={threads} loop_threads={LOOP_THREADS} {}",
                ctx.workload,
                ctx.seed,
                args.seconds,
                u8::from(ctx.traced),
                match ctx.workload.as_str() {
                    "cold_study" => "client_threads=0 client_conns=0".to_string(),
                    "churn" => "client_threads=1 client_conns=1".to_string(),
                    _ => format!("client_threads={} client_conns={}", query::CONNS, query::CONNS),
                }
            );
            report.print();
            if !report.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
