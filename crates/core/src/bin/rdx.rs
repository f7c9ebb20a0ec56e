//! `rdx` — routing design explorer.
//!
//! The operator-facing front end of the toolchain: point it at a directory
//! of router configuration files and interrogate the network's routing
//! design, exactly the workflow the paper's Section 8.1 sketches for
//! inventory management, vulnerability assessment, and diagnosis.
//!
//! ```text
//! rdx <config-dir> summary                     overview + classification
//! rdx <config-dir> instances                   the routing instance graph
//! rdx <config-dir> pathway <router>            route pathway of one router
//! rdx <config-dir> dot [process|instances]     Graphviz output
//! rdx <config-dir> roles                       Table-1 style role counts
//! rdx <config-dir> blocks                      recovered address blocks
//! rdx <config-dir> external                    external-facing interfaces
//! rdx <config-dir> reach <src-prefix> <dst-prefix>   block reachability
//! rdx <config-dir> flow <src> <dst> [proto] [port]   packet-filter verdicts
//! rdx <config-dir> separation <inst-a> <inst-b>      min router cut
//! rdx <config-dir> whatif <router> [...]             failure simulation
//! rdx <config-dir> audit                       §8.1 vulnerability findings
//! rdx <config-dir> diag                        pipeline diagnostics
//! rdx <config-dir> diff <other-dir>            design changes between snapshots
//! rdx <config-dir> plan <target-dir>           safe reconfiguration plan
//! rdx <config-dir> anonymize <out-dir> <key>   anonymize the corpus
//! rdx snap <dir> -o study.rdsnap               snapshot a corpus's analysis
//! rdx serve study.rdsnap --addr 127.0.0.1:0    serve a snapshot over HTTP
//! ```
//!
//! `<router>` accepts `rN`, a file name, or a hostname.
//!
//! Exit codes are consistent across commands: `0` success, `1` analysis
//! or diagnostic errors (load failures, error-severity diagnostics from
//! `diag`, unknown routers/instances), `2` usage errors (unknown
//! commands/flags, missing or malformed arguments).
//!
//! Flags (anywhere on the line; anything else starting with `--` is a
//! usage error):
//!
//! - `--version` prints the tool version and exits.
//! - `--help` prints the full command/flag/exit-code reference.
//! - `--json` renders `summary` as JSON (the same body `rdx serve`
//!   answers for `/networks/{id}`).
//! - `--timings` prints per-stage wall-clock times of the analysis
//!   pipeline to stderr after the command's own output — **even when the
//!   command itself fails**, and on a load failure it still reports the
//!   time spent loading, so a slow failure is as diagnosable as a slow
//!   success. The parse stage honors the `RD_THREADS` worker-count
//!   override.
//! - `--metrics` dumps the `rd-obs` metrics registry (counters, gauges,
//!   histograms accumulated during the run) to stderr.
//! - `--trace <path>` (or `--trace=<path>`) writes the structured JSONL
//!   event stream to `path`; `--trace -` streams it to stderr. Without
//!   the flag, the `RD_TRACE` environment variable picks the sink.
//! - `--profile <path>` (or `--profile=<path>`) records hierarchical
//!   wall-clock spans across the pipeline and writes them as
//!   collapsed-stack lines (`stack;substack self_us`) for flamegraph
//!   tooling. Root stacks are the `--timings` stage names.
//!   `RD_PROF_ZERO=1` zeroes the counts for byte-exact comparisons.

use std::path::Path;
use std::process::ExitCode;

use routing_design::layout::{list_configs, read_configs, Layout};
use routing_design::{NetworkAnalysis, Prefix, RouterId, Severity};

/// Flags recognized anywhere on the command line, split off before the
/// positional arguments. Unknown `--flags` are usage errors.
struct Flags {
    timings: bool,
    metrics: bool,
    json: bool,
    /// `plan` only: independently re-verify every emitted step.
    check: bool,
    /// `diff` only: print which networks the diff touches.
    networks: bool,
    trace: Option<String>,
    profile: Option<String>,
}

fn parse_flags(args: &mut Vec<String>) -> Result<Flags, String> {
    let mut flags = Flags {
        timings: false,
        metrics: false,
        json: false,
        check: false,
        networks: false,
        trace: None,
        profile: None,
    };
    let mut rest = Vec::with_capacity(args.len());
    let mut it = std::mem::take(args).into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--timings" => flags.timings = true,
            "--metrics" => flags.metrics = true,
            "--json" => flags.json = true,
            "--check" => flags.check = true,
            "--networks" => flags.networks = true,
            "--trace" => match it.next() {
                Some(path) => flags.trace = Some(path),
                None => return Err("--trace needs a path (or '-')".to_string()),
            },
            "--profile" => match it.next() {
                Some(path) => flags.profile = Some(path),
                None => return Err("--profile needs an output path".to_string()),
            },
            other if other.starts_with("--trace=") => {
                flags.trace = Some(other["--trace=".len()..].to_string());
            }
            other if other.starts_with("--profile=") => {
                flags.profile = Some(other["--profile=".len()..].to_string());
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other:?}"));
            }
            _ => rest.push(arg),
        }
    }
    *args = rest;
    Ok(flags)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--version" || a == "-V") {
        println!("rdx {}", env!("CARGO_PKG_VERSION"));
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", help_text());
        return ExitCode::SUCCESS;
    }
    // `snap`, `serve`, `watch`, and `chaos` own their argument parsing
    // (their flags, like `-o` and `--addr`, are not global flags).
    match args.first().map(String::as_str) {
        Some("snap") => return snap_cmd(&args[1..]),
        Some("serve") => return serve_cmd(&args[1..]),
        Some("watch") => return watch_cmd(&args[1..]),
        Some("chaos") => return chaos_cmd(&args[1..]),
        _ => {}
    }
    let flags = match parse_flags(&mut args) {
        Ok(f) => f,
        Err(msg) => {
            eprintln!("rdx: {msg}");
            return usage();
        }
    };
    let sink_result = match &flags.trace {
        Some(path) if path == "-" || path == "stderr" => {
            rd_obs::trace::set_stderr_sink();
            Ok(())
        }
        Some(path) => rd_obs::trace::set_file_sink(path),
        None => rd_obs::trace::init_from_env(),
    };
    if let Err(e) = sink_result {
        eprintln!("rdx: cannot open trace sink: {e}");
        return ExitCode::FAILURE;
    }
    if flags.profile.is_some() {
        rd_obs::profile::enable();
    }

    let (dir, rest) = match args.split_first() {
        Some((dir, rest)) => (dir.clone(), rest.to_vec()),
        None => return usage(),
    };
    let command = rest.first().map(String::as_str).unwrap_or("summary");

    if command == "anonymize" {
        return anonymize(&dir, &rest[1..]);
    }

    // `plan` runs its own pair of analyses (current + target + every
    // intermediate state), so it bypasses the single up-front load.
    if command == "plan" {
        let code = plan_cmd(&dir, &rest[1..], &flags);
        rd_obs::trace::flush();
        write_profile(&flags);
        return code;
    }

    let load_started = std::time::Instant::now();
    let analysis = match NetworkAnalysis::from_dir(Path::new(&dir)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rdx: failed to load {dir}: {e}");
            if flags.timings {
                eprintln!(
                    "load failed after {:.3} ms ({} worker thread(s))",
                    load_started.elapsed().as_secs_f64() * 1e3,
                    rd_par::thread_count()
                );
            }
            rd_obs::trace::flush();
            write_profile(&flags);
            return ExitCode::FAILURE;
        }
    };

    let coverage = &analysis.network.coverage;
    if coverage.degraded() {
        eprintln!(
            "rdx: DEGRADED coverage: {}/{} config file(s) quarantined ({}); \
             analysis covers the surviving routers only",
            coverage.quarantined.len(),
            coverage.total_files,
            coverage.quarantined.join(", "),
        );
    }

    let code = run_command(&analysis, &dir, command, &rest, &flags);
    if flags.timings {
        eprintln!(
            "pipeline stage timings ({} routers, {} worker thread(s)):",
            analysis.network.len(),
            rd_par::thread_count()
        );
        eprint!("{}", analysis.timings);
    }
    if flags.metrics {
        eprint!("{}", rd_obs::metrics::dump());
    }
    rd_obs::trace::flush();
    write_profile(&flags);
    code
}

/// Writes the collapsed-stack profile when `--profile <path>` was given.
fn write_profile(flags: &Flags) {
    let Some(path) = &flags.profile else {
        return;
    };
    match rd_obs::profile::write_folded(path) {
        Ok(()) => eprintln!("profile: collapsed stacks written to {path}"),
        Err(e) => eprintln!("rdx: cannot write profile {path}: {e}"),
    }
}

fn run_command(
    analysis: &NetworkAnalysis,
    dir: &str,
    command: &str,
    rest: &[String],
    flags: &Flags,
) -> ExitCode {
    match command {
        "summary" if flags.json => {
            let name = network_name(dir);
            let snap = routing_design::snapshot::capture_ref(&name, analysis);
            print!("{}", rd_serve::render::network_summary(&snap));
        }
        "summary" => summary(analysis),
        "instances" => print!("{}", analysis.instance_graph_text()),
        "roles" => print!("{}", analysis.table1),
        "blocks" => blocks(analysis),
        "external" => external(analysis),
        "pathway" => return pathway(analysis, &rest[1..]),
        "dot" => return dot(analysis, &rest[1..]),
        "reach" => return reach(analysis, &rest[1..]),
        "flow" => return flow(analysis, &rest[1..]),
        "separation" => return separation(analysis, &rest[1..]),
        "whatif" => return whatif(analysis, &rest[1..]),
        "audit" => {
            let findings = routing_design::audit(analysis);
            if findings.is_empty() {
                println!("no findings");
            }
            for f in findings {
                println!("[{}] {}", f.kind, f.detail);
            }
        }
        "diag" => return diag(analysis),
        "diff" => return diff_cmd(analysis, dir, &rest[1..], flags),
        other => {
            eprintln!("rdx: unknown command {other:?}");
            return usage();
        }
    }
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: rdx <config-dir> [summary|instances|roles|blocks|external|\
         pathway <router>|dot [process|instances]|reach <src> <dst>|\
         flow <src> <dst> [proto] [port]|separation <a> <b>|\
         whatif <router> [...]|audit|diag|diff <other-dir> [--networks]|\
         plan <target-dir> [--check]|\
         anonymize <out-dir> <key>] [--json] [--timings] [--metrics] [--trace <path>] \
         [--profile <path>]\n\
         \x20      rdx snap <dir> -o <file.rdsnap> [--from <prev.rdsnap>]\n\
         \x20      rdx snap --info <file.rdsnap>\n\
         \x20      rdx serve <file.rdsnap> [--addr HOST:PORT] [--workers N] [--max-conns N] [--no-cache] [--plan <plan.json>]\n\
         \x20      rdx watch <config-dir> [--addr HOST:PORT] [--snapshot <file.rdsnap>] [--poll-ms N] [--debounce-ms N]\n\
         \x20      rdx chaos <dir> [--seed N] [--configs M] [--snapshots K] [--max-rss-mb MB]\n\
         rdx --help shows the full reference (commands, flags, exit codes)"
    );
    ExitCode::from(2)
}

fn help_text() -> String {
    format!(
        "rdx {} — routing design explorer

usage:
  rdx <config-dir> [command] [flags]     analyze a config directory
  rdx snap <dir> -o <file.rdsnap> [--from <prev.rdsnap>]
                                         analyze once, write a snapshot;
                                         --from seeds the incremental
                                         delta engine from a previous
                                         snapshot so only changed
                                         networks are re-analyzed (the
                                         output stays byte-identical to
                                         a cold run)
  rdx snap --info <file.rdsnap>          print the snapshot's section/
                                         manifest table (per-network
                                         names, offsets, byte sizes)
                                         without decoding any payload
  rdx serve <file.rdsnap> [--addr HOST:PORT] [--workers N]
            [--max-conns N] [--no-cache] [--profile <path>]
                                         serve a snapshot over HTTP from an
                                         epoll event loop: --workers N sets
                                         the loop-thread count (0 = auto),
                                         --max-conns caps live connections
                                         (default 1024; past it, 503 +
                                         Retry-After), --no-cache disables
                                         the pre-rendered response cache
                                         (debug escape hatch; bodies are
                                         byte-identical either way),
                                         --profile writes the cache-build
                                         span profile on shutdown
  rdx watch <config-dir> [--addr HOST:PORT] [--snapshot <file.rdsnap>]
            [--poll-ms N] [--debounce-ms N] [--backoff-ms N]
            [--backoff-max-ms N] [--degraded-after N] [--seed N]
            [--workers N] [--max-conns N] [--no-cache]
                                         supervised continuous analysis:
                                         poll <config-dir> for semantic
                                         changes (debounced per-router
                                         fingerprints), re-analyze in a
                                         failure-isolated worker, persist
                                         crash-safely to --snapshot
                                         (default <config-dir>.rdsnap),
                                         and hot-swap the co-hosted HTTP
                                         server. Failures keep last-good
                                         serving and retry with jittered
                                         exponential backoff; /healthz
                                         turns 503 after --degraded-after
                                         consecutive failures (while
                                         queries still answer), and
                                         /healthz?live=1 stays 200 for
                                         process liveness
  rdx chaos <dir> [--seed N] [--configs M] [--snapshots K] [--max-rss-mb MB]
                                         deterministic fault-injection sweep:
                                         mutate the corpus M times and corrupt
                                         its snapshot K times, asserting
                                         error-not-panic, bounded memory, and
                                         deterministic diagnostics

commands (default: summary):
  summary [--json]           overview + design classification
  instances                  the routing instance graph
  roles                      Table-1 style role counts
  blocks                     recovered address blocks
  external                   external-facing interfaces
  pathway <router>           route pathway of one router
  dot [process|instances]    Graphviz output
  reach <src> <dst>          block reachability between prefixes
  flow <src> <dst> [proto] [port]
                             packet-filter verdicts for one flow
  separation <a> <b>         minimum router cut between instances
  whatif <router> [...]      failure simulation
  audit                      vulnerability findings (paper section 8.1)
  diag                       pipeline diagnostics
  diff <other-dir>           design changes between snapshots;
                             --networks prints the networks the change
                             invalidates (one per line; study
                             directories are diffed pairwise by
                             network name) instead of the router diff
  plan <target-dir> [--check]
                             safe reconfiguration plan from <config-dir>
                             to <target-dir>: per-router change units,
                             dependency-ordered so every intermediate
                             state preserves connectivity, instance
                             integrity, external-peering containment,
                             and border reachability (each state is
                             re-analyzed in memory). --json prints the
                             machine-readable plan (servable via
                             `rdx serve --plan`), --check replays every
                             step with fresh analyses, --timings reports
                             diff/dag/search phase times on stderr.
                             Exit 1 when no safe per-router ordering
                             exists.
  anonymize <out-dir> <key>  anonymize the corpus

  <router> accepts rN, a file name, or a hostname.

flags:
  --json             render summary as JSON (the body `rdx serve`
                     answers for /networks/{{id}}); render plan as the
                     canonical plan JSON
  --check            (plan only) independently re-verify every emitted
                     step with fresh analyses
  --networks         (diff only) print which networks the diff touches
                     via the router → owning-network invalidation map
  --timings          per-stage pipeline wall-clock times on stderr
  --metrics          dump the metrics registry on stderr
  --trace <path>     structured JSONL trace to path ('-' for stderr)
  --profile <path>   collapsed-stack wall-clock profile to path
                     (one 'stack;substack self_us' line per stack, for
                     flamegraph tooling; roots are the --timings stage
                     names; RD_PROF_ZERO=1 zeroes counts for byte-exact
                     determinism comparisons)
  --version, -V      print the version and exit
  --help, -h         print this reference and exit

serve endpoints:
  /healthz            health state machine (fresh / stale-serving-last-good
                      / degraded; 503 only when degraded); ?live=1 is pure
                      process liveness and always answers 200
  /networks /networks/{{id}} /networks/{{id}}/processes
  /instances /pathways /diag /metrics
  /plan               the reconfiguration plan given via --plan (404
                      when the server was started without one)
  /admin/debug/loop   per-event-loop health (wakeups, slab, wheel)
  /admin/debug/conns  live connections (state, age, buffers)
  /admin/debug/cache  serving snapshot + reload history ring
  /admin/debug/watch  watch supervisor state (generation, failures,
                      backoff, last error; null under plain `rdx serve`)
  Snapshot-derived responses carry the snapshot's FNV-1a-64 trailer as
  an ETag and honor If-None-Match with 304. SIGHUP or POST /admin/reload
  re-reads the snapshot file and hot-swaps it with zero dropped requests.
  /metrics includes per-request and per-loop histograms (request_us,
  conn_age_ms, epoll_wait_us, wakeup_events, iter_us), backpressure and
  rejection counters, rd_build_info, and process_uptime_seconds.

exit codes:
  0  success
  1  analysis or diagnostic errors (load failures, error-severity
     diagnostics from diag, unknown routers or instances; snap when a
     network was dropped by the error budget; chaos when a panic
     escaped, diagnostics were unstable, or the RSS cap was exceeded;
     plan when no safe per-router ordering exists or --check fails)
  2  usage errors (unknown command or flag, missing or malformed
     arguments)

degraded mode:
  Unreadable config files (non-UTF-8, empty, unparseable) are
  quarantined as error diagnostics and the analysis proceeds with the
  surviving routers. A network whose quarantined fraction exceeds the
  error budget (RD_ERROR_BUDGET, default 0.25) is dropped from study
  snapshots. Coverage appears in `summary --json` and /networks/{{id}}.
",
        env!("CARGO_PKG_VERSION")
    )
}

/// The network name a directory is published under: its basename (the
/// same rule `rdx snap` applies), so `rdx <dir> summary --json` matches
/// the served `/networks/{id}` body for that directory.
fn network_name(dir: &str) -> String {
    Path::new(dir)
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "network".to_string())
}

fn snap_cmd(args: &[String]) -> ExitCode {
    let mut dir: Option<String> = None;
    let mut out: Option<String> = None;
    let mut info: Option<String> = None;
    let mut from: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-o" | "--out" => match it.next() {
                Some(path) => out = Some(path.clone()),
                None => {
                    eprintln!("rdx: snap: -o needs an output path");
                    return ExitCode::from(2);
                }
            },
            "--info" => match it.next() {
                Some(path) => info = Some(path.clone()),
                None => {
                    eprintln!("rdx: snap: --info needs a snapshot file");
                    return ExitCode::from(2);
                }
            },
            "--from" => match it.next() {
                Some(path) => from = Some(path.clone()),
                None => {
                    eprintln!("rdx: snap: --from needs a previous snapshot file");
                    return ExitCode::from(2);
                }
            },
            other if other.starts_with('-') => {
                eprintln!("rdx: snap: unknown flag {other:?}");
                return ExitCode::from(2);
            }
            other if dir.is_none() => dir = Some(other.to_string()),
            other => {
                eprintln!("rdx: snap: unexpected argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(file) = info {
        return snap_info(&file);
    }
    let Some(dir) = dir else {
        eprintln!(
            "usage: rdx snap <dir> -o <file.rdsnap> [--from <prev.rdsnap>]\n\
             \x20      rdx snap --info <file.rdsnap>"
        );
        return ExitCode::from(2);
    };
    let out = out.unwrap_or_else(|| "study.rdsnap".to_string());

    let started = std::time::Instant::now();
    let (outcome, bytes, incr) = if let Some(prev) = from {
        // Incremental path: seed the delta engine from the previous
        // snapshot, refresh against the directory, and splice unchanged
        // networks' encoded bytes straight through. Output is
        // byte-identical to a cold run over the same directory.
        let mut engine = routing_design::incremental::DeltaEngine::new(Path::new(&dir));
        match std::fs::read(&prev) {
            Ok(prev_bytes) => {
                if let Err(e) = engine.seed_from_snapshot(&prev_bytes) {
                    eprintln!("rdx: snap: cannot seed from {prev}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            Err(e) => {
                eprintln!("rdx: snap: cannot read {prev}: {e}");
                return ExitCode::FAILURE;
            }
        }
        match engine.refresh() {
            Ok(refresh) => (refresh.outcome, refresh.bytes, Some(refresh.stats)),
            Err(e) => {
                eprintln!("rdx: failed to analyze {dir}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match routing_design::snapshot::snap_dir(Path::new(&dir)) {
            Ok(o) => {
                let bytes = o.corpus.to_bytes();
                (o, bytes, None)
            }
            Err(e) => {
                eprintln!("rdx: failed to analyze {dir}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let analyze_ms = started.elapsed().as_secs_f64() * 1e3;
    let write_started = std::time::Instant::now();
    if let Err(e) = rd_snap::write_atomic(Path::new(&out), &bytes) {
        eprintln!("rdx: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "snapshotted {} network(s) into {out}: {} bytes \
         (analyze {analyze_ms:.1} ms, encode+write {:.1} ms)",
        outcome.corpus.networks.len(),
        bytes.len(),
        write_started.elapsed().as_secs_f64() * 1e3,
    );
    if let Some(stats) = incr {
        eprintln!(
            "incremental: {} network(s) reused, {} recomputed, {} file(s) reparsed",
            stats.reused, stats.recomputed, stats.files_reparsed,
        );
    }
    for d in &outcome.warnings {
        eprintln!("rdx: snap: {d}");
    }
    for n in &outcome.corpus.networks {
        let c = &n.network.coverage;
        if c.degraded() {
            eprintln!(
                "rdx: snap: {} DEGRADED: {}/{} file(s) quarantined ({})",
                n.name,
                c.quarantined.len(),
                c.total_files,
                c.quarantined.join(", "),
            );
        }
    }
    if outcome.dropped.is_empty() {
        return ExitCode::SUCCESS;
    }
    // The snapshot is still written (the survivors are valid), but the
    // run is reported as a failure so scripts notice the missing data.
    for d in &outcome.dropped {
        eprintln!("rdx: snap: DROPPED {}: {}", d.name, d.reason);
    }
    eprintln!(
        "rdx: snap: {} network(s) dropped by the error budget ({:.0}%)",
        outcome.dropped.len(),
        routing_design::error_budget() * 100.0,
    );
    ExitCode::FAILURE
}

/// `rdx snap --info <file>`: print the container's section/manifest
/// table straight off the manifest footer — no network payload is
/// decoded, so this is cheap even for a large study snapshot.
fn snap_info(file: &str) -> ExitCode {
    let bytes = match std::fs::read(file) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("rdx: snap: cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let manifest = match rd_snap::Manifest::read(&bytes) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("rdx: snap: {file} is not a valid snapshot: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Footer geometry: [..sections..][manifest payload][len u64][fnv u64]
    let manifest_len =
        u64::from_le_bytes(bytes[bytes.len() - 16..bytes.len() - 8].try_into().unwrap_or_default());
    let manifest_offset = bytes.len() - 16 - manifest_len as usize;
    println!("{file}: {} bytes, {} network section(s)", bytes.len(), manifest.entries.len());
    println!("{:<24} {:>12} {:>12}", "section", "offset", "bytes");
    for entry in &manifest.entries {
        println!("{:<24} {:>12} {:>12}", entry.name, entry.offset, entry.len);
    }
    println!("{:<24} {:>12} {:>12}", "(manifest)", manifest_offset, manifest_len);
    println!(
        "{:<24} {:>12} {:>12}",
        "(footer: len + fnv64)",
        bytes.len() - 16,
        16
    );
    ExitCode::SUCCESS
}

fn serve_cmd(args: &[String]) -> ExitCode {
    let mut file: Option<String> = None;
    let mut addr = "127.0.0.1:8080".to_string();
    let mut profile: Option<String> = None;
    let mut opts = rd_serve::ServeOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(a) => addr = a.clone(),
                None => {
                    eprintln!("rdx: serve: --addr needs HOST:PORT");
                    return ExitCode::from(2);
                }
            },
            "--profile" => match it.next() {
                Some(p) => profile = Some(p.clone()),
                None => {
                    eprintln!("rdx: serve: --profile needs an output path");
                    return ExitCode::from(2);
                }
            },
            "--workers" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) => opts.workers = n,
                None => {
                    eprintln!("rdx: serve: --workers needs a number");
                    return ExitCode::from(2);
                }
            },
            "--max-conns" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => opts.max_conns = n,
                _ => {
                    eprintln!("rdx: serve: --max-conns needs a positive number");
                    return ExitCode::from(2);
                }
            },
            "--no-cache" => opts.cache = false,
            "--plan" => match it.next() {
                Some(p) => match std::fs::read_to_string(p) {
                    Ok(text) => opts.plan = Some(text),
                    Err(e) => {
                        eprintln!("rdx: serve: cannot read plan {p}: {e}");
                        return ExitCode::from(2);
                    }
                },
                None => {
                    eprintln!("rdx: serve: --plan needs a plan JSON file (from `rdx plan --json`)");
                    return ExitCode::from(2);
                }
            },
            other if other.starts_with("--addr=") => {
                addr = other["--addr=".len()..].to_string();
            }
            other if other.starts_with("--profile=") => {
                profile = Some(other["--profile=".len()..].to_string());
            }
            other if other.starts_with('-') => {
                eprintln!("rdx: serve: unknown flag {other:?}");
                return ExitCode::from(2);
            }
            other if file.is_none() => file = Some(other.to_string()),
            other => {
                eprintln!("rdx: serve: unexpected argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(file) = file else {
        eprintln!(
            "usage: rdx serve <file.rdsnap> [--addr HOST:PORT] [--workers N] \
             [--max-conns N] [--no-cache] [--plan <plan.json>] [--profile <path>]"
        );
        return ExitCode::from(2);
    };
    if profile.is_some() {
        rd_obs::profile::enable();
    }
    rd_serve::install_signal_handlers();
    // start_file wires the snapshot in as the hot-reload source: SIGHUP
    // or `POST /admin/reload` re-reads it and swaps atomically.
    let server = match rd_serve::Server::start_file(Path::new(&file), &addr, opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rdx: serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let networks = server.network_count();
    // Scripts parse this line for the bound (possibly ephemeral) port.
    println!("listening on http://{} ({networks} network(s) from {file})", server.local_addr());
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    server.run_until_shutdown();
    if let Some(path) = &profile {
        match rd_obs::profile::write_folded(path) {
            Ok(()) => eprintln!("profile: collapsed stacks written to {path}"),
            Err(e) => eprintln!("rdx: cannot write profile {path}: {e}"),
        }
    }
    eprintln!("rdx: shut down cleanly");
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// `rdx watch` — the supervised continuous-analysis daemon.

/// Parses the millisecond operand shared by the `--*-ms` watch flags.
fn ms_flag(it: &mut std::slice::Iter<String>, name: &str) -> Option<std::time::Duration> {
    match it.next().and_then(|n| n.parse::<u64>().ok()) {
        Some(ms) => Some(std::time::Duration::from_millis(ms)),
        None => {
            eprintln!("rdx: watch: {name} needs a millisecond count");
            None
        }
    }
}

fn watch_cmd(args: &[String]) -> ExitCode {
    let mut dir: Option<String> = None;
    let mut addr = "127.0.0.1:8080".to_string();
    let mut snapshot: Option<String> = None;
    let mut watch_opts = routing_design::watch::WatchOptions::default();
    let mut serve_opts = rd_serve::ServeOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--poll-ms" => match ms_flag(&mut it, "--poll-ms") {
                Some(d) => watch_opts.poll_interval = d,
                None => return ExitCode::from(2),
            },
            "--debounce-ms" => match ms_flag(&mut it, "--debounce-ms") {
                Some(d) => watch_opts.debounce = d,
                None => return ExitCode::from(2),
            },
            "--backoff-ms" => match ms_flag(&mut it, "--backoff-ms") {
                Some(d) => watch_opts.backoff_base = d,
                None => return ExitCode::from(2),
            },
            "--backoff-max-ms" => match ms_flag(&mut it, "--backoff-max-ms") {
                Some(d) => watch_opts.backoff_max = d,
                None => return ExitCode::from(2),
            },
            "--addr" => match it.next() {
                Some(a) => addr = a.clone(),
                None => {
                    eprintln!("rdx: watch: --addr needs HOST:PORT");
                    return ExitCode::from(2);
                }
            },
            "--snapshot" => match it.next() {
                Some(p) => snapshot = Some(p.clone()),
                None => {
                    eprintln!("rdx: watch: --snapshot needs a file path");
                    return ExitCode::from(2);
                }
            },
            "--degraded-after" => match it.next().and_then(|n| n.parse::<u32>().ok()) {
                Some(n) if n > 0 => watch_opts.degraded_after = n,
                _ => {
                    eprintln!("rdx: watch: --degraded-after needs a positive number");
                    return ExitCode::from(2);
                }
            },
            "--seed" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) => watch_opts.seed = n,
                None => {
                    eprintln!("rdx: watch: --seed needs a number");
                    return ExitCode::from(2);
                }
            },
            "--workers" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) => serve_opts.workers = n,
                None => {
                    eprintln!("rdx: watch: --workers needs a number");
                    return ExitCode::from(2);
                }
            },
            "--max-conns" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => serve_opts.max_conns = n,
                _ => {
                    eprintln!("rdx: watch: --max-conns needs a positive number");
                    return ExitCode::from(2);
                }
            },
            "--no-cache" => serve_opts.cache = false,
            other if other.starts_with("--addr=") => {
                addr = other["--addr=".len()..].to_string();
            }
            other if other.starts_with("--snapshot=") => {
                snapshot = Some(other["--snapshot=".len()..].to_string());
            }
            other if other.starts_with('-') => {
                eprintln!("rdx: watch: unknown flag {other:?}");
                return ExitCode::from(2);
            }
            other if dir.is_none() => dir = Some(other.to_string()),
            other => {
                eprintln!("rdx: watch: unexpected argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!(
            "usage: rdx watch <config-dir> [--addr HOST:PORT] [--snapshot <file.rdsnap>] \
             [--poll-ms N] [--debounce-ms N] [--backoff-ms N] [--backoff-max-ms N] \
             [--degraded-after N] [--seed N] [--workers N] [--max-conns N] [--no-cache]"
        );
        return ExitCode::from(2);
    };
    // Default the persisted snapshot next to the config dir so recovery
    // after a crash finds it without flags: `<dir>.rdsnap`.
    let snapshot = snapshot.unwrap_or_else(|| {
        let trimmed = dir.trim_end_matches('/');
        format!("{trimmed}.rdsnap")
    });
    rd_serve::install_signal_handlers();
    match routing_design::watch::run_daemon(
        Path::new(&dir),
        Path::new(&snapshot),
        &addr,
        watch_opts,
        serve_opts,
    ) {
        Ok(()) => {
            eprintln!("rdx: shut down cleanly");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("rdx: watch: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// `rdx chaos` — deterministic fault-injection sweep (the rd-chaos driver).

/// Reads the corpus under `dir` through its layout as `(network,
/// files)` pairs, dropping networks without config files (an empty study
/// subdirectory has nothing to mutate or diff). Errors when nothing is
/// left.
fn corpus_networks(dir: &Path) -> Result<Vec<(String, rd_plan::CorpusFiles)>, String> {
    let layout = Layout::scan(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut networks = Vec::new();
    for unit in layout.units {
        let files = unit
            .files
            .and_then(|files| read_configs(&files))
            .map_err(|e| format!("cannot read {}: {e}", unit.dir.display()))?;
        if !files.is_empty() {
            networks.push((unit.name, files));
        }
    }
    if networks.is_empty() {
        return Err(format!("{} holds no config files", dir.display()));
    }
    Ok(networks)
}

fn chaos_cmd(args: &[String]) -> ExitCode {
    let mut dir: Option<String> = None;
    let mut seed: u64 = 1;
    let mut configs: usize = 500;
    let mut snapshots: usize = 100;
    let mut max_rss_mb: u64 = 4096;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" | "--configs" | "--snapshots" | "--max-rss-mb" => {
                let Some(value) = it.next().and_then(|v| v.parse::<u64>().ok()) else {
                    eprintln!("rdx: chaos: {arg} needs a number");
                    return ExitCode::from(2);
                };
                match arg.as_str() {
                    "--seed" => seed = value,
                    "--configs" => configs = value as usize,
                    "--snapshots" => snapshots = value as usize,
                    _ => max_rss_mb = value,
                }
            }
            other if other.starts_with('-') => {
                eprintln!("rdx: chaos: unknown flag {other:?}");
                return ExitCode::from(2);
            }
            other if dir.is_none() => dir = Some(other.to_string()),
            other => {
                eprintln!("rdx: chaos: unexpected argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!(
            "usage: rdx chaos <dir> [--seed N] [--configs M] [--snapshots K] \
             [--max-rss-mb MB]"
        );
        return ExitCode::from(2);
    };
    let networks = match corpus_networks(Path::new(&dir)) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("rdx: chaos: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "chaos sweep: seed {seed}, {configs} config trial(s), \
         {snapshots} snapshot trial(s), {} network(s)",
        networks.len()
    );

    // The sweep *expects* caught panics; silence the default hook so the
    // summary is not buried under backtraces. Restored before returning.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    use std::collections::BTreeMap;
    #[derive(Default)]
    struct MutStats {
        trials: u64,
        degraded: u64,
        panics: u64,
    }
    let mut config_stats: BTreeMap<&'static str, MutStats> = BTreeMap::new();
    let mut code_counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    // The determinism witness: every trial index and diagnostic in
    // sweep order, hashed once at the end (two runs with the same seed
    // must print the same digest at any `RD_THREADS`).
    let mut witness: Vec<u8> = Vec::new();
    let mut escaped_panics: u64 = 0;
    let mut caught_worker_panics: u64 = 0;

    for trial in 0..configs {
        let (_, files) = &networks[trial % networks.len()];
        let mutator = rd_chaos::CONFIG_MUTATORS[trial % rd_chaos::CONFIG_MUTATORS.len()];
        let mut rng = rd_rng::StdRng::seed_from_u64(
            seed ^ (trial as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        let victim = rng.gen_range(0..files.len());
        let mut mutated: Vec<(String, Vec<u8>)> = Vec::with_capacity(files.len());
        for (i, (name, bytes)) in files.iter().enumerate() {
            if i == victim {
                if let Some(out) = rd_chaos::mutate_config(&mut rng, mutator, bytes) {
                    mutated.push((name.clone(), out));
                }
            } else {
                mutated.push((name.clone(), bytes.clone()));
            }
        }
        let stats = config_stats.entry(mutator.name()).or_default();
        stats.trials += 1;
        witness.extend_from_slice(&(trial as u64).to_le_bytes());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            NetworkAnalysis::from_bytes_list(mutated)
        }));
        match result {
            Ok(analysis) => {
                if analysis.network.coverage.degraded() {
                    stats.degraded += 1;
                }
                for d in analysis.diagnostics.iter() {
                    if matches!(
                        d.code,
                        "parse-error" | "invalid-utf8" | "empty-config" | "worker-panic"
                    ) {
                        *code_counts.entry(d.code).or_default() += 1;
                        witness.extend_from_slice(d.to_string().as_bytes());
                        if d.code == "worker-panic" {
                            caught_worker_panics += 1;
                        }
                    }
                }
            }
            Err(_) => {
                stats.panics += 1;
                escaped_panics += 1;
            }
        }
    }

    // Clean baseline corpus for the snapshot corruptors.
    let baseline: Vec<rd_snap::NetworkSnapshot> = networks
        .iter()
        .map(|(name, files)| {
            routing_design::snapshot::capture(
                name,
                NetworkAnalysis::from_bytes_list(files.clone()),
            )
        })
        .collect();
    let corpus_bytes = rd_snap::Corpus::new(baseline).to_bytes();

    #[derive(Default)]
    struct SnapStats {
        trials: u64,
        rejected: u64,
        decoded: u64,
        panics: u64,
    }
    let mut snap_stats: BTreeMap<&'static str, SnapStats> = BTreeMap::new();
    for trial in 0..snapshots {
        let mutator = rd_chaos::SNAP_MUTATORS[trial % rd_chaos::SNAP_MUTATORS.len()];
        let mut rng = rd_rng::StdRng::seed_from_u64(
            seed ^ (trial as u64 + 1).wrapping_mul(0xd1b5_4a32_d192_ed03),
        );
        let corrupted = rd_chaos::corrupt_snapshot(&mut rng, mutator, &corpus_bytes);
        let stats = snap_stats.entry(mutator.name()).or_default();
        stats.trials += 1;
        match std::panic::catch_unwind(|| rd_snap::Corpus::from_bytes(&corrupted)) {
            Ok(Ok(_)) => stats.decoded += 1,
            Ok(Err(e)) => {
                stats.rejected += 1;
                witness.extend_from_slice(e.to_string().as_bytes());
            }
            Err(_) => {
                stats.panics += 1;
                escaped_panics += 1;
            }
        }
    }
    std::panic::set_hook(prev_hook);

    println!("config mutators:");
    for (name, s) in &config_stats {
        println!(
            "  {name:<20} trials {:>4}  degraded {:>4}  panics {:>2}",
            s.trials, s.degraded, s.panics
        );
    }
    println!("quarantine codes:");
    for (code, n) in &code_counts {
        println!("  {code:<20} {n:>6}");
    }
    println!("snapshot mutators:");
    for (name, s) in &snap_stats {
        println!(
            "  {name:<20} trials {:>4}  rejected {:>4}  decoded {:>2}  panics {:>2}",
            s.trials, s.rejected, s.decoded, s.panics
        );
    }
    println!("diagnostics digest: {:#018x}", rd_snap::fnv1a64(&witness));

    let mut failed = false;
    if escaped_panics > 0 {
        println!("INVARIANT VIOLATED: {escaped_panics} panic(s) escaped the pipeline");
        failed = true;
    } else if caught_worker_panics > 0 {
        println!(
            "INVARIANT VIOLATED: {caught_worker_panics} parse worker panic(s) \
             (caught, but parse must fail via typed errors)"
        );
        failed = true;
    } else {
        println!(
            "invariant held: error-not-panic across {} trial(s)",
            configs + snapshots
        );
    }
    // RSS goes to stderr: it is the one machine-dependent number, and
    // stdout must stay byte-identical across runs for the determinism gate.
    if let Some(kb) = rd_obs::metrics::peak_rss_kb() {
        eprintln!("rdx: chaos: peak RSS {} MB (cap {max_rss_mb} MB)", kb / 1024);
        if kb / 1024 > max_rss_mb {
            eprintln!("rdx: chaos: INVARIANT VIOLATED: RSS cap exceeded");
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn summary(a: &NetworkAnalysis) {
    println!("routers:             {}", a.network.len());
    println!("logical links:       {}", a.links.links.len());
    let (internal, external, unaddressed) = a.external.counts();
    println!(
        "interfaces:          {} internal-facing, {} external-facing, {} unaddressed",
        internal, external, unaddressed
    );
    println!("routing processes:   {}", a.processes.len());
    println!("routing instances:   {}", a.instances.len());
    for inst in a.instances.list.iter().take(10) {
        println!("  {}: {}", inst.id, inst.label());
    }
    if a.instances.len() > 10 {
        println!("  ... {} more", a.instances.len() - 10);
    }
    println!("external peer ASes:  {:?}", a.instance_graph.external_ases());
    println!("classification:      {}", a.design.class);
    println!(
        "  bgp speakers {} | internal ASes {} | ibgp {} | ebgp {} ext / {} int | bgp→igp {}",
        a.design.bgp_speakers,
        a.design.internal_ases,
        a.design.ibgp_sessions,
        a.design.external_ebgp_sessions,
        a.design.internal_ebgp_sessions,
        a.design.bgp_into_igp,
    );
    for mesh in a.ibgp_meshes() {
        if mesh.routers < 2 {
            continue;
        }
        println!(
            "  IBGP in {}: {} sessions over {} routers ({:.0}% of full mesh{})",
            a.instances.get(mesh.instance).label(),
            mesh.sessions,
            mesh.routers,
            mesh.completeness * 100.0,
            if mesh.uses_reflection() {
                format!(", {} route reflector(s)", mesh.reflectors.len())
            } else {
                String::new()
            }
        );
    }
    for area in a.area_structures() {
        if area.is_flat() {
            continue;
        }
        println!(
            "  OSPF areas in {}: {} areas, {} ABR(s), backbone area {}",
            a.instances.get(area.instance).label(),
            area.area_count(),
            area.abrs.len(),
            if area.has_backbone_area() { "present" } else { "MISSING" }
        );
    }
    let hints = &a.external.missing_router_hints;
    if !hints.is_empty() {
        println!("possible missing routers (external-facing inside internal blocks):");
        for h in hints.iter().take(5) {
            println!("  {} on {} (block {})", h.subnet, h.iface.router, h.block);
        }
    }
}

/// Prints every pipeline diagnostic (parse, topology, design level) and
/// a severity summary. Exits with failure iff any error-severity
/// diagnostic exists, so scripts can gate on corpus health.
fn diag(a: &NetworkAnalysis) -> ExitCode {
    for d in a.diagnostics.iter() {
        println!("{d}");
    }
    println!("{}", a.diagnostics.summary());
    if a.diagnostics.count(Severity::Error) > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn blocks(a: &NetworkAnalysis) {
    println!("{:<20} {:>12} {:>8}", "block", "addresses", "used");
    for b in &a.blocks.roots {
        println!(
            "{:<20} {:>12} {:>7.0}%",
            b.prefix.to_string(),
            b.prefix.size(),
            b.utilization() * 100.0
        );
    }
}

fn external(a: &NetworkAnalysis) {
    for (iref, class) in a.external.classes.iter() {
        if class != routing_design::IfaceClass::External {
            continue;
        }
        let router = a.network.router(iref.router);
        let iface = &router.config.interfaces[iref.iface];
        let addr = iface
            .address
            .map(|x| x.subnet().to_string())
            .unwrap_or_else(|| "-".to_string());
        println!("{} {} {}", router.name(), iface.name, addr);
    }
}

fn resolve_router(a: &NetworkAnalysis, text: &str) -> Option<RouterId> {
    if let Some(stripped) = text.strip_prefix('r') {
        if let Ok(n) = stripped.parse::<usize>() {
            if n < a.network.len() {
                return Some(RouterId(n));
            }
        }
    }
    a.network
        .iter()
        .find(|(_, r)| r.file_name == text || r.name() == text)
        .map(|(id, _)| id)
}

fn pathway(a: &NetworkAnalysis, args: &[String]) -> ExitCode {
    let Some(text) = args.first() else {
        eprintln!("rdx: pathway needs a router (rN, file name, or hostname)");
        return ExitCode::from(2);
    };
    let Some(rid) = resolve_router(a, text) else {
        eprintln!("rdx: no router named {text:?}");
        return ExitCode::FAILURE;
    };
    println!("route pathway of {} ({}):", rid, a.network.router(rid).name());
    print!("{}", a.pathway_text(rid));
    ExitCode::SUCCESS
}

fn dot(a: &NetworkAnalysis, args: &[String]) -> ExitCode {
    match args.first().map(String::as_str).unwrap_or("instances") {
        "process" => print!("{}", a.process_graph_dot()),
        "instances" => print!("{}", a.instance_graph_dot()),
        other => {
            eprintln!("rdx: unknown dot target {other:?} (process|instances)");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

fn reach(a: &NetworkAnalysis, args: &[String]) -> ExitCode {
    let (Some(src), Some(dst)) = (args.first(), args.get(1)) else {
        eprintln!("rdx: reach needs <src-prefix> <dst-prefix>");
        return ExitCode::from(2);
    };
    let (Ok(src), Ok(dst)) = (src.parse::<Prefix>(), dst.parse::<Prefix>()) else {
        eprintln!("rdx: prefixes must look like 10.2.0.0/16");
        return ExitCode::from(2);
    };
    let reachability = a.reachability();
    let forward = reachability.block_reachable(src, dst);
    let reverse = reachability.block_reachable(dst, src);
    println!("{src} -> {dst}: {}", if forward { "reachable" } else { "UNREACHABLE" });
    println!("{dst} -> {src}: {}", if reverse { "reachable" } else { "UNREACHABLE" });
    ExitCode::SUCCESS
}

fn separation(a: &NetworkAnalysis, args: &[String]) -> ExitCode {
    let parse = |t: &String| t.trim_start_matches("instance").trim().parse::<usize>().ok();
    let (Some(x), Some(y)) = (args.first().and_then(parse), args.get(1).and_then(parse))
    else {
        eprintln!("rdx: separation needs two instance ids (e.g. 0 3)");
        return ExitCode::from(2);
    };
    if x >= a.instances.len() || y >= a.instances.len() {
        eprintln!("rdx: instance ids out of range (have {})", a.instances.len());
        return ExitCode::FAILURE;
    }
    let (ia, ib) = (
        routing_design::InstanceId(x),
        routing_design::InstanceId(y),
    );
    match a.instance_separation(ia, ib) {
        Some(n) => println!(
            "{} and {} are separated by the failure of {n} router(s)",
            a.instances.get(ia).label(),
            a.instances.get(ib).label()
        ),
        None => println!("instances share a router or cannot be separated"),
    }
    ExitCode::SUCCESS
}

fn flow(a: &NetworkAnalysis, args: &[String]) -> ExitCode {
    let (Some(src), Some(dst)) = (args.first(), args.get(1)) else {
        eprintln!("rdx: flow needs <src-addr> <dst-addr> [ip|tcp|udp|icmp|pim] [dst-port]");
        return ExitCode::from(2);
    };
    let (Ok(src), Ok(dst)) =
        (src.parse::<routing_design::Addr>(), dst.parse::<routing_design::Addr>())
    else {
        eprintln!("rdx: addresses must look like 10.0.0.1");
        return ExitCode::from(2);
    };
    let proto = match args.get(2) {
        Some(text) => match reachability::FlowProto::parse(text) {
            Some(p) => p,
            None => {
                eprintln!("rdx: unknown protocol {text:?}");
                return ExitCode::from(2);
            }
        },
        None => reachability::FlowProto::Ip,
    };
    let dst_port = args.get(3).and_then(|t| t.parse::<u16>().ok());
    let probe = reachability::Flow { src, dst, proto, src_port: None, dst_port };
    let verdicts = reachability::flow_verdicts(&a.network, &probe);
    if verdicts.is_empty() {
        println!("no packet filters applied anywhere");
        return ExitCode::SUCCESS;
    }
    let mut dropped = 0;
    for v in &verdicts {
        if v.permitted {
            continue;
        }
        dropped += 1;
        let router = a.network.router(v.iface.router);
        let iface = &router.config.interfaces[v.iface.iface];
        let clause = v
            .deciding_clause
            .map(|c| format!("clause {c}"))
            .unwrap_or_else(|| "implicit deny".to_string());
        println!(
            "DROPPED at {} {} ({:?}) by access-list {} ({clause})",
            router.name(),
            iface.name,
            v.direction,
            v.acl
        );
    }
    if dropped == 0 {
        println!("permitted by all {} filter applications", verdicts.len());
    } else {
        println!("({dropped} of {} filter applications drop this flow)", verdicts.len());
    }
    ExitCode::SUCCESS
}

fn whatif(a: &NetworkAnalysis, args: &[String]) -> ExitCode {
    if args.is_empty() {
        eprintln!("rdx: whatif needs one or more routers (rN, file name, or hostname)");
        return ExitCode::from(2);
    }
    let mut failed = std::collections::BTreeSet::new();
    for text in args {
        let Some(rid) = resolve_router(a, text) else {
            eprintln!("rdx: no router named {text:?}");
            return ExitCode::FAILURE;
        };
        failed.insert(rid);
    }
    let graph = routing_design::RouterGraph::build(&a.network, &a.links);
    let before = graph.components().len();
    let after = graph.components_without(&failed);
    println!(
        "failing {} router(s): {} component(s) before, {} after",
        failed.len(),
        before,
        after.len()
    );
    if after.len() > before {
        println!("NETWORK PARTITIONS. resulting component sizes:");
        for comp in &after {
            println!("  {} routers (first: {})", comp.len(), a.network.router(comp[0]).name());
        }
    } else {
        println!("network stays as connected as before");
    }
    let arts = graph.articulation_routers();
    if !arts.is_empty() {
        let names: Vec<&str> =
            arts.iter().take(8).map(|r| a.network.router(*r).name()).collect();
        println!("single points of failure in this network: {names:?}");
    }
    ExitCode::SUCCESS
}

fn diff_cmd(old: &NetworkAnalysis, dir: &str, args: &[String], flags: &Flags) -> ExitCode {
    let Some(other) = args.first() else {
        eprintln!("rdx: diff needs the other snapshot's directory");
        return ExitCode::from(2);
    };
    // A missing or unreadable comparison directory is a usage error (the
    // caller pointed at the wrong place), not an analysis failure.
    if !Path::new(other).is_dir() {
        eprintln!("rdx: diff: {other:?} is not a readable config directory");
        return ExitCode::from(2);
    }
    if flags.networks {
        return diff_networks(dir, other);
    }
    let new = match NetworkAnalysis::from_dir(Path::new(other)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rdx: diff: cannot load {other}: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", routing_design::DesignDiff::between(old, &new));
    ExitCode::SUCCESS
}

/// `rdx <dir> diff <other> --networks`: instead of the router-level diff,
/// print which networks the change invalidates — the question the
/// incremental engine answers before re-analyzing. Both sides may be a
/// study directory (each subdirectory a network) or a single network;
/// same-named networks are diffed pairwise and routed through the
/// router → owning-network invalidation map; networks present on only
/// one side are touched by definition.
fn diff_networks(dir: &str, other: &str) -> ExitCode {
    let load = |d: &str| -> Result<Vec<(String, NetworkAnalysis)>, String> {
        Ok(corpus_networks(Path::new(d))?
            .into_iter()
            .map(|(name, files)| (name, NetworkAnalysis::from_bytes_list(files)))
            .collect())
    };
    let (old_nets, new_nets) = match (load(dir), load(other)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("rdx: diff: {e}");
            return ExitCode::from(2);
        }
    };
    let map = routing_design::diff::invalidation_map(
        old_nets.iter().map(|(name, a)| (name.as_str(), a)),
    );
    let new_by_name: std::collections::BTreeMap<&str, &NetworkAnalysis> =
        new_nets.iter().map(|(name, a)| (name.as_str(), a)).collect();
    let mut touched: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for (name, old_analysis) in &old_nets {
        match new_by_name.get(name.as_str()) {
            Some(new_analysis) => {
                let diff = routing_design::DesignDiff::between(old_analysis, new_analysis);
                if !diff.is_empty() {
                    touched.insert(name.clone());
                    touched.extend(routing_design::diff::networks_touched(&map, &diff));
                }
            }
            // Network removed outright: everything it held is invalidated.
            None => {
                touched.insert(name.clone());
            }
        }
    }
    for (name, _) in &new_nets {
        if !old_nets.iter().any(|(old_name, _)| old_name == name) {
            touched.insert(name.clone());
        }
    }
    if touched.is_empty() {
        println!("no networks touched");
    } else {
        for name in &touched {
            println!("{name}");
        }
    }
    ExitCode::SUCCESS
}

fn plan_cmd(dir: &str, args: &[String], flags: &Flags) -> ExitCode {
    let Some(target_dir) = args.first() else {
        eprintln!("rdx: plan needs the target corpus directory");
        return ExitCode::from(2);
    };
    for (label, d) in [("current", dir), ("target", target_dir.as_str())] {
        if !Path::new(d).is_dir() {
            eprintln!("rdx: plan: {label} directory {d:?} is not a readable config directory");
            return ExitCode::from(2);
        }
    }
    let read = |label: &str, d: &str| {
        list_configs(Path::new(d)).and_then(|files| read_configs(&files)).map_err(|e| {
            eprintln!("rdx: plan: {label} corpus: cannot read {d}: {e}");
            ExitCode::from(2)
        })
    };
    let current = match read("current", dir) {
        Ok(f) => f,
        Err(code) => return code,
    };
    let target = match read("target", target_dir) {
        Ok(f) => f,
        Err(code) => return code,
    };
    let plan = match routing_design::plan::plan_corpora(&current, &target) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("rdx: plan: {e}");
            return ExitCode::FAILURE;
        }
    };
    if flags.json {
        print!("{}", rd_plan::render_json(&plan));
    } else {
        print!("{}", rd_plan::render_table(&plan));
    }
    if flags.timings {
        eprintln!(
            "plan phase timings ({} unit(s), {} intermediate state(s), \
             {} worker thread(s)):",
            plan.units.len(),
            plan.stats.states_analyzed,
            rd_par::thread_count()
        );
        for (name, duration) in &plan.timings {
            eprintln!("  {name:<8} {:>10.3} ms", duration.as_secs_f64() * 1e3);
        }
    }
    if flags.check {
        match rd_plan::verify_plan(&current, &target, &plan, routing_design::plan::analyze_files)
        {
            Ok(steps) => eprintln!("plan check: {steps} step(s) independently re-verified"),
            Err(e) => {
                eprintln!("rdx: plan check FAILED: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn anonymize(dir: &str, args: &[String]) -> ExitCode {
    let (Some(out), Some(key)) = (args.first(), args.get(1)) else {
        eprintln!("rdx: anonymize needs <out-dir> <key>");
        return ExitCode::from(2);
    };
    let anon = anonymizer::Anonymizer::new(key.as_bytes());
    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("rdx: cannot create {out}: {e}");
        return ExitCode::FAILURE;
    }
    let entries = match list_configs(Path::new(dir)) {
        Ok(files) => files,
        Err(e) => {
            eprintln!("rdx: cannot read {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (i, file) in entries.iter().enumerate() {
        let text = match std::fs::read_to_string(&file.path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("rdx: cannot read {}: {e}", file.path.display());
                return ExitCode::FAILURE;
            }
        };
        let out_path = Path::new(out).join(format!("config{}", i + 1));
        if let Err(e) = std::fs::write(&out_path, anon.anonymize_config(&text)) {
            eprintln!("rdx: cannot write {}: {e}", out_path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("anonymized {} files into {out}", entries.len());
    ExitCode::SUCCESS
}
