//! `churn`: one-router edits under a watched, served study.
//!
//! The study is served by an in-process `Server` with one loop thread
//! and watched by a `Watcher` with debounce 0. This thread writes each
//! edit and calls `tick()` until it publishes, while one client polls
//! `/networks` with `If-None-Match`. A semantic edit runs watch
//! detection, a delta refresh of one network, the container splice,
//! persistence, the full response-cache rebuild and the swap, while
//! parsing one file. `op_ms.p50` is change-to-served: from the edit's
//! file write to the poller's first 200 carrying the new ETag.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use rd_serve::{Controller, Server};
use routing_design::watch::{Tick, WatchOptions, Watcher};

use crate::edits::{Edit, EditStream, Kind};
use crate::poll::Poller;
use crate::report::Report;
use crate::trace::Tracer;
use crate::{layers, ms, stats, study, Ctx, Res};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 1;
/// How long a semantic edit may take to reach the poller.
const SERVE_TIMEOUT: Duration = Duration::from_secs(90);

struct Env {
    server: Server,
    watcher: Watcher,
    files: Vec<PathBuf>,
}

fn setup(ctx: &Ctx) -> Res<Env> {
    let (study, snap) = (ctx.study_dir(), ctx.snapshot_path());
    let files = study::emit(&study).map_err(|e| format!("emit study: {e}"))?;
    let bytes = crate::snapshot_study(&study)?;
    let server = crate::serve_snapshot(&snap, &bytes)?;
    let opts = WatchOptions {
        debounce: Duration::ZERO,
        seed: ctx.seed,
        ..WatchOptions::default()
    };
    let mut watcher = Watcher::new(&study, &snap, server.controller(), opts);
    if !watcher.seed_from_snapshot(&bytes) {
        return Err("the watcher rejected the boot snapshot".to_string());
    }
    Ok(Env {
        server,
        watcher,
        files,
    })
}

/// Ticks until the watcher stops waiting.
fn tick_through(watcher: &mut Watcher) -> Tick {
    let deadline = Instant::now() + SERVE_TIMEOUT;
    loop {
        match watcher.tick() {
            Tick::Waiting if Instant::now() < deadline => std::thread::yield_now(),
            other => return other,
        }
    }
}

/// Writes `edit` and drives the watcher; returns change-to-served for a
/// semantic edit and the tick time for a cosmetic one, in ms.
fn apply(
    edit: &Edit,
    watcher: &mut Watcher,
    ctrl: &Controller,
    poller: &Poller,
    tracer: &mut Tracer,
) -> Res<f64> {
    tracer.next_op();
    let op = tracer.open(match edit.kind {
        Kind::Semantic => "churn.semantic_edit",
        Kind::Cosmetic => "churn.cosmetic_edit",
    });
    let before = ctrl.etag();
    let written = Instant::now();
    tracer
        .time("edit.write", || std::fs::write(&edit.path, &edit.bytes))
        .map_err(|e| format!("write {}: {e}", edit.path.display()))?;
    let tick = tracer.time("core.tick", || tick_through(watcher));
    let after = ctrl.etag();
    let result = match edit.kind {
        Kind::Cosmetic if tick != Tick::Idle => Err(format!("a cosmetic edit ticked {tick:?}")),
        Kind::Cosmetic if after != before => Err("a cosmetic edit moved the ETag".to_string()),
        Kind::Cosmetic => Ok(ms(written.elapsed())),
        Kind::Semantic if tick != Tick::Published => {
            Err(format!("a semantic edit ticked {tick:?}"))
        }
        Kind::Semantic if after == before => Err("a semantic edit left the ETag".to_string()),
        Kind::Semantic => match poller.served_at(&after, SERVE_TIMEOUT) {
            Some(at) => {
                tracer.record("serve.served", written, at);
                Ok(ms(at.duration_since(written)))
            }
            None => Err(format!("ETag {after} not served within {SERVE_TIMEOUT:?}")),
        },
    };
    tracer.close(op);
    result
}

pub fn run(ctx: &Ctx) -> Res<Report> {
    let mut report = Report::default();
    let (mut env, mut setups) = crate::repeat_setup(
        if ctx.traced { 1 } else { SETUPS },
        || setup(ctx),
        |old: Env| old.server.shutdown(),
    )?;
    let ctrl = env.server.controller();
    let poller =
        Poller::start(env.server.local_addr(), ctrl.etag()).map_err(|e| format!("poller: {e}"))?;
    let mut stream = EditStream::new(ctx.seed, env.files.clone());

    // The timed window ends with the first semantic edit served past
    // `--seconds`, so every cosmetic edit is followed by a publish. A
    // traced run spends its first half with spans off and needs one
    // edit served in each half.
    let mut tracer = Tracer::new(false);
    let (mut untraced, mut traced, mut cosmetic) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    loop {
        let spans_on = ctx.traced && started.elapsed() >= ctx.window / 2 && !untraced.is_empty();
        tracer.set_enabled(spans_on);
        let edit = stream
            .next_edit()
            .map_err(|e| format!("edit stream: {e}"))?;
        report.attempted += 1;
        match apply(&edit, &mut env.watcher, &ctrl, &poller, &mut tracer) {
            Ok(took) if edit.kind == Kind::Cosmetic => cosmetic.push(took),
            Ok(took) if spans_on => traced.push(took),
            Ok(took) => untraced.push(took),
            Err(e) => {
                report.failed += 1;
                report.problem(e);
                break;
            }
        }
        let sampled = !untraced.is_empty() && (!ctx.traced || !traced.is_empty());
        if edit.kind == Kind::Semantic && sampled && started.elapsed() >= ctx.window {
            break;
        }
    }
    let window = started.elapsed();
    let polled = poller.stop();
    report.attempted += polled.latencies_us.len() as u64;
    report.failed += polled.errors;

    let mut poll_us = polled.latencies_us;
    poll_us.sort_by(f64::total_cmp);
    let edits = untraced.len() + traced.len() + cosmetic.len();
    report.note(format!(
        "churn: {edits} edits ({} cosmetic) in {:.3} s; cosmetic tick p50 {:.3} ms; poll p50 {:.1} us, p99 {:.1} us over {} conditional GETs ({} not modified)",
        cosmetic.len(),
        window.as_secs_f64(),
        stats::median(&mut cosmetic).unwrap_or(f64::NAN),
        stats::percentile(&poll_us, 0.5).unwrap_or(f64::NAN),
        stats::percentile(&poll_us, 0.99).unwrap_or(f64::NAN),
        poll_us.len(),
        polled.not_modified,
    ));

    if ctx.traced {
        crate::trace_overhead(&mut report, &mut untraced, &mut traced);
        layers::sweep(ctx, &mut tracer, &mut report, Some(&env.server))?;
    } else {
        let served = untraced.len();
        let p50 = stats::median(&mut untraced).unwrap_or(f64::NAN);
        crate::end_to_end(
            &mut report,
            &mut setups,
            p50,
            served,
            crate::per_s(edits, window),
            edits,
        );
        // Delta equals cold: what is served is what a cold snapshot of
        // the edited study gives. The traced sweep checks the same.
        crate::check_served_is_cold(&mut report, &ctx.study_dir(), &ctrl.etag())?;
    }
    env.server.shutdown();
    Ok(report)
}
