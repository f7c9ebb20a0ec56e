//! `cold_study`: repeated cold full-study snapshots.
//!
//! Each iteration runs `snap_dir` over the emitted study, encodes the
//! container, persists it with `write_atomic` and reads it back with
//! `read_file_with_trailer`. Parse and the analysis stages do nearly all
//! the work; serve, watch and the delta engine do none.

use std::path::Path;
use std::time::Instant;

use rd_snap::Corpus;

use crate::report::Report;
use crate::trace::Tracer;
use crate::{layers, ms, stats, study, Ctx, Res};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// One snapshot iteration; returns the container bytes.
fn iteration(study: &Path, snap: &Path, tracer: &mut Tracer, report: &mut Report) -> Res<Vec<u8>> {
    tracer.next_op();
    let op = tracer.open("cold.iteration");
    let outcome = tracer
        .time("core.snap_dir", || {
            routing_design::snapshot::snap_dir(study)
        })
        .map_err(|e| format!("snap_dir: {e}"))?;
    if let Some(d) = outcome.dropped.first() {
        return Err(format!("network {} dropped: {}", d.name, d.reason));
    }
    let bytes = tracer.time("snap.encode", || outcome.corpus.to_bytes());
    tracer
        .time("snap.persist", || rd_snap::write_atomic(snap, &bytes))
        .map_err(|e| format!("persist: {e}"))?;
    let (_, trailer) = tracer.time("snap.read_file", || Corpus::read_file_with_trailer(snap))?;
    tracer.close(op);
    report.check(Some(trailer) == rd_snap::trailer_of(&bytes), || {
        "read_file_with_trailer returned another trailer than the container holds".to_string()
    });
    Ok(bytes)
}

/// Checks the study's shape: 31 networks, 8,035 routers, nothing
/// quarantined.
fn check_study(report: &mut Report, bytes: &[u8]) -> Res<()> {
    let corpus = Corpus::from_bytes(bytes).map_err(|e| format!("decode: {e}"))?;
    let routers: usize = corpus
        .networks
        .iter()
        .map(|n| n.network.routers.len())
        .sum();
    let quarantined: usize = corpus
        .networks
        .iter()
        .map(|n| n.network.coverage.quarantined.len())
        .sum();
    report.check(corpus.networks.len() == study::NETWORKS, || {
        format!(
            "study has {} networks, expected {}",
            corpus.networks.len(),
            study::NETWORKS
        )
    });
    report.check(routers == study::CONFIGS, || {
        format!("study has {routers} routers, expected {}", study::CONFIGS)
    });
    report.check(quarantined == 0, || {
        format!("{quarantined} files quarantined")
    });
    Ok(())
}

pub fn run(ctx: &Ctx) -> Res<Report> {
    let mut report = Report::default();
    let (study, snap) = (ctx.study_dir(), ctx.snapshot_path());
    let mut off = Tracer::new(false);

    // Set-up: emit the study, then one untimed warm-up iteration (the
    // first snapshot of a process runs far slower than later ones).
    // Earlier set-ups emit beside the study rather than deleting and
    // re-creating 8,035 files under one name, so no set-up waits on the
    // file system catching up with the previous one's deletes.
    let setups_n = if ctx.traced { 1 } else { SETUPS };
    let mut round = 0;
    let (reference, mut setups) = crate::repeat_setup(
        setups_n,
        || {
            round += 1;
            let dir = if round == setups_n {
                study.clone()
            } else {
                ctx.work.join(format!("study-{round}"))
            };
            study::emit(&dir).map_err(|e| format!("emit study: {e}"))?;
            iteration(&dir, &snap, &mut off, &mut report)
        },
        drop,
    )?;
    check_study(&mut report, &reference)?;

    // The timed window. A traced run spends its first half with spans
    // off and its second half with them on.
    let mut tracer = Tracer::new(false);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while started.elapsed() < ctx.window || untraced.is_empty() || (ctx.traced && traced.is_empty())
    {
        let spans_on = ctx.traced && started.elapsed() >= ctx.window / 2 && !untraced.is_empty();
        tracer.set_enabled(spans_on);
        let t = Instant::now();
        report.attempted += 1;
        match iteration(&study, &snap, &mut tracer, &mut report) {
            Ok(bytes) => {
                let took = ms(t.elapsed());
                if bytes != reference {
                    report.failed += 1;
                    report.problem("a container differs from the first one".to_string());
                }
                if spans_on {
                    traced.push(took)
                } else {
                    untraced.push(took)
                }
            }
            Err(e) => {
                report.failed += 1;
                report.problem(e);
                break;
            }
        }
    }
    let window = started.elapsed();
    report.note(format!(
        "cold_study: {} iterations in {:.3} s",
        untraced.len() + traced.len(),
        window.as_secs_f64()
    ));

    if ctx.traced {
        crate::trace_overhead(&mut report, &mut untraced, &mut traced);
        layers::sweep(ctx, &mut tracer, &mut report, None)?;
    } else {
        let ops = untraced.len();
        let p50 = stats::median(&mut untraced).unwrap_or(f64::NAN);
        crate::end_to_end(
            &mut report,
            &mut setups,
            p50,
            ops,
            crate::per_s(ops, window),
            ops,
        );
    }
    Ok(report)
}
