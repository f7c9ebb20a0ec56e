//! Observability for the analysis pipeline: structured tracing, a metrics
//! registry, and first-class diagnostics — all in-tree, with no external
//! dependencies, matching the workspace's offline build policy.
//!
//! The paper's workflow (Section 8.1) is an operator interrogating
//! thousands of configuration files; at that scale, silently dropping a
//! line or a file corrupts every downstream abstraction. This crate is how
//! a run explains *what it saw and what it ignored*, not just how long it
//! took:
//!
//! - [`trace`]: `span!`-style scoped regions and point events with
//!   key–value fields, emitted as deterministic JSONL to a sink chosen at
//!   runtime (`RD_TRACE=<path|stderr>`, or `rdx`/`repro --trace <path>`).
//!   Events raised inside `rd_par::par_map` workers are buffered per work
//!   item and flushed in input order, so the event sequence is
//!   byte-identical at any `RD_THREADS` setting once timestamps are zeroed
//!   (`RD_TRACE_ZERO=1`).
//! - [`metrics`]: named counters, gauges, and fixed-bucket histograms
//!   (e.g. `parse.lines`, `parse.unrecognized_lines`, `instances.count`,
//!   and a `rss.peak_kb` gauge read from `/proc/self/status` on Linux).
//!   Dumped by `rdx --metrics` and folded into `BENCH_repro.json`.
//! - [`diag`]: per-file/per-line diagnostics (unknown stanza, dangling
//!   policy reference, ambiguous structure) with severity, carried through
//!   `ioscfg` → `nettopo` → `routing-model` instead of being dropped, and
//!   surfaced by `rdx <dir> diag`.
//! - [`profile`]: RAII hierarchical wall-clock spans (the [`span!`] macro)
//!   aggregated into collapsed-stack output for flamegraph tooling,
//!   enabled by `rdx`/`repro --profile <path>` and byte-identical across
//!   thread counts under `RD_PROF_ZERO=1`.
//! - [`json`]: the tiny JSON escaping/validation helpers behind all of the
//!   above, plus the `trace_check` self-check binary that `scripts/verify.sh`
//!   runs over emitted trace files.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod trace;

pub use diag::{Diagnostic, Diagnostics, Severity};
pub use profile::ProfSpan;
pub use trace::{Event, SpanGuard, Value};

/// Opens a profiling span ([`profile::span`]) named by a string literal or
/// `format!`-style arguments: `span!("parse")`, `span!("parse:{}", name)`.
/// A lone literal is passed through verbatim (no allocation, no `{}`
/// interpolation); use the multi-argument form for dynamic names.
/// Returns the RAII [`ProfSpan`] guard; bind it (`let _span = ...`) so the
/// span covers the intended scope. Costs one atomic load when profiling
/// is disabled.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::profile::span($name)
    };
    ($($arg:tt)*) => {
        $crate::profile::span(&format!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    /// Serializes this crate's tests that touch the process-global trace
    /// sink or profile table: a profile span also emits trace events while
    /// a sink is installed, so the two suites would otherwise see each
    /// other's events under the parallel test harness.
    pub(crate) fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}
