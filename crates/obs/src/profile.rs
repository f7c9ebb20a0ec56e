//! Hierarchical wall-clock profiling: RAII spans that aggregate into
//! collapsed-stack ("folded") output consumable by standard flamegraph
//! tooling (`stack;substack self_microseconds` per line).
//!
//! The model is a per-thread stack of open frames. [`span`] (or the
//! `span!` macro) pushes a frame and returns a guard; dropping the guard
//! pops it, computes **self time** (wall clock minus the time spent in
//! child spans), and folds one sample into a process-global table keyed
//! by the `;`-joined stack path. Every span carries a process-unique id
//! and knows its parent's id ([`ProfSpan::id`] / [`ProfSpan::parent_id`]);
//! ids are handed out from an atomic counter and are never serialized
//! into deterministic outputs.
//!
//! Cross-thread stacks: `rd_par::par_map` captures the caller's open
//! stack with [`stack_path`] and replays it on each worker via
//! [`with_stack`], so a span opened inside a worker folds under the same
//! stack it would have in the sequential path. The child time workers
//! report is credited back to the caller's frame with [`credit_child_us`]
//! after the join, keeping parent self-time exclusive (parallel child
//! time can exceed the parent's wall clock; the subtraction saturates).
//!
//! Determinism: the table is a `BTreeMap`, so [`render_folded`] is sorted
//! by stack path, and every opened stack records its key even at zero
//! self time. With `RD_PROF_ZERO=1` the rendered counts are zeroed,
//! making profiles byte-identical at any `RD_THREADS` — the same
//! convention as `RD_TRACE_ZERO` for trace timestamps. When a trace sink
//! is active, each profile span additionally emits `span_open`/
//! `span_close` trace events through the ordered per-item flush, so
//! profiles and traces stay consistent.
//!
//! Profiling is off by default; a disabled [`span`] call costs one atomic
//! load. `rdx --profile <path>` / `repro --profile <path>` enable it and
//! write the folded table on exit.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Environment variable: when `1`/`true`, [`render_folded`] via
/// [`zero_from_env`] reports every count as 0, making folded profiles
/// byte-comparable across thread counts and machines.
pub const PROF_ZERO_ENV: &str = "RD_PROF_ZERO";

/// Aggregated samples for one distinct call stack.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StackStat {
    /// How many spans closed with exactly this stack.
    pub calls: u64,
    /// Accumulated self time in microseconds (wall clock minus the wall
    /// clock of child spans, saturating at zero for parallel children).
    pub self_us: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static TABLE: Mutex<BTreeMap<String, StackStat>> = Mutex::new(BTreeMap::new());

struct Frame {
    name: String,
    id: u64,
    start: Instant,
    child_us: u64,
    /// Synthetic frames carry a cross-thread stack prefix installed by
    /// [`with_stack`]; they aggregate child time but never record a
    /// sample of their own.
    synthetic: bool,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// True when span recording is on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span recording on (idempotent). Enable **before** the work you
/// want profiled: spans opened while disabled stay unarmed for their
/// whole lifetime.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns span recording off. Already-open armed spans still fold their
/// samples when dropped.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Clears the aggregated stack table (tests, repeated harness runs).
pub fn reset() {
    TABLE.lock().expect("profile table poisoned").clear();
}

/// True when `RD_PROF_ZERO` asks for zeroed counts.
pub fn zero_from_env() -> bool {
    std::env::var(PROF_ZERO_ENV).is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
}

/// An open profiling span; dropping it closes the span and folds one
/// sample into the global table. Unarmed (profiling disabled at open) is
/// a no-op end to end.
pub struct ProfSpan {
    armed: bool,
    id: u64,
    parent: u64,
    /// Mirrors the span into the trace stream when a sink is active, so
    /// `span_open`/`span_close` events flush in the usual ordered way.
    _trace: Option<crate::trace::SpanGuard>,
}

impl ProfSpan {
    /// This span's process-unique id (0 when unarmed). Ids exist for
    /// programmatic correlation only and never appear in folded output.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The enclosing span's id at open time (0 for a root span).
    pub fn parent_id(&self) -> u64 {
        self.parent
    }
}

/// Opens a span named `name` under the current thread's innermost open
/// span. Prefer the `span!` macro, which also supports format arguments.
pub fn span(name: &str) -> ProfSpan {
    if !enabled() {
        return ProfSpan { armed: false, id: 0, parent: 0, _trace: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let trace = crate::trace::enabled().then(|| crate::trace::span(name, &[]));
    let parent = STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let parent = stack.last().map(|f| f.id).unwrap_or(0);
        stack.push(Frame {
            name: name.to_string(),
            id,
            start: Instant::now(),
            child_us: 0,
            synthetic: false,
        });
        parent
    });
    ProfSpan { armed: true, id, parent, _trace: trace }
}

impl Drop for ProfSpan {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let popped = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let frame = stack.pop()?;
            debug_assert_eq!(frame.id, self.id, "profile spans must drop in LIFO order");
            let dur_us = frame.start.elapsed().as_micros() as u64;
            let mut path = String::with_capacity(48);
            for f in stack.iter() {
                path.push_str(&f.name);
                path.push(';');
            }
            path.push_str(&frame.name);
            if let Some(parent) = stack.last_mut() {
                parent.child_us += dur_us;
            }
            Some((path, dur_us.saturating_sub(frame.child_us)))
        });
        let Some((path, self_us)) = popped else {
            return;
        };
        let mut table = TABLE.lock().expect("profile table poisoned");
        let stat = table.entry(path).or_default();
        stat.calls += 1;
        stat.self_us += self_us;
    }
}

/// The current thread's open stack as a `;`-joined path (empty with no
/// spans open or profiling off). The parallel layer captures this before
/// a fan-out and replays it on workers via [`with_stack`].
pub fn stack_path() -> String {
    if !enabled() {
        return String::new();
    }
    STACK.with(|s| {
        let stack = s.borrow();
        let mut out = String::new();
        for (i, f) in stack.iter().enumerate() {
            if i > 0 {
                out.push(';');
            }
            out.push_str(&f.name);
        }
        out
    })
}

/// Runs `f` with `prefix` (a `;`-joined path from [`stack_path`],
/// possibly empty) installed as this thread's stack root. Returns `f`'s
/// value and the microseconds of direct child spans opened during it,
/// which the caller folds back into its own frame via
/// [`credit_child_us`]. The prefix frame itself never records a sample.
pub fn with_stack<R>(prefix: &str, f: impl FnOnce() -> R) -> (R, u64) {
    if !enabled() || prefix.is_empty() {
        return (f(), 0);
    }
    STACK.with(|s| {
        s.borrow_mut().push(Frame {
            name: prefix.to_string(),
            id: 0,
            start: Instant::now(),
            child_us: 0,
            synthetic: true,
        });
    });
    // Pop even if `f` panics (try_par_map catches per-item panics and the
    // worker thread is reused for further items).
    struct PopOnDrop<'a> {
        child_us: &'a Cell<u64>,
    }
    impl Drop for PopOnDrop<'_> {
        fn drop(&mut self) {
            let popped = STACK.with(|s| s.borrow_mut().pop());
            if let Some(frame) = popped {
                debug_assert!(frame.synthetic, "with_stack must pop its own prefix frame");
                self.child_us.set(frame.child_us);
            }
        }
    }
    let child_us = Cell::new(0);
    let value = {
        let _guard = PopOnDrop { child_us: &child_us };
        f()
    };
    (value, child_us.get())
}

/// Adds `us` of child time to this thread's innermost open frame (no-op
/// with none open). Called by the parallel layer after a fan-out joins,
/// with the summed direct-child time its workers reported, so the
/// caller's self time excludes work that ran on other threads.
pub fn credit_child_us(us: u64) {
    if us == 0 || !enabled() {
        return;
    }
    STACK.with(|s| {
        if let Some(top) = s.borrow_mut().last_mut() {
            top.child_us += us;
        }
    });
}

/// A sorted copy of the aggregated stack table.
pub fn table_snapshot() -> Vec<(String, StackStat)> {
    let table = TABLE.lock().expect("profile table poisoned");
    table.iter().map(|(k, v)| (k.clone(), *v)).collect()
}

/// Renders the table in collapsed-stack format — one
/// `stack;substack self_us` line per distinct stack, sorted by path.
/// With `zero` the counts render as 0: the line set (which stacks ran)
/// is thread-count-invariant, so zeroed output is byte-comparable.
pub fn render_folded(zero: bool) -> String {
    let table = TABLE.lock().expect("profile table poisoned");
    let mut out = String::new();
    for (path, stat) in table.iter() {
        let count = if zero { 0 } else { stat.self_us };
        let _ = writeln!(out, "{path} {count}");
    }
    out
}

/// Writes [`render_folded`] to `path`, honoring `RD_PROF_ZERO`.
pub fn write_folded(path: &str) -> std::io::Result<()> {
    std::fs::write(path, render_folded(zero_from_env()))
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test function: the enabled flag and table are process-global
    // and `cargo test` runs #[test] functions concurrently.
    #[test]
    fn span_lifecycle_and_folded_output() {
        let _obs = crate::tests::obs_lock();
        // Disabled spans are unarmed and record nothing.
        reset();
        {
            let s = span("cold");
            assert_eq!((s.id(), s.parent_id()), (0, 0));
        }
        assert!(render_folded(false).is_empty());

        enable();
        assert!(enabled());

        // Nesting: child stacks fold under the parent path, parent self
        // time excludes the child, ids link child to parent.
        let root_wall = Instant::now();
        {
            let root = span("root");
            assert!(root.id() > 0 && root.parent_id() == 0);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let child = span("child");
                assert_eq!(child.parent_id(), root.id());
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
        }
        let root_wall_us = root_wall.elapsed().as_micros() as u64;
        let table: BTreeMap<String, StackStat> = table_snapshot().into_iter().collect();
        assert_eq!(table.len(), 2, "{table:?}");
        assert_eq!(table["root"].calls, 1);
        assert_eq!(table["root;child"].calls, 1);
        assert!(table["root;child"].self_us >= 3_000, "{table:?}");
        // Root slept ~2ms itself; its ~4ms child must not be double-counted:
        // root self plus child time is exactly the root's duration, which
        // the wall clock around the span bounds. (A fixed ceiling on root
        // self time would fail whenever a loaded host wakes the sleep late.)
        let root_self = table["root"].self_us;
        assert!(root_self >= 1_000, "root self {root_self}us");
        assert!(
            root_self + table["root;child"].self_us <= root_wall_us,
            "root self {root_self}us double-counts its child (wall {root_wall_us}us)"
        );

        // Cross-thread replay: a worker with the captured prefix folds
        // under the caller's stack and reports child time for crediting.
        reset();
        let outer_wall = Instant::now();
        let child_us = {
            let _outer = span("outer");
            let prefix = stack_path();
            assert_eq!(prefix, "outer");
            let handle = std::thread::spawn(move || {
                let ((), child_us) = with_stack(&prefix, || {
                    let _inner = span("inner");
                    std::thread::sleep(std::time::Duration::from_millis(3));
                });
                child_us
            });
            let child_us = handle.join().expect("worker");
            assert!(child_us >= 2_000, "worker child time {child_us}us");
            credit_child_us(child_us);
            child_us
        };
        let outer_wall_us = outer_wall.elapsed().as_micros() as u64;
        let table: BTreeMap<String, StackStat> = table_snapshot().into_iter().collect();
        assert_eq!(table["outer;inner"].calls, 1, "{table:?}");
        // The ~3ms that ran on the worker was credited back: outer's self
        // time must not include it. With crediting, self plus the credited
        // time is outer's duration, bounded by the wall clock around it;
        // without, the sum would exceed that wall by the whole ~3ms.
        assert!(table["outer"].self_us + child_us <= outer_wall_us, "{table:?}");

        // Empty prefix is a passthrough (roots stay roots, nothing to
        // credit); folded output is sorted and zeroing blanks counts.
        let ((), zero_child) = with_stack("", || {
            let _solo = span("solo");
        });
        assert_eq!(zero_child, 0);
        let folded = render_folded(false);
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 3);
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted, "folded output must be path-sorted");
        assert!(folded.contains("outer;inner "));
        let zeroed = render_folded(true);
        assert!(zeroed.lines().all(|l| l.ends_with(" 0")), "{zeroed}");
        assert_eq!(
            zeroed.lines().count(),
            folded.lines().count(),
            "zeroing must keep the line set"
        );

        // The span! macro forwards literals and format args.
        {
            let _a = crate::span!("macro-lit");
            let _b = crate::span!("macro:{}", 15);
        }
        let folded = render_folded(false);
        assert!(folded.contains("macro-lit;macro:15 "));

        disable();
        reset();
        assert!(render_folded(false).is_empty());
    }
}
