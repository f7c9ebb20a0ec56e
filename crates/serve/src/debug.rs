//! Live introspection state behind `/admin/debug/*`.
//!
//! The event loops are single-threaded over their own slab and wheel, so
//! a debug endpoint cannot walk them directly from another loop's
//! request. Instead each loop publishes a [`LoopDebug`] snapshot of
//! itself into [`crate::Shared`] at most once per [`PUBLISH_INTERVAL`] —
//! a bounded copy off the hot path — and the endpoints render whatever
//! was last published. The JSON here is hand-rolled (single object per
//! response, `rd_obs::json::escape` for strings), matching the rest of
//! the workspace's zero-dependency rendering.

use std::fmt::Write as _;
use std::time::Duration;

use crate::cache::SnapshotState;

/// Reload-history ring capacity (oldest events drop first).
pub(crate) const RELOAD_HISTORY: usize = 32;
/// Most connections listed per loop in `/admin/debug/conns`; the rest
/// are summarized by `conns_truncated` so a connection flood cannot turn
/// the debug endpoint into an allocation amplifier.
pub(crate) const MAX_CONNS_LISTED: usize = 256;
/// How often a loop republishes its [`LoopDebug`] snapshot.
pub(crate) const PUBLISH_INTERVAL: Duration = Duration::from_millis(200);

/// One connection, as last published by its owning loop.
pub(crate) struct ConnDebug {
    /// Slab slot index.
    pub slot: usize,
    /// `"open"`, `"flush-close"`, `"flush-close-linger"`, or `"draining"`.
    pub state: &'static str,
    /// Milliseconds since the connection was accepted.
    pub age_ms: u64,
    /// Buffered unparsed request bytes.
    pub read_buf: usize,
    /// Response bytes not yet written to the socket.
    pub write_pending: usize,
    /// True while past the write high-water mark (reads paused).
    pub backpressured: bool,
    /// Milliseconds until the live deadline fires (negative = overdue,
    /// the wheel just hasn't swept it yet).
    pub deadline_ms: i64,
}

/// One event loop's self-published state.
pub(crate) struct LoopDebug {
    /// Loop thread index (`rd-serve-loop-{id}`).
    pub loop_id: usize,
    /// Live connections in the slab.
    pub live: usize,
    /// Total slab slots (live + free).
    pub slots: usize,
    /// Cumulative epoll wake-ups since the loop started.
    pub wakeups: u64,
    /// Cumulative requests answered by this loop.
    pub requests: u64,
    /// Total entries across all timer-wheel buckets.
    pub wheel_depth: usize,
    /// Deepest single wheel bucket.
    pub wheel_max_bucket: usize,
    /// Per-connection detail, capped at [`MAX_CONNS_LISTED`].
    pub conns: Vec<ConnDebug>,
    /// Connections beyond the cap (listed count + this = live).
    pub conns_truncated: usize,
}

/// One entry in the reload history ring (the boot load is entry zero).
pub(crate) struct ReloadEvent {
    /// Milliseconds since server start.
    pub at_ms: u64,
    /// Whether the (re)load published a new snapshot.
    pub ok: bool,
    /// The entity tag serving after this event (unchanged on failure).
    pub etag: String,
    /// Networks in the serving corpus after this event.
    pub networks: usize,
    /// The new snapshot's cache build time in µs; `None` when the event
    /// built nothing (a failure).
    pub build_us: Option<u64>,
    /// `"boot"`, `"reload"`, or the failure message.
    pub detail: String,
}

fn quoted(text: &str) -> String {
    format!("\"{}\"", rd_obs::json::escape(text))
}

fn push_loop_fields(out: &mut String, l: &LoopDebug) {
    let _ = write!(
        out,
        "{{\"loop\": {}, \"live\": {}, \"slots\": {}, \"wakeups\": {}, \
         \"requests\": {}, \"wheel_depth\": {}, \"wheel_max_bucket\": {}",
        l.loop_id, l.live, l.slots, l.wakeups, l.requests, l.wheel_depth, l.wheel_max_bucket
    );
}

/// `/admin/debug/loop`: per-loop health, no per-connection detail.
pub(crate) fn render_loops(loops: &[Option<LoopDebug>]) -> String {
    let mut out = String::from("{\"loops\": [");
    let mut first = true;
    for l in loops.iter().flatten() {
        if !first {
            out.push_str(", ");
        }
        first = false;
        push_loop_fields(&mut out, l);
        out.push('}');
    }
    let published = loops.iter().flatten().count();
    let _ = write!(out, "], \"published\": {published}, \"configured\": {}}}\n", loops.len());
    out
}

/// `/admin/debug/conns`: every published connection, flattened across
/// loops, each tagged with its owning loop.
pub(crate) fn render_conns(loops: &[Option<LoopDebug>]) -> String {
    let mut out = String::from("{\"conns\": [");
    let mut first = true;
    let (mut live, mut truncated) = (0usize, 0usize);
    for l in loops.iter().flatten() {
        live += l.live;
        truncated += l.conns_truncated;
        for c in &l.conns {
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(
                out,
                "{{\"loop\": {}, \"slot\": {}, \"state\": \"{}\", \"age_ms\": {}, \
                 \"read_buf\": {}, \"write_pending\": {}, \"backpressured\": {}, \
                 \"deadline_ms\": {}}}",
                l.loop_id,
                c.slot,
                c.state,
                c.age_ms,
                c.read_buf,
                c.write_pending,
                c.backpressured,
                c.deadline_ms
            );
        }
    }
    let _ = write!(out, "], \"live\": {live}, \"truncated\": {truncated}}}\n");
    out
}

/// `/admin/debug/cache`: the serving snapshot (as this loop sees it —
/// after a failed reload this is still the pre-failure version) plus the
/// reload history ring.
pub(crate) fn render_cache(
    st: &SnapshotState,
    history: &[ReloadEvent],
    uptime_ms: u64,
) -> String {
    let mut out = String::with_capacity(512);
    let _ = write!(
        out,
        "{{\"etag\": {}, \"networks\": {}, \"entries\": {}, \"cache_enabled\": {}, \
         \"body_bytes\": {}, \"response_bytes\": {}, \"uptime_ms\": {uptime_ms}, \
         \"reload_history\": [",
        quoted(&st.etag),
        st.corpus.networks.len(),
        st.cache.len(),
        !st.cache.is_empty(),
        st.cache_body_bytes,
        st.cache_resp_bytes,
    );
    for (i, ev) in history.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let build_ms = match ev.build_us {
            Some(us) => format!("{}.{:03}", us / 1000, us % 1000),
            None => "null".to_string(),
        };
        let _ = write!(
            out,
            "{{\"at_ms\": {}, \"ok\": {}, \"etag\": {}, \"networks\": {}, \"build_ms\": {build_ms}, \"detail\": {}}}",
            ev.at_ms,
            ev.ok,
            quoted(&ev.etag),
            ev.networks,
            quoted(&ev.detail),
        );
    }
    out.push_str("]}\n");
    out
}

/// `/admin/debug/watch`: the health state machine plus whatever status
/// the supervisor last published (`"watch": null` under plain `rdx
/// serve`, which never publishes one).
pub(crate) fn render_watch(
    health: crate::HealthState,
    status: Option<&crate::WatchStatus>,
    uptime_ms: u64,
) -> String {
    let mut out = String::with_capacity(256);
    let _ = write!(
        out,
        "{{\"health\": {}, \"uptime_ms\": {uptime_ms}, \"watch\": ",
        quoted(health.as_str()),
    );
    match status {
        None => out.push_str("null"),
        Some(s) => {
            let _ = write!(
                out,
                "{{\"generation\": {}, \"failures\": {}, \"consecutive_failures\": {}, \
                 \"backoff_ms\": {}, \"last_error\": {}, \"last_change_ms\": {}, \
                 \"last_publish_ms\": {}, \"fingerprints\": {}, \"last_refresh\": ",
                s.generation,
                s.failures,
                s.consecutive_failures,
                s.backoff_ms,
                s.last_error.as_deref().map(quoted).unwrap_or_else(|| "null".to_string()),
                s.last_change_ms,
                s.last_publish_ms,
                s.fingerprints,
            );
            if s.last_refresh.is_empty() {
                out.push_str("null");
            } else {
                let counters: Vec<String> =
                    s.last_refresh.iter().map(|(k, v)| format!("{}: {v}", quoted(k))).collect();
                let _ = write!(out, "{{{}}}", counters.join(", "));
            }
            let names: Vec<String> = s.recomputed.iter().map(|n| quoted(n)).collect();
            let warnings: Vec<String> = s
                .warnings
                .iter()
                .map(|d| {
                    format!(
                        "{{\"file\": {}, \"code\": {}, \"message\": {}}}",
                        quoted(&d.file),
                        quoted(d.code),
                        quoted(&d.message)
                    )
                })
                .collect();
            let _ = write!(
                out,
                ", \"recomputed\": [{}], \"warnings\": [{}]}}",
                names.join(", "),
                warnings.join(", ")
            );
        }
    }
    out.push_str("}\n");
    out
}
