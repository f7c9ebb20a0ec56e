//! The freshness poller: one keep-alive connection polling `/networks`
//! with `If-None-Match` in a closed loop, as a dashboard does, noting
//! when each new ETag is first served. It waits [`THINK`] between a
//! response and the next request, so it measures freshness to that
//! resolution without taking a core from the publish it is watching.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::http::Client;

pub const THINK: Duration = Duration::from_millis(1);

#[derive(Default)]
pub struct PollOutcome {
    pub latencies_us: Vec<f64>,
    pub errors: u64,
    pub not_modified: u64,
}

struct Shared {
    stop: AtomicBool,
    /// Every new ETag the poller saw, with the instant its 200 arrived.
    served: Mutex<Vec<(String, Instant)>>,
    seen: Condvar,
}

pub struct Poller {
    shared: Arc<Shared>,
    handle: JoinHandle<PollOutcome>,
}

impl Poller {
    /// Starts polling `addr`, taking `etag` as the one already known.
    pub fn start(addr: SocketAddr, etag: String) -> std::io::Result<Poller> {
        let mut client = Client::connect(addr)?;
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            served: Mutex::new(Vec::new()),
            seen: Condvar::new(),
        });
        let worker = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("perfbench-poller".to_string())
            .spawn(move || {
                let mut out = PollOutcome::default();
                let mut known = etag;
                while !worker.stop.load(Ordering::SeqCst) {
                    let sent = Instant::now();
                    match client.get("/networks", Some(&known)) {
                        Ok(resp) => {
                            let done = Instant::now();
                            out.latencies_us
                                .push(done.duration_since(sent).as_nanos() as f64 / 1e3);
                            match (resp.status, resp.etag) {
                                (304, _) => out.not_modified += 1,
                                (200, Some(tag)) if tag != known => {
                                    known = tag.clone();
                                    worker
                                        .served
                                        .lock()
                                        .expect("poller state poisoned")
                                        .push((tag, done));
                                    worker.seen.notify_all();
                                }
                                (200, Some(_)) => {}
                                _ => out.errors += 1,
                            }
                            std::thread::sleep(THINK);
                        }
                        Err(_) => {
                            out.errors += 1;
                            std::thread::sleep(Duration::from_millis(10));
                            match Client::connect(addr) {
                                Ok(c) => client = c,
                                Err(_) => break,
                            }
                        }
                    }
                }
                out
            })?;
        Ok(Poller { shared, handle })
    }

    /// When the poller first received a 200 carrying `etag`, waiting up
    /// to `timeout` for it.
    pub fn served_at(&self, etag: &str, timeout: Duration) -> Option<Instant> {
        let deadline = Instant::now() + timeout;
        let mut served = self.shared.served.lock().expect("poller state poisoned");
        loop {
            if let Some((_, at)) = served.iter().find(|(tag, _)| tag == etag) {
                return Some(*at);
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            served = self
                .shared
                .seen
                .wait_timeout(served, left)
                .expect("poller state poisoned")
                .0;
        }
    }

    pub fn stop(self) -> PollOutcome {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("poller thread panicked")
    }
}
