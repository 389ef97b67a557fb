//! The long-running query service: a threaded std-net HTTP server over
//! the analytic fast path.
//!
//! # Architecture
//!
//! A fixed pool of worker threads each `accept`s on a clone of one bound
//! listener (the kernel load-balances wakeups) and owns a connection at a
//! time, serving keep-alive request sequences until the client closes or
//! the idle read timeout fires. Workers execute queries on a *serial*
//! executor: request-level parallelism comes from the worker pool, and
//! keeping each query single-threaded makes service throughput degrade
//! linearly — never convoy — under load.
//!
//! The three perf mechanisms, and where they live:
//!
//! * **Coalescing** — concurrent queries needing the same
//!   `(node, mode, path length, vdd)` operating point attach to one
//!   in-flight build via [`OpPointCache::get_or_build`]'s single-flight
//!   cells; the server adds nothing on top, which is the point: the
//!   mechanism is shared with every offline study.
//! * **Bounded cache** — [`ServeConfig::cache_bound`] applies an LRU bound
//!   to the process-wide cache at startup. Distributions are pure
//!   functions of the key, so eviction can change *timing* but never
//!   *bytes* (pinned by the double-run identity test and the CI smoke
//!   job's `cmp`).
//! * **Load shedding** — requests whose batch contains a Monte-Carlo
//!   fallback query must take a [`McGate`] permit for the whole request
//!   and receive `429 Too Many Requests` when the pool is dry. Analytic
//!   queries are never shed.
//!
//! # Endpoints
//!
//! | route        | method | body                                        |
//! |--------------|--------|---------------------------------------------|
//! | `/v1/query`  | POST   | one query object, or `{"queries": [...]}`   |
//! | `/stats`     | GET    | cache + server counters (not byte-stable)   |
//! | `/healthz`   | GET    | `{"ok":true}`                               |
//!
//! `/v1/query` responses are `{"results":[...]}` in request order and are
//! byte-identical across runs for a fixed query set; `/stats` reflects
//! live counters and is explicitly excluded from that contract.

use std::io::{BufReader, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ntv_core::{Executor, OpPointCache};

use crate::http::{read_request, write_response, Request, RequestError, MAX_BODY_BYTES};
use crate::json;
use crate::shed::McGate;
use crate::wire;

/// Server configuration; `Default` is suitable for tests and local use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Bind address. Port 0 picks a free port (see [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads — the concurrent-connection capacity.
    pub workers: usize,
    /// LRU bound applied to the process-wide operating-point cache at
    /// startup; `None` leaves it unbounded.
    pub cache_bound: Option<usize>,
    /// Concurrent Monte-Carlo request slots (0 sheds all MC work).
    pub mc_capacity: usize,
    /// Most queries accepted in one request.
    pub max_batch: usize,
    /// Idle keep-alive timeout before a worker reclaims the connection.
    pub idle_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            cache_bound: Some(1024),
            mc_capacity: 2,
            max_batch: 1024,
            idle_timeout: Duration::from_secs(5),
        }
    }
}

/// Cumulative request counters, alongside the cache's own stats.
#[derive(Debug, Default)]
struct ServerCounters {
    /// HTTP requests served (any status).
    requests: AtomicU64,
    /// Individual queries executed (batch entries).
    queries: AtomicU64,
}

/// Shared state every worker sees.
#[derive(Debug)]
struct Shared {
    gate: McGate,
    counters: ServerCounters,
    shutdown: AtomicBool,
    max_batch: usize,
}

/// A running server: worker threads plus the handle to stop them.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// Bind and start serving on background threads.
///
/// # Errors
///
/// Propagates socket errors from binding or cloning the listener.
pub fn serve(config: &ServeConfig) -> std::io::Result<ServerHandle> {
    OpPointCache::global().set_bound(config.cache_bound);
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        gate: McGate::new(config.mc_capacity),
        counters: ServerCounters::default(),
        shutdown: AtomicBool::new(false),
        max_batch: config.max_batch,
    });
    let workers = (0..config.workers.max(1))
        .map(|i| {
            let listener = listener.try_clone()?;
            let shared = Arc::clone(&shared);
            let idle = config.idle_timeout;
            std::thread::Builder::new()
                .name(format!("ntv-serve-{i}"))
                .spawn(move || worker_loop(&listener, &shared, idle))
        })
        .collect::<std::io::Result<Vec<_>>>()?;
    Ok(ServerHandle {
        addr,
        shared,
        workers,
    })
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, wake the workers, and join them.
    ///
    /// A worker notices the stop only between requests, so this waits up
    /// to [`ServeConfig::idle_timeout`] for a connection a client keeps
    /// open; close client connections first.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Block on the worker threads — i.e. forever, unless the process is
    /// signalled. The foreground mode of `ntv serve`.
    pub fn wait(mut self) {
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    fn stop(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Each worker blocks in accept(); one self-connection per worker
        // wakes them all to observe the flag.
        for _ in 0..self.workers.len() {
            let _ = TcpStream::connect(self.addr);
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

fn worker_loop(listener: &TcpListener, shared: &Shared, idle: Duration) {
    let exec = Executor::serial();
    while !shared.shutdown.load(Ordering::SeqCst) {
        let Ok((stream, _)) = listener.accept() else {
            continue;
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let _ = stream.set_read_timeout(Some(idle));
        let _ = stream.set_nodelay(true);
        handle_connection(stream, shared, &exec, idle);
    }
}

/// Serve one connection's keep-alive request sequence.
fn handle_connection(stream: TcpStream, shared: &Shared, exec: &Executor, idle: Duration) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let request = match read_request(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) | Err(RequestError::Io(_)) => return,
            Err(RequestError::TooLarge) => {
                shared.counters.requests.fetch_add(1, Ordering::Relaxed);
                let body = error_body("request exceeds size caps");
                let _ = write_response(&mut writer, 413, &body, false);
                close_refused(&writer, &mut reader, idle);
                return;
            }
            Err(RequestError::Bad(reason)) => {
                shared.counters.requests.fetch_add(1, Ordering::Relaxed);
                let body = error_body(&reason);
                let _ = write_response(&mut writer, 400, &body, false);
                close_refused(&writer, &mut reader, idle);
                return;
            }
        };
        shared.counters.requests.fetch_add(1, Ordering::Relaxed);
        let (status, body) = route(&request, shared, exec);
        // Routed responses (including 404/405/429) are exactly framed, so
        // the connection stays usable; only transport-level errors above
        // force a close.
        let keep_alive = request.keep_alive;
        if write_response(&mut writer, status, &body, keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

/// Close a connection after refusing its request. The rest of the request
/// may still be unread, and closing a socket with unread input makes the
/// kernel send a reset, which can destroy the error response before the
/// client reads it. So: send FIN, then read and discard until the client's
/// EOF — at most `MAX_BODY_BYTES`, for at most `idle` in all.
fn close_refused(stream: &TcpStream, reader: &mut impl Read, idle: Duration) {
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + idle;
    let mut left = MAX_BODY_BYTES;
    let mut buf = [0u8; 8192];
    while left > 0 {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() || stream.set_read_timeout(Some(remaining)).is_err() {
            return;
        }
        let want = left.min(buf.len());
        match reader.read(&mut buf[..want]) {
            Ok(0) | Err(_) => return,
            Ok(n) => left -= n,
        }
    }
}

fn error_body(message: &str) -> String {
    json::obj(&[("error", json::str_val(message))])
}

/// Dispatch one request to its endpoint, returning `(status, body)`.
fn route(request: &Request, shared: &Shared, exec: &Executor) -> (u16, String) {
    match (request.method.as_str(), request.target.as_str()) {
        ("POST", "/v1/query") => run_batch(&request.body, shared, exec),
        ("GET", "/healthz") => (200, json::obj(&[("ok", "true".to_string())])),
        ("GET", "/stats") => (200, render_stats(shared)),
        (_, "/v1/query" | "/healthz" | "/stats") => (405, error_body("method not allowed")),
        _ => (404, error_body("no such endpoint")),
    }
}

fn run_batch(body: &str, shared: &Shared, exec: &Executor) -> (u16, String) {
    let parsed = match json::parse(body) {
        Ok(v) => v,
        Err(e) => return (400, error_body(&format!("{e}"))),
    };
    let queries = match wire::parse_batch(&parsed, shared.max_batch) {
        Ok(qs) => qs,
        Err(e) => return (400, error_body(&e)),
    };
    // Admission: a request with any Monte-Carlo work holds one permit for
    // its entire execution, bounding concurrent MC to the gate's capacity.
    let _permit = if queries.iter().any(wire::Query::needs_mc) {
        match shared.gate.admit() {
            Some(permit) => Some(permit),
            None => return (
                429,
                error_body(
                    "monte-carlo capacity exhausted; retry later or use evaluation \"analytic\"",
                ),
            ),
        }
    } else {
        None
    };
    shared
        .counters
        .queries
        .fetch_add(queries.len() as u64, Ordering::Relaxed);
    let results: Vec<String> = queries.iter().map(|q| q.run(exec)).collect();
    (200, json::obj(&[("results", json::arr(&results))]))
}

/// Render `/stats`: the cache counters plus the server's own.
fn render_stats(shared: &Shared) -> String {
    let cache = OpPointCache::global().stats();
    let bound = match OpPointCache::global().bound() {
        Some(b) => json::num(b as f64),
        None => "null".to_string(),
    };
    json::obj(&[
        (
            "cache",
            json::obj(&[
                ("hits", json::num(cache.hits as f64)),
                ("misses", json::num(cache.misses as f64)),
                ("evictions", json::num(cache.evictions as f64)),
                ("coalesced", json::num(cache.coalesced as f64)),
                ("resident", json::num(cache.resident as f64)),
                ("bound", bound),
            ]),
        ),
        (
            "server",
            json::obj(&[
                (
                    "requests",
                    json::num(shared.counters.requests.load(Ordering::Relaxed) as f64),
                ),
                (
                    "queries",
                    json::num(shared.counters.queries.load(Ordering::Relaxed) as f64),
                ),
                (
                    "mc_admitted",
                    json::num(shared.gate.admitted_total() as f64),
                ),
                ("mc_shed", json::num(shared.gate.shed_total() as f64)),
                ("mc_capacity", json::num(shared.gate.capacity() as f64)),
            ]),
        ),
    ])
}
