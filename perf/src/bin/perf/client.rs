//! Load generation over keep-alive HTTP/1.1: a closed loop (each
//! connection sends its next request when the previous answer arrives)
//! and an open loop (requests due on a fixed schedule, timed from when they
//! were due).
//!
//! Each request is rendered to bytes before its timer starts and written
//! with a single `write_all`, so the client's own formatting and syscall
//! count stay out of the server's latency. (`ntv_serve::client` formats
//! straight into the socket, several writes per request, and cannot split
//! a round trip into the send and receive halves the traced replay needs.)

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::stats::Fnv;
use crate::workloads::Req;

/// Connections every load phase uses: two, so load generation never needs
/// more than the two CPUs the benchmark was calibrated on.
pub const CONNECTIONS: usize = 2;

/// One response body in every `VERIFY_EVERY` of a connection is kept and
/// byte-compared against an in-process rendering after the phase.
pub const VERIFY_EVERY: u64 = 16;

/// Whether request `r` of a connection is kept for verification: one per
/// block of [`VERIFY_EVERY`], at a position that rotates from block to
/// block, so every kind in a periodic mix (serve_mixed's seventh-slot
/// studies included) is checked at the same rate.
#[must_use]
pub fn kept_for_verification(r: u64) -> bool {
    r % VERIFY_EVERY == (r / VERIFY_EVERY) % VERIFY_EVERY
}

/// Raw bytes of a `POST /v1/query` request.
#[must_use]
pub fn post(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/query HTTP/1.1\r\nhost: ntv\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Raw bytes of a body-less `GET`.
#[must_use]
pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nhost: ntv\r\ncontent-length: 0\r\n\r\n").into_bytes()
}

/// Read one `Content-Length`-framed response: status and body bytes.
///
/// # Errors
///
/// Transport errors and malformed framing.
pub fn read_response<R: BufRead>(reader: &mut R) -> io::Result<(u16, Vec<u8>)> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(bad("connection closed before the response"));
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut length = None;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("truncated response headers"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().ok();
            }
        }
    }
    let mut body = vec![0; length.ok_or_else(|| bad("response without content-length"))?];
    reader.read_exact(&mut body)?;
    Ok((status, body))
}

/// One keep-alive connection.
#[derive(Debug)]
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connect with Nagle off (the server sets the same on its side).
    ///
    /// # Errors
    ///
    /// Connect failures.
    pub fn open(addr: SocketAddr) -> io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self { reader, writer })
    }

    /// Send one pre-rendered request and read its response.
    ///
    /// # Errors
    ///
    /// Transport errors and malformed framing.
    pub fn roundtrip(&mut self, raw: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        self.writer.write_all(raw)?;
        read_response(&mut self.reader)
    }

    /// Round trip that must answer 200; returns the body as text.
    ///
    /// # Errors
    ///
    /// Transport errors, non-200 statuses and non-UTF-8 bodies.
    pub fn expect_ok(&mut self, raw: &[u8]) -> Result<String, String> {
        let (status, body) = self.roundtrip(raw).map_err(|e| format!("transport: {e}"))?;
        let body = String::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        if status == 200 {
            Ok(body)
        } else {
            Err(format!("status {status}: {body}"))
        }
    }
}

/// A request's outcome as one latency sample.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Latency in nanoseconds (open loop: from when it was due).
    pub ns: u64,
    /// Completion time, ns since the phase started.
    pub done_ns: u64,
    /// Queries the request carried.
    pub queries: u32,
    /// Whether the request was a study (serve_mixed) rather than a probe.
    pub study: bool,
}

/// What one load phase observed on all its connections.
#[derive(Debug, Default)]
pub struct Phase {
    /// One sample per successful request.
    pub samples: Vec<Sample>,
    /// Requests sent (successful or not).
    pub attempted: u64,
    /// Queries carried by successful requests.
    pub queries: u64,
    /// Studies among the successful requests.
    pub studies: u64,
    /// Wall time of the phase.
    pub elapsed: Duration,
    /// One line per failed request.
    pub failures: Vec<String>,
    /// Per connection: digest of the first `golden` bodies, and how many
    /// bodies went into it.
    pub digests: Vec<(u64, usize)>,
    /// `(request body, response body)` of the requests kept for
    /// verification.
    pub kept: Vec<(String, String)>,
    /// Open loop: latest any request was sent after it was due (ns).
    pub max_late_ns: u64,
}

impl Phase {
    fn merge(&mut self, conn: Phase) {
        self.samples.extend(conn.samples);
        self.attempted += conn.attempted;
        self.queries += conn.queries;
        self.studies += conn.studies;
        self.failures.extend(conn.failures);
        self.digests.extend(conn.digests);
        self.kept.extend(conn.kept);
        self.max_late_ns = self.max_late_ns.max(conn.max_late_ns);
    }

    /// Throughput (queries/s) and p50 / p99 latency (ms), each the median
    /// over consecutive blocks of at least `block` completions. On the
    /// 2-vCPU virtual machine the benchmark was calibrated on, the CPU ran
    /// at 0.55–0.8× speed for 0.2–1 s stretches a few times a minute; a
    /// whole-run statistic moves with how many such stretches a run caught,
    /// while the median block is one they missed. A block of 1000 still
    /// leaves ten samples beyond its p99. Fewer than two blocks' worth of
    /// samples gives the whole-run statistics.
    #[must_use]
    pub fn block_medians(&self, block: usize) -> Option<[f64; 3]> {
        let mut done: Vec<&Sample> = self.samples.iter().collect();
        done.sort_by_key(|s| s.done_ns);
        let n = done.len();
        if n == 0 {
            return None;
        }
        let blocks = (n / block).max(1);
        let mut stats: [Vec<f64>; 3] = Default::default();
        let mut since = 0;
        for b in 0..blocks {
            let chunk = &done[b * n / blocks..(b + 1) * n / blocks];
            let until = chunk[chunk.len() - 1].done_ns;
            #[allow(clippy::cast_precision_loss)]
            let (queries, lat): (f64, Vec<f64>) = (
                chunk.iter().map(|s| f64::from(s.queries)).sum(),
                chunk.iter().map(|s| s.ns as f64 / 1e6).collect(),
            );
            let lat = crate::stats::sorted(lat);
            #[allow(clippy::cast_precision_loss)]
            stats[0].push(queries / ((until - since) as f64 / 1e9));
            stats[1].push(crate::stats::nearest_rank(&lat, 0.5));
            stats[2].push(crate::stats::nearest_rank(&lat, 0.99));
            since = until;
        }
        Some(stats.map(|v| crate::stats::median(&v)))
    }

    /// Latencies in milliseconds, ascending, optionally one class only.
    #[must_use]
    pub fn latencies_ms(&self, study: Option<bool>) -> Vec<f64> {
        #[allow(clippy::cast_precision_loss)]
        let ms: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| study.is_none_or(|want| s.study == want))
            .map(|s| s.ns as f64 / 1e6)
            .collect();
        crate::stats::sorted(ms)
    }
}

/// Per-connection bookkeeping shared by both loops.
struct Recorder {
    phase: Phase,
    golden: usize,
    digest: Fnv,
    counted: usize,
}

impl Recorder {
    fn new(golden: usize) -> Self {
        Self {
            phase: Phase::default(),
            golden,
            digest: Fnv::default(),
            counted: 0,
        }
    }

    /// Record the response to request `r` of this connection.
    fn record(
        &mut self,
        r: u64,
        req: &Req,
        outcome: io::Result<(u16, Vec<u8>)>,
        (ns, done_ns): (u64, u64),
    ) -> io::Result<()> {
        self.phase.attempted += 1;
        let (status, body) = outcome?;
        if (r as usize) < self.golden {
            self.digest.update(&body);
            self.digest.update(b"\n");
            self.counted += 1;
        }
        let text = String::from_utf8_lossy(&body);
        if status != 200 || text.contains("\"error\"") {
            self.phase
                .failures
                .push(format!("status {status} for {}: {text}", req.body));
            return Ok(());
        }
        if kept_for_verification(r) {
            self.phase.kept.push((req.body.clone(), text.into_owned()));
        }
        self.phase.samples.push(Sample {
            ns,
            done_ns,
            queries: req.queries,
            study: req.study,
        });
        self.phase.queries += u64::from(req.queries);
        self.phase.studies += u64::from(req.study);
        Ok(())
    }

    fn finish(mut self, transport: Option<io::Error>) -> Phase {
        if let Some(e) = transport {
            self.phase.failures.push(format!("transport: {e}"));
        }
        self.phase.digests.push((self.digest.value(), self.counted));
        self.phase
    }
}

#[allow(clippy::cast_possible_truncation)]
fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Closed loop on [`CONNECTIONS`] connections: each sends request
/// `gen(conn, r)` for `r = 0, 1, ...` until `budget` has passed and at
/// least `min_per_conn` requests went out.
pub fn closed_loop(
    addr: SocketAddr,
    budget: Duration,
    min_per_conn: u64,
    golden: usize,
    gen: &(dyn Fn(usize, u64) -> Req + Sync),
) -> Phase {
    let start = Instant::now();
    let mut phase = Phase::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                scope.spawn(move || {
                    let mut rec = Recorder::new(golden);
                    let mut c = match Conn::open(addr) {
                        Ok(c) => c,
                        Err(e) => return rec.finish(Some(e)),
                    };
                    let mut r = 0;
                    while r < min_per_conn || start.elapsed() < budget {
                        let req = gen(conn, r);
                        let raw = post(&req.body);
                        let sent = nanos(start.elapsed());
                        let outcome = c.roundtrip(&raw);
                        let done = nanos(start.elapsed());
                        if let Err(e) = rec.record(r, &req, outcome, (done - sent, done)) {
                            return rec.finish(Some(e));
                        }
                        r += 1;
                    }
                    rec.finish(None)
                })
            })
            .collect();
        for h in handles {
            phase.merge(h.join().expect("load thread panicked"));
        }
    });
    phase.elapsed = start.elapsed();
    phase
}

/// Offsets (ns from the phase start) at which each connection's requests
/// are due: request `i` of the whole phase is due at `i / rate` seconds and
/// goes to connection `i % conns` as that connection's request `i / conns`.
#[must_use]
pub fn schedule(rate: f64, count: u64, conns: usize) -> Vec<Vec<u64>> {
    let mut out = vec![Vec::new(); conns];
    for i in 0..count {
        #[allow(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            clippy::cast_precision_loss
        )]
        let due = (i as f64 * 1e9 / rate) as u64;
        #[allow(clippy::cast_possible_truncation)]
        out[(i % conns as u64) as usize].push(due);
    }
    out
}

/// Open-loop accounting for one request: latency counts from when it was
/// due (so a stall also delays every request queued behind it), and
/// lateness is how long after that the generator actually sent it.
#[must_use]
pub fn account(due_ns: u64, sent_ns: u64, done_ns: u64) -> (u64, u64) {
    (
        done_ns.saturating_sub(due_ns),
        sent_ns.saturating_sub(due_ns),
    )
}

/// Open loop at `rate` requests/s for `duration` (at least `min_total`
/// requests), dispatched round-robin on [`CONNECTIONS`] connections.
pub fn open_loop(
    addr: SocketAddr,
    rate: f64,
    duration: Duration,
    min_total: u64,
    golden: usize,
    gen: &(dyn Fn(usize, u64) -> Req + Sync),
) -> Phase {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let count = ((rate * duration.as_secs_f64()).ceil() as u64).max(min_total);
    let plan = schedule(rate, count, CONNECTIONS);
    let mut phase = Phase::default();
    // Connect first so connection set-up is not charged to the schedule.
    let conns: Vec<io::Result<Conn>> = (0..CONNECTIONS).map(|_| Conn::open(addr)).collect();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(&plan)
            .enumerate()
            .map(|(conn, (c, dues))| {
                scope.spawn(move || {
                    let mut rec = Recorder::new(golden);
                    let mut c = match c {
                        Ok(c) => c,
                        Err(e) => return rec.finish(Some(e)),
                    };
                    for (r, &due) in (0u64..).zip(dues) {
                        let req = gen(conn, r);
                        let raw = post(&req.body);
                        let now = nanos(start.elapsed());
                        if now < due {
                            std::thread::sleep(Duration::from_nanos(due - now));
                        }
                        let sent = nanos(start.elapsed());
                        let outcome = c.roundtrip(&raw);
                        let done = nanos(start.elapsed());
                        let (ns, late) = account(due, sent, done);
                        rec.phase.max_late_ns = rec.phase.max_late_ns.max(late);
                        if let Err(e) = rec.record(r, &req, outcome, (ns, done)) {
                            return rec.finish(Some(e));
                        }
                    }
                    rec.finish(None)
                })
            })
            .collect();
        for h in handles {
            phase.merge(h.join().expect("load thread panicked"));
        }
    });
    phase.elapsed = start.elapsed();
    phase
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    #[test]
    fn schedule_spaces_requests_at_the_rate_round_robin() {
        let plan = schedule(2_000.0, 5, 2);
        assert_eq!(plan[0], vec![0, 1_000_000, 2_000_000]);
        assert_eq!(plan[1], vec![500_000, 1_500_000]);
        let big = schedule(5_000.0, 10_000, 2);
        assert_eq!(big[0].len() + big[1].len(), 10_000);
        // The last request is due just before the 2 s mark.
        assert_eq!(*big[1].last().expect("non-empty"), 1_999_800_000);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // On time: latency is service time, no lateness.
        assert_eq!(account(1_000, 1_000, 1_300), (300, 0));
        // Sent 500 ns late behind a stall: the wait counts as latency.
        assert_eq!(account(1_000, 1_500, 1_800), (800, 500));
        // A clock reading before the due time never goes negative.
        assert_eq!(account(1_000, 900, 1_200), (200, 0));
    }

    #[test]
    fn one_request_per_block_is_kept_at_every_position() {
        let kept: Vec<u64> = (0..VERIFY_EVERY * VERIFY_EVERY)
            .filter(|&r| kept_for_verification(r))
            .collect();
        assert_eq!(kept.len() as u64, VERIFY_EVERY);
        let mut positions: Vec<u64> = kept.iter().map(|r| r % VERIFY_EVERY).collect();
        positions.sort_unstable();
        assert_eq!(positions, (0..VERIFY_EVERY).collect::<Vec<_>>());
    }

    #[test]
    fn block_medians_skip_a_slow_stretch() {
        // 4000 one-query requests, 1 ms apart and 1 ms long, except a slow
        // stretch in the third block where they take 3 ms each.
        let mut phase = Phase::default();
        let mut t = 0;
        for i in 0..4000u64 {
            let ns = if (2000..2300).contains(&i) {
                3_000_000
            } else {
                1_000_000
            };
            t += ns;
            phase.samples.push(Sample {
                ns,
                done_ns: t,
                queries: 1,
                study: false,
            });
        }
        let [qps, p50, p99] = phase.block_medians(1000).expect("samples");
        assert!((qps - 1000.0).abs() < 1e-6, "{qps}");
        assert!((p50 - 1.0).abs() < 1e-12 && (p99 - 1.0).abs() < 1e-12);
        // Too few samples for two blocks: whole-run statistics, which the
        // slow stretch (300 of 1500) does move.
        phase.samples.drain(..1000);
        phase.samples.truncate(1500);
        let [_, p50, p99] = phase.block_medians(1000).expect("samples");
        assert!((p50 - 1.0).abs() < 1e-12 && (p99 - 3.0).abs() < 1e-12);
        assert_eq!(Phase::default().block_medians(1000), None);
    }

    #[test]
    fn responses_are_read_by_content_length() {
        let raw = b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n\
                    content-length: 11\r\nconnection: keep-alive\r\n\r\n{\"ok\":true}rest";
        let mut reader = BufReader::new(&raw[..]);
        let (status, body) = read_response(&mut reader).expect("well framed");
        assert_eq!(status, 200);
        assert_eq!(body, b"{\"ok\":true}");
        let mut rest = String::new();
        reader.read_to_string(&mut rest).expect("tail");
        assert_eq!(rest, "rest", "no byte past the body is consumed");
    }
}
