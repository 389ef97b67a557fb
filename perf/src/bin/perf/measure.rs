//! One run of one workload: the untraced end-to-end measurement, or the
//! traced per-layer run.

use std::collections::BTreeMap;
use std::io::Read;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use ntv_core::op_cache::CacheStats;
use ntv_serve::json::{self, Value};

use crate::child::{ChildGuard, Pinned, Programs, Server};
use crate::client::{self, Conn, Phase, Sample};
use crate::stats::{median, nearest_rank, supports};
use crate::trace::{self, Tracer};
use crate::workloads::{self, render_in_process, Gen, Workload, CLOSED, OPEN_HIGH, OPEN_LOW};

/// Server set-ups per end-to-end serve run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest fresh repro processes per run.
const MIN_REPRO_RUNS: usize = 3;
/// Consecutive repro processes per block of the reported medians: a 20 s
/// run has about seven blocks, and each block's p99 is its slowest run.
const REPRO_BLOCK: usize = 4;
/// serve_hot's open-loop rates (requests/s).
const OPEN_RATES: [f64; 2] = [2_000.0, 5_000.0];
/// Completions per block of the reported medians, and the fewest requests
/// every end-to-end closed loop completes: 1000 leave ten beyond the p99.
const BLOCK: usize = 1_000;
/// Share of `--seconds` in the traced run's untraced load phase.
const TRACE_LOAD_SHARE: f64 = 0.5;
/// Untimed load between set-up and the timed phases. On the 2-vCPU virtual
/// machine the benchmark was calibrated on, a run that starts after the
/// CPUs sat idle ran at half speed for its first 1–3 s.
const LEAD_IN: Duration = Duration::from_secs(2);

/// Digest of the first bodies of one connection in one phase.
#[derive(Debug, Clone)]
pub struct Digest {
    /// Workload whose golden value applies.
    pub workload: &'static str,
    /// `closed`, `open_low`, `open_high`, or `stdout` (repro).
    pub phase: &'static str,
    /// Connection index (0 for repro).
    pub conn: usize,
    /// Bodies (repro: runs' stdouts) folded in.
    pub count: usize,
    /// FNV-1a-64 value.
    pub value: u64,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric name → value, in the unit BENCHMARK.json gives it.
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
    /// Operations attempted (requests, repro runs, replayed requests).
    pub attempted: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// Digests to compare against the committed golden values.
    pub digests: Vec<Digest>,
}

impl Outcome {
    fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }
}

/// Spawn a server for `w`, then time until it listens, answers `/healthz`
/// and has answered every warm-up request once.
fn start_server(w: Workload, ntv: &Path, warm: &[String]) -> Result<(Server, f64), String> {
    let start = Instant::now();
    let server = Server::spawn(ntv, w.server_args())?;
    let mut conn = Conn::open(server.addr()).map_err(|e| format!("connect: {e}"))?;
    conn.expect_ok(&client::get("/healthz"))?;
    for body in warm {
        let answer = conn.expect_ok(&client::post(body))?;
        if answer.contains("\"error\"") {
            return Err(format!("warm-up {body} answered {answer}"));
        }
    }
    Ok((server, start.elapsed().as_secs_f64()))
}

/// The server's cumulative cache counters from `/stats`.
fn cache_stats(addr: SocketAddr) -> Result<CacheStats, String> {
    let body = Conn::open(addr)
        .map_err(|e| format!("connect: {e}"))?
        .expect_ok(&client::get("/stats"))?;
    let value = json::parse(&body).map_err(|e| e.to_string())?;
    let count = |key: &str| {
        value
            .get("cache")
            .and_then(|c| c.get(key))
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("/stats lacks cache.{key}: {body}"))
    };
    Ok(CacheStats {
        hits: count("hits")?,
        misses: count("misses")?,
        evictions: count("evictions")?,
        coalesced: count("coalesced")?,
        resident: usize::try_from(count("resident")?).unwrap_or(usize::MAX),
    })
}

fn cache_delta(before: CacheStats, after: CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        coalesced: after.coalesced - before.coalesced,
        resident: after.resident,
    }
}

/// Byte-compare every kept body with its in-process rendering.
fn verify_kept(phase: &Phase, failures: &mut Vec<String>) {
    for (request, response) in &phase.kept {
        match render_in_process(request) {
            Ok(expected) if expected == *response => {}
            Ok(expected) => failures.push(format!(
                "body mismatch for {request}:\n  server:     {response}\n  in-process: {expected}"
            )),
            Err(e) => failures.push(format!("cannot render {request} in-process: {e}")),
        }
    }
}

fn record_phase(out: &mut Outcome, w: Workload, name: &'static str, phase: &Phase) {
    out.attempted += phase.attempted;
    out.failures.extend(phase.failures.iter().cloned());
    for (conn, &(value, count)) in phase.digests.iter().enumerate() {
        out.digests.push(Digest {
            workload: w.name(),
            phase: name,
            conn,
            count,
            value,
        });
    }
    verify_kept(phase, &mut out.failures);
}

/// A latency tail with its sample count, flagged when the sample is too
/// small to support the percentile.
fn tail_note(label: &str, sorted_ms: &[f64], p: f64) -> String {
    let n = sorted_ms.len();
    if n == 0 {
        return format!("{label}: no samples");
    }
    let flag = if supports(n, p) {
        ""
    } else {
        "  (fewer than 10 samples beyond it: this is an extreme value)"
    };
    format!(
        "{label}: p50 {:.4} ms, p{} {:.4} ms, n={n}{flag}",
        nearest_rank(sorted_ms, 0.5),
        p * 100.0,
        nearest_rank(sorted_ms, p)
    )
}

fn cache_note(delta: &CacheStats) -> String {
    format!(
        "cache over the closed loop: {} hits, {} misses, {} evictions, {} coalesced, {} resident",
        delta.hits, delta.misses, delta.evictions, delta.coalesced, delta.resident
    )
}

/// Untraced end-to-end run of a serve workload.
///
/// # Errors
///
/// Set-up failures (spawn, warm-up, `/stats`); request failures are counted
/// in the outcome instead.
pub fn serve_e2e(
    w: Workload,
    seed: u64,
    seconds: f64,
    programs: &Programs,
) -> Result<Outcome, String> {
    let _pinned = w.pinned().then(Pinned::first_cpu).transpose()?;
    let gen = Gen::new(w, seed);
    let warm = gen.warmup();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut server = None;
    for _ in 0..SETUPS {
        // Stop the previous instance before the next set-up is timed.
        drop(server.take());
        let (s, secs) = start_server(w, &programs.ntv, &warm)?;
        setups.push(secs);
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let addr = server.addr();
    let golden = w.golden_count();
    let closed_share = if w == Workload::ServeHot { 0.5 } else { 1.0 };

    let mut out = Outcome::default();
    let lead_in = client::closed_loop(addr, LEAD_IN, 0, 0, &|conn, r| {
        gen.request(workloads::LEAD_IN, conn, r)
    });
    out.attempted += lead_in.attempted;
    out.failures.extend(lead_in.failures.iter().cloned());
    verify_kept(&lead_in, &mut out.failures);

    let before = cache_stats(addr)?;
    let closed = client::closed_loop(
        addr,
        Duration::from_secs_f64(seconds * closed_share),
        (golden.max(BLOCK / client::CONNECTIONS)) as u64,
        golden,
        &|conn, r| gen.request(CLOSED, conn, r),
    );
    let delta = cache_delta(before, cache_stats(addr)?);
    let open: Vec<(f64, Phase)> = if w == Workload::ServeHot {
        [(OPEN_LOW, OPEN_RATES[0]), (OPEN_HIGH, OPEN_RATES[1])]
            .into_iter()
            .map(|(stream, rate)| {
                let phase = client::open_loop(
                    addr,
                    rate,
                    Duration::from_secs_f64(seconds * (1.0 - closed_share) / 2.0),
                    (golden * client::CONNECTIONS) as u64,
                    golden,
                    &|conn, r| gen.request(stream, conn, r),
                );
                (rate, phase)
            })
            .collect()
    } else {
        Vec::new()
    };
    let rss = server.peak_rss_mb()?;
    drop(server);

    let lat = closed.latencies_ms(None);
    #[allow(clippy::cast_precision_loss)]
    let qps = closed.queries as f64 / closed.elapsed.as_secs_f64();
    out.set("setup_s", median(&setups));
    if let Some([throughput, p50, p99]) = closed.block_medians(BLOCK) {
        out.set("throughput", throughput);
        out.set("latency_p50_ms", p50);
        out.set("latency_p99_ms", p99);
    }
    out.set("peak_rss_mb", rss);
    out.notes.push(format!(
        "set-ups: {}",
        setups
            .iter()
            .map(|s| format!("{s:.4} s"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.notes.push(format!(
        "closed loop, {} connections: {} requests, {} queries in {:.3} s = {qps:.1} queries/s overall",
        client::CONNECTIONS,
        lat.len(),
        closed.queries,
        closed.elapsed.as_secs_f64()
    ));
    out.notes.push(tail_note("request latency", &lat, 0.99));
    out.notes.push(cache_note(&delta));
    if w == Workload::ServeMixed {
        let probes = closed.latencies_ms(Some(false));
        out.notes.push(tail_note("probe latency", &probes, 0.99));
        #[allow(clippy::cast_precision_loss)]
        let study_qps = closed.studies as f64 / closed.elapsed.as_secs_f64();
        out.notes.push(format!(
            "studies: {} completed = {study_qps:.2} studies/s",
            closed.studies
        ));
    }
    record_phase(&mut out, w, "closed", &closed);
    for ((rate, phase), name) in open.iter().zip(["open_low", "open_high"]) {
        let lat = phase.latencies_ms(None);
        out.notes.push(tail_note(
            &format!("open loop at {rate} req/s (timed from the due time)"),
            &lat,
            0.99,
        ));
        #[allow(clippy::cast_precision_loss)]
        out.notes.push(format!(
            "open loop at {rate} req/s: generator ran at most {:.3} ms late",
            phase.max_late_ns as f64 / 1e6
        ));
        record_phase(&mut out, w, name, phase);
    }
    Ok(out)
}

/// One fresh `repro` process.
struct ReproRun {
    wall: Duration,
    first_output_s: f64,
    peak_mb: Option<f64>,
    ok: bool,
    digest: u64,
}

fn repro_once(repro: &Path) -> Result<ReproRun, String> {
    let start = Instant::now();
    let mut guard = ChildGuard::spawn(repro, &["--threads", "2"])?;
    let mut stdout = guard.take_stdout()?;
    std::thread::scope(|scope| {
        let reader = scope.spawn(move || {
            let (mut buf, mut first, mut chunk) = (Vec::new(), None, [0u8; 8192]);
            loop {
                match stdout.read(&mut chunk) {
                    Ok(0) => break,
                    Ok(n) => {
                        first.get_or_insert_with(|| start.elapsed());
                        buf.extend_from_slice(&chunk[..n]);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("reading repro output: {e}")),
                }
            }
            Ok((buf, first, start.elapsed()))
        });
        let waited = guard.wait_sampling_peak(Duration::from_millis(1));
        let (buf, first, eof) = reader.join().expect("reader thread panicked")?;
        let (ok, peak_kb) = waited?;
        let text = String::from_utf8_lossy(&buf);
        #[allow(clippy::cast_precision_loss)]
        Ok(ReproRun {
            wall: eof,
            first_output_s: first.unwrap_or(eof).as_secs_f64(),
            peak_mb: peak_kb.map(|kb| kb as f64 / 1024.0),
            ok,
            digest: trace::repro_digest(&text),
        })
    })
}

/// Untraced end-to-end run of the repro workload: fresh processes until
/// `seconds` have passed.
///
/// # Errors
///
/// Spawn and pipe failures.
pub fn repro_e2e(seconds: f64, programs: &Programs) -> Result<Outcome, String> {
    // One untimed run first, like the serve workloads' lead-in.
    let lead_in = repro_once(&programs.repro)?;
    let start = Instant::now();
    let mut runs = Vec::new();
    let mut timed = Phase::default();
    while runs.len() < MIN_REPRO_RUNS || start.elapsed().as_secs_f64() < seconds {
        let run = repro_once(&programs.repro)?;
        #[allow(clippy::cast_possible_truncation)]
        timed.samples.push(Sample {
            ns: run.wall.as_nanos() as u64,
            done_ns: start.elapsed().as_nanos() as u64,
            queries: 1,
            study: false,
        });
        runs.push(run);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let mut out = Outcome {
        attempted: 1 + runs.len() as u64,
        ..Outcome::default()
    };
    let first = lead_in.digest;
    for (i, run) in std::iter::once(&lead_in).chain(&runs).enumerate() {
        if !run.ok {
            out.failures
                .push(format!("repro run {i} exited unsuccessfully"));
        } else if run.digest != first {
            out.failures
                .push(format!("repro run {i} printed different results"));
        }
    }
    out.digests.push(Digest {
        workload: Workload::Repro.name(),
        phase: "stdout",
        conn: 0,
        count: 1,
        value: first,
    });
    let peaks: Vec<f64> = runs.iter().filter_map(|r| r.peak_mb).collect();
    out.set(
        "setup_s",
        median(&runs.iter().map(|r| r.first_output_s).collect::<Vec<_>>()),
    );
    if let Some([throughput, p50, p99]) = timed.block_medians(REPRO_BLOCK) {
        out.set("throughput", throughput);
        out.set("latency_p50_ms", p50);
        out.set("latency_p99_ms", p99);
    }
    if !peaks.is_empty() {
        out.set("peak_rss_mb", median(&peaks));
    }
    out.notes.push(format!(
        "{} fresh `repro --threads 2` processes in {elapsed:.3} s",
        runs.len()
    ));
    out.notes.push(tail_note(
        "repro wall time",
        &timed.latencies_ms(None),
        0.99,
    ));
    Ok(out)
}

/// Replayed prefix length per serve workload.
fn replay_prefix(w: Workload) -> u64 {
    match w {
        Workload::ServeCold => 48,
        _ => 64,
    }
}

/// The traced run of `w`: the L5 pass, the L0–L3 probes, a short untraced
/// load phase against a real server (for the end-to-end request median and
/// the cache counters), then the in-process replay. repro has no requests
/// of its own, so its L4 rows come from the serve_hot stream.
///
/// # Errors
///
/// Set-up and socket failures.
pub fn traced(
    w: Workload,
    seed: u64,
    seconds: f64,
    programs: &Programs,
    spans_dir: &Path,
) -> Result<Outcome, String> {
    let sw = if w == Workload::Repro {
        Workload::ServeHot
    } else {
        w
    };
    let _pinned = sw.pinned().then(Pinned::first_cpu).transpose()?;
    let mut out = Outcome::default();
    let mut t = Tracer::new();
    let (l5_digest, l5_cache) = trace::l5_pass(&mut t);
    out.attempted += 1;
    out.digests.push(Digest {
        workload: Workload::Repro.name(),
        phase: "stdout",
        conn: 0,
        count: 1,
        value: l5_digest,
    });
    trace::probes(&mut t, 9);

    let gen = Gen::new(sw, seed);
    let warm = gen.warmup();
    let golden = sw.golden_count();
    let (server, _) = start_server(sw, &programs.ntv, &warm)?;
    let before = cache_stats(server.addr())?;
    let closed = client::closed_loop(
        server.addr(),
        Duration::from_secs_f64(seconds * TRACE_LOAD_SHARE),
        golden as u64,
        golden,
        &|conn, r| gen.request(CLOSED, conn, r),
    );
    let served_cache = cache_delta(before, cache_stats(server.addr())?);
    drop(server);
    let req_p50_us = closed
        .block_medians(BLOCK)
        .map_or(f64::NAN, |[_, p50, _]| p50 * 1e3);

    for body in &warm {
        render_in_process(body)?;
    }
    let replay =
        trace::replay(&mut t, &gen, replay_prefix(sw)).map_err(|e| format!("replay: {e}"))?;
    out.attempted += replay.requests;
    out.failures.extend(replay.failures);
    record_phase(&mut out, sw, "closed", &closed);

    let path = spans_dir.join(format!("spans-{}.jsonl", w.name()));
    t.write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    out.notes.push(format!(
        "{} spans written to {}",
        t.spans().len(),
        path.display()
    ));
    out.notes.push(format!(
        "{:<44} {:>7} {:>12} {:>12}",
        "span", "count", "self ms", "p50 us"
    ));
    #[allow(clippy::cast_precision_loss)]
    for (name, (count, own, p50)) in trace::summarize(t.spans()) {
        out.notes.push(format!(
            "{name:<44} {count:>7} {:>12.3} {:>12.3}",
            own as f64 / 1e6,
            p50 / 1e3
        ));
    }

    layer_metrics(&mut out, &t, &replay.write_calls);
    let cache = if w == Workload::Repro {
        l5_cache
    } else {
        served_cache
    };
    #[allow(clippy::cast_precision_loss)]
    {
        out.set("core.op_cache.hits", cache.hits as f64);
        out.set("core.op_cache.misses", cache.misses as f64);
        out.set("core.op_cache.evictions", cache.evictions as f64);
        out.set("core.op_cache.coalesced", cache.coalesced as f64);
        let lookups = cache.hits + cache.misses + cache.coalesced;
        out.set(
            "core.op_cache.hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                cache.hits as f64 / lookups as f64
            },
        );
        out.set("bench.repro.builds", l5_cache.misses as f64);
    }
    out.notes.push(cache_note(&cache));
    let in_server: f64 = trace::STAGES
        .iter()
        .map(|s| trace::per_request_p50_ns(&t, s) / 1e3)
        .sum();
    out.set("serve.unattributed_us", req_p50_us - in_server);
    out.notes.push(format!(
        "in-server stages {in_server:.3} us of the untraced request p50 {req_p50_us:.3} us \
         ({:.1} % covered; the rest is transport and scheduling wait)",
        100.0 * in_server / req_p50_us
    ));
    Ok(out)
}

/// Per-layer metrics read off the spans.
fn layer_metrics(out: &mut Outcome, t: &Tracer, write_calls: &[f64]) {
    let p50 = |name: &str| t.p50_ns(name).unwrap_or(f64::NAN);
    #[allow(clippy::cast_precision_loss)]
    let per = |name: &str, n: usize| p50(name) / n as f64;
    for (metric, span) in [
        ("serve.http.read_us", "serve.http.read"),
        ("serve.json.parse_us", "serve.json.parse"),
        ("serve.wire.parse_batch_us", "serve.wire.parse_batch"),
        ("serve.wire.run_us", "serve.wire.run"),
        ("serve.json.render_us", "serve.json.render"),
        ("serve.http.write_us", "serve.http.write"),
        ("core.op_cache.lookup_us", "core.op_cache.lookup"),
        ("core.engine.warm_grid_us", "core.engine.warm_grid"),
        ("core.quantile.closed_form_us", "core.quantile.closed_form"),
        ("core.quantile.grid_us", "core.quantile.grid"),
        ("core.quantile.spares_us", "core.quantile.spares"),
        ("core.quantile.mixture_us", "core.quantile.mixture"),
        ("core.margining.solve_us", "core.margining.solve"),
        ("core.margining.solve_mc_us", "core.margining.solve_mc"),
        (
            "core.duplication.min_spares_us",
            "core.duplication.min_spares",
        ),
        ("core.dse.explore_us", "core.dse.explore"),
        (
            "core.engine.chip_delay_batch_paper_normal_us",
            "core.engine.chip_delay_batch.paper_normal",
        ),
        (
            "core.engine.chip_delay_batch_skewed_iid_us",
            "core.engine.chip_delay_batch.skewed_iid",
        ),
    ] {
        out.set(metric, p50(span) / 1e3);
    }
    out.set(
        "core.engine.build_grid_us",
        per("core.engine.build_grid", trace::GRID_VOLTAGES) / 1e3,
    );
    out.set(
        "mc.normal.erfc_slice_ns",
        per("mc.normal.erfc_slice", trace::ERFC_ELEMENTS),
    );
    out.set(
        "mc.rng.normal_batch_ns",
        per("mc.rng.normal_batch", trace::BATCH),
    );
    out.set(
        "device.batch.gate_delay_ns",
        per("device.batch.gate_delay", trace::BATCH),
    );
    for section in trace::SECTIONS {
        out.set(&format!("{section}_s"), p50(section) / 1e9);
    }
    out.set(
        "serve.http.write_calls",
        if write_calls.is_empty() {
            f64::NAN
        } else {
            median(write_calls)
        },
    );
}
