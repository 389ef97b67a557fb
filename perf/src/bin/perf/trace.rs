//! The traced run: spans recorded from outside the program, around calls
//! into each layer's public functions.
//!
//! * **L5** — every repro section, in repro's order, in this process
//!   against a cold operating-point cache.
//! * **L0–L3 probes** — fixed-input calls into the kernels, operating-point
//!   builds, quantile solvers and studies.
//! * **Replay** — a prefix of a serve workload's seeded requests pushed
//!   through the server's own stages (`read_request`, `json::parse`,
//!   `parse_batch`, per query lookup / grid / solver / `Query::run`, the
//!   envelope, `write_response`) over one loopback socket pair, in one
//!   thread, so each stage is timed alone.
//!
//! Spans stay in memory and are written as JSON lines at the end.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{self, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Instant;

use ntv_bench::experiments::{
    fig1, fig11, fig2, fig3, fig4, fig5, fig6, fig7, fig8, fig9, placement, table1, table2, table3,
    table4,
};
use ntv_core::dse::DseStudy;
use ntv_core::duplication::DuplicationStudy;
use ntv_core::engine::{PathDistribution, VariationMode};
use ntv_core::margining::MarginStudy;
use ntv_core::op_cache::CacheStats;
use ntv_core::{perf, ChipQuantileSolver, Evaluation, Executor, OpPointCache};
use ntv_device::{ChipSample, TechModel, TechNode};
use ntv_mc::{normal, CounterRng};
use ntv_serve::wire::{self, paper_engine, Query, DEFAULT_SPARE_CANDIDATES};
use ntv_serve::{http, json, ServeConfig};
use ntv_units::Volts;

use crate::client;
use crate::stats::{fnv1a64, median, nearest_rank, sorted};
use crate::workloads::Gen;

/// Request id of spans that belong to no replayed request.
pub const NO_REQUEST: u64 = u64::MAX;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`crate.module.function`).
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start: u64,
    /// End, ns since the tracer's epoch.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Replayed request this span serves, or [`NO_REQUEST`].
    pub req: u64,
}

impl Span {
    /// Duration in ns.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// In-memory span recorder; spans nest by enter/exit order.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    #[allow(clippy::cast_possible_truncation)]
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, req: u64) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = self.now();
    }

    /// Time `f` as a leaf span.
    pub fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, req);
        let out = f();
        self.exit(id);
        out
    }

    /// Every recorded span.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Median duration (ns) of the spans named `name`.
    #[must_use]
    pub fn p50_ns(&self, name: &str) -> Option<f64> {
        #[allow(clippy::cast_precision_loss)]
        let d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect();
        (!d.is_empty()).then(|| median(&d))
    }

    /// Write the spans as JSON lines.
    ///
    /// # Errors
    ///
    /// File-system errors.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        #[allow(clippy::cast_precision_loss)]
        for s in &self.spans {
            let opt =
                |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| json::num(v as f64));
            let line = json::obj(&[
                ("name", json::str_val(s.name)),
                ("start_ns", json::num(s.start as f64)),
                ("end_ns", json::num(s.end as f64)),
                ("parent", opt(s.parent.map(|p| p as u64))),
                ("req", opt((s.req != NO_REQUEST).then_some(s.req))),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children may overlap each other).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.ns() - covered
        })
        .collect()
}

/// Per span name: count, total self time (ns) and median duration (ns).
#[must_use]
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, (usize, u64, f64)> {
    let mut by_name: BTreeMap<&'static str, (u64, Vec<f64>)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let entry = by_name.entry(s.name).or_default();
        entry.0 += own;
        #[allow(clippy::cast_precision_loss)]
        entry.1.push(s.ns() as f64);
    }
    by_name
        .into_iter()
        .map(|(name, (own, d))| (name, (d.len(), own, nearest_rank(&sorted(d), 0.5))))
        .collect()
}

// ---------------------------------------------------------------- L5 ----

/// repro's sections in its order, as span names; each one's metric is the
/// span name plus `_s`.
pub const SECTIONS: [&str; 15] = [
    "bench.repro.fig1",
    "bench.repro.fig2",
    "bench.repro.fig3",
    "bench.repro.fig4",
    "bench.repro.fig5",
    "bench.repro.fig6",
    "bench.repro.fig7",
    "bench.repro.fig8",
    "bench.repro.fig9",
    "bench.repro.fig11",
    "bench.repro.table1",
    "bench.repro.table2",
    "bench.repro.table3",
    "bench.repro.table4",
    "bench.repro.placement",
];

/// The digest-relevant part of repro's stdout: its wall-clock lines (the
/// `[t = …]` section stamps and the closing `regenerated in` line) removed.
#[must_use]
pub fn repro_digest(stdout: &str) -> u64 {
    let kept: Vec<&str> = stdout
        .lines()
        .filter(|l| !l.contains("[t = ") && !l.starts_with("all experiments regenerated in"))
        .collect();
    fnv1a64(kept.join("\n").as_bytes())
}

/// Run every repro section in this process, serially, against the cold
/// process-wide cache, printing exactly what repro prints. Returns the
/// output digest and the cache counter deltas. Must run before anything
/// else in the process touches the cache.
pub fn l5_pass(t: &mut Tracer) -> (u64, CacheStats) {
    use ntv_bench::{ARCH_SAMPLES as ARCH, CIRCUIT_SAMPLES as CIRCUIT, DEFAULT_SEED as SEED};
    let exec = Executor::serial();
    let before = OpPointCache::global().stats();
    let mut out = String::new();
    for (i, name) in SECTIONS.into_iter().enumerate() {
        let rule = "=".repeat(72);
        let body = t.time(name, NO_REQUEST, || match i {
            0 => fig1::run_with(CIRCUIT, SEED, exec).to_string(),
            1 => fig2::run_with(CIRCUIT, SEED, exec).to_string(),
            2 => fig3::run_with(ARCH, SEED, exec).to_string(),
            3 => fig4::run_with(ARCH, SEED, exec).to_string(),
            4 => fig5::run_with(ARCH, SEED, exec).to_string(),
            5 => fig6::run_with(ARCH, SEED, exec).to_string(),
            6 => fig7::run_with(ARCH, SEED, exec).to_string(),
            7 => fig8::run_with(ARCH, SEED, exec).to_string(),
            8 => TechNode::ALL
                .iter()
                .map(|&node| format!("{}\n", fig9::run_for(node)))
                .collect::<String>(),
            9 => fig11::run_with(CIRCUIT, SEED, exec).to_string(),
            10 => table1::run_with(ARCH, SEED, exec).to_string(),
            11 => table2::run_with(ARCH, SEED, exec).to_string(),
            12 => table3::run_with(ARCH, SEED, exec).to_string(),
            13 => table4::run_with(ARCH, SEED, exec).to_string(),
            _ => placement::run(SEED).to_string(),
        });
        // repro's framing; the title line carries the time stamp the
        // digest drops, and fig9 already ends in a newline per node.
        out.push_str(&format!("\n{rule}\n[t = ]\n{rule}\n{body}"));
        if i != 8 {
            out.push('\n');
        }
    }
    out.push_str("\nall experiments regenerated in\n");
    let after = OpPointCache::global().stats();
    let delta = CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        coalesced: after.coalesced - before.coalesced,
        resident: after.resident,
    };
    (repro_digest(&out), delta)
}

// ------------------------------------------------------------ probes ----

/// Elements per `erfc_slice` probe pass: a survival-grid build's
/// 288 mixture components × 1024 grid points.
pub const ERFC_ELEMENTS: usize = 288 * 1024;
/// Draws / gates per RNG and gate-delay probe call.
pub const BATCH: usize = 4096;
/// Chips per chip-delay batch probe call.
pub const CHIPS: usize = 1000;
/// Voltages per `build_grid` probe call.
pub const GRID_VOLTAGES: usize = 16;

/// Fixed-input calls into L0–L3, `reps` times each (the slow solvers and
/// studies fewer), every one a span.
pub fn probes(t: &mut Tracer, reps: usize) {
    let r = NO_REQUEST;
    // L0: erfc over a survival-grid-shaped argument block.
    let args: Vec<Vec<f64>> = (0..288)
        .map(|j| {
            (0..1024)
                .map(|i| -6.0 + 15.0 * f64::from(i) / 1023.0 + 0.01 * f64::from(j))
                .collect()
        })
        .collect();
    let mut row = vec![0.0; 1024];
    for _ in 0..reps {
        t.time("mc.normal.erfc_slice", r, || {
            for a in &args {
                normal::erfc_slice(black_box(a), &mut row);
                black_box(&row);
            }
        });
    }
    // L0: counter-RNG normal draws.
    let stream = CounterRng::new(2012, "perf-probe");
    let mut draws = vec![0.0; BATCH];
    for rep in 0..reps {
        let first = (rep * BATCH) as u64;
        t.time("mc.rng.normal_batch", r, || {
            stream.standard_normal_batch(first, black_box(&mut draws));
        });
    }
    // L0: EKV gate delay over per-gate variation vectors.
    let tech = TechModel::new(TechNode::Gp90);
    let dvth: Vec<Volts> = draws.iter().map(|&z| Volts(0.03 * z)).collect();
    let ln_k: Vec<f64> = draws.iter().rev().map(|&z| 0.05 * z).collect();
    let mut delays = vec![0.0; BATCH];
    for _ in 0..reps {
        t.time("device.batch.gate_delay", r, || {
            tech.gate_delay_ps_batch(
                Volts(0.55),
                &ChipSample::nominal(),
                &dvth,
                &ln_k,
                &mut delays,
            );
            black_box(&delays);
        });
    }
    // L0: chip-delay batch kernels at Gp90 0.55 V (distribution warm).
    let chips = CounterRng::new(2012, "perf-chips");
    let mut out = vec![0.0; CHIPS];
    for (mode, name) in [
        (
            VariationMode::PaperNormal,
            "core.engine.chip_delay_batch.paper_normal",
        ),
        (
            VariationMode::SkewedIid,
            "core.engine.chip_delay_batch.skewed_iid",
        ),
    ] {
        let engine = paper_engine(TechNode::Gp90, mode);
        engine.path_distribution(Volts(0.55)).warm_grid();
        for rep in 0..reps {
            let first = (rep * CHIPS) as u64;
            t.time(name, r, || {
                engine.sample_chip_delays_fo4_batch(Volts(0.55), &chips, first, &mut out);
                black_box(&out);
            });
        }
    }
    // L1: operating-point builds straight from the batch kernel, bypassing
    // the cache so every call builds; a fresh distribution's survival grid.
    let tech45 = TechModel::new(TechNode::Gp45);
    let vdds: Vec<Volts> = (0..GRID_VOLTAGES)
        .map(|i| Volts(0.5013 + 0.0101 * i as f64))
        .collect();
    for _ in 0..reps {
        let built = t.time("core.engine.build_grid", r, || {
            PathDistribution::build_grid(&tech45, &vdds, 50)
        });
        t.time("core.engine.warm_grid", r, || built[0].warm_grid());
    }
    // L2: the four quantile evaluation paths, warm.
    let grid: Vec<Volts> = (0..16).map(|i| Volts(0.5 + 0.01 * f64::from(i))).collect();
    let solver = |mode| ChipQuantileSolver::new(paper_engine(TechNode::Gp45, mode));
    for &v in &grid {
        let _ = paper_engine(TechNode::Gp45, VariationMode::PaperNormal).path_distribution(v);
        paper_engine(TechNode::Gp45, VariationMode::SkewedIid)
            .path_distribution(v)
            .warm_grid();
    }
    for _ in 0..reps {
        for &v in &grid {
            let pn = solver(VariationMode::PaperNormal);
            t.time("core.quantile.closed_form", r, || {
                black_box(pn.chip_quantile_ps(v, 0.99))
            });
            t.time("core.quantile.spares", r, || {
                black_box(pn.spares_quantile_ps(v, 2, 0.99))
            });
            let sk = solver(VariationMode::SkewedIid);
            t.time("core.quantile.grid", r, || {
                black_box(sk.chip_quantile_ps(v, 0.99))
            });
        }
    }
    let heavy = reps.div_ceil(3);
    let hier = solver(VariationMode::Hierarchical);
    for &v in grid.iter().take(heavy) {
        t.time("core.quantile.mixture", r, || {
            black_box(hier.chip_quantile_ps(v, 0.99))
        });
    }
    // L3: the studies behind the margin, min_spares and dse kinds.
    let e45 = paper_engine(TechNode::Gp45, VariationMode::PaperNormal);
    let e90 = paper_engine(TechNode::Gp90, VariationMode::PaperNormal);
    let exec = Executor::serial();
    let target = perf::baseline_q99_fo4_analytic(e90);
    for _ in 0..heavy {
        let study = |evaluation| {
            MarginStudy::new(e45)
                .with_executor(exec)
                .with_evaluation(evaluation)
        };
        let (analytic, mc) = (study(Evaluation::Analytic), study(Evaluation::MonteCarlo));
        t.time("core.margining.solve", r, || {
            black_box(analytic.solve(Volts(0.6), 5_000, 2_012))
        });
        t.time("core.margining.solve_mc", r, || {
            black_box(mc.solve(Volts(0.6), 2_000, 2_012))
        });
        let _ = t.time("core.duplication.min_spares", r, || {
            black_box(DuplicationStudy::new(e90).min_spares_for(Volts(0.55), target, 128))
        });
        t.time("core.dse.explore", r, || {
            black_box(
                DseStudy::new(e45)
                    .with_executor(exec)
                    .with_evaluation(Evaluation::Analytic)
                    .explore(Volts(0.6), &DEFAULT_SPARE_CANDIDATES, 5_000, 2_012),
            )
        });
    }
}

// ------------------------------------------------------------ replay ----

/// Counts `write` calls into the socket `write_response` writes to.
struct CountingWriter<'a, W> {
    inner: &'a mut W,
    calls: u64,
}

impl<W: Write> Write for CountingWriter<'_, W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.calls += 1;
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Stage spans whose per-request totals sum to the in-server time of a
/// request: the server's own steps, with the lookup and grid build split
/// out of `Query::run`. The separately timed solver call re-times work
/// `Query::run` repeats warm, so it is not part of the sum.
pub const STAGES: [&str; 8] = [
    "serve.http.read",
    "serve.json.parse",
    "serve.wire.parse_batch",
    "core.op_cache.lookup",
    "core.engine.warm_grid",
    "serve.wire.run",
    "serve.json.render",
    "serve.http.write",
];

/// What the replay observed.
#[derive(Debug, Default)]
pub struct Replay {
    /// Requests replayed.
    pub requests: u64,
    /// Mismatches and errors.
    pub failures: Vec<String>,
    /// `write` calls per response.
    pub write_calls: Vec<f64>,
}

/// Time the solver or study a query runs, under its layer's span name,
/// after its operating-point lookup and (grid modes) survival-grid build.
fn trace_query(t: &mut Tracer, g: u64, q: &Query, exec: Executor) {
    let (node, mode, vdd) = match *q {
        Query::Margin {
            node, mode, vdd, ..
        }
        | Query::Quantile {
            node, mode, vdd, ..
        }
        | Query::MinSpares {
            node, mode, vdd, ..
        }
        | Query::Dse {
            node, mode, vdd, ..
        } => (node, mode, vdd),
        Query::Sweep {
            node,
            mode,
            vdd_start,
            ..
        } => (node, mode, vdd_start),
    };
    let engine = paper_engine(node, mode);
    let dist = t.time("core.op_cache.lookup", g, || engine.path_distribution(vdd));
    if mode == VariationMode::SkewedIid {
        t.time("core.engine.warm_grid", g, || dist.warm_grid());
    }
    let solver = ChipQuantileSolver::new(engine);
    match *q {
        Query::Quantile { q: p, spares, .. } => {
            let name = match (spares, mode) {
                (1.., _) => "core.quantile.spares",
                (0, VariationMode::PaperNormal) => "core.quantile.closed_form",
                (0, VariationMode::SkewedIid) => "core.quantile.grid",
                (0, VariationMode::Hierarchical) => "core.quantile.mixture",
            };
            t.time(name, g, || {
                black_box(solver.spares_quantile_ps(vdd, spares, p))
            });
        }
        Query::Sweep {
            vdd_start,
            vdd_stop,
            steps,
            q: p,
            ..
        } => {
            let span = vdd_stop.get() - vdd_start.get();
            #[allow(clippy::cast_precision_loss)]
            t.time("core.quantile.sweep", g, || {
                for i in 0..steps {
                    let v = Volts(vdd_start.get() + span * i as f64 / (steps - 1) as f64);
                    black_box(solver.chip_quantile_fo4(v, p));
                }
            });
        }
        Query::Margin {
            evaluation,
            samples,
            seed,
            ..
        } => {
            let name = match evaluation {
                Evaluation::Analytic => "core.margining.solve",
                Evaluation::MonteCarlo => "core.margining.solve_mc",
            };
            let study = MarginStudy::new(engine)
                .with_executor(exec)
                .with_evaluation(evaluation);
            t.time(name, g, || black_box(study.solve(vdd, samples, seed)));
        }
        Query::MinSpares { max_spares, .. } => {
            let target = perf::baseline_q99_fo4_analytic(engine);
            let _ = t.time("core.duplication.min_spares", g, || {
                black_box(DuplicationStudy::new(engine).min_spares_for(vdd, target, max_spares))
            });
        }
        Query::Dse {
            ref spares,
            evaluation,
            samples,
            seed,
            ..
        } => {
            let study = DseStudy::new(engine)
                .with_executor(exec)
                .with_evaluation(evaluation);
            t.time("core.dse.explore", g, || {
                black_box(study.explore(vdd, spares, samples, seed))
            });
        }
    }
}

/// Replay global requests `0..prefix` of `gen`'s closed-loop stream through
/// the server's stages over one loopback socket pair owned by this process.
///
/// # Errors
///
/// Socket set-up failures; per-request problems land in
/// [`Replay::failures`].
pub fn replay(t: &mut Tracer, gen: &Gen, prefix: u64) -> io::Result<Replay> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let client_side = TcpStream::connect(listener.local_addr()?)?;
    let (server_side, _) = listener.accept()?;
    client_side.set_nodelay(true)?;
    server_side.set_nodelay(true)?;
    let mut client_reader = BufReader::new(client_side.try_clone()?);
    let mut client_writer = client_side;
    let mut server_reader = BufReader::new(server_side.try_clone()?);
    let mut server_writer = server_side;
    let exec = Executor::serial();
    let max_batch = ServeConfig::default().max_batch;
    let mut out = Replay::default();

    for g in 0..prefix {
        let conns = client::CONNECTIONS as u64;
        #[allow(clippy::cast_possible_truncation)]
        let req = gen.request(crate::workloads::CLOSED, (g % conns) as usize, g / conns);
        let raw = client::post(&req.body);
        out.requests += 1;
        let root = t.enter("request", g);
        t.time("client.write", g, || client_writer.write_all(&raw))?;
        let request = match t.time("serve.http.read", g, || {
            http::read_request(&mut server_reader)
        }) {
            Ok(Some(request)) => request,
            other => {
                out.failures.push(format!("replay read {g}: {other:?}"));
                t.exit(root);
                continue;
            }
        };
        let value = t.time("serve.json.parse", g, || json::parse(&request.body));
        let queries = match value.map_err(|e| e.to_string()).and_then(|v| {
            t.time("serve.wire.parse_batch", g, || {
                wire::parse_batch(&v, max_batch)
            })
        }) {
            Ok(queries) => queries,
            Err(e) => {
                out.failures.push(format!("replay parse {g}: {e}"));
                t.exit(root);
                continue;
            }
        };
        let mut results = Vec::with_capacity(queries.len());
        for q in &queries {
            let id = t.enter("serve.query", g);
            trace_query(t, g, q, exec);
            results.push(t.time("serve.wire.run", g, || q.run(&exec)));
            t.exit(id);
        }
        let body = t.time("serve.json.render", g, || {
            json::obj(&[("results", json::arr(&results))])
        });
        let mut counting = CountingWriter {
            inner: &mut server_writer,
            calls: 0,
        };
        t.time("serve.http.write", g, || {
            http::write_response(&mut counting, 200, &body, request.keep_alive)
        })?;
        #[allow(clippy::cast_precision_loss)]
        out.write_calls.push(counting.calls as f64);
        let (status, echoed) = t.time("client.read", g, || {
            client::read_response(&mut client_reader)
        })?;
        t.exit(root);
        if status != 200 || echoed != body.as_bytes() || body.contains("\"error\"") {
            out.failures
                .push(format!("replay {g}: status {status}, body {body}"));
        }
    }
    Ok(out)
}

/// Median over replayed requests of each request's total time in `stage`.
#[must_use]
pub fn per_request_p50_ns(t: &Tracer, stage: &str) -> f64 {
    let mut totals: BTreeMap<u64, u64> = BTreeMap::new();
    for s in t.spans().iter().filter(|s| s.req != NO_REQUEST) {
        let total = totals.entry(s.req).or_default();
        if s.name == stage {
            *total += s.ns();
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let values: Vec<f64> = totals.into_values().map(|ns| ns as f64).collect();
    if values.is_empty() {
        0.0
    } else {
        nearest_rank(&sorted(values), 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start,
            end,
            parent,
            req: NO_REQUEST,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = vec![
            span(0, 100, None),     // 0: root
            span(10, 40, Some(0)),  // 1: child
            span(30, 60, Some(0)),  // 2: child overlapping 1 (covers 10..60)
            span(35, 38, Some(2)),  // 3: grandchild — not subtracted from 0
            span(90, 120, Some(0)), // 4: child running past the parent's end
            span(200, 210, None),   // 5: unrelated root
        ];
        let own = self_times(&spans);
        // Root: 100 − |10..60 ∪ 90..100| = 100 − 60 = 40.
        assert_eq!(own, vec![40, 30, 27, 3, 30, 10]);
    }

    #[test]
    fn tracer_nests_by_enter_order() {
        let mut t = Tracer::new();
        let outer = t.enter("outer", 7);
        let x = t.time("inner", 7, || 41 + 1);
        t.exit(outer);
        assert_eq!(x, 42);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert!(t.spans()[0].start <= t.spans()[1].start && t.spans()[1].end <= t.spans()[0].end);
        let summary = summarize(t.spans());
        assert_eq!(summary["outer"].0, 1);
        assert_eq!(summary["inner"].0, 1);
    }

    #[test]
    fn repro_digest_ignores_wall_clock_lines() {
        let a = "\n====\nFig 1 — x  [t = 0.0s]\n====\nrow 1\n\nall experiments regenerated in 0.8s (threads 2)\n";
        let b = "\n====\nFig 1 — x  [t = 9.9s]\n====\nrow 1\n\nall experiments regenerated in 1.3s (threads 1)\n";
        assert_eq!(repro_digest(a), repro_digest(b));
        assert_ne!(repro_digest(a), repro_digest(&a.replace("row 1", "row 2")));
    }
}
