//! `ntv` — command-line front end for the near-threshold variation
//! toolkit.
//!
//! ```text
//! ntv drop      <node> <vdd>        variation-induced performance drop
//! ntv spares    <node> <vdd>        structural-duplication solution
//! ntv margin    <node> <vdd>        voltage-margining solution
//! ntv plan      <node> <vdd>        combined design-space exploration
//! ntv quantile  <node> <vdd>        exact chip-delay quantile (analytic)
//! ntv yield     <node> <vdd> <ns>   timing yield at a clock period
//! ntv sensitivity <node> <vdd>      variance decomposition by source
//! ntv info      <node>              device-model summary
//! ntv serve                         long-running HTTP query service
//! ```
//!
//! Nodes: `90nm`, `45nm`, `32nm`, `22nm`. Voltages in volts (e.g. `0.55`).
//! `--threads N` anywhere on the command line sets the worker count
//! (default: all hardware threads; results are identical for any value).
//! `margin`, `plan` and `quantile` accept `--json`: each runs a
//! `ntv_serve::wire::Query` and prints the byte-stable result object the
//! `ntv serve` HTTP endpoint returns for it (one serialization path).
//! `margin` and `plan` evaluate by Monte Carlo, so their objects match the
//! endpoint's for the query sent with `"evaluation":"mc"`.

use std::process::ExitCode;

use ntv_simd::core::dse::DseStudy;
use ntv_simd::core::duplication::DuplicationStudy;
use ntv_simd::core::margining::MarginStudy;
use ntv_simd::core::perf;
use ntv_simd::core::sensitivity;
use ntv_simd::core::yield_model::YieldStudy;
use ntv_simd::core::{DatapathConfig, DatapathEngine, Evaluation, Executor};
use ntv_simd::device::energy::EnergyModel;
use ntv_simd::device::{Corner, TechModel, TechNode};
use ntv_simd::serve::wire::{self, Query};
use ntv_simd::serve::{serve, ServeConfig};
use ntv_simd::units::Volts;

const SAMPLES: usize = 5_000;
const SEED: u64 = 2012;

fn usage() -> ExitCode {
    eprintln!(
        "usage: ntv <command> <node> [args] [--threads N]\n\
         commands:\n  \
         drop <node> <vdd>          performance drop vs nominal\n  \
         spares <node> <vdd>        duplication solution (Table 1 cell)\n  \
         margin <node> <vdd>        margining solution (Table 2 cell)\n  \
         plan <node> <vdd>          combined exploration (Table 3 style)\n  \
         quantile <node> <vdd>      exact chip-delay quantile [--q P] [--spares N]\n  \
         yield <node> <vdd> <ns>    timing yield at a clock period\n  \
         sensitivity <node> <vdd>   variance decomposition by source\n  \
         info <node>                device-model summary\n  \
         serve                      HTTP query service [--addr A] [--workers N]\n                             \
         [--cache-bound N] [--mc-capacity N]\n\
         nodes: 90nm | 45nm | 32nm | 22nm\n\
         margin | plan | quantile accept --json (the serve wire format)"
    );
    ExitCode::FAILURE
}

/// Strip a `--threads N` pair out of `args`, returning the executor.
fn take_executor(args: &mut Vec<String>) -> Result<Executor, ExitCode> {
    let Some(flag) = args.iter().position(|a| a == "--threads") else {
        return Ok(Executor::default());
    };
    let threads = args
        .get(flag + 1)
        .and_then(|v| v.parse::<usize>().ok())
        .ok_or_else(|| {
            eprintln!("--threads expects a positive integer");
            ExitCode::FAILURE
        })?;
    args.drain(flag..=flag + 1);
    Ok(Executor::new(threads))
}

/// Strip a boolean `--flag` out of `args`, reporting whether it was there.
fn take_flag(args: &mut Vec<String>, name: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == name) {
        args.remove(i);
        true
    } else {
        false
    }
}

/// Strip a `--name VALUE` pair out of `args` and parse the value.
fn take_value<T: std::str::FromStr>(
    args: &mut Vec<String>,
    name: &str,
) -> Result<Option<T>, ExitCode> {
    let Some(flag) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let parsed = args.get(flag + 1).and_then(|v| v.parse::<T>().ok());
    match parsed {
        Some(value) => {
            args.drain(flag..=flag + 1);
            Ok(Some(value))
        }
        None => {
            eprintln!("{name} expects a value");
            Err(ExitCode::FAILURE)
        }
    }
}

fn parse_node(s: &str) -> Result<TechNode, ExitCode> {
    s.parse().map_err(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })
}

fn parse_vdd(s: &str) -> Result<f64, ExitCode> {
    match s.parse::<f64>() {
        Ok(v) if (0.3..=1.2).contains(&v) => Ok(v),
        _ => {
            eprintln!("invalid supply voltage `{s}` (expected volts, 0.3..=1.2)");
            Err(ExitCode::FAILURE)
        }
    }
}

/// `ntv serve`: bind the HTTP query service and block in the foreground.
fn cmd_serve(mut args: Vec<String>) -> ExitCode {
    let mut config = ServeConfig {
        addr: "127.0.0.1:7341".to_string(),
        ..ServeConfig::default()
    };
    match (
        take_value::<String>(&mut args, "--addr"),
        take_value::<usize>(&mut args, "--workers"),
        take_value::<usize>(&mut args, "--cache-bound"),
        take_value::<usize>(&mut args, "--mc-capacity"),
    ) {
        (Ok(addr), Ok(workers), Ok(bound), Ok(mc)) => {
            if let Some(addr) = addr {
                config.addr = addr;
            }
            if let Some(workers) = workers {
                config.workers = workers;
            }
            if let Some(bound) = bound {
                // 0 over the CLI means "unbounded".
                config.cache_bound = (bound > 0).then_some(bound);
            }
            if let Some(mc) = mc {
                config.mc_capacity = mc;
            }
        }
        _ => return ExitCode::FAILURE,
    }
    if args.len() > 1 {
        eprintln!("serve: unexpected arguments {:?}", &args[1..]);
        return ExitCode::FAILURE;
    }
    match serve(&config) {
        Ok(handle) => {
            println!("ntv-serve listening on http://{}", handle.addr());
            handle.wait();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve: cannot bind {}: {e}", config.addr);
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let exec = match take_executor(&mut args) {
        Ok(e) => e,
        Err(code) => return code,
    };
    let json = take_flag(&mut args, "--json");
    let Some(command) = args.first().cloned() else {
        return usage();
    };
    if command == "serve" {
        return cmd_serve(args);
    }
    let (q_level, spares) = match (
        take_value::<f64>(&mut args, "--q"),
        take_value::<u32>(&mut args, "--spares"),
    ) {
        (Ok(q), Ok(s)) => (q.unwrap_or(0.99), s.unwrap_or(0)),
        _ => return ExitCode::FAILURE,
    };

    match (command.as_str(), args.get(1), args.get(2), args.get(3)) {
        ("info", Some(node), None, None) => {
            let node = match parse_node(node) {
                Ok(n) => n,
                Err(e) => return e,
            };
            let tech = TechModel::new(node);
            let p = tech.params();
            println!("{node}: nominal {}, Vth0 {}", p.vdd_nominal, p.vth0);
            println!(
                "  FO4 delay: {:.1} ps @nominal, {:.1} ps @0.5 V",
                tech.fo4_delay_ps(p.vdd_nominal),
                tech.fo4_delay_ps(Volts(0.5))
            );
            println!(
                "  sigma(Vth): {:.1} mV random, {:.1} mV systematic; sigma(ln k): {:.3} / {:.3}",
                p.sigma_vth_random.get() * 1000.0,
                p.sigma_vth_systematic.get() * 1000.0,
                p.sigma_k_random,
                p.sigma_k_systematic
            );
            for corner in Corner::ALL {
                println!(
                    "  {corner}: {:+.1}% delay @0.5 V",
                    corner.slowdown(&tech, Volts(0.5)) * 100.0
                );
            }
            let e = EnergyModel::new(&tech);
            let min = e.minimum_energy_point();
            println!(
                "  minimum energy: {:.1} fJ/op at {:.2} V",
                min.total_fj,
                min.vdd.get()
            );
            ExitCode::SUCCESS
        }
        ("drop", Some(node), Some(vdd), None) => {
            let (node, vdd) = match (parse_node(node), parse_vdd(vdd)) {
                (Ok(n), Ok(v)) => (n, v),
                (Err(e), _) | (_, Err(e)) => return e,
            };
            let tech = TechModel::new(node);
            let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
            let p = perf::performance_drop(&engine, Volts(vdd), SAMPLES, SEED, exec);
            println!(
                "{node} @{vdd} V: q99 = {:.2} FO4, drop vs nominal = {:.1}%",
                p.q99_fo4,
                p.drop * 100.0
            );
            ExitCode::SUCCESS
        }
        ("spares", Some(node), Some(vdd), None) => {
            let (node, vdd) = match (parse_node(node), parse_vdd(vdd)) {
                (Ok(n), Ok(v)) => (n, v),
                (Err(e), _) | (_, Err(e)) => return e,
            };
            let tech = TechModel::new(node);
            let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
            match DuplicationStudy::new(&engine).with_executor(exec).solve(
                Volts(vdd),
                128,
                SAMPLES,
                SEED,
            ) {
                Ok(sol) => println!(
                    "{node} @{vdd} V: {} spares ({:.1}% area, {:.2}% power)",
                    sol.spares,
                    sol.area_overhead * 100.0,
                    sol.power_overhead * 100.0
                ),
                Err(e) => println!("{node} @{vdd} V: {e}"),
            }
            ExitCode::SUCCESS
        }
        ("margin", Some(node), Some(vdd), None) => {
            let (node, vdd) = match (parse_node(node), parse_vdd(vdd)) {
                (Ok(n), Ok(v)) => (n, v),
                (Err(e), _) | (_, Err(e)) => return e,
            };
            if json {
                let query = Query::Margin {
                    node,
                    mode: Default::default(),
                    vdd: Volts(vdd),
                    evaluation: Evaluation::MonteCarlo,
                    samples: SAMPLES,
                    seed: SEED,
                };
                println!("{}", query.run(&exec));
                return ExitCode::SUCCESS;
            }
            let tech = TechModel::new(node);
            let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
            let sol =
                MarginStudy::new(&engine)
                    .with_executor(exec)
                    .solve(Volts(vdd), SAMPLES, SEED);
            println!(
                "{node} @{vdd} V: +{:.1} mV margin ({:.2}% power), target {:.3} ns",
                sol.margin.get() * 1000.0,
                sol.power_overhead * 100.0,
                sol.target_ns
            );
            ExitCode::SUCCESS
        }
        ("plan", Some(node), Some(vdd), None) => {
            let (node, vdd) = match (parse_node(node), parse_vdd(vdd)) {
                (Ok(n), Ok(v)) => (n, v),
                (Err(e), _) | (_, Err(e)) => return e,
            };
            if json {
                let query = Query::Dse {
                    node,
                    mode: Default::default(),
                    vdd: Volts(vdd),
                    spares: wire::DEFAULT_SPARE_CANDIDATES.to_vec(),
                    evaluation: Evaluation::MonteCarlo,
                    samples: SAMPLES,
                    seed: SEED,
                };
                println!("{}", query.run(&exec));
                return ExitCode::SUCCESS;
            }
            let tech = TechModel::new(node);
            let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
            let dse = DseStudy::new(&engine).with_executor(exec);
            let choices = dse.explore(Volts(vdd), &wire::DEFAULT_SPARE_CANDIDATES, SAMPLES, SEED);
            for c in &choices {
                println!(
                    "  {:>2} spares + {:>5.1} mV -> {:.2}% power",
                    c.spares,
                    c.margin.get() * 1000.0,
                    c.power_overhead * 100.0
                );
            }
            let best = DseStudy::best(&choices);
            println!(
                "best: {} spares + {:.1} mV ({:.2}% power)",
                best.spares,
                best.margin.get() * 1000.0,
                best.power_overhead * 100.0
            );
            ExitCode::SUCCESS
        }
        ("quantile", Some(node), Some(vdd), None) => {
            let (node, vdd) = match (parse_node(node), parse_vdd(vdd)) {
                (Ok(n), Ok(v)) => (n, v),
                (Err(e), _) | (_, Err(e)) => return e,
            };
            if !(0.0..1.0).contains(&q_level) || q_level == 0.0 {
                eprintln!("--q expects a quantile level in (0, 1)");
                return ExitCode::FAILURE;
            }
            // The CLI goes through the same query object the HTTP service
            // executes, so `--json` output is the serve wire format by
            // construction.
            let query = Query::Quantile {
                node,
                mode: Default::default(),
                vdd: Volts(vdd),
                q: q_level,
                spares,
            };
            let body = query.run(&exec);
            if json {
                println!("{body}");
            } else {
                let engine = wire::paper_engine(node, Default::default());
                let solver = ntv_simd::core::ChipQuantileSolver::new(engine);
                let fo4 = solver.spares_quantile_fo4(Volts(vdd), spares, q_level);
                let ns = fo4 * engine.fo4_unit_ps(Volts(vdd)) / 1000.0;
                println!(
                    "{node} @{vdd} V: q{:.4} = {fo4:.2} FO4 ({ns:.3} ns) with {spares} spares",
                    q_level * 100.0
                );
            }
            ExitCode::SUCCESS
        }
        ("yield", Some(node), Some(vdd), Some(t_clk)) => {
            let (node, vdd) = match (parse_node(node), parse_vdd(vdd)) {
                (Ok(n), Ok(v)) => (n, v),
                (Err(e), _) | (_, Err(e)) => return e,
            };
            let Ok(t_clk_ns) = t_clk.parse::<f64>() else {
                eprintln!("invalid clock period `{t_clk}` (expected ns)");
                return ExitCode::FAILURE;
            };
            let tech = TechModel::new(node);
            let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
            let study = YieldStudy::new(&engine).with_executor(exec);
            let y = study.timing_yield(Volts(vdd), t_clk_ns, SAMPLES, SEED);
            let q99 = study.period_for_yield(Volts(vdd), 0.99, SAMPLES, SEED);
            println!(
                "{node} @{vdd} V: yield {:.2}% at {t_clk_ns} ns (99% yield needs {:.3} ns)",
                y * 100.0,
                q99
            );
            ExitCode::SUCCESS
        }
        ("sensitivity", Some(node), Some(vdd), None) => {
            let (node, vdd) = match (parse_node(node), parse_vdd(vdd)) {
                (Ok(n), Ok(v)) => (n, v),
                (Err(e), _) | (_, Err(e)) => return e,
            };
            let tech = TechModel::new(node);
            let report = sensitivity::decompose(
                &tech,
                DatapathConfig::paper_default(),
                Volts(vdd),
                SAMPLES,
                SEED,
                exec,
            );
            print!("{report}");
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
