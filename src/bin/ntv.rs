//! `ntv` — command-line front end for the near-threshold variation
//! toolkit.
//!
//! ```text
//! ntv drop      <node> <vdd>        variation-induced performance drop
//! ntv spares    <node> <vdd>        structural-duplication solution
//! ntv margin    <node> <vdd>        voltage-margining solution
//! ntv plan      <node> <vdd>        combined design-space exploration
//! ntv quantile  <node> <vdd>        exact chip-delay quantile
//! ntv yield     <node> <vdd> <ns>   exact timing yield at a clock period
//! ntv sensitivity <node> <vdd>      variance decomposition by source
//! ntv info      <node>              device-model summary
//! ntv serve                         long-running HTTP query service
//! ```
//!
//! Nodes: `90nm`, `45nm`, `32nm`, `22nm`. Voltages in volts (e.g. `0.55`).
//! `--threads N` anywhere on the command line sets the worker count
//! (default: all hardware threads; results are identical for any value).
//! `spares`, `margin`, `plan` and `quantile` are the `ntv serve` wire
//! kinds `min_spares`, `margin`, `dse` and `quantile`: each builds its
//! `ntv_serve::wire::Query` object, validates it with the wire's parser,
//! runs it once, and prints the result object (`--json`, the bytes
//! `/v1/query` returns for that query) or text lines read from it. An
//! in-band `"error"` prints as the answer. `drop` and `yield` read the
//! exact chip-delay law; `sensitivity` samples chips.

use std::collections::BTreeMap;
use std::process::ExitCode;

use ntv_simd::core::perf;
use ntv_simd::core::sensitivity;
use ntv_simd::core::{ChipQuantileSolver, DatapathConfig, DietSodaBudget, Executor};
use ntv_simd::device::energy::EnergyModel;
use ntv_simd::device::{Corner, TechModel, TechNode};
use ntv_simd::serve::json::{self, Value};
use ntv_simd::serve::wire;
use ntv_simd::serve::{serve, ServeConfig};
use ntv_simd::units::{Seconds, Volts};

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
         yield <node> <vdd> <ns>    exact timing yield at a clock period\n  \
         sensitivity <node> <vdd>   variance decomposition by source\n  \
         info <node>                device-model summary\n  \
         serve                      HTTP query service [--addr A] [--workers N]\n                             \
         [--cache-bound N] [--mc-capacity N]\n\
         nodes: 90nm | 45nm | 32nm | 22nm\n\
         spares | margin | plan | quantile accept --json (the serve wire format)"
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
        Ok(v) if wire::VDD_RANGE.contains(&v) => Ok(v),
        _ => {
            eprintln!(
                "invalid supply voltage `{s}` (expected volts, {:?})",
                wire::VDD_RANGE
            );
            Err(ExitCode::FAILURE)
        }
    }
}

/// A wire-kind command (`spares`, `margin`, `plan`, `quantile`): build its
/// query object, let the wire's parser validate it, run it once, and print
/// the result object or the text lines read from it.
fn cmd_wire(
    command: &str,
    node: TechNode,
    vdd: &str,
    extra: Vec<(&str, Value)>,
    json: bool,
    exec: &Executor,
) -> ExitCode {
    let Ok(vdd) = vdd.parse::<f64>() else {
        eprintln!("invalid supply voltage `{vdd}` (expected volts)");
        return ExitCode::FAILURE;
    };
    let kind = match command {
        "spares" => "min_spares",
        "plan" => "dse",
        other => other,
    };
    let mut object = BTreeMap::from([
        ("kind".to_string(), Value::Str(kind.to_string())),
        ("node".to_string(), Value::Str(wire::node_name(node))),
        ("vdd".to_string(), Value::Num(vdd)),
    ]);
    object.extend(extra.into_iter().map(|(k, v)| (k.to_string(), v)));
    let query = match wire::parse_one(&Value::Obj(object)) {
        Ok(query) => query,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let body = query.run(exec);
    if json {
        println!("{body}");
        return ExitCode::SUCCESS;
    }
    let result = json::parse(&body).expect("`Query::run` renders a JSON object");
    let num = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
    let count = |v: &Value, key: &str| {
        let n = v.get(key).and_then(Value::as_u64);
        n.and_then(|n| u32::try_from(n).ok()).unwrap_or_default()
    };
    if let Some(error) = result.get("error").and_then(Value::as_str) {
        println!("{node} @{vdd} V: {error}");
        return ExitCode::SUCCESS;
    }
    match command {
        "spares" => {
            let spares = count(&result, "spares");
            let budget = DietSodaBudget::paper();
            println!(
                "{node} @{vdd} V: {spares} spares ({:.1}% area, {:.2}% power)",
                budget.duplication_area_overhead(spares) * 100.0,
                budget.duplication_power_overhead(spares) * 100.0
            );
        }
        "margin" => println!(
            "{node} @{vdd} V: +{:.1} mV margin ({:.2}% power), target {:.3} ns",
            num(&result, "margin") * 1000.0,
            num(&result, "power_overhead") * 100.0,
            num(&result, "target_ns")
        ),
        "plan" => {
            let choices = result
                .get("choices")
                .and_then(Value::as_arr)
                .unwrap_or_default();
            for c in choices {
                println!(
                    "  {:>2} spares + {:>5.1} mV -> {:.2}% power",
                    count(c, "spares"),
                    num(c, "margin") * 1000.0,
                    num(c, "power_overhead") * 100.0
                );
            }
            let best = result.get("best").unwrap_or(&Value::Null);
            println!(
                "best: {} spares + {:.1} mV ({:.2}% power)",
                count(best, "spares"),
                num(best, "margin") * 1000.0,
                num(best, "power_overhead") * 100.0
            );
        }
        _ => println!(
            "{node} @{vdd} V: q{:.4} = {:.2} FO4 ({:.3} ns) with {} spares",
            num(&result, "q") * 100.0,
            num(&result, "fo4"),
            num(&result, "ns"),
            count(&result, "spares")
        ),
    }
    ExitCode::SUCCESS
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
        (Ok(q), Ok(s)) => (q, s),
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
            let p =
                perf::performance_drop(wire::paper_engine(node, Default::default()), Volts(vdd));
            println!(
                "{node} @{vdd} V: q99 = {:.2} FO4, drop vs nominal = {:.1}%",
                p.q99_fo4,
                p.drop * 100.0
            );
            ExitCode::SUCCESS
        }
        (command @ ("spares" | "margin" | "plan" | "quantile"), Some(node), Some(vdd), None) => {
            let node = match parse_node(node) {
                Ok(n) => n,
                Err(e) => return e,
            };
            let mut extra = Vec::new();
            if command == "quantile" {
                extra.extend(q_level.map(|q| ("q", Value::Num(q))));
                extra.extend(spares.map(|s| ("spares", Value::Num(f64::from(s)))));
            }
            cmd_wire(command, node, vdd, extra, json, &exec)
        }
        ("yield", Some(node), Some(vdd), Some(t_clk)) => {
            let (node, vdd) = match (parse_node(node), parse_vdd(vdd)) {
                (Ok(n), Ok(v)) => (n, v),
                (Err(e), _) | (_, Err(e)) => return e,
            };
            let t_clk_ns = match t_clk.parse::<f64>() {
                Ok(t) if t.is_finite() && t > 0.0 => t,
                _ => {
                    eprintln!("invalid clock period `{t_clk}` (expected ns, finite and > 0)");
                    return ExitCode::FAILURE;
                }
            };
            let solver = ChipQuantileSolver::new(wire::paper_engine(node, Default::default()));
            let y = solver.timing_yield(Volts(vdd), 0, Seconds(t_clk_ns * 1e-9));
            println!(
                "{node} @{vdd} V: yield {:.2}% at {t_clk_ns} ns (99% yield needs {:.3} ns)",
                y * 100.0,
                solver.q99_ns(Volts(vdd))
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
