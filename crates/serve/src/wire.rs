//! The query wire format: parse request objects into typed [`Query`]
//! values, execute them on the analytic fast path, and render byte-stable
//! JSON results.
//!
//! This module is the *single* serialization path for analysis results —
//! the HTTP server and the `ntv` CLI's `--json` mode both call
//! [`Query::run`], so one query prints the same bytes whether it travelled
//! over a socket or stdout. The CLI's `margin` and `plan` queries evaluate
//! by Monte Carlo, so `ntv margin --json` prints what `/v1/query` returns
//! for the same query sent with `"evaluation":"mc"`; the wire default is
//! `analytic`.
//!
//! ## Schema
//!
//! A query is a JSON object with a `kind` plus kind-specific fields
//! (defaults in parentheses):
//!
//! | kind         | fields                                                        |
//! |--------------|---------------------------------------------------------------|
//! | `margin`     | `node`, `vdd`, `mode` (paper-normal), `evaluation` (analytic), `samples` (5000), `seed` (2012) |
//! | `quantile`   | `node`, `vdd`, `q` (0.99), `spares` (0), `mode`               |
//! | `sweep`      | `node`, `vdd_start`, `vdd_stop`, `steps`, `q` (0.99), `mode`  |
//! | `min_spares` | `node`, `vdd`, `max_spares` (128), `mode`                     |
//! | `dse`        | `node`, `vdd`, `spares` (`[0,1,2,4,8,16,26]`), `mode`, `evaluation`, `samples`, `seed` |
//!
//! `node` is `90nm | 45nm | 32nm | 22nm`; `mode` is
//! `paper-normal | skewed-iid | hierarchical`; `evaluation` is
//! `analytic | mc`. Only `margin` and `dse` have a Monte-Carlo fallback —
//! the other kinds are closed-form by construction. Voltages are validated
//! to the calibrated 0.3–1.2 V range.

use std::sync::OnceLock;

use ntv_core::dse::{DesignChoice, DseStudy};
use ntv_core::duplication::DuplicationStudy;
use ntv_core::engine::VariationMode;
use ntv_core::margining::{MarginSolution, MarginStudy};
use ntv_core::perf;
use ntv_core::{ChipQuantileSolver, DatapathConfig, DatapathEngine, Evaluation, Executor};
use ntv_device::{TechModel, TechNode};
use ntv_units::Volts;

use crate::json::{self, Value};

/// Hard cap on sweep grid size: bounds per-query work so one request
/// cannot occupy a worker indefinitely.
pub const MAX_SWEEP_STEPS: u64 = 4_096;

/// Hard cap on spare-lane counts accepted over the wire.
pub const MAX_SPARES: u64 = 4_096;

/// Default Monte-Carlo sample count (matches the `ntv` CLI).
pub const DEFAULT_SAMPLES: u64 = 5_000;

/// Default Monte-Carlo seed (matches the `ntv` CLI).
pub const DEFAULT_SEED: u64 = 2_012;

/// Default spare-lane candidates for `dse` (the Table 3 ladder).
pub const DEFAULT_SPARE_CANDIDATES: [u32; 7] = [0, 1, 2, 4, 8, 16, 26];

/// A validated, executable query.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Voltage-margin solve (a Table 2 cell).
    Margin {
        /// Technology node.
        node: TechNode,
        /// Variation-correlation mode.
        mode: VariationMode,
        /// NTV operating voltage.
        vdd: Volts,
        /// Analytic fast path or Monte-Carlo fallback.
        evaluation: Evaluation,
        /// MC sample count (ignored by the analytic path).
        samples: usize,
        /// MC seed (ignored by the analytic path).
        seed: u64,
    },
    /// Chip-delay quantile probe with optional spare lanes.
    Quantile {
        /// Technology node.
        node: TechNode,
        /// Variation-correlation mode.
        mode: VariationMode,
        /// Supply voltage.
        vdd: Volts,
        /// Quantile level in (0, 1).
        q: f64,
        /// Spare lanes (0 = the plain chip delay).
        spares: u32,
    },
    /// Quantile sweep over a linear voltage grid.
    Sweep {
        /// Technology node.
        node: TechNode,
        /// Variation-correlation mode.
        mode: VariationMode,
        /// First grid voltage.
        vdd_start: Volts,
        /// Last grid voltage (inclusive).
        vdd_stop: Volts,
        /// Grid size (2..=[`MAX_SWEEP_STEPS`]).
        steps: usize,
        /// Quantile level in (0, 1).
        q: f64,
    },
    /// Smallest spare count meeting the nominal-voltage baseline.
    MinSpares {
        /// Technology node.
        node: TechNode,
        /// Variation-correlation mode.
        mode: VariationMode,
        /// Supply voltage.
        vdd: Volts,
        /// Largest spare count to consider.
        max_spares: u32,
    },
    /// Combined spares + margin exploration (a Table 3).
    Dse {
        /// Technology node.
        node: TechNode,
        /// Variation-correlation mode.
        mode: VariationMode,
        /// Supply voltage.
        vdd: Volts,
        /// Spare-lane candidates to cost out.
        spares: Vec<u32>,
        /// Analytic fast path or Monte-Carlo fallback.
        evaluation: Evaluation,
        /// MC sample count (ignored by the analytic path).
        samples: usize,
        /// MC seed (ignored by the analytic path).
        seed: u64,
    },
}

/// Process-wide table of prebuilt paper-default engines, one per
/// `(node, mode)` — 12 entries at most, built on first use and kept for
/// the life of the process.
///
/// Constructing a `TechModel` + `DatapathEngine` costs ~5 µs (dominated
/// by the Gauss–Hermite quadrature in `PathModel`), an order of magnitude
/// more than the closed-form quantile solve itself (~0.4 µs). A
/// per-query rebuild capped service throughput at ~26 k queries/s; the
/// table removes it entirely. The deliberate `Box::leak` is bounded by
/// the 12-entry key space.
#[must_use]
pub fn paper_engine(node: TechNode, mode: VariationMode) -> &'static DatapathEngine<'static> {
    static TABLE: [[OnceLock<&'static DatapathEngine<'static>>; 3]; 4] =
        [const { [const { OnceLock::new() }; 3] }; 4];
    let n = match node {
        TechNode::Gp90 => 0,
        TechNode::Gp45 => 1,
        TechNode::PtmHp32 => 2,
        TechNode::PtmHp22 => 3,
    };
    let m = match mode {
        VariationMode::PaperNormal => 0,
        VariationMode::SkewedIid => 1,
        VariationMode::Hierarchical => 2,
    };
    TABLE[n][m].get_or_init(|| {
        let tech: &'static TechModel = Box::leak(Box::new(TechModel::new(node)));
        Box::leak(Box::new(DatapathEngine::with_mode(
            tech,
            DatapathConfig::paper_default(),
            mode,
        )))
    })
}

/// Canonical wire name of a node (`"90nm"`, ... — also accepted on input).
#[must_use]
pub fn node_name(node: TechNode) -> String {
    format!("{}nm", node.feature_nm())
}

/// Canonical wire name of a variation mode.
#[must_use]
pub fn mode_name(mode: VariationMode) -> &'static str {
    match mode {
        VariationMode::PaperNormal => "paper-normal",
        VariationMode::SkewedIid => "skewed-iid",
        VariationMode::Hierarchical => "hierarchical",
    }
}

fn parse_mode(s: &str) -> Result<VariationMode, String> {
    match s {
        "paper-normal" => Ok(VariationMode::PaperNormal),
        "skewed-iid" => Ok(VariationMode::SkewedIid),
        "hierarchical" => Ok(VariationMode::Hierarchical),
        other => Err(format!(
            "unknown mode `{other}` (expected paper-normal | skewed-iid | hierarchical)"
        )),
    }
}

fn parse_evaluation(s: &str) -> Result<Evaluation, String> {
    match s {
        "analytic" => Ok(Evaluation::Analytic),
        "mc" => Ok(Evaluation::MonteCarlo),
        other => Err(format!(
            "unknown evaluation `{other}` (expected analytic | mc)"
        )),
    }
}

/// Field accessors over a query object, each with a schema-level default.
struct Fields<'a>(&'a Value);

impl Fields<'_> {
    fn str_field(&self, key: &str) -> Result<Option<&str>, String> {
        match self.0.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(v) => v
                .as_str()
                .map(Some)
                .ok_or_else(|| format!("`{key}` must be a string")),
        }
    }

    fn node(&self) -> Result<TechNode, String> {
        let name = self
            .str_field("node")?
            .ok_or_else(|| "`node` is required (90nm | 45nm | 32nm | 22nm)".to_string())?;
        name.parse().map_err(|e| format!("{e}"))
    }

    fn mode(&self) -> Result<VariationMode, String> {
        match self.str_field("mode")? {
            None => Ok(VariationMode::PaperNormal),
            Some(s) => parse_mode(s),
        }
    }

    fn evaluation(&self) -> Result<Evaluation, String> {
        match self.str_field("evaluation")? {
            None => Ok(Evaluation::Analytic),
            Some(s) => parse_evaluation(s),
        }
    }

    fn vdd(&self, key: &str) -> Result<Volts, String> {
        let v = self
            .0
            .get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("`{key}` is required (volts)"))?;
        if (0.3..=1.2).contains(&v) {
            Ok(Volts(v))
        } else {
            Err(format!(
                "`{key}` = {v} outside the calibrated 0.3..=1.2 V range"
            ))
        }
    }

    fn quantile(&self) -> Result<f64, String> {
        match self.0.get("q") {
            None => Ok(0.99),
            Some(v) => {
                let q = v.as_f64().ok_or("`q` must be a number")?;
                if q > 0.0 && q < 1.0 {
                    Ok(q)
                } else {
                    Err(format!("`q` = {q} outside (0, 1)"))
                }
            }
        }
    }

    fn unsigned(&self, key: &str, default: u64, max: u64) -> Result<u64, String> {
        match self.0.get(key) {
            None => Ok(default),
            Some(v) => {
                let n = v
                    .as_u64()
                    .ok_or_else(|| format!("`{key}` must be a non-negative integer"))?;
                if n <= max {
                    Ok(n)
                } else {
                    Err(format!("`{key}` = {n} exceeds the cap of {max}"))
                }
            }
        }
    }
}

#[allow(clippy::cast_possible_truncation)]
fn parse_one(value: &Value) -> Result<Query, String> {
    let f = Fields(value);
    let kind = f.str_field("kind")?.ok_or_else(|| {
        "`kind` is required (margin | quantile | sweep | min_spares | dse)".to_string()
    })?;
    match kind {
        "margin" => Ok(Query::Margin {
            node: f.node()?,
            mode: f.mode()?,
            vdd: f.vdd("vdd")?,
            evaluation: f.evaluation()?,
            samples: f.unsigned("samples", DEFAULT_SAMPLES, 1_000_000)? as usize,
            seed: f.unsigned("seed", DEFAULT_SEED, u64::MAX - 1)?,
        }),
        "quantile" => Ok(Query::Quantile {
            node: f.node()?,
            mode: f.mode()?,
            vdd: f.vdd("vdd")?,
            q: f.quantile()?,
            spares: f.unsigned("spares", 0, MAX_SPARES)? as u32,
        }),
        "sweep" => {
            let steps = f.unsigned("steps", 16, MAX_SWEEP_STEPS)?;
            if steps < 2 {
                return Err(format!("`steps` = {steps} below the minimum of 2"));
            }
            let (vdd_start, vdd_stop) = (f.vdd("vdd_start")?, f.vdd("vdd_stop")?);
            if vdd_stop.get() < vdd_start.get() {
                return Err("`vdd_stop` below `vdd_start`".to_string());
            }
            Ok(Query::Sweep {
                node: f.node()?,
                mode: f.mode()?,
                vdd_start,
                vdd_stop,
                steps: steps as usize,
                q: f.quantile()?,
            })
        }
        "min_spares" => Ok(Query::MinSpares {
            node: f.node()?,
            mode: f.mode()?,
            vdd: f.vdd("vdd")?,
            max_spares: f.unsigned("max_spares", 128, MAX_SPARES)? as u32,
        }),
        "dse" => {
            let spares = match value.get("spares") {
                None => DEFAULT_SPARE_CANDIDATES.to_vec(),
                Some(v) => {
                    let items = v.as_arr().ok_or("`spares` must be an array of integers")?;
                    if items.is_empty() || items.len() > 64 {
                        return Err("`spares` must list 1..=64 candidates".to_string());
                    }
                    items
                        .iter()
                        .map(|item| {
                            item.as_u64()
                                .filter(|&n| n <= MAX_SPARES)
                                .map(|n| n as u32)
                                .ok_or_else(|| {
                                    "`spares` entries must be integers within the cap".to_string()
                                })
                        })
                        .collect::<Result<Vec<u32>, String>>()?
                }
            };
            Ok(Query::Dse {
                node: f.node()?,
                mode: f.mode()?,
                vdd: f.vdd("vdd")?,
                spares,
                evaluation: f.evaluation()?,
                samples: f.unsigned("samples", DEFAULT_SAMPLES, 1_000_000)? as usize,
                seed: f.unsigned("seed", DEFAULT_SEED, u64::MAX - 1)?,
            })
        }
        other => Err(format!(
            "unknown kind `{other}` (expected margin | quantile | sweep | min_spares | dse)"
        )),
    }
}

/// Parse a request body into its query batch: either a single query
/// object or `{"queries": [...]}` (at most `max_batch` entries).
///
/// # Errors
///
/// Returns a human-readable message naming the first invalid query.
pub fn parse_batch(body: &Value, max_batch: usize) -> Result<Vec<Query>, String> {
    let items: Vec<&Value> = match body.get("queries") {
        Some(list) => list
            .as_arr()
            .ok_or("`queries` must be an array")?
            .iter()
            .collect(),
        None => vec![body],
    };
    if items.is_empty() {
        return Err("empty query batch".to_string());
    }
    if items.len() > max_batch {
        return Err(format!(
            "batch of {} exceeds the per-request cap of {max_batch}",
            items.len()
        ));
    }
    items
        .iter()
        .enumerate()
        .map(|(i, item)| parse_one(item).map_err(|e| format!("query {i}: {e}")))
        .collect()
}

impl Query {
    /// Whether executing this query runs the Monte-Carlo fallback (and so
    /// must pass the server's work-admission gate).
    #[must_use]
    pub fn needs_mc(&self) -> bool {
        matches!(
            self,
            Query::Margin {
                evaluation: Evaluation::MonteCarlo,
                ..
            } | Query::Dse {
                evaluation: Evaluation::MonteCarlo,
                ..
            }
        )
    }

    /// Execute the query and render its result object.
    ///
    /// Infallible by construction for validated queries *except* for
    /// out-of-regime solves (e.g. a margin above the model's 200 mV cap),
    /// which surface as an in-band `"error"` field on the result object —
    /// never a transport failure.
    #[must_use]
    pub fn run(&self, exec: &Executor) -> String {
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run_inner(exec)));
        match outcome {
            Ok(body) => body,
            // A solver assertion (outside the model's regime) must not
            // take down the worker; report it in-band on the result.
            Err(_) => json::obj(&[
                ("kind", json::str_val(self.kind_name())),
                ("error", json::str_val("query outside the model's regime")),
            ]),
        }
    }

    /// Wire name of this query's kind.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            Query::Margin { .. } => "margin",
            Query::Quantile { .. } => "quantile",
            Query::Sweep { .. } => "sweep",
            Query::MinSpares { .. } => "min_spares",
            Query::Dse { .. } => "dse",
        }
    }

    fn run_inner(&self, exec: &Executor) -> String {
        match *self {
            Query::Margin {
                node,
                mode,
                vdd,
                evaluation,
                samples,
                seed,
            } => {
                let engine = paper_engine(node, mode);
                let sol = MarginStudy::new(engine)
                    .with_executor(*exec)
                    .with_evaluation(evaluation)
                    .solve(vdd, samples, seed);
                render_margin(node, mode, &sol)
            }
            Query::Quantile {
                node,
                mode,
                vdd,
                q,
                spares,
            } => {
                let engine = paper_engine(node, mode);
                let solver = ChipQuantileSolver::new(engine);
                let fo4 = solver.spares_quantile_fo4(vdd, spares, q);
                let ns = fo4 * engine.fo4_unit_ps(vdd) / 1000.0;
                json::obj(&[
                    ("kind", json::str_val("quantile")),
                    ("node", json::str_val(&node_name(node))),
                    ("mode", json::str_val(mode_name(mode))),
                    ("vdd", json::num(vdd.get())),
                    ("q", json::num(q)),
                    ("spares", json::num(f64::from(spares))),
                    ("fo4", json::num(fo4)),
                    ("ns", json::num(ns)),
                ])
            }
            Query::Sweep {
                node,
                mode,
                vdd_start,
                vdd_stop,
                steps,
                q,
            } => {
                let engine = paper_engine(node, mode);
                let solver = ChipQuantileSolver::new(engine);
                let span = vdd_stop.get() - vdd_start.get();
                #[allow(clippy::cast_precision_loss)]
                let denom = (steps - 1) as f64;
                let points: Vec<String> = (0..steps)
                    .map(|i| {
                        #[allow(clippy::cast_precision_loss)]
                        let vdd = Volts(vdd_start.get() + span * (i as f64) / denom);
                        let fo4 = solver.chip_quantile_fo4(vdd, q);
                        let ns = fo4 * engine.fo4_unit_ps(vdd) / 1000.0;
                        json::obj(&[
                            ("vdd", json::num(vdd.get())),
                            ("fo4", json::num(fo4)),
                            ("ns", json::num(ns)),
                        ])
                    })
                    .collect();
                json::obj(&[
                    ("kind", json::str_val("sweep")),
                    ("node", json::str_val(&node_name(node))),
                    ("mode", json::str_val(mode_name(mode))),
                    ("q", json::num(q)),
                    ("points", json::arr(&points)),
                ])
            }
            Query::MinSpares {
                node,
                mode,
                vdd,
                max_spares,
            } => {
                let engine = paper_engine(node, mode);
                let target = perf::baseline_q99_fo4_analytic(engine);
                let study = DuplicationStudy::new(engine);
                let mut fields = vec![
                    ("kind", json::str_val("min_spares")),
                    ("node", json::str_val(&node_name(node))),
                    ("mode", json::str_val(mode_name(mode))),
                    ("vdd", json::num(vdd.get())),
                    ("target_q99_fo4", json::num(target)),
                    ("max_spares", json::num(f64::from(max_spares))),
                ];
                match study.min_spares_for(vdd, target, max_spares) {
                    Ok(spares) => fields.push(("spares", json::num(f64::from(spares)))),
                    Err(e) => {
                        fields.push(("spares", "null".to_string()));
                        fields.push(("error", json::str_val(&format!("{e}"))));
                    }
                }
                json::obj(&fields)
            }
            Query::Dse {
                node,
                mode,
                vdd,
                ref spares,
                evaluation,
                samples,
                seed,
            } => {
                let engine = paper_engine(node, mode);
                let study = DseStudy::new(engine)
                    .with_executor(*exec)
                    .with_evaluation(evaluation);
                render_dse(node, mode, vdd, &study.explore(vdd, spares, samples, seed))
            }
        }
    }
}

/// Render a margin solution.
fn render_margin(node: TechNode, mode: VariationMode, sol: &MarginSolution) -> String {
    json::obj(&[
        ("kind", json::str_val("margin")),
        ("node", json::str_val(&node_name(node))),
        ("mode", json::str_val(mode_name(mode))),
        ("vdd", json::num(sol.vdd.get())),
        ("margin", json::num(sol.margin.get())),
        ("target_ns", json::num(sol.target_ns)),
        ("achieved_ns", json::num(sol.achieved_ns)),
        ("power_overhead", json::num(sol.power_overhead)),
    ])
}

/// Render one (spares, margin, power) design choice.
fn render_choice(choice: &DesignChoice) -> String {
    json::obj(&[
        ("spares", json::num(f64::from(choice.spares))),
        ("margin", json::num(choice.margin.get())),
        ("power_overhead", json::num(choice.power_overhead)),
    ])
}

/// Render a DSE exploration (choice ladder plus the cheapest pick).
fn render_dse(node: TechNode, mode: VariationMode, vdd: Volts, choices: &[DesignChoice]) -> String {
    let best = DseStudy::best(choices);
    json::obj(&[
        ("kind", json::str_val("dse")),
        ("node", json::str_val(&node_name(node))),
        ("mode", json::str_val(mode_name(mode))),
        ("vdd", json::num(vdd.get())),
        (
            "choices",
            json::arr(&choices.iter().map(render_choice).collect::<Vec<_>>()),
        ),
        ("best", render_choice(&best)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn query(text: &str) -> Query {
        parse_one(&parse(text).expect("valid JSON")).expect("valid query")
    }

    #[test]
    fn defaults_fill_in() {
        let q = query(r#"{"kind":"quantile","node":"45nm","vdd":0.6}"#);
        assert_eq!(
            q,
            Query::Quantile {
                node: TechNode::Gp45,
                mode: VariationMode::PaperNormal,
                vdd: Volts(0.6),
                q: 0.99,
                spares: 0,
            }
        );
        assert!(!q.needs_mc());

        let m = query(r#"{"kind":"margin","node":"90nm","vdd":0.55,"evaluation":"mc"}"#);
        assert!(m.needs_mc());
    }

    #[test]
    fn invalid_queries_are_named() {
        let cases = [
            (r#"{"node":"45nm","vdd":0.6}"#, "kind"),
            (r#"{"kind":"margin","vdd":0.6}"#, "node"),
            (r#"{"kind":"margin","node":"45nm"}"#, "vdd"),
            (r#"{"kind":"margin","node":"45nm","vdd":9.0}"#, "0.3..=1.2"),
            (
                r#"{"kind":"quantile","node":"45nm","vdd":0.6,"q":1.5}"#,
                "(0, 1)",
            ),
            (r#"{"kind":"warp","node":"45nm","vdd":0.6}"#, "unknown kind"),
            (
                r#"{"kind":"sweep","node":"45nm","vdd_start":0.7,"vdd_stop":0.5}"#,
                "vdd_stop",
            ),
        ];
        for (text, needle) in cases {
            let err = parse_one(&parse(text).expect("valid JSON")).expect_err(text);
            assert!(err.contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn batch_accepts_single_and_list() {
        let single = parse(r#"{"kind":"quantile","node":"45nm","vdd":0.6}"#).expect("json");
        assert_eq!(parse_batch(&single, 8).expect("batch").len(), 1);

        let list = parse(
            r#"{"queries":[{"kind":"quantile","node":"45nm","vdd":0.6},
                           {"kind":"min_spares","node":"90nm","vdd":0.5}]}"#,
        )
        .expect("json");
        assert_eq!(parse_batch(&list, 8).expect("batch").len(), 2);
        assert!(parse_batch(&list, 1).is_err(), "cap enforced");
    }

    #[test]
    fn quantile_execution_is_byte_stable() {
        let q = query(r#"{"kind":"quantile","node":"90nm","vdd":0.6,"spares":2}"#);
        let exec = Executor::serial();
        let a = q.run(&exec);
        let b = q.run(&exec);
        assert_eq!(a, b);
        assert!(a.starts_with(r#"{"kind":"quantile","node":"90nm""#), "{a}");
        assert!(a.contains(r#""spares":2"#), "{a}");
    }

    #[test]
    fn min_spares_reports_exhaustion_in_band() {
        // One spare cannot absorb deep-NTV variation at 0.45 V in 32 nm;
        // the solver's error must arrive as a result field, not a failure.
        let q = query(r#"{"kind":"min_spares","node":"32nm","vdd":0.45,"max_spares":1}"#);
        let body = q.run(&Executor::serial());
        assert!(body.contains(r#""spares":null"#), "{body}");
        assert!(body.contains("error"), "{body}");
    }

    #[test]
    fn sweep_emits_the_requested_grid() {
        let q = query(r#"{"kind":"sweep","node":"45nm","vdd_start":0.5,"vdd_stop":0.6,"steps":3}"#);
        let body = q.run(&Executor::serial());
        let v = parse(&body).expect("result is valid JSON");
        let points = v.get("points").and_then(Value::as_arr).expect("points");
        assert_eq!(points.len(), 3);
        assert_eq!(points[1].get("vdd").and_then(Value::as_f64), Some(0.55));
    }
}
