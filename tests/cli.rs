//! End-to-end tests of the `ntv` command-line interface, including the
//! `serve` subcommand and the CLI/server shared `--json` wire format.

use std::io::BufRead;
use std::process::Command;

use ntv_simd::serve::client::request_once;
use ntv_simd::serve::json::{self, Value};

fn ntv(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ntv"))
        .args(args)
        .output()
        .expect("ntv binary runs")
}

/// A child `ntv serve` process, killed on drop.
struct ServeChild {
    child: std::process::Child,
    addr: std::net::SocketAddr,
}

impl ServeChild {
    #[expect(
        clippy::panic,
        reason = "a server that never announces its address fails the test"
    )]
    fn spawn() -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_ntv"))
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("serve spawns");
        // The first stdout line announces the bound address.
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .expect("listen line");
        let addr = line
            .trim()
            .rsplit("http://")
            .next()
            .and_then(|a| a.parse().ok())
            .unwrap_or_else(|| panic!("no address in {line:?}"));
        Self { child, addr }
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn info_prints_device_summary() {
    let out = ntv(&["info", "90nm"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("90nm GP"));
    assert!(text.contains("FO4 delay"));
    assert!(text.contains("SS:"));
    assert!(text.contains("minimum energy"));
}

#[test]
fn drop_reports_percentage() {
    let out = ntv(&["drop", "22nm", "0.5"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("drop vs nominal"));
    assert!(text.contains('%'));
}

#[test]
fn margin_reports_millivolts() {
    let out = ntv(&["margin", "32nm", "0.6"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("mV margin"));
    assert!(text.contains("target"));
}

#[test]
fn spares_handles_unsolvable_points() {
    // 45nm at 0.5 V needs >128 spares (Table 1); the CLI must say so, not fail.
    let out = ntv(&["spares", "45nm", "0.5"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("more than 128 spares"), "{text}");
}

#[test]
fn quantile_reports_fo4_and_ns() {
    let out = ntv(&["quantile", "90nm", "0.6", "--spares", "2"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("FO4"), "{text}");
    assert!(text.contains("with 2 spares"), "{text}");
}

/// The numbers a wire-kind command's text mode prints, formatted from its
/// result object as the text lines format them.
fn text_numbers(result: &Value) -> Vec<String> {
    let num = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64).expect(key);
    match result.get("kind").and_then(Value::as_str).expect("kind") {
        "quantile" => vec![format!(
            "q{:.4} = {:.2} FO4 ({:.3} ns) with {} spares",
            num(result, "q") * 100.0,
            num(result, "fo4"),
            num(result, "ns"),
            num(result, "spares")
        )],
        "margin" => vec![format!(
            "+{:.1} mV margin ({:.2}% power), target {:.3} ns",
            num(result, "margin") * 1000.0,
            num(result, "power_overhead") * 100.0,
            num(result, "target_ns")
        )],
        "dse" => {
            let choices = result
                .get("choices")
                .and_then(Value::as_arr)
                .expect("choices");
            let best = result.get("best").expect("best");
            choices
                .iter()
                .map(|c| {
                    format!(
                        "{:>2} spares + {:>5.1} mV -> {:.2}% power",
                        num(c, "spares"),
                        num(c, "margin") * 1000.0,
                        num(c, "power_overhead") * 100.0
                    )
                })
                .chain([format!(
                    "best: {} spares + {:.1} mV ({:.2}% power)",
                    num(best, "spares"),
                    num(best, "margin") * 1000.0,
                    num(best, "power_overhead") * 100.0
                )])
                .collect()
        }
        "min_spares" => vec![format!(": {} spares (", num(result, "spares"))],
        other => vec![format!("unexpected kind {other}")],
    }
}

#[test]
fn cli_json_matches_the_serve_wire_format() {
    // One serialization path: every wire-kind command runs the wire's
    // query, so `ntv <command> --json` must print byte for byte what the
    // HTTP service returns for the default query (analytic, no
    // `"evaluation":"mc"`), and its text mode prints the same numbers.
    let server = ServeChild::spawn();
    let cases: [(&[&str], &str); 4] = [
        (
            &["quantile", "45nm", "0.62"],
            r#"{"kind":"quantile","node":"45nm","vdd":0.62}"#,
        ),
        (
            &["margin", "45nm", "0.6"],
            r#"{"kind":"margin","node":"45nm","vdd":0.6}"#,
        ),
        (
            &["plan", "45nm", "0.6"],
            r#"{"kind":"dse","node":"45nm","vdd":0.6}"#,
        ),
        (
            &["spares", "90nm", "0.55"],
            r#"{"kind":"min_spares","node":"90nm","vdd":0.55}"#,
        ),
    ];
    for (args, query) in cases {
        let out = ntv(&[args, &["--json"]].concat());
        assert!(out.status.success(), "{args:?}");
        let cli_line = String::from_utf8(out.stdout)
            .expect("utf8")
            .trim()
            .to_string();
        let response = request_once(server.addr, "POST", "/v1/query", query).expect("server query");
        assert_eq!(response.status, 200, "{}", response.body);
        let parsed = json::parse(&response.body).expect("valid JSON");
        let results = parsed
            .get("results")
            .and_then(Value::as_arr)
            .expect("results");
        assert_eq!(results.len(), 1);
        // Compare raw bytes: the results array holds exactly the rendered
        // object, so strip the envelope.
        let envelope = format!(r#"{{"results":[{cli_line}]}}"#);
        assert_eq!(
            response.body, envelope,
            "{args:?}: CLI and server bytes must match"
        );

        let out = ntv(args);
        assert!(out.status.success(), "{args:?}");
        let text = String::from_utf8(out.stdout).expect("utf8");
        for needle in text_numbers(&results[0]) {
            assert!(
                text.contains(&needle),
                "{args:?}: {needle:?} not in {text:?}"
            );
        }
    }
}

#[test]
fn serve_answers_health_and_stats() {
    let server = ServeChild::spawn();
    let health = request_once(server.addr, "GET", "/healthz", "").expect("healthz");
    assert_eq!(
        (health.status, health.body.as_str()),
        (200, r#"{"ok":true}"#)
    );
    let stats = request_once(server.addr, "GET", "/stats", "").expect("stats");
    assert_eq!(stats.status, 200);
    assert!(stats.body.contains("\"cache\""), "{}", stats.body);
}

#[test]
fn usage_on_bad_input() {
    for args in [&[][..], &["frobnicate"][..], &["drop", "65nm", "0.5"][..]] {
        let out = ntv(args);
        assert!(!out.status.success(), "args {args:?} should fail");
        let err = String::from_utf8(out.stderr).expect("utf8");
        assert!(!err.is_empty());
    }
    // Out-of-range voltage.
    let out = ntv(&["drop", "90nm", "9.9"]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .expect("utf8")
        .contains("invalid supply voltage"));
    // The wire kinds fail with the wire's own message: a voltage outside
    // the calibrated range, a quantile level outside (0, 1), and spares
    // above the wire's cap, rejected before anything is allocated.
    let cases: [(&[&str], &str); 6] = [
        (
            &["margin", "90nm", "9.9"],
            "`vdd` = 9.9 outside the calibrated 0.3..=1.2 V range",
        ),
        (
            &["plan", "45nm", "0.2"],
            "`vdd` = 0.2 outside the calibrated 0.3..=1.2 V range",
        ),
        (
            &["spares", "22nm", "1.3"],
            "`vdd` = 1.3 outside the calibrated 0.3..=1.2 V range",
        ),
        (
            &["quantile", "90nm", "0.1"],
            "`vdd` = 0.1 outside the calibrated 0.3..=1.2 V range",
        ),
        (
            &["quantile", "90nm", "0.6", "--q", "1.5"],
            "`q` = 1.5 outside (0, 1)",
        ),
        (
            &["quantile", "90nm", "0.6", "--spares", "4097"],
            "`spares` = 4097 exceeds the cap of 4096",
        ),
    ];
    for (args, message) in cases {
        let out = ntv(args);
        assert!(!out.status.success(), "args {args:?} should fail");
        let err = String::from_utf8(out.stderr).expect("utf8");
        assert!(err.contains(message), "{args:?}: {err}");
    }
    // A clock period must be a finite positive number of nanoseconds.
    for t_clk in ["nan", "inf", "-5", "0"] {
        let out = ntv(&["yield", "90nm", "0.55", t_clk]);
        assert!(!out.status.success(), "clock {t_clk} should fail");
        assert!(String::from_utf8(out.stderr)
            .expect("utf8")
            .contains("invalid clock period"));
    }
}
