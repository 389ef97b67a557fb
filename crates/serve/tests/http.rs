//! End-to-end contract of the serve front: routing, batch semantics,
//! Monte-Carlo shedding, and the double-run byte-identity guarantee with
//! the bounded cache enabled.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use ntv_serve::client::{request_once, Connection};
use ntv_serve::json::{self, Value};
use ntv_serve::{serve, ServeConfig};

fn test_config() -> ServeConfig {
    ServeConfig {
        // A small bound forces eviction inside the identity workload.
        cache_bound: Some(8),
        workers: 2,
        mc_capacity: 0,
        idle_timeout: Duration::from_secs(10),
        ..ServeConfig::default()
    }
}

/// The scripted query set for identity checks: more operating points than
/// the cache bound, across kinds, nodes and modes.
fn scripted_queries() -> Vec<String> {
    let mut bodies = vec![
        r#"{"kind":"min_spares","node":"90nm","vdd":0.5}"#.to_string(),
        r#"{"kind":"margin","node":"45nm","vdd":0.6}"#.to_string(),
        r#"{"kind":"dse","node":"90nm","vdd":0.55,"spares":[0,2,8]}"#.to_string(),
        r#"{"kind":"sweep","node":"22nm","vdd_start":0.5,"vdd_stop":0.7,"steps":9}"#.to_string(),
        r#"{"queries":[{"kind":"quantile","node":"45nm","vdd":0.6,"mode":"skewed-iid"},
                       {"kind":"quantile","node":"32nm","vdd":0.62,"q":0.999}]}"#
            .to_string(),
    ];
    for i in 0..12 {
        let vdd = 0.5 + 0.015 * f64::from(i);
        bodies.push(format!(
            r#"{{"kind":"quantile","node":"90nm","vdd":{vdd}}}"#
        ));
    }
    bodies
}

#[test]
fn routes_and_statuses() {
    let handle = serve(&test_config()).expect("bind");
    let addr = handle.addr();

    let health = request_once(addr, "GET", "/healthz", "").expect("healthz");
    assert_eq!(
        (health.status, health.body.as_str()),
        (200, r#"{"ok":true}"#)
    );

    let missing = request_once(addr, "GET", "/nope", "").expect("404");
    assert_eq!(missing.status, 404);

    let wrong_method = request_once(addr, "GET", "/v1/query", "").expect("405");
    assert_eq!(wrong_method.status, 405);

    let bad_json = request_once(addr, "POST", "/v1/query", "{oops").expect("400");
    assert_eq!(bad_json.status, 400);
    assert!(bad_json.body.contains("error"), "{}", bad_json.body);

    let bad_query =
        request_once(addr, "POST", "/v1/query", r#"{"kind":"margin","vdd":0.6}"#).expect("400");
    assert_eq!(bad_query.status, 400);
    assert!(bad_query.body.contains("node"), "{}", bad_query.body);

    handle.shutdown();
}

#[test]
fn batches_return_results_in_order() {
    let handle = serve(&test_config()).expect("bind");
    let mut conn = Connection::open(handle.addr()).expect("connect");

    let body = r#"{"queries":[
        {"kind":"quantile","node":"45nm","vdd":0.6},
        {"kind":"min_spares","node":"45nm","vdd":0.6},
        {"kind":"quantile","node":"45nm","vdd":0.6,"spares":4}]}"#;
    let response = conn.query(body).expect("batch");
    assert_eq!(response.status, 200);
    let parsed = json::parse(&response.body).expect("valid JSON");
    let results = parsed
        .get("results")
        .and_then(Value::as_arr)
        .expect("results");
    assert_eq!(results.len(), 3);
    assert_eq!(
        results[0].get("kind").and_then(Value::as_str),
        Some("quantile")
    );
    assert_eq!(
        results[1].get("kind").and_then(Value::as_str),
        Some("min_spares")
    );
    assert_eq!(results[2].get("spares").and_then(Value::as_f64), Some(4.0));

    // Spares strictly reduce the quantile.
    let (q0, q4) = (
        results[0].get("fo4").and_then(Value::as_f64).expect("fo4"),
        results[2].get("fo4").and_then(Value::as_f64).expect("fo4"),
    );
    assert!(q4 < q0, "spares must reduce q99: {q4} !< {q0}");
}

#[test]
fn mc_requests_shed_with_429_when_the_gate_is_full() {
    // Capacity 0: every MC request sheds, deterministically.
    let handle = serve(&test_config()).expect("bind");
    let mut conn = Connection::open(handle.addr()).expect("connect");

    let analytic = conn
        .query(r#"{"kind":"margin","node":"45nm","vdd":0.6}"#)
        .expect("analytic margin");
    assert_eq!(analytic.status, 200, "analytic work is never shed");

    let mc = conn
        .query(r#"{"kind":"margin","node":"45nm","vdd":0.6,"evaluation":"mc","samples":50}"#)
        .expect("mc margin");
    assert_eq!(mc.status, 429);
    assert!(mc.body.contains("capacity"), "{}", mc.body);

    // A batch is shed atomically if any member needs MC.
    let mixed = conn
        .query(
            r#"{"queries":[{"kind":"quantile","node":"45nm","vdd":0.6},
                           {"kind":"dse","node":"45nm","vdd":0.6,"evaluation":"mc","samples":50}]}"#,
        )
        .expect("mixed batch");
    assert_eq!(mixed.status, 429);

    drop(conn);
    handle.shutdown();
}

#[test]
fn mc_requests_run_when_capacity_allows() {
    let config = ServeConfig {
        mc_capacity: 1,
        ..test_config()
    };
    let handle = serve(&config).expect("bind");
    let mut conn = Connection::open(handle.addr()).expect("connect");
    let response = conn
        .query(r#"{"kind":"margin","node":"90nm","vdd":0.6,"evaluation":"mc","samples":50}"#)
        .expect("mc margin");
    assert_eq!(response.status, 200, "{}", response.body);
    assert!(response.body.contains(r#""kind":"margin""#));
    drop(conn);
    handle.shutdown();
}

#[test]
fn stats_endpoint_reports_cache_and_server_counters() {
    let handle = serve(&test_config()).expect("bind");
    let mut conn = Connection::open(handle.addr()).expect("connect");
    // Same operating point twice: at least one cache hit.
    for _ in 0..2 {
        let r = conn
            .query(r#"{"kind":"quantile","node":"45nm","vdd":0.612}"#)
            .expect("query");
        assert_eq!(r.status, 200);
    }
    let stats = conn.request("GET", "/stats", "").expect("stats");
    assert_eq!(stats.status, 200);
    let parsed = json::parse(&stats.body).expect("valid JSON");
    let cache = parsed.get("cache").expect("cache section");
    assert!(cache.get("hits").and_then(Value::as_f64).expect("hits") >= 1.0);
    assert_eq!(cache.get("bound").and_then(Value::as_f64), Some(8.0));
    let server = parsed.get("server").expect("server section");
    assert!(
        server
            .get("queries")
            .and_then(Value::as_f64)
            .expect("queries")
            >= 2.0
    );
    drop(conn);
    handle.shutdown();
}

#[test]
fn double_run_bodies_are_byte_identical_with_bounded_cache() {
    // Two full passes over the scripted set — against *two different
    // server instances* and an 8-entry cache the workload overflows — must
    // produce byte-identical response bodies: values are pure functions of
    // the query, so neither eviction history nor server lifetime may leak
    // into a single byte.
    let run = || -> Vec<String> {
        let handle = serve(&test_config()).expect("bind");
        let mut conn = Connection::open(handle.addr()).expect("connect");
        let bodies: Vec<String> = scripted_queries()
            .iter()
            .map(|q| {
                let r = conn.query(q).expect("query");
                assert_eq!(r.status, 200, "{}", r.body);
                r.body
            })
            .collect();
        drop(conn);
        handle.shutdown();
        bodies
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "response bodies must be byte-identical");
}

#[test]
fn concurrent_clients_get_identical_answers() {
    let handle = serve(&ServeConfig {
        workers: 4,
        ..test_config()
    })
    .expect("bind");
    let addr = handle.addr();
    let body = r#"{"queries":[{"kind":"quantile","node":"90nm","vdd":0.58},
                              {"kind":"quantile","node":"90nm","vdd":0.58,"spares":2},
                              {"kind":"min_spares","node":"90nm","vdd":0.58}]}"#;

    let mut answers: Vec<String> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(move || {
                    let mut conn = Connection::open(addr).expect("connect");
                    (0..8)
                        .map(|_| {
                            let r = conn.query(body).expect("query");
                            assert_eq!(r.status, 200);
                            r.body
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            answers.extend(h.join().expect("client thread"));
        }
    });
    let reference = &answers[0];
    assert!(
        answers.iter().all(|a| a == reference),
        "all clients must observe identical bytes"
    );
    handle.shutdown();
}

#[test]
fn a_refused_request_is_answered_then_closed_cleanly() {
    // A client announces a body over the 1 MiB cap, sends 256 KiB of it and
    // shuts its write half. The server must answer 413 and then close with
    // FIN: closing with the request still unread would make the kernel send
    // a reset, which the client sees as ECONNRESET instead of end-of-stream.
    let handle = serve(&test_config()).expect("bind");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let head = "POST /v1/query HTTP/1.1\r\nHost: t\r\nContent-Length: 2097152\r\n\r\n";
    let mut request = head.as_bytes().to_vec();
    request.resize(head.len() + 256 * 1024, b'x');
    // The server answers after reading only the head, so the shutdown may
    // fail; what matters is what the client reads afterwards.
    stream.write_all(&request).expect("send");
    let _ = stream.shutdown(Shutdown::Write);

    let mut reader = BufReader::new(stream);
    let mut status = String::new();
    reader.read_line(&mut status).expect("status line");
    assert_eq!(status, "HTTP/1.1 413 Payload Too Large\r\n");
    let mut content_length = 0;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        if line == "\r\n" {
            break;
        }
        if let Some(v) = line.strip_prefix("content-length: ") {
            content_length = v.trim().parse().expect("length");
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    assert!(String::from_utf8_lossy(&body).contains("size caps"));
    let mut after = [0u8; 1];
    assert!(
        matches!(reader.read(&mut after), Ok(0)),
        "expected end-of-stream after the 413"
    );
    handle.shutdown();
}
