//! The four workloads: what each one sends, how its server is configured,
//! and why it exists. Every generated input is a pure function of the
//! seed; the programs under test see only the rendered requests.

use ntv_core::Executor;
use ntv_serve::{json, wire, ServeConfig};

use crate::stats::mix;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `repro --threads 2` as fresh processes: the offline paper run. Monte
    /// Carlo sections and cold Gauss–Hermite builds dominate (L0, L1, L3).
    Repro,
    /// 8-query batches over a resident voltage grid: every lookup hits the
    /// cache, so HTTP/JSON/render (L4) and warm solves (L2) are the cost.
    ServeHot,
    /// Paper-normal batches and single skewed-iid queries at fresh voltages
    /// under a 64-entry cache bound: every lookup misses, so operating-point
    /// and survival-grid builds (L1, L0) are the cost — the cache's
    /// write/evict path instead of its read path.
    ServeCold,
    /// Light probes interleaved with heavy studies (L3, Monte Carlo through
    /// the admission gate, the L2 mixture bisection): shows a change that
    /// speeds one class by taking CPU from the other.
    ServeMixed,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::Repro,
        Workload::ServeHot,
        Workload::ServeCold,
        Workload::ServeMixed,
    ];

    /// Name as given to `--workload` and listed in BENCHMARK.json.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Repro => "repro",
            Workload::ServeHot => "serve_hot",
            Workload::ServeCold => "serve_cold",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// Parse a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the run is confined to one CPU (see [`crate::child::Pinned`]).
    /// serve_hot and serve_mixed are chains of sub-millisecond round trips,
    /// so thread placement decides their speed; serve_cold's 1–17 ms builds
    /// and repro's compute use both CPUs, and their run-to-run spread is no
    /// better on one.
    #[must_use]
    pub fn pinned(self) -> bool {
        matches!(self, Workload::ServeHot | Workload::ServeMixed)
    }

    /// Extra `ntv serve` arguments (after `--addr`).
    #[must_use]
    pub fn server_args(self) -> &'static [&'static str] {
        match self {
            Workload::Repro | Workload::ServeMixed => &[],
            Workload::ServeHot => &["--workers", "2"],
            Workload::ServeCold => &["--workers", "2", "--cache-bound", "64"],
        }
    }

    /// Bodies per connection (and per phase) that enter the golden digest;
    /// each phase sends at least this many per connection.
    #[must_use]
    pub fn golden_count(self) -> usize {
        match self {
            Workload::Repro => 0,
            Workload::ServeHot => 512,
            Workload::ServeCold => 96,
            Workload::ServeMixed => 256,
        }
    }
}

/// Load phases of a serve workload; each draws its own seeded stream.
pub const CLOSED: u64 = 0;
/// serve_hot's open loop at the low rate.
pub const OPEN_LOW: u64 = 1;
/// serve_hot's open loop at the high rate.
pub const OPEN_HIGH: u64 = 2;
/// The untimed lead-in load that runs after set-up, before the timed phases.
pub const LEAD_IN: u64 = 3;

/// One generated request.
#[derive(Debug, Clone)]
pub struct Req {
    /// JSON body for `POST /v1/query`.
    pub body: String,
    /// Queries it carries.
    pub queries: u32,
    /// Whether it is a serve_mixed study (otherwise a probe or a batch).
    pub study: bool,
}

impl Req {
    fn single(body: String, study: bool) -> Self {
        Self {
            body,
            queries: 1,
            study,
        }
    }

    fn batch(queries: &[String]) -> Self {
        Self {
            body: format!(r#"{{"queries":[{}]}}"#, queries.join(",")),
            queries: u32::try_from(queries.len()).expect("small batch"),
            study: false,
        }
    }
}

const NODES: [&str; 4] = ["90nm", "45nm", "32nm", "22nm"];

/// Queries per serve_hot request.
pub const HOT_BATCH: u64 = 8;

/// The resident grid of serve_hot and the serve_mixed probes:
/// 0.50, 0.51, ..., 0.65 V.
fn grid_vdd(i: u64) -> f64 {
    f64::from(50 + u32::try_from(i % 16).expect("< 16")) / 100.0
}

/// The voltages serve_mixed studies pick from.
fn study_vdd(i: u64) -> f64 {
    [0.50, 0.55, 0.60, 0.65][usize::try_from(i % 4).expect("< 4")]
}

/// serve_cold's fresh voltages: a 1 µV lattice over 0.45–0.80 V. With four
/// nodes that is 1.4 M keys per mode, enough for over a minute of load.
const COLD_LATTICE: u32 = 350_001;

/// Queries per serve_cold paper-normal batch.
pub const COLD_BATCH: u64 = 16;

/// Each serve_cold connection sends a single skewed-iid query every this
/// many requests, and paper-normal batches otherwise.
const COLD_SKEWED_EVERY: u64 = 16;

/// Whether serve_cold request `g` is a single skewed-iid query rather than
/// a paper-normal batch: every [`COLD_SKEWED_EVERY`]-th request of each
/// connection, the two connections half a cycle apart. Over the global
/// index `g = 2r + conn`, that is offsets 0 and `COLD_SKEWED_EVERY + 1` of
/// each window of `2 * COLD_SKEWED_EVERY`.
///
/// The two kinds are two latency modes: a batch (16 paper-normal builds,
/// ~1 ms) and a skewed-iid survival-grid build (~17 ms). The median falls
/// inside the batches and the p99 inside the skewed-iid builds, where
/// compute sets the latency. A mix of skewed-iid queries alone puts the p99
/// on the sparse tail where their latencies end, which moved by up to 10 %
/// between runs with the host's background load.
fn cold_skewed(g: u64) -> bool {
    let offset = g % (2 * COLD_SKEWED_EVERY);
    offset == 0 || offset == COLD_SKEWED_EVERY + 1
}

/// How many serve_cold requests before `g` are of the same kind as `g`.
fn cold_rank(g: u64) -> u64 {
    let window = 2 * COLD_SKEWED_EVERY;
    let offset = g % window;
    let skewed =
        2 * (g / window) + u64::from(offset > 0) + u64::from(offset > COLD_SKEWED_EVERY + 1);
    if cold_skewed(g) {
        skewed
    } else {
        g - skewed
    }
}

/// Query `k` of the serve_hot mix at `vdd`. The global query index picks
/// the kind: `k % 16 == 7` a spares-2 quantile, `k % 16 == 15` an analytic
/// margin, `k % 4 == 1` a skewed-iid quantile, otherwise a paper-normal
/// quantile. The node alternates every 16 queries, so every kind visits
/// both nodes.
#[must_use]
pub fn hot_query(k: u64, vdd: f64) -> String {
    let node = if (k / 16).is_multiple_of(2) {
        "90nm"
    } else {
        "45nm"
    };
    match (k % 16, k % 4) {
        (7, _) => format!(r#"{{"kind":"quantile","node":"{node}","vdd":{vdd},"spares":2}}"#),
        (15, _) => format!(r#"{{"kind":"margin","node":"{node}","vdd":{vdd}}}"#),
        (_, 1) => {
            format!(r#"{{"kind":"quantile","node":"{node}","vdd":{vdd},"mode":"skewed-iid"}}"#)
        }
        _ => format!(r#"{{"kind":"quantile","node":"{node}","vdd":{vdd}}}"#),
    }
}

/// Request generator of one serve workload at one seed.
#[derive(Debug)]
pub struct Gen {
    workload: Workload,
    seed: u64,
    /// serve_cold: a seeded permutation of every (lattice voltage, node)
    /// key, so no operating point repeats within a run.
    cold_keys: Vec<u32>,
}

impl Gen {
    /// Generator for `workload` (a serve workload) at `seed`.
    #[must_use]
    pub fn new(workload: Workload, seed: u64) -> Self {
        let cold_keys = if workload == Workload::ServeCold {
            let mut keys: Vec<u32> = (0..COLD_LATTICE * 4).collect();
            for j in (1..keys.len()).rev() {
                let pick = mix(seed, 99, j as u64) % (j as u64 + 1);
                keys.swap(j, usize::try_from(pick).expect("index fits"));
            }
            keys
        } else {
            Vec::new()
        };
        Self {
            workload,
            seed,
            cold_keys,
        }
    }

    /// serve_cold quantile in `mode` at the `i`-th key of the permutation.
    /// The lead-in reads the permutation from its far end, so the timed
    /// phase never meets a key the lead-in built.
    fn cold_query(&self, stream: u64, i: u64, mode: &str) -> String {
        let n = self.cold_keys.len();
        let i = usize::try_from(i).expect("index fits") % n;
        let key = self.cold_keys[if stream == LEAD_IN { n - 1 - i } else { i }];
        let node = NODES[(key % 4) as usize];
        let vdd = f64::from(450_000 + key / 4) / 1_000_000.0;
        format!(r#"{{"kind":"quantile","node":"{node}","vdd":{vdd},"mode":"{mode}"}}"#)
    }

    /// Request `r` of connection `conn` in load phase `stream`.
    /// Connections interleave into one global request index
    /// `g = r * CONNECTIONS + conn`.
    #[must_use]
    pub fn request(&self, stream: u64, conn: usize, r: u64) -> Req {
        let g = r * crate::client::CONNECTIONS as u64 + conn as u64;
        let pick = |index: u64| mix(self.seed, stream, index);
        match self.workload {
            Workload::ServeHot => {
                let queries: Vec<String> = (g * HOT_BATCH..(g + 1) * HOT_BATCH)
                    .map(|k| hot_query(k, grid_vdd(pick(k))))
                    .collect();
                Req::batch(&queries)
            }
            Workload::ServeCold => {
                // Each kind walks the permutation on its own (the cache keys
                // operating points by mode too), so no key repeats.
                let rank = cold_rank(g);
                if cold_skewed(g) {
                    Req::single(self.cold_query(stream, rank, "skewed-iid"), false)
                } else {
                    let queries: Vec<String> = (rank * COLD_BATCH..(rank + 1) * COLD_BATCH)
                        .map(|i| self.cold_query(stream, i, "paper-normal"))
                        .collect();
                    Req::batch(&queries)
                }
            }
            Workload::ServeMixed => {
                // Each connection: 7 probes, then 1 study.
                if r % 8 < 7 {
                    let node = NODES[(g % 2) as usize];
                    Req::single(
                        format!(
                            r#"{{"kind":"quantile","node":"{node}","vdd":{}}}"#,
                            grid_vdd(pick(g))
                        ),
                        false,
                    )
                } else {
                    let s = (r / 8) * crate::client::CONNECTIONS as u64 + conn as u64;
                    Req::single(mixed_study(s % 5, pick(g)), true)
                }
            }
            Workload::Repro => unreachable!("repro sends no requests"),
        }
    }

    /// Request bodies that, answered once each, put the server in its
    /// steady state: every distinct query the phases can send, except on
    /// serve_cold, where only the per-(node, mode) engines are warmed (at
    /// 0.85 V, off the lattice) so every timed query still misses.
    #[must_use]
    pub fn warmup(&self) -> Vec<String> {
        match self.workload {
            Workload::ServeHot => {
                let queries: Vec<String> = (0..2u64)
                    .flat_map(|block| {
                        (0..16u64).flat_map(move |v| {
                            [0u64, 1, 7, 15].map(|k| hot_query(k + 16 * block, grid_vdd(v)))
                        })
                    })
                    .collect();
                queries
                    .chunks(HOT_BATCH as usize)
                    .map(|chunk| Req::batch(chunk).body)
                    .collect()
            }
            Workload::ServeCold => NODES
                .iter()
                .flat_map(|node| {
                    ["paper-normal", "skewed-iid"].map(|mode| {
                        format!(
                            r#"{{"kind":"quantile","node":"{node}","vdd":0.85,"mode":"{mode}"}}"#
                        )
                    })
                })
                .collect(),
            Workload::ServeMixed => {
                let probes = (0..32u64).map(|i| {
                    format!(
                        r#"{{"kind":"quantile","node":"{}","vdd":{}}}"#,
                        NODES[(i / 16) as usize],
                        grid_vdd(i)
                    )
                });
                // Every distinct study: the choice index only matters mod 8.
                let studies =
                    (0..5u64).flat_map(|kind| (0..8u64).map(move |c| mixed_study(kind, c)));
                let mut all: Vec<String> = probes.chain(studies).collect();
                all.sort();
                all.dedup();
                all
            }
            Workload::Repro => Vec::new(),
        }
    }
}

/// serve_mixed study of `kind` (0..5), parameterised by the seeded `choice`.
fn mixed_study(kind: u64, choice: u64) -> String {
    let vdd = study_vdd(choice);
    match kind {
        0 => format!(r#"{{"kind":"min_spares","node":"90nm","vdd":{vdd}}}"#),
        1 => format!(r#"{{"kind":"dse","node":"45nm","vdd":{vdd}}}"#),
        2 => format!(
            r#"{{"kind":"sweep","node":"{}","vdd_start":0.5,"vdd_stop":0.8,"steps":64}}"#,
            NODES[(choice % 4) as usize]
        ),
        3 => format!(
            r#"{{"kind":"margin","node":"45nm","vdd":{vdd},"evaluation":"mc","samples":2000}}"#
        ),
        _ => format!(
            r#"{{"kind":"quantile","node":"{}","vdd":{vdd},"mode":"hierarchical"}}"#,
            NODES[((choice / 4) % 2) as usize]
        ),
    }
}

/// The response body the server must send for `body`, computed in this
/// process through the same parse, run and envelope steps.
///
/// # Errors
///
/// Parse failures (a generated request is always valid, so any error is a
/// generator bug).
pub fn render_in_process(body: &str) -> Result<String, String> {
    let value = json::parse(body).map_err(|e| e.to_string())?;
    let queries = wire::parse_batch(&value, ServeConfig::default().max_batch)?;
    let exec = Executor::serial();
    let results: Vec<String> = queries.iter().map(|q| q.run(&exec)).collect();
    Ok(json::obj(&[("results", json::arr(&results))]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_mix_hits_the_stated_global_index_rates() {
        let gen = Gen::new(Workload::ServeHot, 2012);
        let (mut margin, mut spares, mut skewed, mut total) = (0, 0, 0, 0);
        let mut nodes = [0; 2];
        for r in 0..100 {
            for conn in 0..2 {
                let req = gen.request(CLOSED, conn, r);
                assert_eq!(req.queries, 8);
                for q in req.body.split("},{") {
                    total += 1;
                    margin += usize::from(q.contains("\"margin\""));
                    spares += usize::from(q.contains("\"spares\":2"));
                    skewed += usize::from(q.contains("skewed-iid"));
                    nodes[usize::from(q.contains("45nm"))] += 1;
                }
            }
        }
        assert_eq!(total, 1600);
        assert_eq!(margin, total / 16, "k % 16 == 15");
        assert_eq!(spares, total / 16, "k % 16 == 7");
        assert_eq!(skewed, total / 4, "k % 4 == 1");
        assert_eq!(nodes[0], nodes[1], "nodes alternate");
    }

    #[test]
    fn hot_warmup_covers_every_query_the_mix_sends() {
        let gen = Gen::new(Workload::ServeHot, 7);
        let warm: String = gen.warmup().concat();
        for r in 0..50 {
            let req = gen.request(OPEN_HIGH, 1, r);
            let inner = req
                .body
                .trim_start_matches(r#"{"queries":["#)
                .trim_end_matches("]}");
            for q in inner.split("},{") {
                let q = q.trim_start_matches('{').trim_end_matches('}');
                assert!(warm.contains(q), "{q} is not warmed");
            }
        }
    }

    #[test]
    fn cold_rank_counts_earlier_requests_of_the_same_kind() {
        let (mut skewed, mut batches) = (0, 0);
        for g in 0..64 {
            let count = if cold_skewed(g) {
                &mut skewed
            } else {
                &mut batches
            };
            assert_eq!(cold_rank(g), *count, "g = {g}");
            *count += 1;
        }
    }

    #[test]
    fn cold_keys_never_repeat_and_follow_the_seed() {
        let a = Gen::new(Workload::ServeCold, 2012);
        // Per connection: more requests than a 20 s run sends, then a
        // lead-in's worth.
        let (mut queries, mut skewed) = (Vec::new(), [0; 2]);
        for (stream, per_conn) in [(CLOSED, 12_000), (LEAD_IN, 1_024)] {
            for r in 0..per_conn {
                for (conn, count) in skewed.iter_mut().enumerate() {
                    let req = a.request(stream, conn, r);
                    if req.body.contains("skewed-iid") {
                        assert_eq!(req.queries, 1);
                        *count += 1;
                    } else {
                        assert_eq!(u64::from(req.queries), COLD_BATCH);
                    }
                    let inner = req
                        .body
                        .trim_start_matches(r#"{"queries":["#)
                        .trim_end_matches("]}");
                    queries.extend(
                        inner
                            .split("},{")
                            .map(|q| q.trim_start_matches('{').trim_end_matches('}').to_string()),
                    );
                }
            }
        }
        assert_eq!(
            skewed,
            [(12_000 + 1_024) / COLD_SKEWED_EVERY; 2],
            "one skewed-iid query per cycle per connection"
        );
        let total = queries.len();
        queries.sort();
        queries.dedup();
        assert_eq!(queries.len(), total, "an operating point repeats");
        let b = Gen::new(Workload::ServeCold, 2013);
        assert_ne!(a.request(CLOSED, 0, 0).body, b.request(CLOSED, 0, 0).body);
        assert_eq!(
            a.request(CLOSED, 0, 5).body,
            Gen::new(Workload::ServeCold, 2012)
                .request(CLOSED, 0, 5)
                .body
        );
    }

    #[test]
    fn mixed_connections_send_seven_probes_then_a_study() {
        let gen = Gen::new(Workload::ServeMixed, 2012);
        let studies: Vec<bool> = (0..16).map(|r| gen.request(CLOSED, 0, r).study).collect();
        assert_eq!(studies.iter().filter(|&&s| s).count(), 2);
        assert!(studies[7] && studies[15]);
        let warm = gen.warmup();
        for r in 0..400 {
            let req = gen.request(CLOSED, (r % 2) as usize, r / 2);
            assert!(warm.contains(&req.body), "{} is not warmed", req.body);
        }
    }
}
