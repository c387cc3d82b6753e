//! `daemon_mix`: `newtond` request latency, one closed-loop client.
//!
//! An in-process `Daemon` on loopback holds 16 text intents. One `Client`
//! sends a seeded mix of reads (ping, list, metrics) and writes (retune,
//! text update, remove+install), each request after the previous reply.
//! One op is one request. Only well-formed requests with valid ids are
//! sent.
//!
//! Correctness: every response is `ok`, the final `list` holds the 16
//! intents, and each `daemon_request_ns_<op>` histogram counted exactly
//! the requests sent for that op.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use newton::query::{catalog, parse_query, to_text, validate};
use newtond::json::{self, Value};
use newtond::{proto, Client, Daemon, DaemonConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::churn::with_threshold_delta;
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::{stats, Args};

/// Intents the daemon holds.
pub const INTENTS: usize = 16;
/// Threshold shifts a text update applies.
const DELTAS: [u64; 4] = [0, 5, 10, 15];
/// Daemon start-ups timed for `setup_s` (the median is reported).
const SETUP_REPS: usize = 25;
const TIMEOUT: Duration = Duration::from_secs(30);

/// Every request kind the mix sends, as (op, client-side span name). The
/// op name keys the daemon's `daemon_request_ns_<op>` histogram and the
/// per-layer metrics `newtond.rtt_<op>_p50_ms` and
/// `newtond.server_<op>_p50_ms`.
pub const KINDS: [(&str, &str); 7] = [
    ("ping", "newtond.ping"),
    ("list", "newtond.list"),
    ("metrics", "newtond.metrics"),
    ("retune", "newtond.retune"),
    ("update", "newtond.update"),
    ("remove", "newtond.remove"),
    ("install", "newtond.install"),
];

/// Index of `op` in [`KINDS`].
fn kind_index(op: &str) -> usize {
    KINDS.iter().position(|&(k, _)| k == op).expect("the mix sends only known ops")
}

/// One step of the mix; `Cycle` sends a remove and then an install.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    Ping,
    List,
    Metrics,
    Retune { intent: usize, threshold: u64 },
    Update { intent: usize, preset: usize },
    Cycle { intent: usize },
}

/// The seeded mix: the six steps with equal weight, over uniformly drawn
/// intents. No recorded request traffic exists to weight them by, so the
/// mix takes the neutral rule.
pub struct Mix(StdRng);

impl Mix {
    pub fn new(seed: u64) -> Self {
        Mix(StdRng::seed_from_u64(seed ^ 0x00DA_E30D))
    }
}

impl Iterator for Mix {
    type Item = Step;
    fn next(&mut self) -> Option<Step> {
        let roll = self.0.gen_range(0..6u32);
        let intent = self.0.gen_range(0..INTENTS as u32) as usize;
        Some(match roll {
            0 => Step::Ping,
            1 => Step::List,
            2 => Step::Metrics,
            3 => Step::Retune { intent, threshold: 15 + self.0.gen_range(0..45u32) as u64 },
            4 => Step::Update { intent, preset: self.0.gen_range(0..DELTAS.len() as u32) as usize },
            _ => Step::Cycle { intent },
        })
    }
}

/// The 16 intents as (name, text): Q1–Q9 rendered to the textual intent
/// language, then Q1–Q7 again with thresholds raised by 5.
pub fn intents() -> Vec<(String, String)> {
    let catalog = catalog::all_queries();
    let shifted = catalog.iter().take(INTENTS - catalog.len()).map(|q| with_threshold_delta(q, 5));
    catalog
        .iter()
        .cloned()
        .chain(shifted)
        .enumerate()
        .map(|(i, q)| (format!("intent{i:02}"), to_text(&q)))
        .collect()
}

/// Text of intent `i` with its thresholds shifted by `DELTAS[preset]`.
fn update_texts(intents: &[(String, String)]) -> Vec<Vec<String>> {
    intents
        .iter()
        .map(|(name, text)| {
            let q = parse_query(name, text).expect("intent parses");
            DELTAS.iter().map(|&d| to_text(&with_threshold_delta(&q, d))).collect()
        })
        .collect()
}

/// The daemon's default configuration (`chain(4)`), with a register slot
/// per intent.
fn config() -> DaemonConfig {
    DaemonConfig { register_slots: INTENTS as u32, ..DaemonConfig::default() }
}

/// A started daemon with the intents installed.
struct Live {
    daemon: Daemon,
    client: Client,
    ids: Vec<u32>,
}

fn query_id(v: &Value) -> Result<u32, String> {
    v.get("query").and_then(Value::as_u64).map(|q| q as u32).ok_or("reply without query id".into())
}

fn start(intents: &[(String, String)]) -> Result<Live, String> {
    let daemon = Daemon::start(config(), "127.0.0.1:0").map_err(|e| e.to_string())?;
    let mut client =
        Client::connect(&daemon.addr().to_string(), TIMEOUT).map_err(|e| e.to_string())?;
    let mut ids = Vec::with_capacity(intents.len());
    for (name, text) in intents {
        ids.push(query_id(&client.install(name, text).map_err(|e| e.to_string())?)?);
    }
    Ok(Live { daemon, client, ids })
}

fn stop(mut live: Live) {
    let _ = live.client.shutdown();
    live.daemon.join();
}

/// Per-request record of the measured loop, kept small: the records
/// are part of the process the `peak_rss_mb` metric measures.
struct Sent {
    /// Index into [`KINDS`].
    kind: u8,
    rtt_ms: f32,
    /// When the reply arrived, in seconds since the loop started.
    end_s: f32,
}

/// Request records reserved up front, per measured second, so the
/// record vector never reallocates (and never doubles its footprint)
/// mid-run.
const RECORDS_PER_S: f64 = 40_000.0;

pub fn run(args: &Args) -> Outcome {
    let intents = intents();
    let texts = update_texts(&intents);
    let mut out = Outcome { correct: true, ..Outcome::default() };
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut live = None;
    for _ in 0..SETUP_REPS {
        if let Some(prev) = live.take() {
            stop(prev);
        }
        let t = Instant::now();
        match start(&intents) {
            Ok(l) => live = Some(l),
            Err(e) => {
                crate::mismatch(&mut out, &format!("daemon setup: {e}"));
                return out;
            }
        }
        setup.push(t.elapsed().as_secs_f64());
    }
    let mut live = live.expect("a started daemon");
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    *counts.entry("install").or_default() += INTENTS as u64;

    let mut tracer = if args.trace { Tracer::default() } else { Tracer::off() };
    let mut sent: Vec<Sent> = Vec::with_capacity((args.seconds * RECORDS_PER_S) as usize + 64);
    let mut lines: Vec<String> = Vec::new();
    let mut mix = Mix::new(args.seed);
    let start = Instant::now();
    while sent.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let step = mix.next().expect("endless mix");
        for (kind, fields) in requests(step, &live.ids, &intents, &texts) {
            if args.trace && lines.len() < 4096 {
                lines.push(request_line(sent.len() as u64 + 1, kind, &fields));
            }
            let idx = kind_index(kind);
            let span = tracer.enter(KINDS[idx].1, sent.len() as u64);
            let t = Instant::now();
            let reply = live.client.request(kind, fields);
            let rtt_ms = t.elapsed().as_secs_f64() * 1e3;
            tracer.exit(span);
            *counts.entry(kind).or_default() += 1;
            out.attempted += 1;
            let ok = reply.map_err(|e| e.to_string()).and_then(|v| {
                if kind == "install" {
                    let Step::Cycle { intent } = step else { unreachable!("installs only cycle") };
                    live.ids[intent] = query_id(&v)?;
                }
                Ok(())
            });
            let rtt_ms = match ok {
                Ok(()) => rtt_ms,
                Err(e) => {
                    crate::mismatch(&mut out, &format!("request {} ({kind}): {e}", sent.len()));
                    out.failed += 1;
                    f64::INFINITY
                }
            };
            let end_s = start.elapsed().as_secs_f32();
            sent.push(Sent { kind: idx as u8, rtt_ms: rtt_ms as f32, end_s });
        }
    }
    let rss_mb = crate::peak_rss_mb();
    let all: Vec<f64> = sent.iter().map(|s| f64::from(s.rtt_ms)).collect();
    let ends: Vec<f64> = sent.iter().map(|s| f64::from(s.end_s)).collect();
    let s = stats::closed_loop(&all, &ends);
    crate::note_loop("daemon_mix request", &s);

    let server = match final_checks(&mut live, &mut counts, &mut out) {
        Ok(server) => server,
        Err(e) => {
            crate::mismatch(&mut out, &e);
            BTreeMap::new()
        }
    };
    stop(live);

    if args.trace {
        for (idx, &(op, _)) in KINDS.iter().enumerate() {
            let rtt: Vec<f64> = sent
                .iter()
                .filter(|s| usize::from(s.kind) == idx)
                .map(|s| f64::from(s.rtt_ms))
                .collect();
            if !rtt.is_empty() {
                out.set(format!("newtond.rtt_{op}_p50_ms"), stats::median(&rtt));
            }
            if let Some(h) = server.get(op) {
                out.set(format!("newtond.server_{op}_p50_ms"), h.p50_ms);
            }
        }
        // Round trip minus the daemon's own handling time: the socket
        // transport, both line codecs and the connection-to-core hop.
        let wait: Vec<f64> = sent
            .iter()
            .filter_map(|s| {
                server.get(KINDS[usize::from(s.kind)].0).map(|h| f64::from(s.rtt_ms) - h.mean_ms)
            })
            .collect();
        out.set("newtond.wait_p50_ms", stats::median(&wait));
        side_calls(&lines, &intents, &texts, &mut tracer, &mut out);
        crate::write_spans(&tracer, "daemon_mix", args.seed);
    } else {
        crate::set_loop_metrics(&mut out, &s);
        out.set("setup_s", stats::median(&setup));
        out.set("peak_rss_mb", rss_mb);
    }
    out
}

/// The requests one step sends, as (op, fields).
fn requests(
    step: Step,
    ids: &[u32],
    intents: &[(String, String)],
    texts: &[Vec<String>],
) -> Vec<(&'static str, Vec<(&'static str, Value)>)> {
    match step {
        Step::Ping => vec![("ping", vec![])],
        Step::List => vec![("list", vec![])],
        Step::Metrics => vec![("metrics", vec![])],
        Step::Retune { intent, threshold } => vec![(
            "retune",
            vec![("query", json::num(ids[intent])), ("threshold", json::num(threshold as f64))],
        )],
        Step::Update { intent, preset } => vec![(
            "update",
            vec![
                ("query", json::num(ids[intent])),
                ("name", json::str(intents[intent].0.as_str())),
                ("intent", json::str(texts[intent][preset].as_str())),
            ],
        )],
        // The install's fields do not depend on the removed id.
        Step::Cycle { intent } => vec![
            ("remove", vec![("query", json::num(ids[intent]))]),
            (
                "install",
                vec![
                    ("name", json::str(intents[intent].0.as_str())),
                    ("intent", json::str(intents[intent].1.as_str())),
                ],
            ),
        ],
    }
}

/// The request line a `Client` writes for (id, op, fields).
fn request_line(id: u64, op: &str, fields: &[(&str, Value)]) -> String {
    let mut members = vec![("id", json::num(id as f64)), ("op", json::str(op))];
    members.extend(fields.iter().cloned());
    json::obj(members).to_string()
}

/// The daemon's own view of one op's handling time.
#[derive(Debug, Clone, Copy)]
struct ServerTime {
    /// The log2 histogram's p50 (a bucket bound, within 2x).
    p50_ms: f64,
    /// Exact mean: histogram sum over count.
    mean_ms: f64,
}

/// The final `list` and `metrics` checks. Returns the daemon's per-op
/// handling times read from its `daemon_request_ns_<op>` histograms.
fn final_checks(
    live: &mut Live,
    counts: &mut BTreeMap<&'static str, u64>,
    out: &mut Outcome,
) -> Result<BTreeMap<&'static str, ServerTime>, String> {
    let list = live.client.list().map_err(|e| format!("final list: {e}"))?;
    *counts.entry("list").or_default() += 1;
    let listed = list.get("queries").and_then(Value::as_array).map_or(0, <[Value]>::len);
    if listed != INTENTS {
        crate::mismatch(out, &format!("final list holds {listed} intents, not {INTENTS}"));
    }
    // The snapshot is taken before this request's own latency is recorded.
    let metrics = live.client.metrics().map_err(|e| format!("final metrics: {e}"))?;
    let mut server = BTreeMap::new();
    for kind in KINDS.iter().map(|&(op, _)| op) {
        let sent = counts.get(kind).copied().unwrap_or(0);
        let h = metrics.get("histograms").and_then(|h| h.get(&format!("daemon_request_ns_{kind}")));
        let field = |f: &str| h.and_then(|h| h.get(f)).and_then(Value::as_f64).unwrap_or(0.0);
        let seen = field("count") as u64;
        if seen != sent {
            crate::mismatch(
                out,
                &format!("daemon counted {seen} {kind} requests, {sent} were sent"),
            );
        }
        if seen > 0 {
            let t = ServerTime {
                p50_ms: field("p50") * 1e-6,
                mean_ms: field("sum") * 1e-6 / seen as f64,
            };
            server.insert(kind, t);
        }
    }
    Ok(server)
}

/// Side calls on the mix's own inputs: the request-line decoder the
/// connection threads run, and intent parse plus validation.
fn side_calls(
    lines: &[String],
    intents: &[(String, String)],
    texts: &[Vec<String>],
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    for (i, line) in lines.iter().enumerate() {
        let ok =
            tracer.span("newtond.parse_request", i as u64, || proto::parse_request(line).is_ok());
        if !ok {
            crate::mismatch(out, &format!("request line {i} does not decode: {line}"));
        }
    }
    let all = intents
        .iter()
        .map(|(n, t)| (n, t))
        .chain(intents.iter().zip(texts).flat_map(|((n, _), ts)| ts.iter().map(move |t| (n, t))));
    for (i, (name, text)) in all.enumerate() {
        let ok = tracer.span("query.parse", i as u64, || {
            parse_query(name, text).map(|q| validate(&q).is_empty()).unwrap_or(false)
        });
        if !ok {
            crate::mismatch(out, &format!("intent {name} does not parse and validate"));
        }
    }
    let us = |name| stats::median(&tracer.durations_ms(name)) * 1e3;
    out.set("newtond.parse_request_us", us("newtond.parse_request"));
    out.set("query.parse_us", us("query.parse"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_a_pure_function_of_the_seed() {
        let a: Vec<Step> = Mix::new(5).take(3000).collect();
        assert_eq!(a, Mix::new(5).take(3000).collect::<Vec<_>>());
        assert_ne!(a, Mix::new(6).take(3000).collect::<Vec<_>>());
        let pings = a.iter().filter(|s| **s == Step::Ping).count();
        assert!((440..560).contains(&pings), "about one step in six is a ping, got {pings}");
    }

    #[test]
    fn per_op_metrics_are_in_the_catalog() {
        let names: Vec<&str> =
            crate::report::catalog().per_layer.iter().map(|(n, _)| n.as_str()).collect();
        for (op, _) in KINDS {
            for metric in
                [format!("newtond.rtt_{op}_p50_ms"), format!("newtond.server_{op}_p50_ms")]
            {
                assert!(names.contains(&metric.as_str()), "{metric} is not in BENCHMARK.json");
            }
        }
    }

    #[test]
    fn intents_are_sixteen_valid_texts() {
        let all = intents();
        assert_eq!(all.len(), INTENTS);
        for (name, text) in &all {
            let q = parse_query(name, text).expect("parses");
            assert!(validate(&q).is_empty(), "{name} validates");
        }
        assert_eq!(intents(), all, "intents are fixed");
    }

    #[test]
    fn request_lines_decode_to_their_ops() {
        let ids: Vec<u32> = (1..=INTENTS as u32).collect();
        let all = intents();
        let texts = update_texts(&all);
        for step in Mix::new(1).take(200) {
            for (kind, fields) in requests(step, &ids, &all, &texts) {
                let req = proto::parse_request(&request_line(9, kind, &fields)).expect("decodes");
                assert_eq!(req.id, 9);
            }
        }
    }
}
