//! `stream_q19`: streamed replay through the whole data path.
//!
//! `fat_tree(4)` with the Q1–Q9 catalog installed network-wide streams
//! 50 000-packet, 100 ms segments with PortScan, SynFlood and UdpDdos
//! pulses (the shape of `crates/bench/benches/soak.rs`), under the default
//! `Parallelism` and `ReplayOptions` with a `MetricsRegistry` attached.
//! One op is one `NewtonSystem::run_stream` call over [`SEGMENTS_PER_OP`]
//! segments; op `k` streams its own seed derived from the run seed.
//!
//! The traced run replays each op twice on the same system: once through
//! `run_stream` (untraced), once through [`replay_traced`], which makes
//! the same calls the epoch driver makes, one public crate function at a
//! time, inside spans. Both must report identical per-query key sets.

use std::time::Instant;

use newton::analyzer::Analyzer;
use newton::dataplane::{ModuleAddr, PipelineConfig, QueryId};
use newton::metrics::MetricsRegistry;
use newton::net::{NodeId, Topology};
use newton::packet::Packet;
use newton::query::catalog;
use newton::sketch::hash::mix64;
use newton::sketch::{FastMap, FastSet};
use newton::trace::stream::{PulseSpec, ReplayOptions, StreamConfig, StreamMetrics, StreamReplay};
use newton::trace::{AttackKind, TraceConfig};
use newton::{NewtonSystem, RunReport};

use crate::report::Outcome;
use crate::spans::Tracer;
use crate::{stats, Args};

const SEGMENT_PACKETS: usize = 50_000;
const EPOCH_MS: u64 = 100;
/// Segments streamed by one op (one `run_stream` call): three pulse
/// cycles. The default replay queues `queue_depth + 1` segments before
/// the first buffer comes back, so later segments reuse spent buffers,
/// as a long-running stream does.
pub const SEGMENTS_PER_OP: u64 = 9;
/// Ops the traced run replays per measured second (each is played twice,
/// untraced and traced). The count depends only on `--seconds`, so the
/// traced run's work counts repeat exactly for a seed.
const TRACED_OPS_PER_S: f64 = 0.5;
/// System builds timed for `setup_s` (the median is reported).
const SETUP_REPS: usize = 25;
/// A `next_segment` call that blocks longer than this is a stall.
const STALL_NS: u64 = 100_000;
/// Delivery batches below this size run on one thread, as in the epoch
/// driver. A copy of the private `PAR_BATCH_MIN` in
/// `crates/core/src/system.rs`; it must match that value, or the traced
/// replay times a different thread policy than `run_stream` runs.
const PAR_BATCH_MIN: usize = 256;

/// Per-query reported key sets.
pub type Keys = FastMap<QueryId, FastSet<u64>>;

/// The stream op `op` of a run seeded `seed` replays.
pub fn stream_cfg(seed: u64, op: u64) -> StreamConfig {
    StreamConfig {
        seed: mix64(seed ^ mix64(op.wrapping_add(0x5EED))),
        segments: SEGMENTS_PER_OP,
        segment: TraceConfig {
            packets: SEGMENT_PACKETS,
            flows: 2_000,
            duration_ms: EPOCH_MS,
            ..TraceConfig::default()
        },
        pulses: vec![
            PulseSpec { kind: AttackKind::PortScan, intensity: 300, period: 3, phase: 0 },
            PulseSpec { kind: AttackKind::SynFlood, intensity: 300, period: 3, phase: 1 },
            PulseSpec { kind: AttackKind::UdpDdos, intensity: 300, period: 3, phase: 2 },
        ],
    }
}

/// System build plus initial installs: the Q1–Q9 catalog network-wide,
/// one register slot per query, metrics attached.
fn build_system(registry: &MetricsRegistry) -> NewtonSystem {
    let queries = catalog::all_queries();
    let mut sys = NewtonSystem::with_config_slots(
        Topology::fat_tree(4),
        PipelineConfig::default(),
        newton::compiler::CompilerConfig::default(),
        12,
        queries.len() as u32,
    );
    sys.enable_metrics(registry);
    for q in &queries {
        sys.install(q).expect("the Q1-Q9 catalog installs on fat_tree(4)");
    }
    sys.set_epoch_retention(Some(256));
    sys
}

/// Order-independent digest of per-query key sets.
pub fn keys_digest(keys: &Keys) -> u64 {
    let mut ids: Vec<&QueryId> = keys.keys().collect();
    ids.sort_unstable();
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for id in ids {
        let mut ks: Vec<u64> = keys[id].iter().copied().collect();
        ks.sort_unstable();
        for v in std::iter::once(u64::from(*id)).chain(std::iter::once(ks.len() as u64)).chain(ks) {
            h = mix64(h ^ v);
        }
    }
    h
}

/// The pinned key-set digest of op 0, for seeds in the pinned table.
fn pinned_digest(seed: u64) -> Option<u64> {
    include_str!("../pinned/stream_q19.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .find(|(s, _)| s.parse() == Ok(seed))
        .map(|(_, d)| u64::from_str_radix(d.trim(), 16).expect("pinned digests are hex"))
}

/// Per-op output checks: every epoch counted, nothing unrouted, and the
/// pulse schedule's port scanner reported.
fn check_op(report: &RunReport, cfg: &StreamConfig) -> Result<(), String> {
    if report.epoch_count != cfg.segments {
        return Err(format!("{} epochs for {} segments", report.epoch_count, cfg.segments));
    }
    if report.unrouted != 0 {
        return Err(format!("{} packets unrouted", report.unrouted));
    }
    let scanner = u64::from(cfg.guilty(AttackKind::PortScan).expect("scan pulse present"));
    if !report.reported.values().any(|k| k.contains(&scanner)) {
        return Err(format!("port scanner {scanner:#x} not reported"));
    }
    Ok(())
}

pub fn run(args: &Args) -> Outcome {
    let registry = MetricsRegistry::new();
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut sys = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let built = build_system(&registry);
        setup.push(t.elapsed().as_secs_f64());
        sys = Some(built);
    }
    let mut sys = sys.expect("at least one setup");
    assert!(
        sys.controller().installed().keys().all(|&id| !sys.runs_in_software(id)),
        "every catalog query runs on the data plane"
    );
    let mut out = Outcome { correct: true, ..Outcome::default() };
    if args.trace {
        traced(args, &mut sys, &mut out);
    } else {
        untraced(args, &mut sys, &mut out);
        out.set("setup_s", stats::median(&setup));
    }
    out
}

fn untraced(args: &Args, sys: &mut NewtonSystem, out: &mut Outcome) {
    let opts = ReplayOptions::default();
    let (mut latencies, mut ends) = (Vec::new(), Vec::new());
    let mut first: Option<Keys> = None;
    let start = Instant::now();
    while latencies.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let k = latencies.len() as u64;
        let cfg = stream_cfg(args.seed, k);
        let t = Instant::now();
        let report = sys.run_stream(&cfg, EPOCH_MS, &opts);
        let took = t.elapsed().as_secs_f64() * 1e3;
        ends.push(start.elapsed().as_secs_f64());
        out.attempted += 1;
        match check_op(&report, &cfg) {
            Ok(()) => latencies.push(took),
            Err(e) => {
                crate::mismatch(out, &format!("stream op {k}: {e}"));
                out.failed += 1;
                latencies.push(f64::INFINITY);
            }
        }
        if first.is_none() {
            first = Some(report.reported);
        }
    }
    // Read before the oracles below allocate a materialized trace.
    out.set("peak_rss_mb", crate::peak_rss_mb());
    let s = stats::closed_loop(&latencies, &ends);
    crate::note_loop("stream_q19 op (run_stream call)", &s);
    crate::set_loop_metrics(out, &s);

    // Oracles for op 0, outside the timed region: the materialized replay
    // of the same stream, and the digest pinned for this seed.
    let first = first.expect("at least one op ran");
    let cfg = stream_cfg(args.seed, 0);
    let materialized = sys.run_trace(&cfg.materialize(), EPOCH_MS).reported;
    if materialized != first {
        crate::mismatch(out, "op 0: streamed key sets differ from the materialized replay");
    }
    check_pinned(args.seed, &first, out);
}

fn check_pinned(seed: u64, keys: &Keys, out: &mut Outcome) {
    let digest = keys_digest(keys);
    match pinned_digest(seed) {
        Some(pinned) if pinned != digest => crate::mismatch(
            out,
            &format!("op 0 key-set digest {digest:016x} != pinned {pinned:016x} for seed {seed}"),
        ),
        Some(_) => println!("stream_q19: op 0 key-set digest {digest:016x} matches the pin"),
        None => println!("stream_q19: op 0 key-set digest {digest:016x} (seed {seed} not pinned)"),
    }
}

/// Counters the traced replay accumulates besides its spans.
#[derive(Debug, Default)]
struct ReplayCounts {
    epochs: u64,
    reports: u64,
    snapshot_bytes: u64,
    unrouted: u64,
    stalls: u64,
}

fn traced(args: &Args, sys: &mut NewtonSystem, out: &mut Outcome) {
    let opts = ReplayOptions::default();
    let mut tracer = Tracer::default();
    let mut counts = ReplayCounts::default();
    let registry = MetricsRegistry::new();
    let mut hops = 0;
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let ops = ((args.seconds * TRACED_OPS_PER_S).round() as u64).max(1);
    for k in 0..ops {
        let cfg = stream_cfg(args.seed, k);
        let t = Instant::now();
        let report = sys.run_stream(&cfg, EPOCH_MS, &opts);
        untraced_s += t.elapsed().as_secs_f64();
        out.attempted += 1;
        if let Err(e) = check_op(&report, &cfg) {
            crate::mismatch(out, &format!("stream op {k}: {e}"));
            out.failed += 1;
        }
        let before = forwarded(sys);
        let t = Instant::now();
        let keys = replay_traced(sys, &cfg, &opts, &registry, k, &mut tracer, &mut counts);
        traced_s += t.elapsed().as_secs_f64();
        hops += forwarded(sys) - before;
        if keys != report.reported {
            crate::mismatch(out, &format!("op {k}: traced key sets differ from run_stream"));
        }
        if k == 0 {
            check_pinned(args.seed, &keys, out);
        }
    }
    if counts.epochs != ops * SEGMENTS_PER_OP {
        crate::mismatch(out, &format!("traced replay closed {} epochs", counts.epochs));
    }
    let by_name = tracer.self_time_by_name();
    let layer_ns: u64 =
        by_name.iter().filter(|(n, _)| **n != "stream.segment").map(|(_, t)| t).sum();
    let deliver_s = tracer.self_s("net.deliver");
    out.set("trace.wait_s", tracer.self_s("trace.wait"));
    out.set("trace.stalls", counts.stalls as f64);
    let hits = registry.value("stream_recycle_hits_total").unwrap_or(0);
    let misses = registry.value("stream_recycle_misses_total").unwrap_or(0);
    out.set("trace.recycle_hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
    out.set("core.map_s", tracer.self_s("core.map"));
    out.set("net.deliver_s", deliver_s);
    out.set("net.deliver_ns_per_hop", deliver_s * 1e9 / hops.max(1) as f64);
    out.set("dataplane.hops", hops as f64);
    out.set("dataplane.reports", counts.reports as f64);
    out.set("net.snapshot_bytes", counts.snapshot_bytes as f64);
    out.set("net.unrouted", counts.unrouted as f64);
    out.set("analyzer.ingest_s", tracer.self_s("analyzer.ingest"));
    out.set("analyzer.probe_s", tracer.self_s("analyzer.probe"));
    out.set("net.clear_s", tracer.self_s("net.clear"));
    out.set("stream.unaccounted_frac", 1.0 - layer_ns as f64 * 1e-9 / traced_s);
    out.set("stream.trace_overhead_frac", traced_s / untraced_s - 1.0);
    println!(
        "stream_q19 traced: {ops} ops, traced {traced_s:.3} s vs run_stream \
         {untraced_s:.3} s, {} spans",
        tracer.spans().len()
    );
    crate::write_spans(&tracer, "stream_q19", args.seed);
}

fn forwarded(sys: &NewtonSystem) -> u64 {
    let net = sys.network();
    (0..net.switch_count()).map(|s| net.switch(s).forwarded()).sum()
}

/// One op's stream through the epoch driver's calls, each in a span:
/// `trace` (next segment, recycle), `core` (endpoint mapping), `net`
/// (batched delivery, epoch reset) and `analyzer` (report ingest,
/// epoch-end probe). Returns the per-query key sets.
fn replay_traced(
    sys: &mut NewtonSystem,
    cfg: &StreamConfig,
    opts: &ReplayOptions,
    registry: &MetricsRegistry,
    op: u64,
    tracer: &mut Tracer,
    counts: &mut ReplayCounts,
) -> Keys {
    let mut analyzer = Analyzer::new();
    for (&id, installed) in sys.controller().installed() {
        analyzer.register(id, installed.plan.clone());
    }
    let lanes = sys.network().batch_lanes();
    for s in 0..sys.network().switch_count() {
        sys.network_mut().switch_mut(s).reserve_batch(lanes, lanes * 2);
    }
    let threads = sys.parallelism().threads;
    let epoch_ns = EPOCH_MS * 1_000_000;
    let lanes = opts.producers.min(cfg.segments as usize);
    let metrics = StreamMetrics::register(registry, lanes);
    let mut replay = StreamReplay::start_observed(cfg.clone(), opts, metrics);
    let mut keys = Keys::default();
    let mut window: Option<u64> = None;
    let mut index = op * SEGMENTS_PER_OP;
    loop {
        let root = tracer.enter("stream.segment", index);
        let waited = Instant::now();
        let Some(seg) = tracer.span("trace.wait", index, || replay.next_segment()) else {
            tracer.exit(root);
            break;
        };
        if waited.elapsed().as_nanos() as u64 > STALL_NS {
            counts.stalls += 1;
        }
        let pkts = seg.packets();
        let ends: Vec<(NodeId, NodeId)> =
            tracer.span("core.map", index, || pkts.iter().map(|p| sys.endpoints(p)).collect());
        let mut lo = 0;
        for (i, p) in pkts.iter().enumerate() {
            let w = p.ts_ns / epoch_ns;
            match window {
                Some(open) if open == w => {}
                Some(_) => {
                    deliver(
                        sys,
                        &mut analyzer,
                        &pkts[lo..i],
                        &ends[lo..i],
                        threads,
                        index,
                        tracer,
                        counts,
                    );
                    lo = i;
                    close_epoch(sys, &mut analyzer, &mut keys, threads, index, tracer, counts);
                    window = Some(w);
                }
                None => window = Some(w),
            }
        }
        deliver(sys, &mut analyzer, &pkts[lo..], &ends[lo..], threads, index, tracer, counts);
        tracer.span("trace.recycle", index, || replay.recycle(seg));
        tracer.exit(root);
        index += 1;
    }
    let root = tracer.enter("stream.segment", index);
    close_epoch(sys, &mut analyzer, &mut keys, threads, index, tracer, counts);
    tracer.exit(root);
    keys
}

#[allow(clippy::too_many_arguments)]
fn deliver(
    sys: &mut NewtonSystem,
    analyzer: &mut Analyzer,
    pkts: &[Packet],
    ends: &[(NodeId, NodeId)],
    threads: usize,
    op: u64,
    tracer: &mut Tracer,
    counts: &mut ReplayCounts,
) {
    if pkts.is_empty() {
        return;
    }
    let batch: Vec<(&Packet, NodeId, NodeId)> =
        pkts.iter().zip(ends).map(|(p, &(ig, eg))| (p, ig, eg)).collect();
    let threads = if batch.len() < PAR_BATCH_MIN {
        1
    } else {
        threads.min(newton::net::effective_parallelism())
    };
    let out = tracer
        .span("net.deliver", op, || sys.network_mut().deliver_batch_parallel(&batch, threads));
    counts.reports += out.reports.len() as u64;
    counts.snapshot_bytes += out.snapshot_bytes as u64;
    counts.unrouted += out.unrouted as u64;
    tracer.span("analyzer.ingest", op, || {
        for (_, r) in &out.reports {
            analyzer.ingest(r);
        }
    });
}

fn close_epoch(
    sys: &mut NewtonSystem,
    analyzer: &mut Analyzer,
    keys: &mut Keys,
    threads: usize,
    op: u64,
    tracer: &mut Tracer,
    counts: &mut ReplayCounts,
) {
    let net = sys.network();
    let read = |query: QueryId, slice: usize, addr: ModuleAddr, idx: usize| {
        let mut total: Option<u32> = None;
        for sw in 0..net.switch_count() {
            if let Some(v) = net.switch(sw).read_slice_register(query, slice as u8, addr, idx) {
                total = Some(total.unwrap_or(0).saturating_add(v));
            }
        }
        total
    };
    let epoch = tracer.span("analyzer.probe", op, || analyzer.end_epoch(&read));
    for (id, k) in epoch {
        keys.entry(id).or_default().extend(k);
    }
    tracer.span("net.clear", op, || sys.network_mut().clear_state_parallel(threads));
    counts.epochs += 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_inputs_are_a_pure_function_of_the_seed() {
        let (a, b) = (stream_cfg(7, 3), stream_cfg(7, 3));
        assert_eq!(a.seed, b.seed);
        let (mut pa, mut pb) = (Vec::new(), Vec::new());
        a.segment_into(1, &mut pa);
        b.segment_into(1, &mut pb);
        assert_eq!(pa.len(), pb.len());
        assert!(pa.iter().zip(&pb).all(|(x, y)| x.ts_ns == y.ts_ns && x.src_ip == y.src_ip));
        assert_ne!(stream_cfg(7, 3).seed, stream_cfg(8, 3).seed, "seeds separate runs");
        assert_ne!(stream_cfg(7, 3).seed, stream_cfg(7, 4).seed, "ops separate within a run");
    }

    #[test]
    fn key_digest_ignores_insertion_order() {
        let mut a = Keys::default();
        a.entry(1).or_default().extend([5, 9, 2]);
        a.entry(3).or_default();
        let mut b = Keys::default();
        b.entry(3).or_default();
        b.entry(1).or_default().extend([2, 9, 5]);
        assert_eq!(keys_digest(&a), keys_digest(&b));
        b.entry(3).or_default().insert(4);
        assert_ne!(keys_digest(&a), keys_digest(&b));
    }
}
