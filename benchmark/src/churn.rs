//! `churn_256`: control-plane churn through `NewtonSystem`, no packets.
//!
//! 256 renamed Q1–Q9 structures are installed on `fat_tree(4)` through the
//! calls `newtond` makes, then one closed-loop caller plays a Zipf(1.1)
//! stream of update, retune and remove+reinstall ops in a 4:2:1 mix. One
//! op is one of those three; a remove+reinstall is one op of two calls.
//!
//! Correctness: every update keeps its id, and at the end every switch's
//! `config_digest` equals that of a twin that installs the final query
//! set from scratch on a fresh network (checked outside the timed
//! region; see [`check_against_twin`]).

use std::hint::black_box;
use std::time::Instant;

use newton::compiler::CompilerConfig;
use newton::controller::place_query;
use newton::dataplane::{PipelineConfig, QueryId};
use newton::metrics::MetricsRegistry;
use newton::net::{Network, Topology};
use newton::query::{catalog, Merge, Primitive, Query};
use newton::trace::zipf::Zipf;
use newton::NewtonSystem;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::Outcome;
use crate::spans::Tracer;
use crate::{stats, Args};

/// Live queries in the population.
pub const POPULATION: usize = 256;
const STAGES: usize = 12;
/// Threshold shifts an update applies (structure-preserving variants).
const DELTAS: [u64; 4] = [0, 5, 10, 15];
/// Population builds timed for `setup_s` (the median is reported).
const SETUP_REPS: usize = 5;
/// Ops the traced run plays per measured second. The count depends only
/// on `--seconds`, so the traced run's work counts repeat exactly for a
/// seed.
const TRACED_OPS_PER_S: f64 = 30.0;
/// Repetitions of each side call in the traced run.
const SIDE_REPS: usize = 3;

/// One churn operation on population member `rank`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Re-submit the member as the threshold variant `DELTAS[preset]`.
    Update { rank: usize, preset: usize },
    /// Retune the member's reporting threshold in place.
    Retune { rank: usize, threshold: u64 },
    /// Remove the member and install it again (a fresh id).
    Cycle { rank: usize },
}

/// The seeded op stream: Zipf(1.1) over ranks, 4:2:1 update:retune:cycle.
/// An update always moves its member to a different threshold preset, so
/// no update re-submits the query the member already runs.
pub struct OpStream {
    zipf: Zipf,
    rng: StdRng,
    /// Each member's current preset (0 is the base query).
    preset: Vec<usize>,
}

impl OpStream {
    pub fn new(seed: u64) -> Self {
        OpStream {
            zipf: Zipf::new(POPULATION, 1.1),
            rng: StdRng::seed_from_u64(seed),
            preset: vec![0; POPULATION],
        }
    }
}

impl Iterator for OpStream {
    type Item = Op;
    fn next(&mut self) -> Option<Op> {
        let rank = self.zipf.sample(&mut self.rng);
        Some(match self.rng.gen_range(0..7u8) {
            0..=3 => {
                let step = 1 + self.rng.gen_range(0..DELTAS.len() as u32 - 1) as usize;
                self.preset[rank] = (self.preset[rank] + step) % DELTAS.len();
                Op::Update { rank, preset: self.preset[rank] }
            }
            4 | 5 => Op::Retune { rank, threshold: 15 + self.rng.gen_range(0..45u32) as u64 },
            _ => {
                self.preset[rank] = 0;
                Op::Cycle { rank }
            }
        })
    }
}

/// The population: catalog structures round-robin, renamed per member.
pub fn population() -> Vec<Query> {
    let structures = catalog::all_queries();
    (0..POPULATION)
        .map(|i| {
            let mut q = structures[i % structures.len()].clone();
            q.name = format!("{}#{i}", q.name);
            q
        })
        .collect()
}

/// Shift every reporting threshold by `delta`: each `ResultFilter`, and
/// the merge threshold of a multi-branch query (for `And`, the first
/// branch's), so every catalog structure has a real variant.
pub fn with_threshold_delta(query: &Query, delta: u64) -> Query {
    let mut q = query.clone();
    for b in &mut q.branches {
        for p in &mut b.primitives {
            if let Primitive::ResultFilter { value, .. } = p {
                *value += delta;
            }
        }
    }
    match &mut q.merge {
        Some(Merge::Combine { value, .. }) | Some(Merge::And { left: (_, value), .. }) => {
            *value += delta
        }
        None => {}
    }
    q
}

/// A fresh system: churn-scale rule tables (the default 256-rule capacity
/// caps out near 200 concurrent queries) and one register slot per member.
fn fresh_system() -> NewtonSystem {
    let pipeline = PipelineConfig { rule_capacity: 4096, ..PipelineConfig::default() };
    let mut sys = NewtonSystem::with_config_slots(
        Topology::fat_tree(4),
        pipeline,
        CompilerConfig::default(),
        STAGES,
        POPULATION as u32,
    );
    sys.enable_metrics(&MetricsRegistry::new());
    sys
}

/// System build plus the population's installs, each in a span.
fn build(pop: &[Query], tracer: &mut Tracer) -> (NewtonSystem, Vec<QueryId>) {
    let mut sys = fresh_system();
    let ids = pop
        .iter()
        .enumerate()
        .map(|(rank, q)| {
            tracer
                .span("controller.install", rank as u64, || sys.install(q))
                .expect("population member installs")
                .id
        })
        .collect();
    (sys, ids)
}

/// Where each member stands after the op stream, for the twin.
#[derive(Debug, Clone, Default)]
struct History {
    /// Ranks cycled, in op order.
    cycles: Vec<usize>,
    /// Per rank: the threshold preset of the last update since its last
    /// cycle, and the threshold of the last retune since either.
    preset: Vec<Option<usize>>,
    retune: Vec<Option<u64>>,
}

impl History {
    fn new() -> Self {
        History {
            cycles: Vec::new(),
            preset: vec![None; POPULATION],
            retune: vec![None; POPULATION],
        }
    }

    fn record(&mut self, op: Op) {
        match op {
            Op::Update { rank, preset } => {
                self.preset[rank] = Some(preset);
                self.retune[rank] = None;
            }
            Op::Retune { rank, threshold } => self.retune[rank] = Some(threshold),
            Op::Cycle { rank } => {
                self.cycles.push(rank);
                self.preset[rank] = None;
                self.retune[rank] = None;
            }
        }
    }
}

/// The run state: system, live ids, precomputed inputs.
struct Churn {
    sys: NewtonSystem,
    ids: Vec<QueryId>,
    pop: Vec<Query>,
    /// `variants[rank][preset]`.
    variants: Vec<Vec<Query>>,
    history: History,
}

impl Churn {
    /// Apply one op; `Err` describes a failure or a broken invariant.
    fn apply(&mut self, op: Op, tracer: &mut Tracer, seq: u64) -> Result<(), String> {
        let result = match op {
            Op::Update { rank, preset } => {
                let variant = &self.variants[rank][preset];
                match tracer
                    .span("controller.update", seq, || self.sys.update(self.ids[rank], variant))
                {
                    Ok(r) if r.id == self.ids[rank] => Ok(()),
                    Ok(r) => Err(format!("update of {} minted id {}", self.ids[rank], r.id)),
                    Err(e) => Err(format!("update of {}: {e}", self.ids[rank])),
                }
            }
            Op::Retune { rank, threshold } => tracer
                .span("controller.retune", seq, || {
                    self.sys.retune_threshold(self.ids[rank], threshold)
                })
                .map(|_| ())
                .map_err(|e| format!("retune of {}: {e}", self.ids[rank])),
            Op::Cycle { rank } => {
                let cycle = tracer.enter("controller.cycle", seq);
                let removed =
                    tracer.span("controller.remove", seq, || self.sys.remove(self.ids[rank]));
                let installed =
                    tracer.span("controller.reinstall", seq, || self.sys.install(&self.pop[rank]));
                tracer.exit(cycle);
                match (removed, installed) {
                    (Some(_), Ok(r)) => {
                        self.ids[rank] = r.id;
                        Ok(())
                    }
                    (None, _) => Err(format!("remove of {} found nothing", self.ids[rank])),
                    (_, Err(e)) => Err(format!("reinstall of rank {rank}: {e}")),
                }
            }
        };
        self.history.record(op);
        result
    }
}

fn net_digests(net: &Network) -> Vec<String> {
    (0..net.switch_count()).map(|s| net.switch(s).config_digest()).collect()
}

/// Rebuild the final query set from scratch on a twin (a fresh system
/// holding the base population, with diff install off) and compare every
/// switch's configuration digest. The twin replays the cycles so it
/// mints the same ids into the same register slots, installs each
/// member's last update as a full remove+reinstall, and reapplies the
/// last retune.
fn check_against_twin(churn: &Churn) -> Result<(), String> {
    let (mut twin, mut twin_ids) = build(&churn.pop, &mut Tracer::off());
    twin.controller_mut().set_diff_install(false);
    let h = &churn.history;
    for &rank in &h.cycles {
        twin.remove(twin_ids[rank]).ok_or("twin remove found nothing")?;
        twin_ids[rank] = twin.install(&churn.pop[rank]).map_err(|e| e.to_string())?.id;
    }
    if twin_ids != churn.ids {
        return Err("twin minted different ids".into());
    }
    for (rank, &id) in twin_ids.iter().enumerate() {
        if let Some(p) = h.preset[rank] {
            twin.update(id, &churn.variants[rank][p]).map_err(|e| e.to_string())?;
        }
        if let Some(t) = h.retune[rank] {
            twin.retune_threshold(id, t).map_err(|e| e.to_string())?;
        }
    }
    let (got, want) = (net_digests(churn.sys.network()), net_digests(twin.network()));
    match got.iter().zip(&want).position(|(a, b)| a != b) {
        Some(sw) => Err(format!("switch {sw} config digest differs from the from-scratch twin")),
        None => Ok(()),
    }
}

pub fn run(args: &Args) -> Outcome {
    let pop = population();
    let variants: Vec<Vec<Query>> =
        pop.iter().map(|q| DELTAS.iter().map(|&d| with_threshold_delta(q, d)).collect()).collect();
    let mut out = Outcome { correct: true, ..Outcome::default() };
    let mut tracer = if args.trace { Tracer::default() } else { Tracer::off() };
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut main = None;
    // The traced run builds once, recording the install spans. Each build
    // drops the last first, so only the measured one is alive.
    for _ in 0..if args.trace { 1 } else { SETUP_REPS } {
        drop(main.take());
        let t = Instant::now();
        main = Some(build(&pop, &mut tracer));
        setup.push(t.elapsed().as_secs_f64());
    }
    let (sys, ids) = main.expect("a measured build");
    let mut churn = Churn { sys, ids, pop, variants, history: History::new() };
    let ctl = churn.sys.controller();
    let (cache0, bytes0) = (ctl.cache_stats(), ctl.channel_stats().bytes);

    let (mut latencies, mut ends) = (Vec::new(), Vec::new());
    let mut ops = OpStream::new(args.seed);
    let traced_ops = ((args.seconds * TRACED_OPS_PER_S).round() as usize).max(1);
    let start = Instant::now();
    loop {
        let done = latencies.len();
        let more = if args.trace {
            done < traced_ops
        } else {
            done == 0 || start.elapsed().as_secs_f64() < args.seconds
        };
        if !more {
            break;
        }
        let op = ops.next().expect("endless stream");
        let t = Instant::now();
        let r = churn.apply(op, &mut tracer, done as u64);
        let took = t.elapsed().as_secs_f64() * 1e3;
        ends.push(start.elapsed().as_secs_f64());
        out.attempted += 1;
        match r {
            Ok(()) => latencies.push(took),
            Err(e) => {
                crate::mismatch(&mut out, &format!("op {done} {op:?}: {e}"));
                out.failed += 1;
                latencies.push(f64::INFINITY);
            }
        }
    }
    let rss_mb = crate::peak_rss_mb();
    let s = stats::closed_loop(&latencies, &ends);
    crate::note_loop("churn_256 op", &s);
    println!("churn_256: {} cycles", churn.history.cycles.len());

    if args.trace {
        let ctl = churn.sys.controller();
        let cache = ctl.cache_stats();
        let (hits, misses) = (cache.hits - cache0.hits, cache.misses - cache0.misses);
        out.set("controller.install_s", tracer.self_s("controller.install"));
        out.set("controller.update_s", tracer.self_s("controller.update"));
        let update = stats::summarize(&tracer.durations_ms("controller.update"));
        out.set("controller.update_p99_ms", update.tail);
        out.set("controller.retune_s", tracer.self_s("controller.retune"));
        let cycle_ms: f64 = tracer.durations_ms("controller.cycle").iter().sum();
        out.set("controller.cycle_s", cycle_ms * 1e-3);
        out.set("compiler.cache_hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
        out.set("controller.channel_bytes", (ctl.channel_stats().bytes - bytes0) as f64);
        out.set("controller.rules_total", churn.sys.network().total_rules() as f64);
        side_calls(&churn, &mut tracer, &mut out);
        crate::write_spans(&tracer, "churn_256", args.seed);
    } else {
        crate::set_loop_metrics(&mut out, &s);
        out.set("setup_s", stats::median(&setup));
        out.set("peak_rss_mb", rss_mb);
    }

    // The twin is built only now, after the peak RSS reading and outside
    // the timed region.
    match check_against_twin(&churn) {
        Ok(()) => println!("churn_256: final config digests match the from-scratch twin"),
        Err(e) => crate::mismatch(&mut out, &e),
    }
    out
}

/// Side calls on population members: a cache-bypassing compile, a
/// placement of its rules, and the network-wide configuration digest.
fn side_calls(churn: &Churn, tracer: &mut Tracer, out: &mut Outcome) {
    let net = churn.sys.network();
    let topo = net.topology();
    let edges = topo.edge_switches();
    let cfg = CompilerConfig::default();
    let structures = catalog::all_queries().len();
    for rep in 0..SIDE_REPS {
        for (rank, q) in churn.pop.iter().take(structures).enumerate() {
            let op = (rep * structures + rank) as u64;
            let compiled = tracer.span("compiler.compile", op, || {
                newton::compiler::compile(q, churn.ids[rank], &cfg)
            });
            let placed = tracer
                .span("controller.place", op, || place_query(&compiled.rules, topo, edges, STAGES));
            black_box((compiled, placed));
        }
        black_box(tracer.span("controller.digest", rep as u64, || net_digests(net)));
    }
    for (metric, span) in [
        ("compiler.compile_ms", "compiler.compile"),
        ("controller.place_ms", "controller.place"),
        ("controller.digest_ms", "controller.digest"),
    ] {
        out.set(metric, stats::median(&tracer.durations_ms(span)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_stream_is_a_pure_function_of_the_seed() {
        let a: Vec<Op> = OpStream::new(9).take(2000).collect();
        let b: Vec<Op> = OpStream::new(9).take(2000).collect();
        assert_eq!(a, b);
        let c: Vec<Op> = OpStream::new(10).take(2000).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn op_mix_is_four_two_one_and_zipf_skewed() {
        let ops: Vec<Op> = OpStream::new(3).take(14_000).collect();
        let count = |f: fn(&Op) -> bool| ops.iter().filter(|o| f(o)).count() as f64;
        let updates = count(|o| matches!(o, Op::Update { .. }));
        let retunes = count(|o| matches!(o, Op::Retune { .. }));
        let cycles = count(|o| matches!(o, Op::Cycle { .. }));
        assert!((updates / cycles - 4.0).abs() < 0.5, "{updates} updates, {cycles} cycles");
        assert!((retunes / cycles - 2.0).abs() < 0.3, "{retunes} retunes, {cycles} cycles");
        let rank0 = ops
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    Op::Update { rank: 0, .. } | Op::Retune { rank: 0, .. } | Op::Cycle { rank: 0 }
                )
            })
            .count();
        assert!(rank0 > ops.len() / 10, "rank 0 is the heaviest Zipf rank");
    }

    #[test]
    fn updates_always_change_the_preset() {
        let mut current = vec![0; POPULATION];
        for op in OpStream::new(4).take(5000) {
            match op {
                Op::Update { rank, preset } => {
                    assert_ne!(current[rank], preset, "update of rank {rank} is a re-submission");
                    current[rank] = preset;
                }
                Op::Cycle { rank } => current[rank] = 0,
                Op::Retune { .. } => {}
            }
        }
    }

    #[test]
    fn every_structure_has_a_real_variant() {
        for q in catalog::all_queries() {
            for d in &DELTAS[1..] {
                assert_ne!(with_threshold_delta(&q, *d), q, "{} has no threshold to shift", q.name);
            }
        }
    }

    #[test]
    fn population_is_fixed_and_renamed() {
        let (a, b) = (population(), population());
        assert_eq!(a.len(), POPULATION);
        assert_eq!(a[10].name, b[10].name);
        assert!(a[10].name.ends_with("#10"));
        assert_eq!(a[0].branches.len(), a[9].branches.len(), "ranks 0 and 9 share a structure");
    }
}
