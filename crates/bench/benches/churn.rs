//! Query churn: incremental compile + diff install vs from-scratch.
//!
//! A monitoring deployment does not install its query set once and walk
//! away — operators tighten thresholds, swap variants in and out, and
//! retire queries continuously (§2.1's runtime reconfiguration is the
//! paper's core pitch against recompile-the-world systems). This bench
//! measures what that churn costs on the rule channel:
//!
//! 1. Install a base population of renamed Q1–Q9 catalog structures on a
//!    fat-tree, one register slot each.
//! 2. Play a Zipf-ranked op stream over the population — threshold-variant
//!    updates dominate, in-place retunes ride along, and occasional
//!    remove+reinstall cycles keep id minting honest (the same mix the
//!    churn proptest pins for equivalence).
//! 3. Play the *identical* stream against a twin controller with
//!    `set_diff_install(false)`: every update becomes a full
//!    remove+reinstall — the from-scratch baseline that Sonata-style
//!    systems cannot beat even in spirit.
//!
//! Reported: p50/p99 modelled per-op rule-channel latency on both paths,
//! cumulative rule-channel bytes on both paths (and their ratio), the
//! compilation-cache hit rate, and wall-clock ops/sec. Results go to
//! `BENCH_churn.json` as `churn_*` keys.
//!
//! `NEWTON_PERF_SMOKE=1` shrinks population and stream for CI and gates
//! on the one inequality that makes diff install worth shipping: the diff
//! path must move strictly fewer rule-channel bytes than from-scratch.

use std::time::Instant;

use newton::compiler::CompilerConfig;
use newton::controller::Controller;
use newton::dataplane::{PipelineConfig, QueryId};
use newton::net::{Network, Topology};
use newton::query::{catalog, Primitive, Query};
use newton::telemetry::json::{num, str};
use newton::trace::zipf::Zipf;
use newton_bench::{print_table, rounded, write_results};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const STAGES: usize = 12;
/// Threshold presets the update stream cycles through — structure-
/// preserving, so the diff path touches only ℝ reporting rules and the
/// compilation cache converges on one entry per (structure, preset, slot).
const DELTAS: [u64; 4] = [0, 5, 10, 15];

/// One churn operation over the query population.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Re-submit member `rank` as a threshold variant (`DELTAS[preset]`).
    Update { rank: usize, preset: usize },
    /// Retune member `rank`'s reporting threshold in place.
    Retune { rank: usize, threshold: u64 },
    /// Remove member `rank` and immediately re-install it.
    Cycle { rank: usize },
}

/// The base population: catalog structures round-robin, renamed per slot
/// (the compile cache keys on structure + config, not name, so the
/// renames share cache entries across the population's repeats).
fn population(n: usize) -> Vec<Query> {
    let structures = catalog::all_queries();
    (0..n)
        .map(|i| {
            let mut q = structures[i % structures.len()].clone();
            q.name = format!("{}#{i}", q.name);
            q
        })
        .collect()
}

/// Shift every `ResultFilter` threshold by `delta` — the structure-
/// preserving variant an operator submits to tighten a query. Queries
/// that report via merge thresholds (Q8, Q9) have no `ResultFilter`, so
/// their "variant" is identical — the diff path detects the no-op and
/// moves nothing, while from-scratch pays the full reinstall anyway.
fn with_threshold_delta(query: &Query, delta: u64) -> Query {
    let mut q = query.clone();
    for b in &mut q.branches {
        for p in &mut b.primitives {
            if let Primitive::ResultFilter { value, .. } = p {
                *value += delta;
            }
        }
    }
    q
}

/// Generate the op stream once; both twins play it verbatim.
fn op_stream(ops: usize, n: usize, seed: u64) -> Vec<Op> {
    let zipf = Zipf::new(n, 1.1);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..ops)
        .map(|_| {
            let rank = zipf.sample(&mut rng);
            match rng.gen_range(0..7u8) {
                // Updates dominate (4/7), retunes ride along (2/7), the
                // occasional cycle (1/7) forces the full install path.
                0..=3 => {
                    Op::Update { rank, preset: rng.gen_range(0..DELTAS.len() as u32) as usize }
                }
                4 | 5 => Op::Retune { rank, threshold: 15 + rng.gen_range(0..45u32) as u64 },
                _ => Op::Cycle { rank },
            }
        })
        .collect()
}

struct ChurnRun {
    /// Modelled rule-channel latency per op, milliseconds.
    latencies: Vec<f64>,
    /// Rule-channel bytes over the stream (base install excluded).
    bytes: u64,
    /// Compile-cache hit rate over the whole run.
    cache_hit_rate: f64,
    /// Wall-clock ops/sec playing the stream.
    ops_per_sec: f64,
}

/// Install the population and play `ops`; `diff` selects the update path.
fn run_churn(pop: &[Query], ops: &[Op], diff: bool) -> ChurnRun {
    // A churn-scale population needs churn-scale tables: the default
    // 256-rule capacity models a lean ASIC profile and caps out near 200
    // concurrent queries; provision 4096 so the 512-query population fits
    // with headroom. Register arrays stay at their default.
    let pipeline = PipelineConfig { rule_capacity: 4096, ..PipelineConfig::default() };
    let mut net = Network::new(Topology::fat_tree(4), pipeline);
    let mut ctl = Controller::with_slots(CompilerConfig::default(), 0xC0FFEE, pop.len() as u32);
    ctl.set_diff_install(diff);
    let mut ids: Vec<QueryId> =
        pop.iter().map(|q| ctl.install(q, &mut net, STAGES).unwrap().id).collect();
    // Steady-state accounting: the base install is the same on both paths.
    ctl.reset_channel_stats();

    let mut latencies = Vec::with_capacity(ops.len());
    let start = Instant::now();
    for op in ops {
        let delay = match *op {
            Op::Update { rank, preset } => {
                let variant = with_threshold_delta(&pop[rank], DELTAS[preset]);
                let r = ctl.update(ids[rank], &variant, &mut net, STAGES).unwrap();
                assert_eq!(r.id, ids[rank], "updates never mint a new id");
                r.delay_ms
            }
            Op::Retune { rank, threshold } => {
                ctl.retune_threshold(ids[rank], threshold, &mut net).unwrap().delay_ms
            }
            Op::Cycle { rank } => {
                let removed = ctl.remove(ids[rank], &mut net).unwrap();
                let fresh = ctl.install(&pop[rank], &mut net, STAGES).unwrap();
                ids[rank] = fresh.id;
                removed.delay_ms + fresh.delay_ms
            }
        };
        latencies.push(delay);
    }
    let elapsed = start.elapsed().as_secs_f64();
    ChurnRun {
        latencies,
        bytes: ctl.channel_stats().bytes,
        cache_hit_rate: ctl.cache_stats().hit_rate(),
        ops_per_sec: ops.len() as f64 / elapsed,
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn stats(run: &ChurnRun) -> (f64, f64) {
    let mut s = run.latencies.clone();
    s.sort_by(f64::total_cmp);
    (percentile(&s, 0.50), percentile(&s, 0.99))
}

fn main() {
    let smoke = std::env::var_os("NEWTON_PERF_SMOKE").is_some();
    let (pop_n, ops_n) = if smoke { (64, 200) } else { (512, 2_000) };

    let pop = population(pop_n);
    let ops = op_stream(ops_n, pop_n, 0xC4D4_11CE);
    let diff = run_churn(&pop, &ops, true);
    let scratch = run_churn(&pop, &ops, false);

    let (d50, d99) = stats(&diff);
    let (s50, s99) = stats(&scratch);
    let ratio = diff.bytes as f64 / scratch.bytes as f64;

    print_table(
        &format!("Query churn ({pop_n} queries, {ops_n} ops, Zipf 1.1)"),
        &["Path", "p50 latency", "p99 latency", "Channel bytes", "Cache hits"],
        &[
            vec![
                "diff install".into(),
                format!("{d50:.2} ms"),
                format!("{d99:.2} ms"),
                format!("{}", diff.bytes),
                format!("{:.1}%", diff.cache_hit_rate * 100.0),
            ],
            vec![
                "from scratch".into(),
                format!("{s50:.2} ms"),
                format!("{s99:.2} ms"),
                format!("{}", scratch.bytes),
                format!("{:.1}%", scratch.cache_hit_rate * 100.0),
            ],
        ],
    );
    println!(
        "bytes ratio {ratio:.3} (diff/scratch); {:.0} ops/sec on the diff path",
        diff.ops_per_sec
    );

    // The inequality that justifies the diff path: strictly fewer bytes on
    // the rule channel for the same observable outcome (the churn proptest
    // pins the equivalence; this pins the saving).
    assert!(
        diff.bytes < scratch.bytes,
        "acceptance: diff install must move strictly fewer rule-channel bytes \
         than from-scratch ({} vs {})",
        diff.bytes,
        scratch.bytes,
    );

    if smoke {
        println!("\nsmoke mode: churn gate passed, skipping BENCH_churn.json");
        return;
    }
    write_results(
        "churn",
        vec![
            (
                "churn_workload",
                str(format!(
                    "fat_tree(4), {pop_n} renamed Q1-Q9 structures, {ops_n} Zipf(1.1) \
                     update/retune/cycle ops"
                )),
            ),
            ("churn_install_p50_ms", rounded(d50, 3)),
            ("churn_install_p99_ms", rounded(d99, 3)),
            ("churn_scratch_p50_ms", rounded(s50, 3)),
            ("churn_scratch_p99_ms", rounded(s99, 3)),
            ("churn_diff_bytes", num(diff.bytes as f64)),
            ("churn_scratch_bytes", num(scratch.bytes as f64)),
            ("churn_bytes_ratio", rounded(ratio, 4)),
            ("churn_cache_hit_rate", rounded(diff.cache_hit_rate, 4)),
            ("churn_ops_per_sec", rounded(diff.ops_per_sec, 0)),
        ],
    );
}
