//! The repository benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
//!     --workload <stream_q19|churn_256|daemon_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! runs the traced variant and reports the per-layer metrics. Either way
//! the last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`, and any correctness mismatch makes
//! the command exit with code 1. See `README.md` for the metric map.

mod churn;
mod daemon;
mod report;
mod spans;
mod stats;
mod stream;

use std::path::Path;
use std::process::ExitCode;

use report::Outcome;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Record a correctness mismatch: the run's result says `correct: false`
/// and the command exits non-zero.
pub fn mismatch(out: &mut Outcome, what: &str) {
    eprintln!("MISMATCH: {what}");
    out.correct = false;
}

/// Print a closed loop's figures with the sample count and the tail's
/// percentile.
pub fn note_loop(label: &str, s: &stats::LoopStats) {
    let l = &s.latency;
    println!(
        "{label}: {:.4} ops/s, p50 {:.4} ms, p{} {:.4} ms over {} samples ({} tail parts)",
        s.ops_per_s,
        l.median,
        (l.tail_q * 1000.0).round() / 10.0,
        l.tail,
        l.count,
        s.tail_parts
    );
    let rates: Vec<String> = s.chunk_rates.iter().map(|r| format!("{r:.4}")).collect();
    println!("{label}: ops/s per chunk {}", rates.join(" "));
}

/// Set the end-to-end loop metrics.
pub fn set_loop_metrics(out: &mut Outcome, s: &stats::LoopStats) {
    out.set("ops_per_s", s.ops_per_s);
    out.set("op_p50_ms", s.latency.median);
    out.set("op_p99_ms", s.latency.tail);
}

/// Peak resident set size of this process so far, in megabytes.
pub fn peak_rss_mb() -> f64 {
    newton::metrics::peak_rss_bytes() as f64 / 1e6
}

/// Write a traced run's spans under `benchmark/out/`.
pub fn write_spans(tracer: &spans::Tracer, workload: &str, seed: u64) {
    let name = format!("{workload}-seed{seed}.spans.jsonl");
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(name);
    match tracer.write_jsonl(&path) {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("newton-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} cores {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        newton::net::effective_parallelism()
    );
    let out = match args.workload.as_str() {
        "stream_q19" => stream::run(&args),
        "churn_256" => churn::run(&args),
        "daemon_mix" => daemon::run(&args),
        other => {
            eprintln!("newton-benchmark: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    println!("{}", out.to_json(args.trace));
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload churn_256 --seed 42 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("churn_256", 42, 10.0, true)
        );
        assert!(parse_args(&argv("--workload x --trace 2")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload x --seed")).is_err());
    }
}
