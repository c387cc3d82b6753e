//! Shared plumbing for the reproduction harness.
//!
//! Every `benches/figNN.rs` / `benches/table3.rs` target regenerates one
//! table or figure of the paper's evaluation (§6) and prints the same
//! rows/series the paper reports. `cargo bench -p newton-bench` runs them
//! all; see EXPERIMENTS.md for the paper-vs-measured record.

use newton::packet::Packet;
use newton::telemetry::json::{self, Value};
use newton::trace::attacks::InjectSpec;
use newton::trace::{AttackKind, Trace};

/// Print a Markdown-ish table: header row, separator, then rows. The
/// rendering itself lives in `newton-telemetry`, shared with the examples'
/// `--report` output.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    print!("{}", newton::telemetry::render_table(title, header, rows));
}

/// The two evaluation traces (CAIDA-like, MAWI-like) with every attack
/// behaviour injected so all nine queries have signal.
pub fn evaluation_traces(packets: usize) -> Vec<(&'static str, Trace)> {
    let mut out = Vec::new();
    for (name, mut trace) in [
        ("CAIDA-like", newton::trace::caida_like(0xCA1DA, packets)),
        ("MAWI-like", newton::trace::mawi_like(0x3A31, packets)),
    ] {
        for (i, kind) in [
            AttackKind::NewTcpBurst,
            AttackKind::SshBrute,
            AttackKind::SuperSpreader,
            AttackKind::PortScan,
            AttackKind::UdpDdos,
            AttackKind::SynFlood,
            AttackKind::CompletedConns,
            AttackKind::Slowloris,
            AttackKind::DnsNoTcp,
        ]
        .into_iter()
        .enumerate()
        {
            trace.inject(
                kind,
                &InjectSpec {
                    seed: 100 + i as u64,
                    intensity: 150,
                    start_ns: (i as u64 % 5) * 100_000_000,
                    window_ns: 80_000_000,
                },
            );
        }
        out.push((name, trace));
    }
    out
}

/// A many-victim Q1 workload for accuracy experiments: `hosts` servers
/// receive 1..=`max_conns` connection attempts each (uniform spread), so
/// the true heavy-hitter set is dense around the threshold.
pub fn graded_syn_workload(hosts: u32, max_conns: u32, seed: u64) -> Vec<Packet> {
    use newton::packet::{PacketBuilder, TcpFlags};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut packets = Vec::new();
    for h in 0..hosts {
        let conns = 1 + (h * max_conns) / hosts;
        for c in 0..conns {
            packets.push(
                PacketBuilder::new()
                    .src_ip(0x0A00_0000 + rng.gen_range(0..1 << 20))
                    .dst_ip(0xAC10_0000 + h)
                    .src_port(rng.gen_range(1024..u16::MAX))
                    .dst_port(443)
                    .tcp_flags(TcpFlags::SYN)
                    .ts_ns((h as u64 * 131 + c as u64 * 7919) % 99_000_000)
                    .build(),
            );
        }
    }
    packets.sort_by_key(|p| p.ts_ns);
    packets
}

/// The process's peak resident set size in bytes (Linux `VmHWM` from
/// `/proc/self/status`), or `None` where that interface doesn't exist.
/// Benches report this as JSON `null` rather than guessing. One shared
/// reader lives in `newton-metrics` (the daemon polls it into a live
/// `process_peak_rss_bytes` gauge; the soak bench does the same during
/// runs); this wrapper only adds the `Option` for JSON `null`.
pub fn peak_rss_bytes() -> Option<u64> {
    match newton::metrics::peak_rss_bytes() {
        0 => None,
        b => Some(b),
    }
}

/// `x` rounded to `decimals` places, as a JSON number: results files
/// carry the precision a measurement merits, not float noise.
pub fn rounded(x: f64, decimals: i32) -> Value {
    let scale = 10f64.powi(decimals);
    json::num((x * scale).round() / scale)
}

/// Write one bench's results to `BENCH_<name>.json` at the repository
/// root, replacing whatever an earlier run left there. Each bench owns
/// its file, so re-running one bench never touches another's keys.
pub fn write_results(name: &str, members: Vec<(&str, Value)>) {
    let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, render_results(members)).expect("write bench results");
    println!("\nwrote {path}");
}

/// One JSON object, one top-level member per line (diff-friendly), every
/// member rendered by the shared JSON module.
fn render_results(members: Vec<(&str, Value)>) -> String {
    let lines: Vec<String> =
        members.into_iter().map(|(k, v)| format!("  {}: {v}", json::str(k))).collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

/// Pretty format a ratio in scientific-ish notation.
pub fn fmt_ratio(r: f64) -> String {
    if r == 0.0 {
        "0".into()
    } else if r >= 0.01 {
        format!("{r:.4}")
    } else {
        format!("{r:.2e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_formatting() {
        assert_eq!(fmt_ratio(0.0), "0");
        assert_eq!(fmt_ratio(0.0438), "0.0438");
        assert!(fmt_ratio(0.00047).contains('e'), "small ratios use scientific notation");
    }

    #[test]
    fn graded_workload_is_deterministic_and_graded() {
        let a = graded_syn_workload(100, 50, 9);
        let b = graded_syn_workload(100, 50, 9);
        assert_eq!(a, b);
        // Host h receives 1 + h*max/hosts connections: strictly graded.
        let count = |host: u32| a.iter().filter(|p| p.dst_ip == 0xAC10_0000 + host).count();
        assert!(count(99) > count(0));
        assert_eq!(count(0), 1);
    }

    #[test]
    fn peak_rss_is_sane_on_linux() {
        // One read: VmHWM moves while sibling tests allocate. A running
        // test process owns at least a megabyte and well under a terabyte.
        if let Some(b) = peak_rss_bytes() {
            assert!(b > 1 << 20, "VmHWM {b} implausibly small");
            assert!(b < 1 << 40, "VmHWM {b} implausibly large");
        }
    }

    #[test]
    fn results_render_one_member_per_line_and_parse_back() {
        let text = render_results(vec![
            ("rate", rounded(1234.5678, 0)),
            ("ratio", rounded(0.92349, 3)),
            ("note", json::str("a \"quoted\" note")),
            ("sweep", Value::Arr(vec![json::obj(vec![("lanes", json::num(16))])])),
            ("rss", Value::Null),
        ]);
        assert_eq!(
            text,
            "{\n  \"rate\": 1235,\n  \"ratio\": 0.923,\n  \"note\": \"a \\\"quoted\\\" note\",\n  \
             \"sweep\": [{\"lanes\":16}],\n  \"rss\": null\n}\n"
        );
        let v = json::parse(&text).unwrap();
        assert_eq!(v.get("ratio").and_then(Value::as_f64), Some(0.923));
    }

    #[test]
    fn evaluation_traces_cover_all_attacks() {
        let traces = evaluation_traces(2_000);
        assert_eq!(traces.len(), 2);
        for (_, t) in &traces {
            assert_eq!(t.injections().len(), 9, "all nine attack kinds injected");
        }
    }
}
