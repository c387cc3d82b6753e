//! Deterministic metrics/event layer for the Newton reproduction.
//!
//! The paper's whole evaluation is a set of *time series* — per-stage
//! resource curves (Figs. 10–13), message overhead over epochs, failure
//! timelines (Fig. 9) — so the runtime needs first-class counters instead
//! of one end-of-run aggregate. This crate provides:
//!
//! * [`Telemetry`] — a sink trait with a zero-overhead [`NoopSink`]
//!   default. `NoopSink` sets `ENABLED = false`, so every instrumentation
//!   site guarded by `if T::ENABLED { ... }` monomorphizes to no code at
//!   all (the perf bench gates this at < 2 % on the pipeline hot path).
//! * [`Recorder`] — the real sink: a structured, **deterministic**
//!   [`Journal`] keyed by modeled time (epoch index / modeled ms, never
//!   wall clock).
//!
//! The journal's hard guarantee: for a fixed trace and event schedule it
//! is byte-identical from run to run. Wall-clock facts never enter it;
//! they belong to the `newton-metrics` registry.

pub mod json;

use json::{num, obj, str, Value};
use std::fmt::Write as _;

/// Query identifier (mirrors `newton-dataplane`'s `QueryId`; kept as a
/// plain `u32` so this crate stays dependency-free).
pub type QueryId = u32;
/// Network node identifier (mirrors `newton-net`'s `NodeId`).
pub type NodeId = usize;

/// One deterministic journal event. Every variant is keyed by modeled
/// time — an epoch index or a modeled rule-channel delay — never by wall
/// clock.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Core: one epoch's aggregate traffic/report counters.
    EpochSummary {
        epoch: u64,
        packets: u64,
        messages: u64,
        message_bytes: u64,
        unrouted: u64,
        snapshot_bytes: u64,
        /// Reported-key count per query this epoch, sorted by query id.
        reported: Vec<(QueryId, u64)>,
    },
    /// Dataplane: per-switch per-stage occupancy and resource
    /// utilization gauge (absolute units, same categories as
    /// `ResourceVector`).
    StageGauge {
        epoch: u64,
        switch: NodeId,
        stage: usize,
        /// Module instances resident in the stage.
        modules: usize,
        /// Table rules installed across those instances.
        rules: usize,
        sram: f64,
        tcam: f64,
        hash_bits: f64,
        salus: f64,
    },
    /// Dataplane: per-switch state-bank counters accumulated over the
    /// epoch (sketch insertions, hash collisions, value evictions).
    StateBank { epoch: u64, switch: NodeId, insertions: u64, collisions: u64, evictions: u64 },
    /// Net: per-link traffic counters for the epoch (canonical link
    /// order `a <= b`, emitted sorted by link key).
    LinkLoad {
        epoch: u64,
        a: NodeId,
        b: NodeId,
        packets: u64,
        payload_bytes: u64,
        snapshot_bytes: u64,
    },
    /// Controller span: a query install (or the install half of an
    /// update), carrying the modeled rule-channel delay.
    Install {
        epoch: u64,
        query: QueryId,
        rules: usize,
        switches: usize,
        slices: usize,
        overflow_slices: usize,
        delay_ms: f64,
    },
    /// Controller span: a query removal.
    Remove { epoch: u64, query: QueryId, rules: usize, switches: usize, delay_ms: f64 },
    /// Controller span: an in-place query update. Keyed to the query's
    /// **stable** id (updates never mint a new one), so a query's journal
    /// trail reads install → update* → remove under a single key.
    /// `diff` tells whether the diff-install path served it; `rules`
    /// counts rules actually moved (removed + installed, 0 for a no-op
    /// diff such as a rename).
    Update {
        epoch: u64,
        query: QueryId,
        rules: usize,
        switches: usize,
        slices: usize,
        diff: bool,
        delay_ms: f64,
    },
    /// Controller span: one repair pass over the live topology.
    Repair {
        epoch: u64,
        examined: usize,
        repaired: Vec<QueryId>,
        degraded: Vec<QueryId>,
        rules_installed: usize,
        switches_touched: usize,
        delay_ms: f64,
    },
    /// A query fell back to the software interpreter (placement no
    /// longer executes on the live data plane).
    QueryDegraded { epoch: u64, query: QueryId },
    /// A degraded query's hardware placement was restored; the software
    /// twin retires at this epoch boundary.
    QueryHealed { epoch: u64, query: QueryId },
    /// Switch failures that destroyed installed rules this epoch.
    StateLoss { epoch: u64, switches: usize },
    /// Dataplane hot path: one report emitted by the PHV walk
    /// (recorded by `Switch::process_sink` when the sink is enabled).
    SwitchReport { query: QueryId, branch: u8, hash: u32, state: u32 },
    /// One packet's full execution trace (the `NEWTON_TRACE_PACKET`
    /// hook), rendered per query.
    PacketTrace { index: u64, switch: NodeId, traces: Vec<String> },
}

impl Event {
    /// One event as a single JSON object — the same bytes
    /// [`Journal::to_jsonl`] would emit for it (fixed key order, shortest
    /// round-trip floats). Lets streaming consumers (`newtond`
    /// subscribers) forward events one at a time without re-serializing
    /// the whole journal.
    pub fn to_json(&self) -> String {
        self.to_value().to_string()
    }

    /// The event as a JSON tree, for embedding in a larger object (the
    /// `newtond` stream line wraps it).
    pub fn to_value(&self) -> Value {
        let ids = |ids: &[QueryId]| Value::Arr(ids.iter().map(|&id| num(id)).collect());
        let keys = |&(q, n): &(QueryId, u64)| obj(vec![("query", num(q)), ("keys", num(n as f64))]);
        match self {
            Event::EpochSummary {
                epoch,
                packets,
                messages,
                message_bytes,
                unrouted,
                snapshot_bytes,
                reported,
            } => obj(vec![
                ("type", str("epoch")),
                ("epoch", num(*epoch as f64)),
                ("packets", num(*packets as f64)),
                ("messages", num(*messages as f64)),
                ("message_bytes", num(*message_bytes as f64)),
                ("unrouted", num(*unrouted as f64)),
                ("snapshot_bytes", num(*snapshot_bytes as f64)),
                ("reported", Value::Arr(reported.iter().map(keys).collect())),
            ]),
            Event::StageGauge {
                epoch,
                switch,
                stage,
                modules,
                rules,
                sram,
                tcam,
                hash_bits,
                salus,
            } => obj(vec![
                ("type", str("stage_gauge")),
                ("epoch", num(*epoch as f64)),
                ("switch", num(*switch as f64)),
                ("stage", num(*stage as f64)),
                ("modules", num(*modules as f64)),
                ("rules", num(*rules as f64)),
                ("sram", num(*sram)),
                ("tcam", num(*tcam)),
                ("hash_bits", num(*hash_bits)),
                ("salus", num(*salus)),
            ]),
            Event::StateBank { epoch, switch, insertions, collisions, evictions } => obj(vec![
                ("type", str("state_bank")),
                ("epoch", num(*epoch as f64)),
                ("switch", num(*switch as f64)),
                ("insertions", num(*insertions as f64)),
                ("collisions", num(*collisions as f64)),
                ("evictions", num(*evictions as f64)),
            ]),
            Event::LinkLoad { epoch, a, b, packets, payload_bytes, snapshot_bytes } => obj(vec![
                ("type", str("link_load")),
                ("epoch", num(*epoch as f64)),
                ("a", num(*a as f64)),
                ("b", num(*b as f64)),
                ("packets", num(*packets as f64)),
                ("payload_bytes", num(*payload_bytes as f64)),
                ("snapshot_bytes", num(*snapshot_bytes as f64)),
            ]),
            Event::Install { epoch, query, rules, switches, slices, overflow_slices, delay_ms } => {
                obj(vec![
                    ("type", str("install")),
                    ("epoch", num(*epoch as f64)),
                    ("query", num(*query)),
                    ("rules", num(*rules as f64)),
                    ("switches", num(*switches as f64)),
                    ("slices", num(*slices as f64)),
                    ("overflow_slices", num(*overflow_slices as f64)),
                    ("delay_ms", num(*delay_ms)),
                ])
            }
            Event::Remove { epoch, query, rules, switches, delay_ms } => obj(vec![
                ("type", str("remove")),
                ("epoch", num(*epoch as f64)),
                ("query", num(*query)),
                ("rules", num(*rules as f64)),
                ("switches", num(*switches as f64)),
                ("delay_ms", num(*delay_ms)),
            ]),
            Event::Update { epoch, query, rules, switches, slices, diff, delay_ms } => obj(vec![
                ("type", str("update")),
                ("epoch", num(*epoch as f64)),
                ("query", num(*query)),
                ("rules", num(*rules as f64)),
                ("switches", num(*switches as f64)),
                ("slices", num(*slices as f64)),
                ("diff", Value::Bool(*diff)),
                ("delay_ms", num(*delay_ms)),
            ]),
            Event::Repair {
                epoch,
                examined,
                repaired,
                degraded,
                rules_installed,
                switches_touched,
                delay_ms,
            } => obj(vec![
                ("type", str("repair")),
                ("epoch", num(*epoch as f64)),
                ("examined", num(*examined as f64)),
                ("repaired", ids(repaired)),
                ("degraded", ids(degraded)),
                ("rules_installed", num(*rules_installed as f64)),
                ("switches_touched", num(*switches_touched as f64)),
                ("delay_ms", num(*delay_ms)),
            ]),
            Event::QueryDegraded { epoch, query } => obj(vec![
                ("type", str("degraded")),
                ("epoch", num(*epoch as f64)),
                ("query", num(*query)),
            ]),
            Event::QueryHealed { epoch, query } => obj(vec![
                ("type", str("healed")),
                ("epoch", num(*epoch as f64)),
                ("query", num(*query)),
            ]),
            Event::StateLoss { epoch, switches } => obj(vec![
                ("type", str("state_loss")),
                ("epoch", num(*epoch as f64)),
                ("switches", num(*switches as f64)),
            ]),
            Event::SwitchReport { query, branch, hash, state } => obj(vec![
                ("type", str("report")),
                ("query", num(*query)),
                ("branch", num(*branch)),
                ("hash", num(*hash)),
                ("state", num(*state)),
            ]),
            Event::PacketTrace { index, switch, traces } => obj(vec![
                ("type", str("packet_trace")),
                ("index", num(*index as f64)),
                ("switch", num(*switch as f64)),
                ("traces", Value::Arr(traces.iter().map(str).collect())),
            ]),
        }
    }
}

/// A telemetry sink. Instrumentation sites guard event construction with
/// `if T::ENABLED { ... }`; [`NoopSink`] sets the flag to `false` so the
/// whole branch — including event construction — compiles away.
pub trait Telemetry {
    /// Whether this sink observes anything at all.
    const ENABLED: bool = true;
    /// Record one event.
    fn record(&mut self, event: Event);
}

/// The zero-overhead default sink: records nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl Telemetry for NoopSink {
    const ENABLED: bool = false;
    #[inline(always)]
    fn record(&mut self, _event: Event) {}
}

/// The recording sink: a deterministic [`Journal`].
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    pub journal: Journal,
}

impl Recorder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop everything recorded so far.
    pub fn clear(&mut self) {
        self.journal.clear();
    }
}

impl Telemetry for Recorder {
    fn record(&mut self, event: Event) {
        self.journal.push(event);
    }
}

/// The deterministic event journal: an append-only list of [`Event`]s in
/// emission order, exportable as JSONL.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Journal {
    events: Vec<Event>,
}

impl Journal {
    pub fn push(&mut self, event: Event) {
        self.events.push(event);
    }

    pub fn events(&self) -> &[Event] {
        &self.events
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Serialize the journal as JSON Lines: one event per line, keys in
    /// fixed order, floats in Rust's shortest round-trip representation.
    /// Identical event sequences produce identical bytes — this string is
    /// what the thread-count-invariance tests compare.
    pub fn to_jsonl(&self) -> String {
        self.events.iter().map(|e| e.to_json() + "\n").collect()
    }
}

/// Render a Markdown-ish table (right-aligned cells) as a `String`: the
/// shared presentation layer behind every example's `--report` output and
/// the bench harness tables.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n## {title}\n");
    let widths: Vec<usize> = header
        .iter()
        .enumerate()
        .map(|(i, h)| rows.iter().map(|r| r[i].len()).chain([h.len()]).max().unwrap_or(4))
        .collect();
    let fmt_row = |out: &mut String, cells: &[String]| {
        let cells: Vec<String> =
            cells.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}", w = w)).collect();
        let _ = writeln!(out, "| {} |", cells.join(" | "));
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    fmt_row(&mut out, &header_cells);
    let _ = writeln!(
        out,
        "|{}|",
        widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("|")
    );
    for r in rows {
        fmt_row(&mut out, r);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sink_is_disabled_at_compile_time() {
        // The instrumentation idiom: event construction sits behind the
        // const flag, so with NoopSink this entire branch is dead code.
        fn instrument<T: Telemetry>(sink: &mut T) -> bool {
            if T::ENABLED {
                sink.record(Event::StateLoss { epoch: 0, switches: 1 });
                return true;
            }
            false
        }
        assert!(!instrument(&mut NoopSink));
        let mut rec = Recorder::new();
        assert!(instrument(&mut rec));
        assert_eq!(rec.journal.len(), 1);
    }

    /// Golden bytes for one event of every variant: integral, fractional
    /// and zero floats, escaped strings, empty and non-empty id lists, and
    /// counters well past `u32`.
    #[test]
    fn jsonl_is_deterministic_and_escaped() {
        let events = vec![
            Event::EpochSummary {
                epoch: 0,
                packets: (1 << 40) - 1,
                messages: 2,
                message_bytes: 64,
                unrouted: 0,
                snapshot_bytes: 24,
                reported: vec![(1, 3), (4, 1)],
            },
            Event::EpochSummary {
                epoch: 1,
                packets: 0,
                messages: 0,
                message_bytes: 0,
                unrouted: 5,
                snapshot_bytes: 0,
                reported: vec![],
            },
            Event::StageGauge {
                epoch: 2,
                switch: 3,
                stage: 4,
                modules: 2,
                rules: 17,
                sram: 2048.0,
                tcam: 0.0,
                hash_bits: 96.5,
                salus: 1.25,
            },
            Event::StateBank {
                epoch: 2,
                switch: 3,
                insertions: 1 << 40,
                collisions: 7,
                evictions: 0,
            },
            Event::LinkLoad {
                epoch: 2,
                a: 0,
                b: 5,
                packets: 100,
                payload_bytes: 150_000,
                snapshot_bytes: 2400,
            },
            Event::Install {
                epoch: 0,
                query: 1,
                rules: 12,
                switches: 3,
                slices: 1,
                overflow_slices: 0,
                delay_ms: 0.1 + 0.2,
            },
            Event::Remove { epoch: 3, query: 1, rules: 12, switches: 3, delay_ms: 0.0 },
            Event::Update {
                epoch: 3,
                query: 2,
                rules: 0,
                switches: 0,
                slices: 2,
                diff: true,
                delay_ms: 8.0,
            },
            Event::Repair {
                epoch: 4,
                examined: 0,
                repaired: vec![],
                degraded: vec![],
                rules_installed: 0,
                switches_touched: 0,
                delay_ms: 0.0,
            },
            Event::Repair {
                epoch: 5,
                examined: 3,
                repaired: vec![1, 2],
                degraded: vec![7],
                rules_installed: 24,
                switches_touched: 2,
                delay_ms: 12.75,
            },
            Event::QueryDegraded { epoch: 4, query: 7 },
            Event::QueryHealed { epoch: 6, query: 7 },
            Event::StateLoss { epoch: 4, switches: 1 },
            Event::SwitchReport { query: 3, branch: 1, hash: u32::MAX, state: 42 },
            Event::PacketTrace {
                index: 7,
                switch: 0,
                traces: vec!["line1\nline2 \"quoted\" C:\\dir\u{1}\t\r".into(), String::new()],
            },
        ];
        const GOLDEN: &str = concat!(
            r#"{"type":"epoch","epoch":0,"packets":1099511627775,"messages":2,"message_bytes":64,"unrouted":0,"snapshot_bytes":24,"reported":[{"query":1,"keys":3},{"query":4,"keys":1}]}"#,
            "\n",
            r#"{"type":"epoch","epoch":1,"packets":0,"messages":0,"message_bytes":0,"unrouted":5,"snapshot_bytes":0,"reported":[]}"#,
            "\n",
            r#"{"type":"stage_gauge","epoch":2,"switch":3,"stage":4,"modules":2,"rules":17,"sram":2048,"tcam":0,"hash_bits":96.5,"salus":1.25}"#,
            "\n",
            r#"{"type":"state_bank","epoch":2,"switch":3,"insertions":1099511627776,"collisions":7,"evictions":0}"#,
            "\n",
            r#"{"type":"link_load","epoch":2,"a":0,"b":5,"packets":100,"payload_bytes":150000,"snapshot_bytes":2400}"#,
            "\n",
            r#"{"type":"install","epoch":0,"query":1,"rules":12,"switches":3,"slices":1,"overflow_slices":0,"delay_ms":0.30000000000000004}"#,
            "\n",
            r#"{"type":"remove","epoch":3,"query":1,"rules":12,"switches":3,"delay_ms":0}"#,
            "\n",
            r#"{"type":"update","epoch":3,"query":2,"rules":0,"switches":0,"slices":2,"diff":true,"delay_ms":8}"#,
            "\n",
            r#"{"type":"repair","epoch":4,"examined":0,"repaired":[],"degraded":[],"rules_installed":0,"switches_touched":0,"delay_ms":0}"#,
            "\n",
            r#"{"type":"repair","epoch":5,"examined":3,"repaired":[1,2],"degraded":[7],"rules_installed":24,"switches_touched":2,"delay_ms":12.75}"#,
            "\n",
            r#"{"type":"degraded","epoch":4,"query":7}"#,
            "\n",
            r#"{"type":"healed","epoch":6,"query":7}"#,
            "\n",
            r#"{"type":"state_loss","epoch":4,"switches":1}"#,
            "\n",
            r#"{"type":"report","query":3,"branch":1,"hash":4294967295,"state":42}"#,
            "\n",
            r#"{"type":"packet_trace","index":7,"switch":0,"traces":["line1\nline2 \"quoted\" C:\\dir\u0001\t\r",""]}"#,
            "\n",
        );
        let mut j = Journal::default();
        for e in &events {
            j.push(e.clone());
        }
        assert_eq!(j.to_jsonl(), GOLDEN);
        for (e, line) in events.iter().zip(GOLDEN.lines()) {
            assert_eq!(e.to_json(), line, "to_json is one journal line");
        }
    }

    #[test]
    fn table_renderer_right_aligns() {
        let s = render_table(
            "Demo",
            &["name", "rate"],
            &[vec!["a".into(), "10".into()], vec!["long-name".into(), "9".into()]],
        );
        assert!(s.contains("## Demo"));
        assert!(s.contains("|      name | rate |"), "header right-aligned to widest cell: {s}");
        assert!(s.contains("| long-name |    9 |"));
    }
}
