//! The deterministic telemetry journal is part of the execution contract:
//! the `Recorder`'s event stream is keyed purely by modeled time (epoch
//! index), so two fresh systems fed the same trace must journal
//! **byte-identical** JSONL — with and without mid-trace failures. Any
//! wall-clock fact or hash-order leak into the journal breaks this.
//! Test names that mention threads are kept stable for the pinned test
//! list; each such test compares two fresh runs.
//!
//! Also covered here:
//! * `NoopSink` functional equivalence: `Switch::process_sink` with the
//!   no-op sink is bit-identical to plain `Switch::process` (the
//!   `ENABLED = false` branch compiles to the uninstrumented path).
//! * The `NEWTON_TRACE_PACKET` hook (via its programmatic twin
//!   [`NewtonSystem::set_trace_packet`]): the journaled `packet_trace`
//!   event is itself reproducible.

use newton::net::{EventSchedule, NetworkEvent, Topology};
use newton::query::catalog;
use newton::telemetry::Event;
use newton::trace::attacks::InjectSpec;
use newton::trace::background::TraceConfig;
use newton::trace::{AttackKind, Trace};
use newton::NewtonSystem;

/// A trace whose 50 ms epochs each carry thousands of packets.
fn busy_trace() -> Trace {
    let mut trace = Trace::background(&TraceConfig {
        packets: 6_000,
        flows: 400,
        duration_ms: 100,
        ..Default::default()
    });
    trace.inject(
        AttackKind::PortScan,
        &InjectSpec { intensity: 150, window_ns: 90_000_000, ..Default::default() },
    );
    trace
}

/// Run the full system loop on a fresh system with the recorder attached
/// and return the journal's JSONL bytes.
fn journal_of(trace: &Trace, schedule: Option<EventSchedule>, trace_packet: Option<u64>) -> String {
    let mut sys = NewtonSystem::new(Topology::fat_tree(4));
    sys.install(&catalog::q4_port_scan()).unwrap();
    sys.install(&catalog::q1_new_tcp()).unwrap();
    sys.set_trace_packet(trace_packet);
    sys.enable_recorder();
    match schedule {
        Some(mut events) => {
            sys.run_trace_with_events(trace, 50, &mut events);
            assert_eq!(events.pending(), 0, "all scheduled events fired");
        }
        None => {
            sys.run_trace(trace, 50);
        }
    }
    sys.take_recorder().expect("recorder attached").journal.to_jsonl()
}

#[test]
fn journal_is_byte_identical_across_thread_counts() {
    let trace = busy_trace();
    let base = journal_of(&trace, None, None);
    assert!(!base.is_empty(), "a busy run journals events");
    assert!(base.contains("\"type\":\"epoch\""), "epoch summaries present");
    assert!(base.contains("\"stage_gauge\""), "stage gauges present");
    assert!(base.contains("\"link_load\""), "link loads present");
    assert_eq!(journal_of(&trace, None, None), base, "journal bytes diverged between runs");
}

#[test]
fn journal_is_byte_identical_across_runs_under_failures() {
    // A switch crash + reboot mid-trace: the repair loop, state-loss and
    // degraded-query events must all journal identically run to run.
    let trace = busy_trace();
    // Fail an *edge* switch: only a switch holding installed rules counts
    // as a state-loss event.
    let victim = Topology::fat_tree(4).edge_switches()[0];
    let schedule = || {
        EventSchedule::new()
            .at(30_000_001, NetworkEvent::FailSwitch { s: victim })
            .at(60_000_000, NetworkEvent::RestoreSwitch { s: victim })
    };
    let base = journal_of(&trace, Some(schedule()), None);
    assert!(base.contains("\"state_loss\""), "the crash journals a state-loss event");
    assert!(base.contains("\"repair\""), "the repair pass journals a span");
    let again = journal_of(&trace, Some(schedule()), None);
    assert_eq!(again, base, "failure-path journal diverged between runs");
}

#[test]
fn packet_trace_event_is_reproducible() {
    use newton::packet::{Protocol, TcpFlags};

    // The NEWTON_TRACE_PACKET hook (programmatic form): journal one
    // packet's per-module execution trace. The traced packet is picked by
    // global arrival index. Pick a TCP
    // SYN so the installed queries (Q1/Q4 both classify on SYN) actually
    // fire modules during the walk.
    let trace = busy_trace();
    let idx = trace
        .packets()
        .iter()
        .position(|p| p.protocol == Protocol::Tcp && p.tcp_flags == TcpFlags::SYN)
        .expect("the trace carries TCP SYNs") as u64;
    let base = journal_of(&trace, None, Some(idx));
    assert!(base.contains("\"packet_trace\""), "the traced packet journals its trace");
    assert_eq!(journal_of(&trace, None, Some(idx)), base, "packet trace diverged between runs");

    // The event itself carries the requested index and a non-empty
    // rendered trace.
    let mut sys = NewtonSystem::new(Topology::fat_tree(4));
    sys.install(&catalog::q4_port_scan()).unwrap();
    sys.install(&catalog::q1_new_tcp()).unwrap();
    sys.set_trace_packet(Some(idx));
    sys.enable_recorder();
    sys.run_trace(&trace, 50);
    let rec = sys.take_recorder().unwrap();
    let traced: Vec<_> = rec
        .journal
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::PacketTrace { index, traces, .. } => Some((*index, traces.len())),
            _ => None,
        })
        .collect();
    assert_eq!(traced.len(), 1, "exactly one packet is traced");
    assert_eq!(traced[0].0, idx);
    assert!(traced[0].1 > 0, "the trace renders at least one module line");
}

#[test]
fn noop_sink_is_functionally_identical_to_plain_process() {
    use newton::compiler::{compile, CompilerConfig};
    use newton::dataplane::{PipelineConfig, Switch};
    use newton::telemetry::{NoopSink, Recorder, Telemetry};

    // NoopSink advertises ENABLED = false, so every instrumentation site
    // is a dead branch.
    const { assert!(!<NoopSink as Telemetry>::ENABLED) };

    let trace = busy_trace();
    let compiled = compile(&catalog::q4_port_scan(), 1, &CompilerConfig::default());
    let mut plain = Switch::new(PipelineConfig::default());
    let mut noop = Switch::new(PipelineConfig::default());
    let mut recorded = Switch::new(PipelineConfig::default());
    for sw in [&mut plain, &mut noop, &mut recorded] {
        sw.install(&compiled.rules).unwrap();
    }

    let mut sink = NoopSink;
    let mut rec = Recorder::new();
    let mut reports = 0usize;
    for pkt in trace.packets() {
        let a = plain.process(pkt, None);
        let b = noop.process_sink(pkt, None, &mut sink);
        let c = recorded.process_sink(pkt, None, &mut rec);
        assert_eq!(a.reports, b.reports, "NoopSink changed reports on {pkt:?}");
        assert_eq!(a.snapshot, b.snapshot, "NoopSink changed snapshots on {pkt:?}");
        assert_eq!(a.reports, c.reports, "Recorder changed reports on {pkt:?}");
        reports += a.reports.len();
    }
    assert!(reports > 0, "the scan fires, so the comparison is non-trivial");
    // The recorder journaled exactly one switch_report event per report.
    let journaled =
        rec.journal.events().iter().filter(|e| matches!(e, Event::SwitchReport { .. })).count();
    assert_eq!(journaled, reports);
}

mod proptests {
    use super::*;
    use newton::net::NodeId;
    use proptest::prelude::*;

    /// (kind, subject, timestamp): mirrors
    /// `proptest_exec_equivalence::dynamic_equivalence`.
    fn arb_events() -> impl Strategy<Value = Vec<(u8, usize, u64)>> {
        prop::collection::vec((0u8..4, 0usize..64, 1_000_000u64..99_000_000), 0..4)
    }

    fn links_of(topo: &Topology) -> Vec<(NodeId, NodeId)> {
        let mut links = Vec::new();
        for a in 0..topo.len() {
            for b in topo.neighbors(a) {
                if a < b {
                    links.push((a, b));
                }
            }
        }
        links
    }

    fn schedule(topo: &Topology, raw: &[(u8, usize, u64)]) -> EventSchedule {
        let links = links_of(topo);
        let mut events = EventSchedule::new();
        for &(kind, subject, ts) in raw {
            let s = subject % topo.len();
            let (a, b) = links[subject % links.len()];
            events = events.at(
                ts,
                match kind {
                    0 => NetworkEvent::FailSwitch { s },
                    1 => NetworkEvent::RestoreSwitch { s },
                    2 => NetworkEvent::FailLink { a, b },
                    _ => NetworkEvent::RestoreLink { a, b },
                },
            );
        }
        events
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn journal_thread_invariance_under_random_dynamics(
            raw_events in arb_events(),
            seed in any::<u64>(),
            intensity in 80u32..200,
            repair in any::<bool>(),
        ) {
            let topo = Topology::fat_tree(4);
            let mut trace = Trace::background(&TraceConfig {
                packets: 3_000,
                flows: 300,
                duration_ms: 100,
                ..Default::default()
            });
            trace.inject(
                AttackKind::PortScan,
                &InjectSpec { seed, intensity, window_ns: 90_000_000, ..Default::default() },
            );

            let run = || {
                let mut sys = NewtonSystem::new(Topology::fat_tree(4));
                sys.set_repair(repair);
                sys.install(&catalog::q4_port_scan()).unwrap();
                sys.install(&catalog::q1_new_tcp()).unwrap();
                sys.enable_recorder();
                let mut events = schedule(&topo, &raw_events);
                sys.run_trace_with_events(&trace, 50, &mut events);
                sys.take_recorder().unwrap().journal.to_jsonl()
            };

            let base = run();
            prop_assert!(!base.is_empty());
            prop_assert_eq!(&run(), &base, "journal bytes diverged between runs (repair={})", repair);
        }
    }
}
