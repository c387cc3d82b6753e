//! Streamed replay is the *same execution* as materialized replay: for
//! any pool shape (inline, one producer, many producers) × queue depth —
//! with or without a failure schedule — `run_stream` must
//! produce a `RunReport` equal field-for-field and a telemetry journal
//! identical byte-for-byte to `run_trace` over the materialized twin of
//! the same `StreamConfig`. Backpressure stalls, producer interleavings,
//! and segment-boundary batch flushes must all be unobservable in modeled
//! time.
//!
//! The epoch length is chosen to NOT divide the segment length, so epoch
//! windows straddle segment boundaries and the mid-window hand-off path
//! is genuinely exercised.

use newton::net::{EventSchedule, NetworkEvent, Topology};
use newton::query::catalog;
use newton::trace::stream::{PulseSpec, ReplayOptions, StreamConfig};
use newton::trace::{AttackKind, TraceConfig};
use newton::{NewtonSystem, RunReport};

/// 4 segments × 3 000 packets of 50 ms each, with a port scan on every
/// segment and a completed-connections pulse on the odd ones.
fn stream_cfg() -> StreamConfig {
    StreamConfig {
        seed: 0xBEEF,
        segments: 4,
        segment: TraceConfig {
            packets: 3_000,
            flows: 200,
            duration_ms: 50,
            ..TraceConfig::default()
        },
        pulses: vec![
            PulseSpec { kind: AttackKind::PortScan, intensity: 200, period: 1, phase: 0 },
            PulseSpec { kind: AttackKind::CompletedConns, intensity: 15, period: 2, phase: 1 },
        ],
    }
}

/// 20 ms epochs over 50 ms segments: every other epoch window crosses a
/// segment boundary.
const EPOCH_MS: u64 = 20;

fn system() -> NewtonSystem {
    let mut sys = NewtonSystem::new(Topology::fat_tree(4));
    sys.install(&catalog::q4_port_scan()).unwrap();
    sys.install(&catalog::q1_new_tcp()).unwrap();
    sys.enable_recorder();
    sys
}

/// A crash + reboot of a rule-holding edge switch, mid-stream.
fn failure_schedule() -> EventSchedule {
    let victim = Topology::fat_tree(4).edge_switches()[0];
    EventSchedule::new()
        .at(60_000_001, NetworkEvent::FailSwitch { s: victim })
        .at(130_000_000, NetworkEvent::RestoreSwitch { s: victim })
}

fn run_materialized(cfg: &StreamConfig, schedule: Option<EventSchedule>) -> (RunReport, String) {
    let trace = cfg.materialize();
    let mut sys = system();
    let report = match schedule {
        Some(mut events) => {
            let r = sys.run_trace_with_events(&trace, EPOCH_MS, &mut events);
            assert_eq!(events.pending(), 0);
            r
        }
        None => sys.run_trace(&trace, EPOCH_MS),
    };
    (report, sys.take_recorder().expect("recorder").journal.to_jsonl())
}

fn run_streamed(
    cfg: &StreamConfig,
    opts: &ReplayOptions,
    schedule: Option<EventSchedule>,
) -> (RunReport, String) {
    let mut sys = system();
    let report = match schedule {
        Some(mut events) => {
            let r = sys.run_stream_with_events(cfg, EPOCH_MS, opts, &mut events);
            assert_eq!(events.pending(), 0);
            r
        }
        None => sys.run_stream(cfg, EPOCH_MS, opts),
    };
    (report, sys.take_recorder().expect("recorder").journal.to_jsonl())
}

#[test]
fn streamed_equals_materialized_across_pool_shapes_and_threads() {
    let cfg = stream_cfg();
    let (base_report, base_journal) = run_materialized(&cfg, None);
    assert!(base_report.packets > 0);
    assert!(base_journal.contains("\"type\":\"epoch\""));
    // The scan fires every segment, so the run genuinely detects.
    let scanner = cfg.guilty(AttackKind::PortScan).unwrap() as u64;
    assert!(
        base_report.reported.values().any(|keys| keys.contains(&scanner)),
        "port scanner not reported"
    );
    // Every streamed pool shape must match the materialized run byte for
    // byte.
    for producers in [0usize, 1, 2] {
        for queue_depth in [1usize, 4, 64] {
            let opts = ReplayOptions { producers, queue_depth };
            let (sr, sj) = run_streamed(&cfg, &opts, None);
            assert_eq!(
                sr, base_report,
                "streamed report diverged: producers={producers} depth={queue_depth}"
            );
            assert_eq!(
                sj, base_journal,
                "streamed journal diverged: producers={producers} depth={queue_depth}"
            );
        }
    }
}

#[test]
fn streamed_equals_materialized_under_failures() {
    let cfg = stream_cfg();
    let (base_report, base_journal) = run_materialized(&cfg, Some(failure_schedule()));
    assert!(base_journal.contains("\"state_loss\""), "crash journals state loss");
    assert!(base_journal.contains("\"repair\""), "repair pass journals a span");
    for queue_depth in [1usize, 4, 64] {
        let opts = ReplayOptions { producers: 1, queue_depth };
        let (sr, sj) = run_streamed(&cfg, &opts, Some(failure_schedule()));
        assert_eq!(sr, base_report, "failure-path report diverged: depth={queue_depth}");
        assert_eq!(sj, base_journal, "failure-path journal diverged: depth={queue_depth}");
    }
}

/// Soak-horizon equivalence: a 16-segment stream (64 000 packets, 40
/// epochs) with THREE full fail/repair cycles spread across it — two
/// victims, overlapping mid-stream — must stay byte-identical to the
/// materialized run at every pool shape tried. This is
/// the long-haul version of `streamed_equals_materialized_under_failures`:
/// repeated repair passes, re-placed slices, and degraded/healed churn
/// accumulate journal state for hundreds of events, so any drift between
/// the streamed and materialized drivers compounds and gets caught.
#[test]
fn soak_stream_with_repeated_failures_matches_materialized_per_pool_shape() {
    let cfg = StreamConfig {
        seed: 0x50AC,
        segments: 16,
        segment: TraceConfig {
            packets: 4_000,
            flows: 300,
            duration_ms: 50,
            ..TraceConfig::default()
        },
        pulses: vec![
            PulseSpec { kind: AttackKind::PortScan, intensity: 150, period: 3, phase: 0 },
            PulseSpec { kind: AttackKind::CompletedConns, intensity: 10, period: 4, phase: 2 },
        ],
    };
    // Three crash/reboot cycles over the 800 ms stream, on two different
    // edge switches; the second victim's outage overlaps a pulse segment.
    let edges = Topology::fat_tree(4).edge_switches().to_vec();
    let (a, b) = (edges[0], edges[1]);
    let schedule = move || {
        EventSchedule::new()
            .at(70_000_001, NetworkEvent::FailSwitch { s: a })
            .at(150_000_000, NetworkEvent::RestoreSwitch { s: a })
            .at(310_000_003, NetworkEvent::FailSwitch { s: b })
            .at(420_000_000, NetworkEvent::RestoreSwitch { s: b })
            .at(585_000_007, NetworkEvent::FailSwitch { s: a })
            .at(730_000_000, NetworkEvent::RestoreSwitch { s: a })
    };

    let (base_report, base_journal) = run_materialized(&cfg, Some(schedule()));
    assert_eq!(base_report.epoch_count, 40, "16 × 50 ms over 20 ms epochs");
    assert!(
        base_report.state_loss_events >= 3,
        "every crash destroys rules: {}",
        base_report.state_loss_events
    );
    assert!(base_report.repairs >= 3, "every cycle repairs: {}", base_report.repairs);
    assert!(base_journal.matches("\"type\":\"repair\"").count() >= 3);

    for opts in [
        ReplayOptions { producers: 0, queue_depth: 1 },
        ReplayOptions { producers: 2, queue_depth: 3 },
    ] {
        let (sr, sj) = run_streamed(&cfg, &opts, Some(schedule()));
        assert_eq!(sr, base_report, "soak streamed report diverged: opts={opts:?}");
        assert_eq!(sj, base_journal, "soak streamed journal diverged: opts={opts:?}");
    }
}

#[test]
fn epoch_retention_keeps_the_tail_and_counts_every_epoch() {
    let cfg = stream_cfg();
    let opts = ReplayOptions::default();
    let full = {
        let mut sys = system();
        sys.run_stream(&cfg, EPOCH_MS, &opts)
    };
    assert_eq!(full.epoch_count as usize, full.epochs.len());
    assert!(full.epoch_count > 3, "enough epochs to trim");
    let trimmed = {
        let mut sys = system();
        sys.set_epoch_retention(Some(3));
        sys.run_stream(&cfg, EPOCH_MS, &opts)
    };
    assert_eq!(trimmed.epoch_count, full.epoch_count, "retention must not change the count");
    assert_eq!(trimmed.epochs.len(), 3);
    assert_eq!(
        trimmed.epochs[..],
        full.epochs[full.epochs.len() - 3..],
        "retention must keep exactly the trailing window"
    );
    // Cumulative totals are checkpoint-independent.
    assert_eq!(trimmed.packets, full.packets);
    assert_eq!(trimmed.messages, full.messages);
    assert_eq!(trimmed.reported, full.reported);
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        #[test]
        fn streamed_replay_is_materialized_replay(
            seed in any::<u64>(),
            intensity in 20u32..120,
            period in 1u64..3,
            producers in 0usize..3,
            queue_depth in 1usize..8,
            fail in any::<bool>(),
        ) {
            let cfg = StreamConfig {
                seed,
                segments: 3,
                segment: TraceConfig {
                    packets: 2_000,
                    flows: 150,
                    duration_ms: 50,
                    ..TraceConfig::default()
                },
                pulses: vec![PulseSpec {
                    kind: AttackKind::PortScan,
                    intensity,
                    period,
                    phase: 0,
                }],
            };
            let schedule = || fail.then(super::failure_schedule);
            let (mr, mj) = run_materialized(&cfg, schedule());
            let opts = ReplayOptions { producers, queue_depth };
            let (sr, sj) = run_streamed(&cfg, &opts, schedule());
            prop_assert_eq!(sr, mr, "report diverged (seed={})", seed);
            prop_assert_eq!(sj, mj, "journal diverged (seed={})", seed);
        }
    }
}
