//! Fig. 9-style failure timeline, scripted end to end: a switch that is
//! the *sole* holder of a query slice crashes mid-trace, reboots blank,
//! and only the controller's repair loop brings detection back.
//!
//! Topology: one monitored edge (switch 0) with two redundant paths to
//! the egress — so routing survives everything except the monitored
//! edge itself dying:
//!
//! ```text
//!        1 --- 3
//!       /       \
//!      0         5        edge-marked: {0}
//!       \       /
//!        2 --- 4
//! ```
//!
//! Timeline (epoch = 100 ms, four epochs, one port scan per epoch):
//!
//! * epoch 0 — healthy; the scan is detected in hardware.
//! * t = 100 ms — `FailSwitch{0}`: the edge reboots, losing its rules
//!   (one state-loss event). Every packet is unrouted (the fixed ingress
//!   is down); the repair pass cannot re-place (no live edge) and
//!   degrades the query to the software interpreter, which still
//!   detects epoch 1's scanner.
//! * t = 200 ms — `RestoreSwitch{0}`: the switch returns *blank*. Repair
//!   re-places the orphaned slice (charging rule-channel delay) and the
//!   software twin retires at the epoch boundary.
//! * epochs 2-3 — detection is back at pre-failure accuracy, in
//!   hardware.
//!
//! Without repair (`set_repair(false)`) the same schedule loses every
//! detection after epoch 0: unrouted during the outage, a blank switch
//! forever after. The with-repair run must also be bit-identical from
//! run to run.

use newton::net::{EventSchedule, NetworkEvent, Topology};
use newton::query::catalog;
use newton::trace::attacks::InjectSpec;
use newton::trace::background::TraceConfig;
use newton::trace::{AttackKind, Trace};
use newton::{HostMapping, NewtonSystem, RunReport};
use std::collections::{BTreeMap, BTreeSet};

const EPOCH_MS: u64 = 100;
// 1 ns past the epoch-0/1 boundary: the crash belongs to epoch 1, so
// epoch 0's end-of-epoch register probe still sees intact state. (An
// event at exactly the boundary fires before the probe — hardware loses
// state before the epoch read-out.)
const FAIL_NS: u64 = 100_000_001;
const RESTORE_NS: u64 = 200_000_000;

/// Two disjoint paths 0→5; only switch 0 is a monitored edge, so it is
/// the sole holder of every query's slice 0.
fn sole_edge_topo() -> Topology {
    let mut t = Topology::new("sole-edge-diamond", 6);
    t.add_link(0, 1);
    t.add_link(0, 2);
    t.add_link(1, 3);
    t.add_link(2, 4);
    t.add_link(3, 5);
    t.add_link(4, 5);
    t.mark_edge(0);
    t
}

/// One port scan per 100 ms epoch (the injector's attacker IP is fixed,
/// so every epoch's scan comes from the same scanner — one incident
/// whose per-epoch coverage is the detection record). Returns
/// (trace, scanner IP).
fn scan_every_epoch() -> (Trace, u32) {
    let mut trace = Trace::background(&TraceConfig {
        packets: 4_000,
        flows: 300,
        duration_ms: 400,
        ..Default::default()
    });
    let mut scanner = 0;
    for epoch in 0..4u64 {
        scanner = trace
            .inject(
                AttackKind::PortScan,
                &InjectSpec {
                    seed: 11 + epoch,
                    intensity: 120,
                    start_ns: epoch * 100_000_000 + 5_000_000,
                    window_ns: 85_000_000,
                },
            )
            .guilty;
    }
    (trace, scanner)
}

fn schedule() -> EventSchedule {
    EventSchedule::new()
        .at(FAIL_NS, NetworkEvent::FailSwitch { s: 0 })
        .at(RESTORE_NS, NetworkEvent::RestoreSwitch { s: 0 })
}

fn run(trace: &Trace, repair: bool) -> (u32, RunReport) {
    let mut sys = NewtonSystem::new(sole_edge_topo());
    sys.set_mapping(HostMapping::Fixed { ingress: 0, egress: 5 });
    sys.set_repair(repair);
    let receipt = sys.install(&catalog::q4_port_scan()).unwrap();
    let mut events = schedule();
    let report = sys.run_trace_with_events(trace, EPOCH_MS, &mut events);
    assert_eq!(events.pending(), 0, "all scheduled events fired");
    (receipt.id, report)
}

/// The scanner's incident for `query`: (first_epoch, last_epoch,
/// epochs_reported) — the per-epoch detection record.
fn scanner_incident(report: &RunReport, query: u32, key: u64) -> (usize, usize, usize) {
    let i = report
        .incidents
        .incidents()
        .into_iter()
        .find(|i| i.query == query && i.key == key)
        .expect("the scanner was detected at least once");
    (i.first_epoch, i.last_epoch, i.epochs_reported)
}

#[test]
fn repair_restores_detection_after_a_switch_reboot() {
    let (trace, scanner) = scan_every_epoch();
    let (id, report) = run(&trace, true);
    assert_eq!(report.epochs.len(), 4);

    // Every epoch detects: epoch 0 in hardware, epoch 1 by the degraded
    // software twin, epochs 2-3 in re-placed hardware at pre-failure
    // accuracy.
    assert_eq!(
        scanner_incident(&report, id, scanner as u64),
        (0, 3, 4),
        "scanner {scanner:#x} must be reported in all four epochs"
    );

    assert_eq!(report.state_loss_events, 1, "the crash wiped installed rules exactly once");
    assert!(report.unrouted > 0, "the outage window dropped traffic at the dead ingress");
    assert_eq!(report.repairs, 1, "the restored-blank switch was re-placed");
    assert!(report.repair_delay_ms > 0.0, "rule pushes cost modelled channel time");
    assert_eq!(
        report.degraded_query_epochs, 1,
        "software degradation covered exactly the outage epoch"
    );
}

#[test]
fn without_repair_the_query_dies_with_its_switch() {
    let (trace, scanner) = scan_every_epoch();
    let (id, report) = run(&trace, false);
    assert_eq!(report.epochs.len(), 4);

    // Epoch 0 is pre-failure and detects; after the crash nothing ever
    // detects again — epoch 1's packets are unrouted and the rebooted
    // switch stays blank for epochs 2-3.
    assert_eq!(
        scanner_incident(&report, id, scanner as u64),
        (0, 0, 1),
        "detection must die with the switch when repair is off"
    );

    assert_eq!(report.state_loss_events, 1);
    assert!(report.unrouted > 0);
    assert_eq!(report.repairs, 0, "repair was disabled");
    assert_eq!(report.repair_delay_ms, 0.0);
    assert_eq!(report.degraded_query_epochs, 0, "no software fallback without the repair loop");
}

#[test]
fn failure_timeline_is_reproducible() {
    // Delivery is single-threaded; two fresh runs must still agree on
    // every detection and every failure/repair counter.
    let (trace, _) = scan_every_epoch();
    let runs: Vec<_> = (0..2)
        .map(|_| {
            let (_, r) = run(&trace, true);
            let reported: BTreeMap<u32, BTreeSet<u64>> =
                r.reported.iter().map(|(&id, keys)| (id, keys.iter().copied().collect())).collect();
            (reported, r)
        })
        .collect();

    let (base_reported, base) = &runs[0];
    let (reported, r) = &runs[1];
    assert!(base.repairs >= 1 && base.unrouted > 0, "scenario exercised the failure path");
    assert_eq!(reported, base_reported, "detections diverged between runs");
    assert_eq!(
        (r.packets, &r.epochs, r.snapshot_bytes, r.messages),
        (base.packets, &base.epochs, base.snapshot_bytes, base.messages),
        "traffic accounting diverged between runs"
    );
    assert_eq!(
        (r.unrouted, r.repairs, r.degraded_query_epochs, r.state_loss_events),
        (base.unrouted, base.repairs, base.degraded_query_epochs, base.state_loss_events),
        "failure accounting diverged between runs"
    );
    assert_eq!(
        r.repair_delay_ms.to_bits(),
        base.repair_delay_ms.to_bits(),
        "repair delay diverged between runs"
    );
}
