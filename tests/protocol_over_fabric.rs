//! Cross-crate integration: the dynamic-switching protocol (§3.4) running
//! over the live fabric — a coordinator thread and one agent thread per
//! destination exchanging real encoded frames, as the deployed system
//! would. The same driver runs over both transports: the synchronous
//! per-send `LiveFabric` and the batched `RingFabric` (stream slicing on
//! the live path). The converged structures must be identical; only the
//! delivery schedule differs.

use std::sync::Arc;
use whale::multicast::{build_nonblocking, run_switch_over_fabric, SwitchDriverReport};
use whale::net::{FabricKind, FabricPath, LiveFabric, RingConfig};
use whale::sim::SimDuration;

fn drive(fabric: Arc<dyn FabricPath>, n: u32, initial_d: u32, new_d: u32) -> SwitchDriverReport {
    let tree = build_nonblocking(n, initial_d);
    let report = run_switch_over_fabric(fabric, &tree, new_d).expect("switch must complete");
    report.new_tree.validate(new_d).expect("planned tree valid");
    report
}

#[test]
fn switch_protocol_converges_over_the_live_fabric() {
    let fabric: Arc<dyn FabricPath> = Arc::new(LiveFabric::new());
    let report = drive(fabric, 20, 5, 2);
    assert!(report.moves > 0, "scale-down must move edges");
    assert!(report.t_switch > SimDuration::ZERO);
    assert!(report.acks_received >= report.moves as u64);
}

#[test]
fn switch_protocol_converges_over_the_ring_fabric() {
    let fabric = FabricKind::Ring(RingConfig::default()).build();
    let report = drive(Arc::clone(&fabric), 20, 5, 2);
    assert!(report.moves > 0);
    assert!(report.t_switch > SimDuration::ZERO);
    // Ring delivery is batched: the agents' own receives must have drained
    // at least one batch to carry the protocol traffic.
    assert!(fabric.stats().flushed_batches > 0, "ring path must batch");
    assert_eq!(fabric.stats().send_errors, 0);
}

#[test]
fn both_transports_agree_on_the_switched_structure() {
    let live: Arc<dyn FabricPath> = Arc::new(LiveFabric::new());
    let a = drive(live, 30, 6, 2);
    let b = drive(FabricKind::Ring(RingConfig::default()).build(), 30, 6, 2);
    // The plan is deterministic and the transport is invisible to it.
    assert_eq!(a.new_tree, b.new_tree);
    assert_eq!(a.moves, b.moves);
    assert_eq!(a.t_switch, b.t_switch, "ACK clock is virtual");
}

#[test]
fn coordinator_metrics_exported_after_the_switch() {
    let fabric: Arc<dyn FabricPath> = Arc::new(LiveFabric::new());
    let report = drive(fabric, 16, 4, 2);
    let m = &report.metrics;
    assert_eq!(m.gauge("multicast.switch.pending_acks"), Some(0.0));
    assert_eq!(m.counter("multicast.switch.moves"), Some(report.moves as u64));
    assert_eq!(
        m.gauge("multicast.switch.t_switch_secs"),
        Some(report.t_switch.as_secs_f64())
    );
    assert_eq!(
        m.counter("multicast.switch.frames_sent"),
        Some(report.frames_sent)
    );
    assert_eq!(
        m.counter("multicast.switch.acks_received"),
        Some(report.acks_received)
    );
}

#[test]
fn scale_up_also_converges_over_both_transports() {
    let live: Arc<dyn FabricPath> = Arc::new(LiveFabric::new());
    let a = drive(live, 24, 2, 5);
    let b = drive(FabricKind::Ring(RingConfig::default()).build(), 24, 2, 5);
    assert_eq!(a.new_tree, b.new_tree);
}
