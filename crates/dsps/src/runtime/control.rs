//! The run's background control thread: the adaptive relay controller
//! (workload monitor → `d*` re-plan → generation switch).

use super::config::AdaptiveConfig;
use super::relay::{rack_aware_trees, RelayEpoch, MARKER_RESEND};
use super::report::Ctr;
use super::send::Routing;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use whale_multicast::{
    plan_switch, AdjustController, ControllerConfig, Decision, LinkPressure, WorkloadMonitor,
};
use whale_net::ClusterSpec;
use whale_sim::{SimDuration, SimTime};

/// EWMA smoothing factor for the controller's arrival-rate estimate λ.
const ADAPTIVE_ALPHA: f64 = 0.3;
/// Per-hop emit-time estimate t_e (seconds) used until calibrated.
const T_E_DEFAULT: f64 = 20e-6;
/// Transfer-queue capacity Q feeding the controller's waterline and the
/// M/D/1 `d*` computation.
const QUEUE_CAPACITY: usize = 1024;
/// Uplink queue depth at which a link counts as hot for the controller's
/// congestion signal.
const HOT_UPLINK_QUEUE: u64 = 256;

impl Routing {
    /// Rack-uplink pressure snapshot for the controller (zeros when no
    /// tracker is installed).
    fn link_pressure(&self) -> LinkPressure {
        match self.tracker.as_deref() {
            Some(t) => LinkPressure {
                max_uplink_queue: t.max_uplink_queue(),
                uplink_bytes: t.uplink_bytes(),
                hot_uplinks: t.hot_uplinks(HOT_UPLINK_QUEUE),
            },
            None => LinkPressure::default(),
        }
    }

    /// The tree-construction inputs when rack-aware relay trees are on:
    /// the cluster spec plus the current per-rack uplink loads.
    fn topo_tree_inputs(&self) -> Option<(&ClusterSpec, Vec<u64>)> {
        let tracker = self.tracker.as_deref()?;
        let topo = self.config.topology()?;
        topo.topo_trees
            .then(|| (tracker.spec(), tracker.uplink_loads()))
    }
}

/// Sleep up to `total`, in small slices, re-checking `stop` between
/// slices, so a long sampling interval never delays shutdown. Returns
/// `true` if the full interval elapsed, `false` if the stop flag cut it
/// short.
pub(super) fn sleep_with_stop(total: Duration, stop: &AtomicBool) -> bool {
    const SLICE: Duration = Duration::from_millis(5);
    let deadline = Instant::now() + total;
    loop {
        if stop.load(Ordering::Relaxed) {
            return false;
        }
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return true;
        }
        std::thread::sleep(remaining.min(SLICE));
    }
}

/// The adaptive controller thread: every interval, re-send the overdue
/// markers of a flushing tree generation, sample the live workload (λ
/// from spout emissions, queue length from the fabric's transfer queue
/// plus the acker's pending trees), and let the self-adjusting controller
/// re-plan `d*`; a changed target triggers a generation switch, deferred
/// while the last switch's generation is still flushing. Forced switches
/// (when configured) replace the controller with deterministic thresholds
/// on `spout_emitted` — benchmarks and tests use those to make switching
/// reproducible. Before the thread exits, the last demoted generation
/// retires: the pipelines that forward its markers run until the fabric
/// closes.
pub(super) fn adaptive_loop(cfg: &AdaptiveConfig, routing: &Routing, stop: &AtomicBool) {
    let relay = routing
        .relay
        .as_ref()
        .expect("adaptive implies relay state");
    let epoch0 = Instant::now();
    let interval = SimDuration::from_nanos((cfg.interval.as_nanos() as u64).max(1));
    let mut monitor = WorkloadMonitor::new(interval, ADAPTIVE_ALPHA, T_E_DEFAULT);
    let mut controller = AdjustController::new(
        ControllerConfig::for_queue(QUEUE_CAPACITY, routing.placement.workers()),
        relay.current().d_star,
    );
    let mut last_emitted = 0u64;
    let mut next_forced = 0usize;
    let mut wanted = None;
    while sleep_with_stop(cfg.interval, stop) {
        routing.tend_flush();
        let emitted = routing.stats.get(Ctr::spout_emitted);
        let target = if cfg.forced_switches.is_empty() {
            monitor.record_arrivals(emitted.saturating_sub(last_emitted));
            let now = SimTime::from_nanos(epoch0.elapsed().as_nanos() as u64);
            let queue_len = routing.fabric.stats().queue_depth as usize
                + routing.max_inbox_depth()
                + (routing.ack.as_ref())
                    .map_or(0, |a| a.gauges.pending.load(Ordering::Relaxed) as usize);
            let report = monitor.sample_with_links(now, queue_len, routing.link_pressure());
            match controller.decide(&report) {
                Decision::Hold => None,
                Decision::ScaleDown { d_star } | Decision::ScaleUp { d_star } => Some(d_star),
            }
        } else {
            let mut t = None;
            while next_forced < cfg.forced_switches.len()
                && emitted >= cfg.forced_switches[next_forced].0
            {
                t = Some(cfg.forced_switches[next_forced].1);
                next_forced += 1;
            }
            t
        };
        last_emitted = emitted;
        wanted = target.map(|d| d.max(1)).or(wanted);
        if let Some(new_d) = wanted {
            if new_d == relay.current().d_star || switch_structure(routing, new_d) {
                wanted = None;
            }
        }
    }
    while !routing.tend_flush() {
        std::thread::sleep(MARKER_RESEND / 10);
    }
}

/// Reconfigure the relay plane to out-degree `new_d`: plan the per-origin
/// moves, publish the new generation and start the old one's flush by
/// end-of-generation markers. Frames on the demoted generation are
/// accepted until every node has its markers. Returns false, having
/// switched nothing, while the last switch's generation is still
/// flushing (its overdue markers are re-sent instead): at most two
/// generations are ever live.
pub(super) fn switch_structure(routing: &Routing, new_d: u32) -> bool {
    let relay = routing
        .relay
        .as_ref()
        .expect("switching implies relay state");
    if !routing.tend_flush() {
        return false;
    }
    let cur = relay.current();
    let mut total_moves = 0u64;
    let trees = if let Some((spec, loads)) = routing.topo_tree_inputs() {
        // Rack-aware rebuild: the new generation's rack entries route
        // over whichever uplinks are coolest *right now*. Moves are the
        // parent changes between generations (same accounting
        // `plan_switch` reports on the oblivious path).
        let next = rack_aware_trees(new_d, &routing.placement, spec, &loads);
        for (old, new) in cur.trees.iter().zip(&next) {
            total_moves += (0..new.n())
                .filter(|&i| old.parent(i) != new.parent(i))
                .count() as u64;
        }
        next
    } else {
        let mut trees = Vec::with_capacity(cur.trees.len());
        for t in &cur.trees {
            let (next, plan) = plan_switch(t, new_d);
            total_moves += plan.moves.len() as u64;
            trees.push(next);
        }
        trees
    };
    let next = RelayEpoch::new(cur.epoch + 1, new_d, trees);
    // The flush waits for every reference but the demoted slot's.
    drop(cur);
    relay.publish(Arc::new(next));
    routing.stats.add(Ctr::relay_switches, 1);
    routing.stats.add(Ctr::relay_switch_moves, total_moves);
    routing.flush_demoted();
    true
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use whale_net::TopologyConfig;

    #[test]
    fn adaptive_forced_switch_keeps_every_delivery() {
        // Phase-shift the tree mid-run (d* 1 → 4): every broadcast still
        // reaches every instance, nothing lands on a retired generation.
        let mut b = crate::topology::TopologyBuilder::new();
        b.spout("src", 1, Schema::new(vec!["n"]))
            .bolt("fan", 16, Schema::new(vec!["n"]))
            .connect("src", "fan", Grouping::All);
        let t = b.build().unwrap();
        let ops = Operators::new()
            .spout("src", |_| {
                Box::new(IterSpout::new((0..100i64).map(|i| {
                    std::thread::sleep(Duration::from_micros(300));
                    Tuple::with_id(i as u64, vec![Value::I64(i)])
                })))
            })
            .bolt("fan", |_| {
                Box::new(FnBolt::new(|_t: &Tuple, _out: &mut dyn Emitter| {}))
            });
        let r = run_topology(
            t,
            ops,
            LiveConfig {
                machines: 8,
                multicast_d_star: Some(1),
                multicast_adaptive: Some(AdaptiveConfig {
                    interval: Duration::from_millis(1),
                    forced_switches: vec![(30, 4)],
                    ..AdaptiveConfig::default()
                }),
                ..LiveConfig::default()
            },
        );
        assert_eq!(r.executed[1], 100 * 16, "no broadcast lost to the switch");
        assert!(r.relay_switches >= 1, "the forced switch must fire");
        assert!(r.relay_switch_moves > 0, "d* 1→4 moves instances");
        assert_eq!(r.relay_d_star, 4);
        assert!(r.relay_epoch >= 1);
        assert!(r.relay_forwards > 0);
        assert_eq!(r.relay_stale_drops, 0, "drained switch drops nothing");
        assert_eq!(r.outcome, RunOutcome::Clean);
    }

    #[test]
    fn spouts_on_two_workers_finishing_right_after_a_switch_end_clean() {
        // Two spouts, on workers 0 and 1, broadcast 100 tuples each; the
        // forced switch lands a handful of tuples before both finish, so
        // each EOS waits on its own origin's tree of the demoted
        // generation — and is sent, by its pipeline, once that flushed.
        let mut b = crate::topology::TopologyBuilder::new();
        b.spout("src", 2, Schema::new(vec!["n"]))
            .bolt("fan", 16, Schema::new(vec!["n"]))
            .connect("src", "fan", Grouping::All);
        let ops = Operators::new()
            .spout("src", |idx| {
                Box::new(IterSpout::new((0..100u64).map(move |i| {
                    std::thread::sleep(Duration::from_millis(1));
                    Tuple::with_id(1_000 * idx as u64 + i, vec![Value::I64(i as i64)])
                })))
            })
            .bolt("fan", |_| {
                Box::new(FnBolt::new(|_t: &Tuple, _out: &mut dyn Emitter| {}))
            });
        let r = run_topology(
            b.build().unwrap(),
            ops,
            LiveConfig {
                machines: 4,
                multicast_d_star: Some(1),
                multicast_adaptive: Some(AdaptiveConfig {
                    interval: Duration::from_millis(1),
                    forced_switches: vec![(190, 3)],
                    ..AdaptiveConfig::default()
                }),
                ..LiveConfig::default()
            },
        );
        assert_eq!(r.outcome, RunOutcome::Clean);
        assert_eq!(r.executed[1], 200 * 16, "every broadcast, once each");
        assert_eq!(r.relay_switches, 1);
        assert_eq!(r.relay_retire_ns.len(), 1, "the demoted generation retired");
        assert_eq!(r.relay_stale_drops, 0);
    }

    #[test]
    fn per_link_byte_sums_tile_the_wire_total() {
        // Every fabric send traverses exactly one link, so the per-link
        // accounting must tile the wire byte total exactly — with the
        // rack-aware trees and with Whale's oblivious trees under the
        // same topology (the regression that caught uplink sends being
        // attributed twice). The rack-aware trees must also move
        // strictly fewer bytes over the uplink: machines alternate racks
        // round-robin, so the oblivious tree crosses racks on most
        // edges while the topo tree enters the far rack exactly once.
        let run_with = |topo_trees: bool| {
            let (t, ops) = counting_topology(8, 16);
            run_topology(
                t,
                ops,
                LiveConfig {
                    machines: 8,
                    multicast_d_star: Some(2),
                    multicast_adaptive: Some(AdaptiveConfig {
                        // No mid-run switches: one deterministic tree.
                        interval: Duration::from_secs(30),
                        topology: Some(TopologyConfig {
                            racks: 2,
                            topo_trees,
                            ..TopologyConfig::default()
                        }),
                        ..AdaptiveConfig::default()
                    }),
                    ..LiveConfig::default()
                },
            )
        };
        let topo = run_with(true);
        let oblivious = run_with(false);
        for r in [&topo, &oblivious] {
            assert_eq!(r.outcome, RunOutcome::Clean);
            assert_eq!(r.executed[1], 100 * 16, "every broadcast lands");
            let linked: u64 = r.link_bytes.iter().map(|(_, b)| b).sum();
            assert_eq!(
                linked,
                r.copied_bytes + r.shared_bytes,
                "per-link sums must tile the wire total exactly"
            );
            assert!(r.uplink_bytes > 0, "cross-rack traffic must register");
            assert!(r.uplink_bytes <= linked);
            let m = r.metrics();
            assert_eq!(m.counter("dsps.links.uplink_bytes"), Some(r.uplink_bytes));
        }
        assert!(
            topo.uplink_bytes < oblivious.uplink_bytes,
            "rack-aware trees must economize the uplink ({} vs {})",
            topo.uplink_bytes,
            oblivious.uplink_bytes
        );
    }

    #[test]
    fn background_threads_shut_down_promptly() {
        // An adaptive interval far longer than the run: the controller
        // used to sleep the whole interval before noticing the stop flag,
        // stalling teardown by up to a full interval.
        let (t, ops) = counting_topology(4, 8);
        let started = Instant::now();
        let r = run_topology(
            t,
            ops,
            LiveConfig {
                machines: 4,
                multicast_adaptive: Some(AdaptiveConfig {
                    interval: Duration::from_secs(30),
                    ..AdaptiveConfig::default()
                }),
                ..LiveConfig::default()
            },
        );
        assert_eq!(r.outcome, RunOutcome::Clean);
        assert_eq!(r.spout_emitted, 100);
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "shutdown must not wait out a 30s sampling interval (took {:?})",
            started.elapsed()
        );
    }
}
