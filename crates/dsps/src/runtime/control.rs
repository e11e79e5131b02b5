//! The run's control step: the adaptive relay controller (workload
//! monitor → `d*` re-plan → generation switch) and the log replay of a
//! restarted endpoint, one more step of the last executor, ticked when
//! due.

use super::pipeline::Step;
use super::relay::{rack_aware_trees, RelayEpoch, MARKER_RESEND};
use super::reliability;
use super::report::Ctr;
use super::send::Routing;
use crossbeam::channel::Sender;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use whale_multicast::{
    plan_switch, AdjustController, ControllerConfig, Decision, LinkPressure, WorkloadMonitor,
};
use whale_net::{ClusterSpec, EndpointId};
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

/// How often a run without a controller looks for a restarted endpoint.
const REPLAY_POLL: Duration = Duration::from_millis(1);

/// The run's control work, one more step of the last executor, run
/// outside any pipeline (its counts go to the shared slots, and it
/// resolves relay generations under the lock). Each tick, `interval`
/// apart, lets the adaptive controller switch the relay tree and replays
/// the log slice of each endpoint the fault plan has restarted by then.
/// It exits once it has no work left, or once the run handle raises
/// `stop` and the last demoted generation has retired. Dropping it
/// reports it done.
pub(super) struct Control {
    /// The controller and the workload monitor it reads, on an adaptive
    /// run.
    adaptive: Option<(AdjustController, WorkloadMonitor)>,
    /// [`AdaptiveConfig::forced_switches`](super::AdaptiveConfig), and how
    /// many have fired.
    forced: Vec<(u64, u32)>,
    next_forced: usize,
    last_emitted: u64,
    /// A re-planned degree not switched to yet: a switch waits while the
    /// last one's generation is still flushing.
    wanted: Option<u32>,
    /// Restarting endpoints whose log slice is still to be replayed.
    awaiting: Vec<EndpointId>,
    epoch0: Instant,
    /// The controller's sampling interval, or [`REPLAY_POLL`].
    interval: Duration,
    /// When the next tick falls due: the latest its executor parks until.
    pub(super) due: Instant,
    stop: Arc<AtomicBool>,
    done_tx: Sender<()>,
}

impl Control {
    /// The control step of a run over `routing`'s `pipelines`, if it has
    /// control work: an adaptive relay plane, or a logged endpoint the
    /// fault plan crashes and restarts.
    pub(super) fn new(
        routing: &Routing,
        pipelines: usize,
        stop: Arc<AtomicBool>,
        done_tx: Sender<()>,
    ) -> Option<Self> {
        let awaiting = reliability::restarting_endpoints(routing, pipelines);
        let cfg = routing.config.multicast_adaptive.as_ref();
        if cfg.is_none() && awaiting.is_empty() {
            return None;
        }
        let interval = cfg.map_or(REPLAY_POLL, |cfg| cfg.interval);
        let adaptive = routing
            .relay
            .as_ref()
            .filter(|_| cfg.is_some())
            .map(|relay| {
                let workers = routing.placement.workers();
                let config = ControllerConfig::for_queue(QUEUE_CAPACITY, workers);
                let sampled = SimDuration::from_nanos((interval.as_nanos() as u64).max(1));
                (
                    AdjustController::new(config, relay.current().d_star),
                    WorkloadMonitor::new(sampled, ADAPTIVE_ALPHA, T_E_DEFAULT),
                )
            });
        Some(Control {
            adaptive,
            forced: cfg.map_or_else(Vec::new, |cfg| cfg.forced_switches.clone()),
            next_forced: 0,
            last_emitted: 0,
            wanted: None,
            awaiting,
            epoch0: Instant::now(),
            interval,
            due: Instant::now() + interval,
            stop,
            done_tx,
        })
    }

    /// A tick if one is due. While a demoted generation waits for its
    /// first markers, the step tends its flush and reports progress, so
    /// that it runs again next round: the pipelines that still hold the
    /// generation let go of it in their next steps.
    pub(super) fn step(&mut self, routing: &Routing) -> Step {
        let adaptive = self.adaptive.is_some();
        if adaptive && routing.markers_unposted() {
            routing.tend_flush();
            return Step::Progressed;
        }
        let now = Instant::now();
        if self.stop.load(Ordering::Relaxed) {
            // The producers are done: no more ticks, but the last demoted
            // generation retires while the pipelines that forward its
            // markers still run.
            if !adaptive || routing.tend_flush() {
                return Step::Exited;
            }
            self.due = now + MARKER_RESEND / 10;
            return Step::Idle;
        }
        if now < self.due {
            return Step::Idle;
        }
        self.due = now + self.interval;
        if adaptive {
            self.tick(routing);
        }
        if let Some(fault) = &routing.fault {
            self.awaiting.retain(|&ep| {
                let back = fault.restarted(ep);
                if back {
                    reliability::replay_endpoint(routing, ep);
                }
                !back
            });
        }
        if !adaptive && self.awaiting.is_empty() {
            return Step::Exited;
        }
        Step::Idle
    }

    /// One controller interval: re-send the overdue markers of a flushing
    /// tree generation, sample the live workload (λ from spout emissions,
    /// queue length from the fabric's transfer queue plus the acker's
    /// pending trees), and let the self-adjusting controller re-plan `d*`;
    /// a changed target triggers a generation switch, deferred while the
    /// last switch's generation is still flushing. Forced switches (when
    /// configured) replace the controller with deterministic thresholds
    /// on `spout_emitted` — benchmarks and tests use those to make
    /// switching reproducible.
    fn tick(&mut self, routing: &Routing) {
        routing.tend_flush();
        let emitted = routing.stats.get(Ctr::spout_emitted);
        let target = match &mut self.adaptive {
            Some((controller, monitor)) if self.forced.is_empty() => {
                monitor.record_arrivals(emitted.saturating_sub(self.last_emitted));
                let now = SimTime::from_nanos(self.epoch0.elapsed().as_nanos() as u64);
                let queue_len = routing.fabric.stats().queue_depth as usize
                    + routing.max_inbox_depth()
                    + (routing.ack.as_ref())
                        .map_or(0, |a| a.gauges.pending.load(Ordering::Relaxed) as usize);
                let report = monitor.sample_with_links(now, queue_len, routing.link_pressure());
                match controller.decide(&report) {
                    Decision::Hold => None,
                    Decision::ScaleDown { d_star } | Decision::ScaleUp { d_star } => Some(d_star),
                }
            }
            _ => {
                let mut t = None;
                while let Some(&(at, d)) = self.forced.get(self.next_forced) {
                    if emitted < at {
                        break;
                    }
                    t = Some(d);
                    self.next_forced += 1;
                }
                t
            }
        };
        self.last_emitted = emitted;
        self.wanted = target.map(|d| d.max(1)).or(self.wanted);
        if let (Some(new_d), Some(relay)) = (self.wanted, &routing.relay) {
            if new_d == relay.current().d_star || switch_structure(routing, new_d) {
                self.wanted = None;
            }
        }
    }
}

impl Drop for Control {
    fn drop(&mut self) {
        let _ = self.done_tx.send(());
    }
}

/// Reconfigure the relay plane to out-degree `new_d`: plan the per-origin
/// moves, publish the new generation and start the old one's flush by
/// end-of-generation markers — at once if nothing else holds it, else by a
/// later [`Routing::tend_flush`]. It never waits. Frames on the demoted
/// generation are accepted until every node has its markers. Returns
/// false, having switched nothing, while the last switch's generation is
/// still flushing (its flush is tended instead): at most two generations
/// are ever live.
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
    // The markers wait for every reference but the demoted slot's.
    drop(cur);
    relay.publish(Arc::new(next));
    routing.stats.add(Ctr::relay_switches, 1);
    routing.stats.add(Ctr::relay_switch_moves, total_moves);
    routing.tend_flush();
    true
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use whale_net::TopologyConfig;

    /// `topology` under `config`, on `executors` executors (`None`: one
    /// per core) and on a thread of its own, so that a run that hangs
    /// fails the test instead.
    fn run_in_time(
        topology: Topology,
        operators: Operators,
        config: LiveConfig,
        executors: Option<usize>,
    ) -> RunReport {
        let (tx, rx) = crossbeam::channel::bounded(1);
        std::thread::spawn(move || {
            let _ = tx.send(match executors {
                Some(n) => run_on(topology, operators, config, n),
                None => run_topology(topology, operators, config),
            });
        });
        rx.recv_timeout(Duration::from_secs(30))
            .expect("the run ends in time")
    }

    /// Each switch of `r` retired its demoted generation well before a
    /// park could have timed out: no switch waited on a park.
    fn assert_switches_were_prompt(r: &RunReport) {
        let t_switch = Duration::from_nanos(r.relay_retire_ns.iter().sum());
        let cap = super::super::executor::PARK_CAP * r.relay_switches as u32 / 2;
        assert!(
            t_switch < cap,
            "T_switch {t_switch:?} over {} switches",
            r.relay_switches
        );
    }

    /// Phase-shift the tree mid-run (d* 1 → 4) on `executors` executors:
    /// every broadcast still reaches every instance, nothing lands on a
    /// retired generation.
    fn forced_switch_keeps_every_delivery(executors: Option<usize>) -> RunReport {
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
        let config = LiveConfig {
            machines: 8,
            multicast_d_star: Some(1),
            multicast_adaptive: Some(AdaptiveConfig {
                interval: Duration::from_millis(1),
                forced_switches: vec![(30, 4)],
                ..AdaptiveConfig::default()
            }),
            ..LiveConfig::default()
        };
        let r = run_in_time(t, ops, config, executors);
        assert_eq!(r.executed[1], 100 * 16, "no broadcast lost to the switch");
        assert!(r.relay_switches >= 1, "the forced switch must fire");
        assert!(r.relay_switch_moves > 0, "d* 1→4 moves instances");
        assert_eq!(r.relay_d_star, 4);
        assert!(r.relay_epoch >= 1);
        assert!(r.relay_forwards > 0);
        assert_eq!(r.relay_stale_drops, 0, "drained switch drops nothing");
        assert_eq!(r.outcome, RunOutcome::Clean);
        r
    }

    #[test]
    fn adaptive_forced_switch_keeps_every_delivery() {
        forced_switch_keeps_every_delivery(None);
    }

    #[test]
    fn a_forced_switch_on_one_executor_keeps_every_delivery() {
        // The executor that switches also steps every pipeline holding
        // the demoted generation: a switch that waited for them to let go
        // would wait forever.
        let r = forced_switch_keeps_every_delivery(Some(1));
        assert_switches_were_prompt(&r);
    }

    #[test]
    fn a_forced_switch_between_two_saturating_spout_steps_keeps_each_run_on_one_generation() {
        // A prompt spout relays a run of up to a batch's worth of records
        // each step. On one executor the control step, and the switch
        // with it, falls between two of the spout's steps: a run that
        // straddled it would carry records of both generations in one
        // frame, which its receivers drop (`dropped_frames`), or be sent
        // after the demoted generation's markers (`relay_stale_drops`).
        const TUPLES: u64 = 20_000;
        let mut b = crate::topology::TopologyBuilder::new();
        b.spout("src", 1, Schema::new(vec!["n"]))
            .bolt("fan", 16, Schema::new(vec!["n"]))
            .connect("src", "fan", Grouping::All);
        let ops = Operators::new()
            .spout("src", |_| {
                let tuples = (0..TUPLES).map(|i| Tuple::with_id(i, vec![Value::I64(i as i64)]));
                Box::new(IterSpout::new(tuples))
            })
            .bolt("fan", |_| {
                Box::new(FnBolt::new(|_t: &Tuple, _out: &mut dyn Emitter| {}))
            });
        let config = LiveConfig {
            machines: 8,
            multicast_d_star: Some(1),
            multicast_adaptive: Some(AdaptiveConfig {
                interval: Duration::from_millis(1),
                forced_switches: vec![(TUPLES / 10, 4)],
                ..AdaptiveConfig::default()
            }),
            ..LiveConfig::default()
        };
        let r = run_in_time(b.build().unwrap(), ops, config, Some(1));
        assert_eq!(r.outcome, RunOutcome::Clean);
        assert_eq!(r.executed[1], TUPLES * 16, "every broadcast, once each");
        assert_eq!((r.relay_switches, r.relay_retire_ns.len()), (1, 1));
        assert_eq!((r.relay_stale_drops, r.dropped_frames), (0, 0));
        // Seven tree edges, far fewer frames than tuples on each.
        assert!(
            r.fabric_messages < TUPLES * 7 / 8,
            "{} frames",
            r.fabric_messages
        );
        assert_switches_were_prompt(&r);
    }

    /// Two spouts, on workers 0 and 1, broadcast 100 tuples each; the
    /// forced switch lands a handful of tuples before both finish, so each
    /// EOS waits on its own origin's tree of the demoted generation — and
    /// is sent, by its pipeline, once that flushed.
    fn spouts_finishing_right_after_a_switch(executors: Option<usize>) -> RunReport {
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
        let config = LiveConfig {
            machines: 4,
            multicast_d_star: Some(1),
            multicast_adaptive: Some(AdaptiveConfig {
                interval: Duration::from_millis(1),
                forced_switches: vec![(190, 3)],
                ..AdaptiveConfig::default()
            }),
            ..LiveConfig::default()
        };
        let r = run_in_time(b.build().unwrap(), ops, config, executors);
        assert_eq!(r.outcome, RunOutcome::Clean);
        assert_eq!(r.executed[1], 200 * 16, "every broadcast, once each");
        assert_eq!(r.relay_switches, 1);
        assert_eq!(r.relay_retire_ns.len(), 1, "the demoted generation retired");
        assert_eq!(r.relay_stale_drops, 0);
        r
    }

    #[test]
    fn spouts_on_two_workers_finishing_right_after_a_switch_end_clean() {
        spouts_finishing_right_after_a_switch(None);
    }

    #[test]
    fn spouts_on_one_executor_finishing_right_after_a_switch_end_clean() {
        let r = spouts_finishing_right_after_a_switch(Some(1));
        assert_switches_were_prompt(&r);
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
