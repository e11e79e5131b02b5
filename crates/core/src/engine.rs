//! The cluster-scale experiment engine.
//!
//! A discrete-event simulation of the paper's measurement pipeline: a
//! source instance performing one-to-many partitioning to `p` matching
//! instances spread over the cluster, followed by an aggregation sink.
//! Every mode of §5.1 runs through this one world; the differences are
//! confined to what the source pays per tuple (serializations, verbs),
//! how messages fan out (per instance vs per worker), and which relay
//! structure forwards them (star, binomial, non-blocking tree with the
//! self-adjusting controller).
//!
//! Two drive modes:
//! - [`Drive::Saturate`]: the source is never idle — measures capacity
//!   (the paper feeds "the maximum stream rate the system can sustain").
//! - [`Drive::Rate`]: open-loop (Poisson/stepped) arrivals through the
//!   bounded transfer queue — measures queue dynamics, drops, and the
//!   dynamic switching behaviour of Figs 3 and 23–24.

use crate::latency::{LatencyTracker, MulticastTracker};
use crate::modes::SystemMode;
use std::collections::HashMap;
use whale_dsps::CommMode;
use whale_multicast::{
    plan_switch, AdjustController, ControllerConfig, Decision, MulticastTree, Node, Structure,
    WorkloadMonitor,
};
use whale_net::{ClusterSpec, MachineId};
use whale_sim::{
    BoundedQueue, CoreClock, CostModel, CpuAccount, CpuCategory, Engine, MetricsRegistry, Nic,
    PushOutcome, RateMeter, Scheduler, SimDuration, SimRng, SimTime, SimWorld, StopReason,
    TimeSeries, VerbPolicy,
};
use whale_workloads::{ArrivalProcess, RatePlan};

/// How tuples are fed to the source.
#[derive(Clone, Debug)]
pub enum Drive {
    /// Closed loop: the source always has the next tuple ready; processes
    /// exactly `tuples` of them. Measures capacity.
    Saturate {
        /// Number of tuples to push through.
        tuples: u64,
    },
    /// Open loop: arrivals follow `plan` until `horizon`, buffered in the
    /// bounded transfer queue (drops on overflow).
    Rate {
        /// The arrival rate plan.
        plan: RatePlan,
        /// Virtual-time horizon of the run.
        horizon: SimTime,
    },
}

/// Downstream application profile.
///
/// The matching work per broadcast tuple is `fixed + scan_total / p`: each
/// instance holds `1/p` of the state (drivers / order books), so more
/// parallelism means less probe work per instance — the reason Whale's
/// throughput *rises* with parallelism in Figs 13/15 while the upstream
/// bottleneck makes Storm's *fall*.
#[derive(Clone, Copy, Debug)]
pub struct AppProfile {
    /// Fixed per-tuple operator cost.
    pub fixed: SimDuration,
    /// Total probe cost across all instances (divided by parallelism).
    pub scan_total: SimDuration,
    /// Expected matching candidates emitted to the aggregator per tuple.
    pub candidates_per_tuple: f64,
    /// Aggregator cost per candidate.
    pub agg_cost: SimDuration,
}

impl Default for AppProfile {
    fn default() -> Self {
        AppProfile {
            fixed: SimDuration::from_micros(120),
            scan_total: SimDuration::from_millis(54),
            candidates_per_tuple: 8.0,
            agg_cost: SimDuration::from_micros(4),
        }
    }
}

impl AppProfile {
    /// A near-zero-cost downstream, for experiments that isolate the
    /// multicast/transport path (e.g. the RDMC blocking study, Fig 3).
    pub fn lightweight() -> Self {
        AppProfile {
            fixed: SimDuration::from_micros(5),
            scan_total: SimDuration::ZERO,
            candidates_per_tuple: 1.0,
            agg_cost: SimDuration::from_micros(1),
        }
    }
}

/// Full experiment configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Which system runs.
    pub mode: SystemMode,
    /// Override the multicast structure (Figs 17–22); `None` = mode default.
    pub structure: Option<Structure>,
    /// Override the verb policy (Figs 29–32); `None` = mode default.
    pub verbs: Option<VerbPolicy>,
    /// Parallelism of the matching operator.
    pub parallelism: u32,
    /// The physical cluster.
    pub cluster: ClusterSpec,
    /// Calibrated costs.
    pub cost: CostModel,
    /// Serialized data-item size (bytes).
    pub tuple_bytes: usize,
    /// Downstream application profile.
    pub app: AppProfile,
    /// Drive mode.
    pub drive: Drive,
    /// RNG seed.
    pub seed: u64,
    /// Monitoring interval Δt for the workload monitor.
    pub monitor_interval: SimDuration,
    /// Initial/fixed `d*` for non-blocking structures.
    pub initial_d_star: u32,
    /// Record time series (queue length, throughput, latency-over-time).
    pub record_series: bool,
    /// Closed-loop backpressure: maximum tuples in flight before the
    /// source pauses (Storm's `max.spout.pending`).
    pub inflight_window: usize,
    /// Use the baseline dynamic switch (Definition 3: act only at the
    /// waterline) instead of the proactive rules — the Theorem 3 ablation.
    pub baseline_switch: bool,
}

impl EngineConfig {
    /// A paper-testbed configuration for `mode` at `parallelism`,
    /// saturating with `tuples` tuples.
    pub fn paper(mode: SystemMode, parallelism: u32, tuples: u64) -> Self {
        EngineConfig {
            mode,
            structure: None,
            verbs: None,
            parallelism,
            cluster: ClusterSpec::paper_testbed(),
            cost: CostModel::default(),
            tuple_bytes: 150,
            app: AppProfile::default(),
            drive: Drive::Saturate { tuples },
            seed: 42,
            monitor_interval: SimDuration::from_millis(100),
            initial_d_star: 3,
            record_series: false,
            inflight_window: 8,
            baseline_switch: false,
        }
    }
}

/// Everything a run reports.
#[derive(Clone, Debug)]
pub struct EngineReport {
    /// Fully processed tuples.
    pub completed: u64,
    /// Tuples dropped at the transfer queue.
    pub dropped: u64,
    /// Completed tuples per second.
    pub throughput: f64,
    /// Mean end-to-end processing latency.
    pub mean_latency: SimDuration,
    /// 99th percentile processing latency.
    pub p99_latency: SimDuration,
    /// Mean multicast latency (source entry → last instance receipt).
    pub mean_multicast_latency: SimDuration,
    /// Source-instance CPU utilization over the run.
    pub source_cpu: f64,
    /// Mean downstream-instance CPU utilization.
    pub downstream_cpu: f64,
    /// Mean worker-dispatcher CPU utilization (receive + forward +
    /// deserialize + local dispatch) — the relay-side bottleneck gauge.
    pub dispatcher_cpu: f64,
    /// Aggregator CPU utilization.
    pub agg_cpu: f64,
    /// Source CPU share per category (serialization, packet processing, ...).
    pub source_breakdown: Vec<(CpuCategory, f64)>,
    /// Source-side communication time per tuple (serialization + sends).
    pub comm_time_per_tuple: SimDuration,
    /// Source-side serialization time per tuple.
    pub ser_time_per_tuple: SimDuration,
    /// Bytes the source transmitted per 10,000 generated tuples.
    pub traffic_per_10k: u64,
    /// Data-item serializations performed by the source.
    pub serializations: u64,
    /// Mean transfer-queue load factor (occupancy / capacity).
    pub mean_load_factor: f64,
    /// Queue length over time (if `record_series`).
    pub queue_series: TimeSeries,
    /// Completion throughput over time (1 s windows, if `record_series`).
    pub throughput_series: TimeSeries,
    /// Processing latency over time (if `record_series`).
    pub latency_series: TimeSeries,
    /// Dynamic switches performed: `(time, new d*, switch delay)`.
    pub switches: Vec<(SimTime, u32, SimDuration)>,
    /// Virtual duration of the run.
    pub elapsed: SimDuration,
    /// Unified observability snapshot: every per-stage counter, gauge,
    /// latency summary, and time series under dotted names
    /// (`engine.*`, `multicast.*`, `net.*`). Keys are sorted, so two
    /// same-seed runs render to byte-identical JSON.
    pub metrics: MetricsRegistry,
}

impl std::fmt::Display for EngineReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "completed {} tuples in {} ({:.1} tuples/s), dropped {}",
            self.completed, self.elapsed, self.throughput, self.dropped
        )?;
        writeln!(
            f,
            "latency: mean {} / p99 {}; multicast {}",
            self.mean_latency, self.p99_latency, self.mean_multicast_latency
        )?;
        writeln!(
            f,
            "cpu: source {:.2}, downstream {:.2}, dispatchers {:.2}, aggregator {:.2}",
            self.source_cpu, self.downstream_cpu, self.dispatcher_cpu, self.agg_cpu
        )?;
        write!(
            f,
            "source: {} per tuple on communication ({} serializing), {} B / 10k tuples",
            self.comm_time_per_tuple, self.ser_time_per_tuple, self.traffic_per_10k
        )?;
        if !self.switches.is_empty() {
            write!(f, "; {} dynamic switches", self.switches.len())?;
        }
        Ok(())
    }
}

#[derive(Clone, Copy, Debug)]
enum Ev {
    /// Open-loop arrival at the source.
    Arrival,
    /// The source core is free: process the next queued tuple.
    SourceReady,
    /// Relay node `node` (tree destination index) received tuple `seq`.
    NodeRecv { node: u32, seq: u64 },
    /// Monitoring interval tick.
    MonitorTick,
    /// Dynamic switch finished; apply the pending tree.
    SwitchDone,
}

/// Per-tuple completion bookkeeping.
struct Inflight {
    /// Instances that have not yet finished their work item.
    pending_instances: u32,
    /// Latest end time seen across all work items (incl. aggregation).
    latest_end: SimTime,
}

struct World {
    cfg: EngineConfig,
    verb_policy: VerbPolicy,
    comm: CommMode,
    structure: Structure,
    /// Relay tree over destination nodes (remote workers or instances).
    tree: MulticastTree,
    pending_tree: Option<(MulticastTree, u32)>,
    relay_over_workers: bool,

    // Placement.
    /// instance -> worker (round-robin, worker 0 hosts the source).
    inst_worker: Vec<u32>,
    /// worker -> its matching instances.
    worker_insts: Vec<Vec<u32>>,

    // Clocks and accounts.
    source_core: CoreClock,
    source_cpu: CpuAccount,
    dispatcher_cores: Vec<CoreClock>,
    dispatcher_busy: Vec<SimDuration>,
    instance_cores: Vec<CoreClock>,
    instance_busy: Vec<SimDuration>,
    agg_core: CoreClock,
    agg_busy: SimDuration,
    nics: Vec<Nic>,

    // Drive state.
    queue: BoundedQueue<(u64, SimTime)>,
    arrivals: Option<ArrivalProcess>,
    remaining_saturate: u64,
    next_seq: u64,
    source_idle: bool,
    switching: bool,
    horizon: SimTime,

    // Adaptive control.
    monitor: WorkloadMonitor,
    controller: Option<AdjustController>,
    switches: Vec<(SimTime, u32, SimDuration)>,

    // Measurements.
    inflight: HashMap<u64, Inflight>,
    latency: LatencyTracker,
    multicast: MulticastTracker,
    completions: Vec<(SimTime, SimDuration)>,
    queue_series: TimeSeries,
    /// Per-monitor-tick snapshots of the progress counters (sourced,
    /// completed, dropped) — the run's health as a function of time, not
    /// just its final totals.
    sourced_series: TimeSeries,
    completed_series: TimeSeries,
    dropped_series: TimeSeries,
    load_sum: f64,
    load_samples: u64,
    source_tx_bytes: u64,
    serializations: u64,
    tuples_sourced: u64,
    dropped: u64,
    rng: SimRng,
}

impl World {
    fn new(cfg: EngineConfig) -> Self {
        let p = cfg.parallelism;
        let n_workers = cfg.cluster.machines();
        assert!(n_workers >= 1);
        // Round-robin instances over workers, like the even scheduler.
        let inst_worker: Vec<u32> = (0..p).map(|i| i % n_workers).collect();
        let mut worker_insts = vec![Vec::new(); n_workers as usize];
        for (i, &w) in inst_worker.iter().enumerate() {
            worker_insts[w as usize].push(i as u32);
        }

        let comm = cfg.mode.comm_mode();
        let relay_over_workers = comm == CommMode::WorkerOriented;
        let structure = cfg
            .structure
            .unwrap_or_else(|| cfg.mode.structure(cfg.initial_d_star));
        let n_relays = if relay_over_workers {
            n_workers - 1 // remote workers; worker 0 is dispatched locally
        } else {
            p
        };
        let tree = structure.build(n_relays);
        let verb_policy = cfg.verbs.unwrap_or_else(|| cfg.mode.verb_policy());
        let transport = cfg.mode.transport();
        let nics = (0..n_workers).map(|_| Nic::new(transport)).collect();

        let horizon = match &cfg.drive {
            Drive::Saturate { .. } => SimTime::MAX,
            Drive::Rate { horizon, .. } => *horizon,
        };
        let arrivals = match &cfg.drive {
            Drive::Saturate { .. } => None,
            Drive::Rate { plan, .. } => Some(ArrivalProcess::new(plan.clone(), cfg.seed ^ 0xA11)),
        };
        let remaining_saturate = match &cfg.drive {
            Drive::Saturate { tuples } => *tuples,
            Drive::Rate { .. } => 0,
        };

        let t_e_default = cfg.cost.t_e(verb_policy.data_verb()).as_secs_f64();
        let monitor = WorkloadMonitor::new(cfg.monitor_interval, 0.5, t_e_default);
        let controller = if cfg.mode.adaptive() && cfg.structure.is_none() {
            let q = cfg.cost.transfer_queue_capacity;
            let ctl_cfg = if cfg.baseline_switch {
                ControllerConfig::baseline(q, n_relays)
            } else {
                ControllerConfig::for_queue(q, n_relays)
            };
            Some(AdjustController::new(ctl_cfg, cfg.initial_d_star))
        } else {
            None
        };

        World {
            verb_policy,
            comm,
            structure,
            tree,
            pending_tree: None,
            relay_over_workers,
            inst_worker,
            worker_insts,
            source_core: CoreClock::new(),
            source_cpu: CpuAccount::new(),
            dispatcher_cores: (0..n_workers).map(|_| CoreClock::new()).collect(),
            dispatcher_busy: vec![SimDuration::ZERO; n_workers as usize],
            instance_cores: (0..p).map(|_| CoreClock::new()).collect(),
            instance_busy: vec![SimDuration::ZERO; p as usize],
            agg_core: CoreClock::new(),
            agg_busy: SimDuration::ZERO,
            nics,
            queue: BoundedQueue::new(cfg.cost.transfer_queue_capacity),
            arrivals,
            remaining_saturate,
            next_seq: 0,
            source_idle: true,
            switching: false,
            horizon,
            monitor,
            controller,
            switches: Vec::new(),
            inflight: HashMap::new(),
            latency: LatencyTracker::new(),
            multicast: MulticastTracker::new(),
            completions: Vec::new(),
            queue_series: TimeSeries::new(),
            sourced_series: TimeSeries::new(),
            completed_series: TimeSeries::new(),
            dropped_series: TimeSeries::new(),
            load_sum: 0.0,
            load_samples: 0,
            source_tx_bytes: 0,
            serializations: 0,
            tuples_sourced: 0,
            dropped: 0,
            rng: SimRng::new(cfg.seed),
            cfg,
        }
    }

    fn transport(&self) -> whale_sim::Transport {
        self.cfg.mode.transport()
    }

    /// Machine hosting a relay-tree destination node.
    fn relay_machine(&self, node: u32) -> u32 {
        if self.relay_over_workers {
            node + 1
        } else {
            self.inst_worker[node as usize]
        }
    }

    /// Wire size of one data message.
    fn message_bytes(&self, dst_worker: u32) -> usize {
        match self.comm {
            CommMode::InstanceOriented => 8 + self.cfg.tuple_bytes,
            CommMode::WorkerOriented => {
                8 + 4 * self.worker_insts[dst_worker as usize].len() + self.cfg.tuple_bytes
            }
        }
    }

    /// Per-instance matching cost for the current parallelism.
    fn app_cost(&self) -> SimDuration {
        self.cfg.app.fixed + self.cfg.app.scan_total / self.cfg.parallelism.max(1) as u64
    }

    /// Run one instance's work item starting no earlier than `ready`;
    /// returns its end time (including any candidate it sends to the
    /// aggregator).
    fn run_instance(&mut self, inst: u32, ready: SimTime, seq: u64) -> SimTime {
        let app = self.app_cost();
        let (_, mut end) = self.instance_cores[inst as usize].begin_work(ready, app);
        self.instance_busy[inst as usize] += app;
        // Candidate emission to the aggregator.
        let p_cand = (self.cfg.app.candidates_per_tuple / self.cfg.parallelism as f64).min(1.0);
        if self.rng.gen_bool(p_cand) {
            let send = self
                .cfg
                .cost
                .send_cpu(self.transport(), self.verb_policy.data_verb(), 32);
            let (_, send_end) = self.instance_cores[inst as usize].begin_work(end, send);
            self.instance_busy[inst as usize] += send;
            let machine = self.inst_worker[inst as usize];
            let (_, arrive) = self.nics[machine as usize].transmit(send_end, 40, 0, &self.cfg.cost);
            let (_, agg_end) = self.agg_core.begin_work(arrive, self.cfg.app.agg_cost);
            self.agg_busy += self.cfg.app.agg_cost;
            end = agg_end;
        }
        let _ = seq;
        end
    }

    /// Account one instance receipt + execution; finalize the tuple when
    /// it was the last.
    fn deliver_to_instance(
        &mut self,
        inst: u32,
        receipt: SimTime,
        seq: u64,
        sched: &mut Scheduler<Ev>,
    ) {
        self.multicast.received(seq, receipt);
        let end = self.run_instance(inst, receipt, seq);
        let Some(fl) = self.inflight.get_mut(&seq) else {
            return;
        };
        fl.latest_end = fl.latest_end.max(end);
        fl.pending_instances -= 1;
        if fl.pending_instances == 0 {
            let fl = self.inflight.remove(&seq).unwrap();
            if let Some(lat) = self.latency.completed(seq, fl.latest_end) {
                self.completions.push((fl.latest_end, lat));
            }
            // The window opened: wake the source when the completion
            // lands (clamped to now by the scheduler if already past).
            sched.at(fl.latest_end, Ev::SourceReady);
        }
    }

    /// The source processes one tuple: serialize, send to tree children,
    /// dispatch locally. Returns when the source core frees up.
    fn source_process(
        &mut self,
        seq: u64,
        enter: SimTime,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
    ) {
        let cost = self.cfg.cost.clone();
        let transport = self.transport();
        let data_verb = self.verb_policy.data_verb();
        let per_dest_ser = self.comm == CommMode::InstanceOriented
            && matches!(self.structure, Structure::Sequential);

        self.tuples_sourced += 1;
        self.latency.emitted(seq, enter);
        self.multicast.emitted(seq, enter, self.cfg.parallelism);
        self.inflight.insert(
            seq,
            Inflight {
                pending_instances: self.cfg.parallelism,
                latest_end: enter,
            },
        );

        let mut cursor = now;
        let mut ser_end = now;
        let mut busy = SimDuration::ZERO;
        // Single up-front serialization for worker-oriented and for
        // relay-based (RDMC-style) instance transfers.
        if !per_dest_ser {
            let ser = match self.comm {
                CommMode::WorkerOriented => {
                    cost.serialize_batch(self.cfg.tuple_bytes, self.cfg.parallelism as usize)
                }
                CommMode::InstanceOriented => cost.serialize(self.cfg.tuple_bytes),
            };
            let (_, end) = self.source_core.begin_work(cursor, ser);
            self.source_cpu.charge(CpuCategory::Serialization, ser);
            self.serializations += 1;
            cursor = end;
            ser_end = end;
            busy += ser;
        }

        // Sends to the tree children of the source.
        let children: Vec<Node> = self.tree.children(Node::Source).to_vec();
        let n_children = children.len().max(1) as u64;
        for child in children {
            let Node::Dest(node) = child else { continue };
            if per_dest_ser {
                let ser = cost.serialize(self.cfg.tuple_bytes);
                let (_, end) = self.source_core.begin_work(cursor, ser);
                self.source_cpu.charge(CpuCategory::Serialization, ser);
                self.serializations += 1;
                cursor = end;
                busy += ser;
            }
            let dst_machine = self.relay_machine(node);
            let bytes = self.message_bytes(dst_machine);
            let send = cost.send_cpu(transport, data_verb, bytes);
            let cat = match transport {
                whale_sim::Transport::Tcp => CpuCategory::PacketProcessing,
                whale_sim::Transport::Rdma => CpuCategory::WorkRequestPost,
            };
            let (_, end) = self.source_core.begin_work(cursor, send);
            self.source_cpu.charge(cat, send);
            cursor = end;
            busy += send;
            let local = dst_machine == 0;
            if local {
                sched.at(end, Ev::NodeRecv { node, seq });
            } else {
                let hops = self
                    .cfg
                    .cluster
                    .rack_hops(MachineId(0), MachineId(dst_machine));
                let (_, arrive) = self.nics[0].transmit(end, bytes, hops, &cost);
                self.source_tx_bytes += bytes as u64;
                sched.at(arrive, Ev::NodeRecv { node, seq });
            }
        }
        // The QueueMonitor's `t_e` is the measured per-destination emit
        // cost, so the fixed serialization work is amortized over the
        // fan-out — this is what the real monitor sees per hop.
        self.monitor.record_emit_time(SimDuration::from_nanos(
            (busy.as_nanos() / n_children).max(1),
        ));

        // Worker-oriented: the source's own worker dispatches locally once
        // the data item is serialized, in parallel with the source's
        // remote sends (the dispatcher is a different core).
        if self.relay_over_workers {
            self.local_dispatch(0, ser_end, seq, sched);
        }

        sched.at(cursor, Ev::SourceReady);
    }

    /// The dispatcher of `worker` deserializes once and hands the tuple to
    /// every local matching instance.
    fn local_dispatch(&mut self, worker: u32, ready: SimTime, seq: u64, sched: &mut Scheduler<Ev>) {
        let deser = self.cfg.cost.deserialize(self.cfg.tuple_bytes);
        let (_, mut cursor) = self.dispatcher_cores[worker as usize].begin_work(ready, deser);
        self.dispatcher_busy[worker as usize] += deser;
        let insts = self.worker_insts[worker as usize].clone();
        for inst in insts {
            let (_, end) =
                self.dispatcher_cores[worker as usize].begin_work(cursor, self.cfg.cost.dispatch);
            self.dispatcher_busy[worker as usize] += self.cfg.cost.dispatch;
            cursor = end;
            self.deliver_to_instance(inst, end, seq, sched);
        }
    }

    /// Handle receipt at a relay node: forward to tree children, then
    /// process/dispatch locally.
    fn node_recv(&mut self, node: u32, seq: u64, now: SimTime, sched: &mut Scheduler<Ev>) {
        let cost = self.cfg.cost.clone();
        let transport = self.transport();
        let data_verb = self.verb_policy.data_verb();
        let machine = self.relay_machine(node);
        let recv = cost.recv_cpu(transport, data_verb);

        if self.relay_over_workers {
            // Receive + forward on the worker's dispatcher core.
            let (_, mut cursor) = self.dispatcher_cores[machine as usize].begin_work(now, recv);
            self.dispatcher_busy[machine as usize] += recv;
            let children: Vec<Node> = self.tree.children(Node::Dest(node)).to_vec();
            for child in children {
                let Node::Dest(c) = child else { continue };
                let dst_machine = self.relay_machine(c);
                let bytes = self.message_bytes(dst_machine);
                let send = cost.send_cpu(transport, data_verb, bytes) + cost.ring_mr_op;
                let (_, end) = self.dispatcher_cores[machine as usize].begin_work(cursor, send);
                self.dispatcher_busy[machine as usize] += send;
                cursor = end;
                let hops = self
                    .cfg
                    .cluster
                    .rack_hops(MachineId(machine), MachineId(dst_machine));
                let (_, arrive) = self.nics[machine as usize].transmit(end, bytes, hops, &cost);
                sched.at(arrive, Ev::NodeRecv { node: c, seq });
            }
            self.local_dispatch(machine, cursor, seq, sched);
        } else {
            // Instance-relay: receive + deserialize + forward + own work,
            // all on the instance's core.
            let inst = node;
            let deser = cost.deserialize(self.cfg.tuple_bytes);
            let (_, mut cursor) = self.instance_cores[inst as usize].begin_work(now, recv + deser);
            self.instance_busy[inst as usize] += recv + deser;
            let children: Vec<Node> = self.tree.children(Node::Dest(node)).to_vec();
            for child in children {
                let Node::Dest(c) = child else { continue };
                let dst_machine = self.relay_machine(c);
                let bytes = self.message_bytes(dst_machine);
                let send = cost.send_cpu(transport, data_verb, bytes);
                let (_, end) = self.instance_cores[inst as usize].begin_work(cursor, send);
                self.instance_busy[inst as usize] += send;
                cursor = end;
                let same_machine = dst_machine == machine;
                if same_machine {
                    sched.at(end, Ev::NodeRecv { node: c, seq });
                } else {
                    let hops = self
                        .cfg
                        .cluster
                        .rack_hops(MachineId(machine), MachineId(dst_machine));
                    let (_, arrive) = self.nics[machine as usize].transmit(end, bytes, hops, &cost);
                    sched.at(arrive, Ev::NodeRecv { node: c, seq });
                }
            }
            self.deliver_to_instance(inst, cursor, seq, sched);
        }
    }

    fn try_start_source(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
        if !self.source_idle || self.switching {
            return;
        }
        // Closed-loop backpressure (max.spout.pending).
        if self.inflight.len() >= self.cfg.inflight_window {
            return;
        }
        // Saturate drive: synthesize the next tuple on demand.
        if self.remaining_saturate > 0 {
            self.remaining_saturate -= 1;
            let seq = self.next_seq;
            self.next_seq += 1;
            self.source_idle = false;
            self.source_process(seq, now, now, sched);
            return;
        }
        if let Some((seq, enter)) = self.queue.pop() {
            self.source_idle = false;
            self.source_process(seq, enter, now, sched);
        }
    }

    fn on_monitor_tick(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
        let report = self.monitor.sample(now, self.queue.len());
        if self.cfg.record_series {
            self.queue_series.push(now, self.queue.len() as f64);
            self.sourced_series.push(now, self.tuples_sourced as f64);
            self.completed_series
                .push(now, self.latency.completed_count() as f64);
            self.dropped_series.push(now, self.dropped as f64);
        }
        self.load_sum += self.queue.len() as f64 / self.queue.capacity() as f64;
        self.load_samples += 1;
        if let Some(controller) = &mut self.controller {
            if !self.switching {
                let decision = controller.decide(&report);
                let new_d = match decision {
                    Decision::Hold => None,
                    Decision::ScaleDown { d_star } | Decision::ScaleUp { d_star } => Some(d_star),
                };
                if let Some(d) = new_d {
                    let (new_tree, plan) = plan_switch(&self.tree, d);
                    // Control-plane traffic (§3.4/§4): a switch announcement
                    // is multicast to every relay node and a ControlMessage
                    // goes to each participant, all via two-sided verbs
                    // (DiffVerbs keeps control on SEND/RECV). Charge the
                    // source CPU and count the bytes.
                    let control_verb = self.verb_policy.control_verb();
                    let n_relays = self.tree.n() as u64;
                    let n_control = plan.len() as u64 * 2; // to mover + new parent
                    let per_msg = self.cfg.cost.send_cpu(self.transport(), control_verb, 32);
                    let control_cpu = per_msg * (n_relays + n_control);
                    let (_, ctl_end) = self.source_core.begin_work(now, control_cpu);
                    self.source_cpu.charge(CpuCategory::Other, control_cpu);
                    self.source_tx_bytes += 32 * (n_relays + n_control);
                    // Switch delay: the control fan-out above, plus a
                    // round-trip for the ACKs and per-move reconnection.
                    let delay = ctl_end.since(now)
                        + SimDuration::from_micros(200)
                        + SimDuration::from_micros(20) * plan.len() as u64;
                    self.pending_tree = Some((new_tree, d));
                    self.switching = true;
                    self.switches.push((now, d, delay));
                    sched.after(delay, Ev::SwitchDone);
                }
            }
        }
        if now + self.cfg.monitor_interval <= self.horizon {
            sched.after(self.cfg.monitor_interval, Ev::MonitorTick);
        }
    }
}

impl SimWorld for World {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
        match ev {
            Ev::Arrival => {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.monitor.record_arrivals(1);
                match self.queue.push((seq, now)) {
                    PushOutcome::Enqueued => {}
                    PushOutcome::Dropped => self.dropped += 1,
                }
                self.try_start_source(now, sched);
                if let Some(proc) = &mut self.arrivals {
                    if let Some(next) = proc.next_arrival() {
                        if next <= self.horizon {
                            sched.at(next, Ev::Arrival);
                        }
                    }
                }
            }
            Ev::SourceReady => {
                self.source_idle = true;
                self.try_start_source(now, sched);
            }
            Ev::NodeRecv { node, seq } => {
                self.node_recv(node, seq, now, sched);
            }
            Ev::MonitorTick => {
                self.on_monitor_tick(now, sched);
            }
            Ev::SwitchDone => {
                if let Some((tree, _d)) = self.pending_tree.take() {
                    self.tree = tree;
                }
                self.switching = false;
                self.try_start_source(now, sched);
            }
        }
    }
}

/// Run one experiment to completion and report.
pub fn run(cfg: EngineConfig) -> EngineReport {
    let record_series = cfg.record_series;
    let drive = cfg.drive.clone();
    let mut engine = Engine::new(World::new(cfg));

    match &drive {
        Drive::Saturate { .. } => {
            engine.scheduler().at(SimTime::ZERO, Ev::SourceReady);
            // Monitoring still ticks so t_e/λ statistics exist, but no
            // horizon bound: run until drained.
            let reason = engine.run_to_completion(2_000_000_000);
            assert_eq!(reason, StopReason::Drained, "saturate run must drain");
        }
        Drive::Rate { horizon, .. } => {
            let h = *horizon;
            {
                let sched = engine.scheduler();
                sched.at(SimTime::ZERO, Ev::Arrival);
                sched.at(SimTime::ZERO, Ev::MonitorTick);
            }
            engine.run_until(h + SimDuration::from_secs(2));
        }
    }

    let end = engine.now();
    let w = engine.world_mut();
    let elapsed = match &drive {
        Drive::Saturate { .. } => {
            // Makespan: from first tuple to last completion.
            w.completions
                .iter()
                .map(|&(t, _)| t)
                .max()
                .unwrap_or(end)
                .since(SimTime::ZERO)
        }
        Drive::Rate { horizon, .. } => horizon.since(SimTime::ZERO),
    };

    let completed = w.latency.completed_count();
    let throughput = if elapsed.is_zero() {
        0.0
    } else {
        completed as f64 / elapsed.as_secs_f64()
    };

    // Build ordered series from completion records.
    w.completions.sort_by_key(|&(t, _)| t);
    let mut tput_meter = RateMeter::new(SimDuration::from_secs(1));
    let mut latency_series = TimeSeries::new();
    for &(t, lat) in &w.completions {
        tput_meter.record(t, 1);
        if record_series {
            latency_series.push(t, lat.as_secs_f64() * 1e3);
        }
    }
    let throughput_series = if record_series {
        tput_meter.finish(end)
    } else {
        TimeSeries::new()
    };

    let source_busy = w.source_cpu.total_busy();
    let sourced = w.tuples_sourced.max(1);
    let ser_busy = w.source_cpu.busy_in(CpuCategory::Serialization);

    let mean_util = |busy: &[SimDuration]| -> f64 {
        if busy.is_empty() || elapsed.is_zero() {
            return 0.0;
        }
        busy.iter()
            .map(|b| (b.as_nanos() as f64 / elapsed.as_nanos() as f64).min(1.0))
            .sum::<f64>()
            / busy.len() as f64
    };
    let downstream_cpu = mean_util(&w.instance_busy);
    let dispatcher_cpu = mean_util(&w.dispatcher_busy);
    let agg_cpu = if elapsed.is_zero() {
        0.0
    } else {
        (w.agg_busy.as_nanos() as f64 / elapsed.as_nanos() as f64).min(1.0)
    };

    // The unified observability snapshot. Dotted names group by layer;
    // BTreeMap ordering in the registry makes the JSON rendering stable.
    let mut metrics = MetricsRegistry::new();
    metrics.set_counter("engine.completed", completed);
    metrics.set_counter("engine.dropped", w.dropped);
    metrics.set_counter("engine.sourced", w.tuples_sourced);
    metrics.set_counter("engine.serializations", w.serializations);
    metrics.set_counter("engine.traffic_per_10k_bytes", {
        (w.source_tx_bytes * 10_000)
            .checked_div(w.tuples_sourced)
            .unwrap_or(0)
    });
    metrics.set_gauge("engine.throughput", throughput);
    metrics.set_gauge("engine.elapsed_secs", elapsed.as_secs_f64());
    metrics.set_summary("engine.latency_ns", w.latency.histogram());
    metrics.set_summary("engine.multicast_latency_ns", w.multicast.histogram());
    metrics.set_gauge("engine.cpu.source", w.source_cpu.utilization(elapsed));
    metrics.set_gauge("engine.cpu.downstream", downstream_cpu);
    metrics.set_gauge("engine.cpu.dispatcher", dispatcher_cpu);
    metrics.set_gauge("engine.cpu.aggregator", agg_cpu);
    for &c in CpuCategory::ALL.iter() {
        let name = format!("engine.cpu.source_share.{:?}", c).to_lowercase();
        metrics.set_gauge(&name, w.source_cpu.share(c));
    }
    metrics.set_gauge(
        "engine.comm_secs_per_tuple",
        (source_busy / sourced).as_secs_f64(),
    );
    metrics.set_gauge(
        "engine.ser_secs_per_tuple",
        (ser_busy / sourced).as_secs_f64(),
    );
    metrics.set_gauge("engine.queue.capacity", w.queue.capacity() as f64);
    metrics.set_gauge(
        "engine.queue.mean_load_factor",
        if w.load_samples == 0 {
            0.0
        } else {
            w.load_sum / w.load_samples as f64
        },
    );
    if record_series {
        metrics.set_series("engine.queue.depth", &w.queue_series);
        metrics.set_series("engine.throughput_series", &throughput_series);
        metrics.set_series("engine.latency_ms_series", &latency_series);
        metrics.set_series("engine.sourced_series", &w.sourced_series);
        metrics.set_series("engine.completed_series", &w.completed_series);
        metrics.set_series("engine.dropped_series", &w.dropped_series);
    }
    metrics.set_counter("multicast.switches", w.switches.len() as u64);
    if let Some(&(_, d, delay)) = w.switches.last() {
        metrics.set_gauge("multicast.last_d_star", d as f64);
        metrics.set_gauge("multicast.last_t_switch_secs", delay.as_secs_f64());
    }
    w.monitor.export_metrics(&mut metrics, "multicast.monitor");
    if let Some(ctl) = &w.controller {
        ctl.export_metrics(&mut metrics, "multicast.controller");
    }
    let (nic_msgs, nic_bytes) = w
        .nics
        .iter()
        .fold((0, 0), |(m, b), n| (m + n.sent_msgs(), b + n.sent_bytes()));
    metrics.set_counter("net.nic.total.sent_msgs", nic_msgs);
    metrics.set_counter("net.nic.total.sent_bytes", nic_bytes);
    if let Some(src_nic) = w.nics.first() {
        src_nic.export_metrics(&mut metrics, "net.nic.source", elapsed);
    }

    EngineReport {
        completed,
        dropped: w.dropped,
        throughput,
        mean_latency: w.latency.mean(),
        p99_latency: SimDuration::from_nanos(w.latency.histogram().percentile(99.0) as u64),
        mean_multicast_latency: w.multicast.mean(),
        source_cpu: w.source_cpu.utilization(elapsed),
        downstream_cpu,
        dispatcher_cpu,
        agg_cpu,
        source_breakdown: CpuCategory::ALL
            .iter()
            .map(|&c| (c, w.source_cpu.share(c)))
            .collect(),
        comm_time_per_tuple: source_busy / sourced,
        ser_time_per_tuple: ser_busy / sourced,
        traffic_per_10k: (w.source_tx_bytes * 10_000)
            .checked_div(w.tuples_sourced)
            .unwrap_or(0),
        serializations: w.serializations,
        mean_load_factor: if w.load_samples == 0 {
            0.0
        } else {
            w.load_sum / w.load_samples as f64
        },
        queue_series: std::mem::take(&mut w.queue_series),
        throughput_series,
        latency_series,
        switches: std::mem::take(&mut w.switches),
        elapsed,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn saturate(mode: SystemMode, p: u32, tuples: u64) -> EngineReport {
        run(EngineConfig::paper(mode, p, tuples))
    }

    #[test]
    fn all_tuples_complete_in_every_mode() {
        for mode in SystemMode::ALL {
            let r = saturate(mode, 64, 50);
            assert_eq!(r.completed, 50, "{mode:?}");
            assert_eq!(r.dropped, 0);
            assert!(r.throughput > 0.0);
        }
    }

    #[test]
    fn storm_collapses_with_parallelism_whale_does_not() {
        let storm_120 = saturate(SystemMode::Storm, 120, 60).throughput;
        let storm_480 = saturate(SystemMode::Storm, 480, 60).throughput;
        assert!(
            storm_480 < storm_120 * 0.5,
            "Storm must collapse: 120→{storm_120:.1}/s, 480→{storm_480:.1}/s"
        );
        let whale_120 = saturate(SystemMode::WhaleFull, 120, 60).throughput;
        let whale_480 = saturate(SystemMode::WhaleFull, 480, 60).throughput;
        assert!(
            whale_480 > whale_120,
            "Whale must rise: 120→{whale_120:.1}/s, 480→{whale_480:.1}/s"
        );
    }

    #[test]
    fn ablation_chain_is_monotone_at_480() {
        let tput: Vec<f64> = SystemMode::ALL
            .iter()
            .map(|&m| saturate(m, 480, 60).throughput)
            .collect();
        for i in 1..tput.len() {
            assert!(
                tput[i] > tput[i - 1] * 0.99,
                "chain must not regress: {tput:?}"
            );
        }
        let ratio = tput[4] / tput[0];
        assert!(ratio > 20.0, "Whale/Storm = {ratio:.1} (target ~56x)");
    }

    #[test]
    fn latency_ordering_matches_paper() {
        let storm = saturate(SystemMode::Storm, 480, 40).mean_latency;
        let whale = saturate(SystemMode::WhaleFull, 480, 40).mean_latency;
        assert!(
            whale.as_nanos() * 10 < storm.as_nanos(),
            "whale={whale} storm={storm} (paper: 96.6% reduction)"
        );
    }

    #[test]
    fn serialization_counts() {
        let storm = saturate(SystemMode::Storm, 480, 20);
        assert_eq!(storm.serializations, 20 * 480, "per-destination");
        let whale = saturate(SystemMode::WhaleFull, 480, 20);
        assert_eq!(whale.serializations, 20, "once per tuple");
    }

    #[test]
    fn traffic_reduction_matches_fig27_shape() {
        let storm = saturate(SystemMode::Storm, 480, 20).traffic_per_10k;
        let whale = saturate(SystemMode::WhaleFull, 480, 20).traffic_per_10k;
        let reduction = 1.0 - whale as f64 / storm as f64;
        assert!(reduction > 0.8, "reduction = {reduction:.3} (paper: 91.9%)");
    }

    #[test]
    fn source_cpu_breakdown_dominated_by_ser_and_packets_in_storm() {
        let r = saturate(SystemMode::Storm, 300, 30);
        let share: f64 = r
            .source_breakdown
            .iter()
            .filter(|(c, _)| {
                matches!(
                    c,
                    CpuCategory::Serialization | CpuCategory::PacketProcessing
                )
            })
            .map(|&(_, s)| s)
            .sum();
        assert!(share > 0.95, "share = {share:.3} (Fig 2d)");
        assert!(r.source_cpu > 0.5, "upstream hot: {}", r.source_cpu);
        assert!(r.downstream_cpu < r.source_cpu);
    }

    #[test]
    fn report_display_is_complete() {
        let r = saturate(SystemMode::WhaleFull, 64, 20);
        let text = r.to_string();
        assert!(text.contains("completed 20 tuples"));
        assert!(text.contains("latency: mean"));
        assert!(text.contains("cpu: source"));
        assert!(text.contains("/ 10k tuples"));
    }

    #[test]
    fn stage_utilization_diagnostics() {
        // Whale at full load: dispatchers and instances both busy, source
        // light; the aggregator modest.
        let r = saturate(SystemMode::WhaleFull, 480, 60);
        assert!(r.dispatcher_cpu > 0.01, "dispatcher={}", r.dispatcher_cpu);
        assert!(r.agg_cpu < 0.5, "agg={}", r.agg_cpu);
        // Storm: dispatchers are idle (instance-oriented path bypasses
        // worker dispatch entirely).
        let storm = saturate(SystemMode::Storm, 480, 40);
        assert_eq!(storm.dispatcher_cpu, 0.0);
    }

    #[test]
    fn rate_drive_stable_under_low_load() {
        let mut cfg = EngineConfig::paper(SystemMode::WhaleFull, 120, 0);
        cfg.drive = Drive::Rate {
            plan: RatePlan::Poisson(200.0),
            horizon: SimTime::from_secs(2),
        };
        cfg.record_series = true;
        let r = run(cfg);
        assert_eq!(r.dropped, 0);
        assert!(r.completed > 300, "completed={}", r.completed);
        assert!(r.mean_load_factor < 0.05);
        assert!(!r.queue_series.is_empty());
        // Progress counters are snapshotted every monitor tick: the
        // sourced/completed curves climb to the final totals and the
        // dropped curve stays flat at zero.
        let series = |name: &str| -> Vec<(f64, f64)> {
            match r.metrics.get(name) {
                Some(whale_sim::MetricValue::Series(pts)) => pts.clone(),
                other => panic!("{name} must be a series, got {other:?}"),
            }
        };
        let sourced = series("engine.sourced_series");
        assert!(sourced.len() > 10, "ticks recorded: {}", sourced.len());
        let climbs = sourced.windows(2).all(|w| w[0].1 <= w[1].1);
        assert!(climbs, "sourced snapshots must be monotonic");
        let done = series("engine.completed_series");
        assert!(done.last().unwrap().1 <= r.completed as f64);
        assert!(series("engine.dropped_series").iter().all(|&(_, v)| v == 0.0));
    }

    #[test]
    fn rate_drive_overload_drops_with_fixed_structure() {
        // RDMC-style fixed binomial over instances under overload (Fig 3).
        let mut cfg = EngineConfig::paper(SystemMode::RdmaStorm, 480, 0);
        cfg.structure = Some(Structure::Binomial);
        cfg.drive = Drive::Rate {
            plan: RatePlan::Poisson(50_000.0),
            horizon: SimTime::from_secs(1),
        };
        let r = run(cfg);
        assert!(r.dropped > 0, "overload must overflow the queue");
        assert!(r.mean_load_factor > 0.5, "load={}", r.mean_load_factor);
    }

    #[test]
    fn adaptive_whale_switches_under_rate_steps() {
        let mut cfg = EngineConfig::paper(SystemMode::WhaleFull, 480, 0);
        cfg.initial_d_star = 4;
        cfg.drive = Drive::Rate {
            plan: RatePlan::Steps(vec![
                (SimTime::ZERO, 500.0),
                (SimTime::from_secs(1), 4_000.0),
            ]),
            horizon: SimTime::from_secs(3),
        };
        let r = run(cfg);
        assert!(!r.switches.is_empty(), "controller must react to the step");
    }

    #[test]
    fn multicast_latency_structure_ordering() {
        let base = |s: Structure| {
            let mut cfg = EngineConfig::paper(SystemMode::WhaleWocRdma, 480, 40);
            cfg.structure = Some(s);
            run(cfg).mean_multicast_latency
        };
        let seq = base(Structure::Sequential);
        let bin = base(Structure::Binomial);
        let nb = base(Structure::NonBlocking { d_star: 3 });
        assert!(nb < seq, "nonblocking {nb} must beat sequential {seq}");
        assert!(bin < seq, "binomial {bin} must beat sequential {seq}");
    }

    #[test]
    fn deterministic_across_runs() {
        let a = saturate(SystemMode::WhaleFull, 120, 30);
        let b = saturate(SystemMode::WhaleFull, 120, 30);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.mean_latency, b.mean_latency);
        assert_eq!(a.traffic_per_10k, b.traffic_per_10k);
    }

    #[test]
    fn metrics_snapshot_covers_all_layers() {
        let r = saturate(SystemMode::WhaleFull, 120, 30);
        let m = &r.metrics;
        assert_eq!(m.counter("engine.completed"), Some(30));
        assert_eq!(m.counter("engine.serializations"), Some(30));
        assert!(m.gauge("engine.throughput").unwrap() > 0.0);
        assert!(m.gauge("engine.cpu.source").unwrap() > 0.0);
        let lat = m.summary("engine.latency_ns").unwrap();
        assert_eq!(lat.count, 30);
        assert!(lat.p99 >= lat.p50 && lat.p50 > 0.0);
        assert!(m.gauge("multicast.monitor.lambda").is_some());
        assert!(m.gauge("multicast.controller.degree").is_some());
        assert!(m.counter("net.nic.total.sent_msgs").unwrap() > 0);
        assert!(m.gauge("net.nic.source.utilization").is_some());
    }

    #[test]
    fn metrics_series_only_when_recording() {
        let quiet = saturate(SystemMode::WhaleFull, 64, 10);
        assert!(quiet.metrics.get("engine.queue.depth").is_none());
        let mut cfg = EngineConfig::paper(SystemMode::WhaleFull, 64, 0);
        cfg.drive = Drive::Rate {
            plan: RatePlan::Poisson(200.0),
            horizon: SimTime::from_secs(1),
        };
        cfg.record_series = true;
        let r = run(cfg);
        assert!(r.metrics.get("engine.queue.depth").is_some());
        assert!(r.metrics.get("engine.throughput_series").is_some());
    }

    #[test]
    fn metrics_json_is_byte_identical_across_same_seed_runs() {
        let a = saturate(SystemMode::WhaleFull, 240, 40);
        let b = saturate(SystemMode::WhaleFull, 240, 40);
        assert_eq!(
            a.metrics.to_json().to_json_pretty(),
            b.metrics.to_json().to_json_pretty()
        );
    }
}
