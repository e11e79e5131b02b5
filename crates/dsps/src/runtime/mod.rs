//! The live runtime: a miniature Storm executing a topology on real
//! threads, with workers and shard-owned pipelines wired through the
//! in-process fabric.
//!
//! Each worker's tasks are split across [`LiveConfig::shards`] pipeline
//! threads by the stable map `task % shards`. A pipeline owns the whole
//! hot path for its slice — reader (its own fabric endpoint), routing
//! (per-task [`GroupingExec`](crate::grouping::GroupingExec) state),
//! execution, and sink — with no central dispatcher thread and no global
//! queue. Traffic crosses pipelines only when a grouping demands it (a
//! destination task another shard owns), through bounded per-shard
//! inboxes with [`SendError::Full`](whale_net::SendError::Full)
//! backpressure; same-shard deliveries loop back through a thread-local
//! queue without touching a channel at all.
//!
//! The [`CommMode`](crate::messaging::CommMode) decides whether an
//! emitted tuple becomes one
//! [`InstanceMessage`](crate::codec::InstanceMessage) per destination task
//! (Storm) or one [`WorkerMessage`](crate::codec::WorkerMessage) per
//! destination worker (Whale), and `zero_copy` selects RDMA-style shared
//! buffers vs TCP-style copies on the fabric.
//!
//! Layout: `wire` owns the frame bytes, `send` the one path a frame
//! takes to the fabric, `relay` the multicast tree, `reliability` the
//! acker and partition-log wiring, `pipeline` the per-shard loop,
//! `control` the adaptive and monitor threads, `config` and `report` what
//! goes in and what comes out.

mod config;
mod control;
mod pipeline;
mod relay;
mod reliability;
mod report;
mod send;
mod wire;

pub use config::{AckConfig, AdaptiveConfig, BuildError, LiveConfig, Operators};
#[doc(hidden)]
pub use pipeline::PipelineHarness;
pub use report::{RunOutcome, RunReport, TimelineSample};

use crate::pool::BufferPool;
use crate::scheduler::{Placement, WorkerId};
use crate::topology::{ComponentKind, Topology};
use crossbeam::channel::{bounded, unbounded};
use pipeline::ShardPipeline;
use relay::{oblivious_trees, rack_aware_trees, RelayEpoch, RelayState};
use reliability::{AckRuntime, LogRuntime};
use report::{Ctr, RunStats};
use send::{Groupings, LocalGroups, Routing, ShardInbox};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;
use whale_net::{ClusterSpec, EndpointId, FabricPath, FaultFabric, LinkTracker};

/// Execute a topology to completion on the live runtime.
///
/// Every spout runs until its `next_tuple` returns `None`; EOS then
/// propagates through the DAG; the run finishes when every executor has
/// drained. Returns aggregate statistics. A configuration that cannot
/// run comes back as [`RunOutcome::ConfigError`] with all-zero counters,
/// before the fabric is built or a thread spawned.
pub fn run_topology(topology: Topology, operators: Operators, config: LiveConfig) -> RunReport {
    let n_components = topology.components().len();
    if let Err(err) = config.validate(&topology, &operators) {
        return RunReport {
            outcome: RunOutcome::ConfigError(err),
            executed: vec![0; n_components],
            ..RunReport::default()
        };
    }

    let transport = config.fabric.build();
    // Fault injection wraps the concrete transport: every runtime send
    // and registration goes through the wrapper so the plan sees each
    // frame in order.
    let fault: Option<Arc<FaultFabric>> = config
        .fault
        .clone()
        .map(|plan| Arc::new(FaultFabric::new(Arc::clone(&transport), plan)));
    let fabric: Arc<dyn FabricPath> = match &fault {
        Some(f) => Arc::clone(f) as Arc<dyn FabricPath>,
        None => transport,
    };
    let (routing, mut pipelines, done_rx) =
        wire_up(topology, config, Arc::clone(&fabric), fault.clone());
    let routing = Arc::new(routing);
    let n_flat = pipelines.len();

    let start = Instant::now();

    // Log replay thread, only for a plan that restarts an endpoint: its
    // log slice is replayed when the fault layer reports it back. (Log GC
    // needs no thread: each appender collects under the lock it holds.)
    let log_stop = Arc::new(AtomicBool::new(false));
    let awaiting = reliability::restarting_endpoints(&routing, n_flat);
    let log_handle = fault.clone().filter(|_| !awaiting.is_empty()).map(|fault| {
        let (routing, stop) = (Arc::clone(&routing), Arc::clone(&log_stop));
        spawn_named("log-replay", move || {
            reliability::log_recovery_loop(&routing, &fault, awaiting, &stop)
        })
    });

    // Adaptive controller thread: samples the live workload, re-plans
    // d*, and switches tree generations while the data plane runs.
    let adaptive_stop = Arc::new(AtomicBool::new(false));
    let adaptive_handle = routing.config.multicast_adaptive.clone().map(|cfg| {
        let (routing, stop) = (Arc::clone(&routing), Arc::clone(&adaptive_stop));
        spawn_named("adaptive", move || {
            control::adaptive_loop(&cfg, &routing, &stop)
        })
    });

    // Monitor thread: snapshot the run's counters every interval into
    // the timeline (plus one final post-run sample at teardown).
    let monitor_stop = Arc::new(AtomicBool::new(false));
    let monitor_handle = routing.config.monitor_interval.map(|interval| {
        let (routing, stop) = (Arc::clone(&routing), Arc::clone(&monitor_stop));
        spawn_named("monitor", move || {
            control::monitor_loop(&routing, interval, start, &stop)
        })
    });

    populate(&routing, &operators, &mut pipelines);
    let handles: Vec<_> = pipelines
        .into_iter()
        .map(|p| p.spawn(Arc::clone(&routing)))
        .collect();

    // Wait until every pipeline reports its tasks complete (a pipeline
    // that panicked counts: its wrapper signals before re-raising).
    for _ in 0..n_flat {
        if done_rx.recv().is_err() {
            break;
        }
    }
    // Join every thread even if some panicked: bailing on the first
    // failure would skip the endpoint teardown below and leave the
    // pipeline threads spinning on an open fabric forever.
    let mut thread_panics = 0u64;
    // Producers done: stop reconfiguring before the fabric tears down.
    adaptive_stop.store(true, Ordering::Relaxed);
    if let Some(h) = adaptive_handle {
        thread_panics += h.join().is_err() as u64;
    }
    // Producers done means every replay that can still complete a tuple
    // has happened; stop the log replay thread before teardown, and
    // collect what resolved after each endpoint's last append so the
    // report's retained-bytes gauge reflects the end-of-run watermark.
    log_stop.store(true, Ordering::Relaxed);
    if let Some(h) = log_handle {
        thread_panics += h.join().is_err() as u64;
    }
    if let Some(log) = &routing.log {
        log.gc_pass();
    }
    // All producers done: release any fault-parked frames and flush
    // anything still buffered in the transport, then close the fabric
    // endpoints so the pipelines exit (they keep draining/relaying frames
    // until their endpoint closes).
    fabric.flush();
    for flat in 0..n_flat {
        fabric.deregister(EndpointId(flat as u32));
    }
    for h in handles {
        thread_panics += h.join().is_err() as u64;
    }
    // Operator panics were counted where the pipelines caught them (the
    // thread survives to run its other tasks); a dying thread joins the
    // same degradation signal.
    routing.stats.add(Ctr::thread_panics, thread_panics);
    monitor_stop.store(true, Ordering::Relaxed);
    let timeline = monitor_handle
        .and_then(|h| h.join().ok())
        .unwrap_or_default();

    RunReport::collect(&routing, start.elapsed(), timeline)
}

/// Spawn a runtime thread under `name`, so its CPU can be attributed.
fn spawn_named<T: Send + 'static>(
    name: impl Into<String>,
    f: impl FnOnce() -> T + Send + 'static,
) -> std::thread::JoinHandle<T> {
    std::thread::Builder::new()
        .name(name.into())
        .spawn(f)
        .expect("spawn a runtime thread")
}

/// Capacity of each pipeline's cross-shard inbox. Deliveries to a task
/// another shard owns go through this bounded queue; a full inbox
/// backpressures the sender under [`LiveConfig::send`] and drops loudly
/// (`send_failed`) if it never clears.
const SHARD_INBOX_CAPACITY: usize = 4096;

/// Everything of a run that exists before a thread does: the shared
/// [`Routing`] over `fabric` (the `fault` wrapper, when there is one) and
/// one empty pipeline per (worker, shard), each registered on the fabric,
/// plus the channel the pipelines report completion on.
fn wire_up(
    topology: Topology,
    config: LiveConfig,
    fabric: Arc<dyn FabricPath>,
    fault: Option<Arc<FaultFabric>>,
) -> (
    Routing,
    Vec<ShardPipeline>,
    crossbeam::channel::Receiver<()>,
) {
    // Topology awareness (racks, per-link accounting) comes in through
    // the adaptive config; without it the cluster is one flat rack.
    let topo_config = config.topology().cloned();
    let cluster = match &topo_config {
        Some(t) => t.cluster_spec(config.machines, 16),
        None => ClusterSpec::new(config.machines, 1, 16),
    };
    let placement = Placement::even(&topology, &cluster);

    // One flat shard per (worker, shard): each gets its own fabric
    // endpoint, a bounded cross-shard inbox and a lane of every counter.
    let shards = config.shards.max(1);
    let n_flat = (placement.workers() * shards) as usize;
    let stats = Arc::new(RunStats::new(topology.components().len(), n_flat));

    // Per-link accounting: attribute every send on the *outermost*
    // fabric (the fault wrapper delegates inward, so injected drops
    // never count and nothing double-counts) to its one egress link.
    let tracker = topo_config.as_ref().map(|_| {
        let t = Arc::new(LinkTracker::new(cluster.clone()));
        fabric.install_link_tracker(Arc::clone(&t));
        t
    });

    let relay = config.relay_enabled().then(|| {
        // An adaptive run that names no degree starts at 2.
        let d = config.multicast_d_star.unwrap_or(2).max(1);
        let trees = if topo_config.as_ref().is_some_and(|t| t.topo_trees) {
            // No traffic yet: the initial generation sees idle uplinks.
            rack_aware_trees(d, &placement, &cluster, &[])
        } else {
            oblivious_trees(d, placement.workers())
        };
        RelayState::new(RelayEpoch::new(0, d, trees), n_flat)
    });

    // Endpoint ids are assigned sequentially, so registration cannot
    // collide.
    let mut shard_inboxes = Vec::with_capacity(n_flat);
    let mut pipelines: Vec<ShardPipeline> = Vec::with_capacity(n_flat);
    let (done_tx, done_rx) = unbounded::<()>();
    for flat in 0..n_flat {
        let endpoint = EndpointId(flat as u32);
        let worker = flat as u32 / shards;
        let (tx, inbox_rx) = bounded(SHARD_INBOX_CAPACITY);
        shard_inboxes.push(ShardInbox::new(tx));
        let fabric_rx = fabric
            .register(endpoint)
            .expect("shard endpoint ids are unique");
        if let Some(t) = &tracker {
            // Pipeline endpoint → hosting machine, so the tracker can
            // classify each send's one egress link.
            t.map_endpoint(endpoint, placement.machine_of_worker(WorkerId(worker)));
        }
        pipelines.push(ShardPipeline::new(
            flat,
            worker,
            fabric_rx,
            inbox_rx,
            done_tx.clone(),
        ));
    }

    let ack = config.ack.map(AckRuntime::new);
    // An untracked run logs no tracked record: its watermark stays at 0.
    let ledger = ack.as_ref().map(|a| Arc::clone(&a.gauges));
    let log = config.log;
    let routing = Routing {
        ack,
        log: log.map(|cfg| LogRuntime::new(cfg, n_flat, ledger.unwrap_or_default())),
        groups: LocalGroups::new(&topology, &placement, shards),
        topology,
        placement,
        config,
        relay,
        fabric,
        fault,
        pool: BufferPool::default(),
        shard_inboxes,
        shards,
        stats,
        tracker,
    };
    (routing, pipelines, done_rx)
}

/// Hand every task to the pipeline owning its shard slice (stable
/// `task % shards` map) — operators are constructed here on the driver
/// thread so factory panics surface as config-time panics, not degraded
/// runs.
fn populate(routing: &Routing, operators: &Operators, pipelines: &mut [ShardPipeline]) {
    for comp in routing.topology.components() {
        let tasks = routing.topology.tasks().tasks_of(comp.id);
        for (idx, task) in tasks.into_iter().enumerate() {
            let pipeline = &mut pipelines[routing.flat_shard_of(task)];
            let groupings = Groupings::new(&routing.topology, task, comp.id);
            match comp.kind {
                ComponentKind::Spout => {
                    let factory = &operators.spouts[&comp.name];
                    pipeline.add_spout(task, factory(idx as u32), groupings);
                }
                ComponentKind::Bolt => {
                    let factory = &operators.bolts[&comp.name];
                    let expected_eos: usize = routing
                        .topology
                        .upstream_edges(comp.id)
                        .iter()
                        .map(|e| routing.topology.tasks().parallelism(e.from) as usize)
                        .sum();
                    pipeline.add_bolt(task, comp.id, factory(idx as u32), groupings, expected_eos);
                }
            }
        }
    }
}

#[cfg(test)]
mod testkit {
    //! Topologies and a hand-built [`Routing`] shared by the unit tests
    //! of the runtime's submodules.

    pub(super) use super::*;
    pub(super) use crate::messaging::CommMode;
    pub(super) use crate::operator::{Emitter, FnBolt, IterSpout};
    pub(super) use crate::topology::Grouping;
    pub(super) use crate::tuple::{Schema, Tuple, Value};
    pub(super) use std::time::Duration;
    pub(super) use whale_net::FabricKind;

    pub(super) fn counting_topology(machines: u32, bolt_p: u32) -> (Topology, Operators) {
        let mut b = crate::topology::TopologyBuilder::new();
        b.spout("src", 1, Schema::new(vec!["n"]))
            .bolt("double", bolt_p, Schema::new(vec!["n"]))
            .bolt("sink", 1, Schema::new(vec!["n"]))
            .connect("src", "double", Grouping::All)
            .connect("double", "sink", Grouping::Shuffle);
        let t = b.build().unwrap();
        let _ = machines;
        let ops = Operators::new()
            .spout("src", |_| {
                Box::new(IterSpout::new(
                    (0..100i64).map(|i| Tuple::with_id(i as u64, vec![Value::I64(i)])),
                ))
            })
            .bolt("double", |_| {
                Box::new(FnBolt::new(|t: &Tuple, out: &mut dyn Emitter| {
                    let x = t.get(0).unwrap().as_i64().unwrap();
                    out.emit(Tuple::new(vec![Value::I64(x * 2)]));
                }))
            })
            .bolt("sink", |_| {
                Box::new(FnBolt::new(|_t: &Tuple, _out: &mut dyn Emitter| {}))
            });
        (t, ops)
    }

    pub(super) fn run(mode: CommMode, zero_copy: bool, machines: u32, bolt_p: u32) -> RunReport {
        let (t, ops) = counting_topology(machines, bolt_p);
        run_topology(
            t,
            ops,
            LiveConfig {
                machines,
                comm_mode: mode,
                zero_copy,
                multicast_d_star: None,
                fabric: FabricKind::PerSend,
                ..LiveConfig::default()
            },
        )
    }

    /// spout → sink directly: the acker tracks spout emissions to their
    /// first-hop subscribers, so a one-edge topology makes the delivery
    /// accounting exact.
    pub(super) fn ack_topology(n: i64, fanout: u32) -> (Topology, Operators) {
        let mut b = crate::topology::TopologyBuilder::new();
        b.spout("src", 1, Schema::new(vec!["n"]))
            .bolt("sink", fanout, Schema::new(vec!["n"]))
            .connect("src", "sink", Grouping::All);
        let t = b.build().unwrap();
        let ops = Operators::new()
            .spout("src", move |_| {
                Box::new(IterSpout::new(
                    (0..n).map(|i| Tuple::with_id(i as u64, vec![Value::I64(i)])),
                ))
            })
            .bolt("sink", |_| {
                Box::new(FnBolt::new(|_t: &Tuple, _out: &mut dyn Emitter| {}))
            });
        (t, ops)
    }

    /// The threads of a run without the run around them: `topology`'s
    /// pipelines spawned over a per-send fabric and left running — blocked
    /// on their endpoints once their tasks are done — until
    /// [`Self::finish`], for tests that reach into the shared state of a
    /// run in progress. No control thread is started.
    pub(super) struct LiveRun {
        pub(super) routing: Arc<Routing>,
        handles: Vec<std::thread::JoinHandle<()>>,
        done_rx: crossbeam::channel::Receiver<()>,
    }

    impl LiveRun {
        pub(super) fn start(topology: Topology, operators: &Operators, config: LiveConfig) -> Self {
            let fabric: Arc<dyn FabricPath> = Arc::new(whale_net::LiveFabric::new());
            let (routing, mut pipelines, done_rx) = wire_up(topology, config, fabric, None);
            let routing = Arc::new(routing);
            populate(&routing, operators, &mut pipelines);
            let spawn = |p: ShardPipeline| p.spawn(Arc::clone(&routing));
            let handles = pipelines.into_iter().map(spawn).collect();
            LiveRun {
                routing,
                handles,
                done_rx,
            }
        }

        /// Block until every pipeline has completed its tasks.
        pub(super) fn wait_done(&self) {
            for _ in &self.handles {
                self.done_rx.recv().expect("pipelines report completion");
            }
        }

        /// Close the endpoints and join the pipelines (after
        /// [`Self::wait_done`]).
        pub(super) fn finish(self) {
            for flat in 0..self.handles.len() {
                self.routing.fabric.deregister(EndpointId(flat as u32));
            }
            for h in self.handles {
                h.join().expect("no pipeline panicked");
            }
        }
    }

    /// A [`Routing`] over [`counting_topology`] on two machines with no
    /// pipelines behind it, for driving the receive path frame by frame.
    pub(super) fn bare_routing(config: LiveConfig, relay: Option<RelayState>) -> Routing {
        let (topology, _ops) = counting_topology(2, 4);
        let placement = Placement::even(&topology, &ClusterSpec::new(2, 1, 16));
        Routing {
            groups: LocalGroups::new(&topology, &placement, 1),
            topology,
            placement,
            config,
            fabric: Arc::new(whale_net::LiveFabric::new()),
            fault: None,
            pool: BufferPool::default(),
            shard_inboxes: Vec::new(),
            shards: 1,
            stats: Arc::new(RunStats::new(0, 0)),
            ack: None,
            relay,
            log: None,
            tracker: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::*;

    #[test]
    fn all_grouping_fans_out_to_every_instance() {
        let r = run(CommMode::WorkerOriented, true, 4, 8);
        // 100 source tuples × 8 instances.
        assert_eq!(r.executed[1], 800);
        // Each doubled tuple shuffles to the single sink.
        assert_eq!(r.executed[2], 800);
        assert_eq!(r.spout_emitted, 100);
    }

    #[test]
    fn instance_oriented_matches_results_with_more_serialization() {
        let io = run(CommMode::InstanceOriented, false, 4, 8);
        let wo = run(CommMode::WorkerOriented, true, 4, 8);
        // Same data-plane results...
        assert_eq!(io.executed, wo.executed);
        // ...but instance-oriented serializes per destination: the
        // all-grouping stage costs 100×8 serializations instead of 100×1
        // (the shuffle stage is 1-fanout and serializes once either way).
        assert_eq!(io.serializations - wo.serializations, 100 * (8 - 1));
        // And moves more bytes (copied path) than worker-oriented fabric
        // messages.
        assert!(io.fabric_messages > wo.fabric_messages);
    }

    #[test]
    fn single_machine_runs_entirely_local() {
        let r = run(CommMode::WorkerOriented, true, 1, 4);
        assert_eq!(r.executed[1], 400);
        // EOS frames may be local too: everything is on one worker.
        assert_eq!(r.copied_bytes + r.shared_bytes, 0);
    }

    #[test]
    fn run_survives_panicking_bolt_and_tears_down_in_order() {
        // A panicking executor must not wedge the run: every thread is
        // still joined, the fabric endpoints are closed so pipelines
        // exit, and the report records the failures.
        let mut b = crate::topology::TopologyBuilder::new();
        b.spout("src", 1, Schema::new(vec!["n"]))
            .bolt("boom", 4, Schema::new(vec!["n"]))
            .connect("src", "boom", Grouping::All);
        let t = b.build().unwrap();
        let ops = Operators::new()
            .spout("src", |_| {
                Box::new(IterSpout::new(
                    (0..10i64).map(|i| Tuple::with_id(i as u64, vec![Value::I64(i)])),
                ))
            })
            .bolt("boom", |_| {
                Box::new(FnBolt::new(|_t: &Tuple, _out: &mut dyn Emitter| {
                    panic!("injected bolt failure")
                }))
            });
        let r = run_topology(
            t,
            ops,
            LiveConfig {
                machines: 2,
                comm_mode: CommMode::WorkerOriented,
                zero_copy: true,
                multicast_d_star: None,
                fabric: FabricKind::PerSend,
                ..LiveConfig::default()
            },
        );
        assert!(r.thread_panics >= 1, "panics = {}", r.thread_panics);
        assert_eq!(r.spout_emitted, 10);
        assert_eq!(
            r.outcome,
            RunOutcome::Degraded {
                thread_panics: r.thread_panics,
                failed_sends: 0,
                failed_tuples: 0,
                deadline_exits: 0,
            }
        );
        assert!(!r.outcome.is_clean());
    }

    #[test]
    fn clean_run_reports_clean_outcome() {
        let r = run(CommMode::WorkerOriented, true, 4, 8);
        assert_eq!(r.outcome, RunOutcome::Clean);
        assert!(r.outcome.is_clean());
        assert_eq!(r.send_errors, 0);
        assert_eq!(r.batches_flushed, 0, "per-send path never batches");
        assert_eq!(r.mean_batch_size, 0.0);
    }

    #[test]
    fn ring_fabric_matches_per_send_results_and_batches() {
        let (t, ops) = counting_topology(4, 8);
        let ring = run_topology(
            t,
            ops,
            LiveConfig {
                machines: 4,
                comm_mode: CommMode::WorkerOriented,
                zero_copy: true,
                multicast_d_star: None,
                fabric: FabricKind::Ring(whale_net::RingConfig::default()),
                ..LiveConfig::default()
            },
        );
        let direct = run(CommMode::WorkerOriented, true, 4, 8);
        // Same data-plane results through the batched path...
        assert_eq!(ring.executed, direct.executed);
        assert_eq!(ring.spout_emitted, direct.spout_emitted);
        assert_eq!(ring.fabric_messages, direct.fabric_messages);
        assert_eq!(ring.shared_bytes, direct.shared_bytes);
        // ...but delivered through MMS/WTL batches, cleanly.
        assert!(ring.batches_flushed > 0, "ring path must batch");
        assert!(ring.mean_batch_size >= 1.0);
        assert_eq!(ring.outcome, RunOutcome::Clean);
        assert_eq!(ring.send_errors, 0);
    }

    #[test]
    fn one_sided_fabric_matches_per_send_results() {
        let (t, ops) = counting_topology(4, 8);
        let one_sided = run_topology(
            t,
            ops,
            LiveConfig {
                machines: 4,
                comm_mode: CommMode::WorkerOriented,
                zero_copy: true,
                multicast_d_star: None,
                fabric: FabricKind::OneSided(whale_net::OneSidedConfig::default()),
                ..LiveConfig::default()
            },
        );
        let direct = run(CommMode::WorkerOriented, true, 4, 8);
        // Same data-plane results through the remote-fetch path...
        assert_eq!(one_sided.executed, direct.executed);
        assert_eq!(one_sided.spout_emitted, direct.spout_emitted);
        assert_eq!(one_sided.fabric_messages, direct.fabric_messages);
        assert_eq!(one_sided.shared_bytes, direct.shared_bytes);
        // ...delivered by the fetcher, cleanly, with no push batching.
        assert_eq!(one_sided.batches_flushed, 0, "fetch path never batches");
        assert_eq!(one_sided.outcome, RunOutcome::Clean);
        assert_eq!(one_sided.send_errors, 0);
    }

    #[test]
    fn deterministic_tuple_counts_across_modes_and_scales() {
        for machines in [1, 2, 8] {
            for p in [1, 4, 16] {
                let r = run(CommMode::WorkerOriented, true, machines, p);
                assert_eq!(r.executed[1] as u32, 100 * p, "machines={machines} p={p}");
            }
        }
    }
}
