//! The live runtime: a miniature Storm executing a topology on real
//! threads, with workers and shard-owned pipelines wired through the
//! in-process fabric.
//!
//! Each worker's tasks are split across [`LiveConfig::shards`] pipelines
//! by the stable map `task % shards`. A pipeline owns the whole hot path
//! for its slice — reader (its own fabric endpoint), routing (per-task
//! [`GroupingExec`](crate::grouping::GroupingExec) state), execution, and
//! sink — with no central dispatcher and no global queue. The pipelines
//! run as steps on one executor thread per available core, which parks
//! only when none of its steps progressed. Traffic crosses pipelines only
//! when a grouping demands it (a destination task another shard owns),
//! through bounded per-shard inboxes with
//! [`SendError::Full`](whale_net::SendError::Full) backpressure;
//! same-shard deliveries loop back through a thread-local queue without
//! touching a channel at all.
//!
//! The [`CommMode`](crate::messaging::CommMode) decides whether an
//! emitted tuple becomes one
//! [`InstanceMessage`](crate::codec::InstanceMessage) per destination task
//! (Storm) or one [`WorkerMessage`](crate::codec::WorkerMessage) per
//! destination worker (Whale), and `zero_copy` selects RDMA-style shared
//! buffers vs TCP-style copies on the fabric.
//!
//! Layout: `wire` owns the frame bytes, `send` the one path a frame
//! takes to the fabric, `runs` what a step has encoded and not sent yet,
//! `relay` the multicast tree, `reliability` the
//! acker and partition-log wiring, `pipeline` the per-shard step,
//! `executor` the threads that run the steps (a run has no others),
//! `control` the step that runs the adaptive controller and log replay on
//! the last executor, `config` and `report` what goes in and what comes
//! out.

mod config;
mod control;
mod executor;
mod pipeline;
mod relay;
mod reliability;
mod report;
mod runs;
mod send;
mod wire;

pub use config::{AckConfig, AdaptiveConfig, BuildError, LiveConfig, Operators};
#[doc(hidden)]
pub use pipeline::PipelineHarness;
pub use report::{RunOutcome, RunReport};

use crate::pool::BufferPool;
use crate::scheduler::{Placement, WorkerId};
use crate::topology::{ComponentKind, Topology};
use control::Control;
use crossbeam::channel::{bounded, unbounded, Sender};
use executor::Executor;
use pipeline::ShardPipeline;
use relay::{oblivious_trees, rack_aware_trees, RelayEpoch, RelayState};
use reliability::{AckRuntime, LogRuntime};
use report::{Ctr, RunStats};
use send::{Groupings, LocalGroups, Routing, ShardInbox};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;
use whale_net::{ClusterSpec, EndpointId, FabricPath, FaultFabric, LinkTracker, Waker};

/// Execute a topology to completion on the live runtime
/// ([`spawn_topology`], then [`RunHandle::join`]). A configuration that
/// cannot run comes back as [`RunOutcome::ConfigError`] with all-zero
/// counters.
pub fn run_topology(topology: Topology, operators: Operators, config: LiveConfig) -> RunReport {
    let n_components = topology.components().len();
    match spawn_topology(topology, operators, config) {
        Ok(run) => run.join(),
        Err(err) => RunReport {
            outcome: RunOutcome::ConfigError(err),
            executed: vec![0; n_components],
            ..RunReport::default()
        },
    }
}

/// Start a topology on the live runtime and return once its threads run.
/// Every spout runs until its `next_tuple` returns `None`; EOS then
/// propagates through the DAG; the run is over when every pipeline has
/// drained. A configuration that cannot run is a [`BuildError`], before
/// the fabric is built or a thread spawned.
///
/// ```
/// use whale_dsps::{spawn_topology, Emitter, FnBolt, Grouping, IterSpout, LiveConfig};
/// use whale_dsps::{Operators, Schema, TopologyBuilder, Tuple, Value};
///
/// let mut b = TopologyBuilder::new();
/// b.spout("src", 1, Schema::new(vec!["n"]))
///     .bolt("sink", 2, Schema::new(vec!["n"]))
///     .connect("src", "sink", Grouping::All);
/// let numbers = (0..100u64).map(|i| Tuple::with_id(i, vec![Value::I64(i as i64)]));
/// let ops = Operators::new()
///     .spout("src", move |_| Box::new(IterSpout::new(numbers.clone())))
///     .bolt("sink", |_| Box::new(FnBolt::new(|_: &Tuple, _: &mut dyn Emitter| {})));
/// let run = spawn_topology(b.build().unwrap(), ops, LiveConfig::default()).unwrap();
/// let so_far = run.snapshot();
/// let report = run.join();
/// assert!(so_far.spout_emitted <= report.spout_emitted);
/// assert_eq!(report.executed[1], 200);
/// ```
pub fn spawn_topology(
    topology: Topology,
    operators: Operators,
    config: LiveConfig,
) -> Result<RunHandle, BuildError> {
    spawn_on(topology, operators, config, None)
}

/// [`spawn_topology`] on `executors` data-plane threads, however many
/// cores there are (at most one per pipeline): for tests that need each
/// pipeline alone on its thread, or all of them on one.
#[doc(hidden)]
pub fn spawn_topology_on(
    topology: Topology,
    operators: Operators,
    config: LiveConfig,
    executors: usize,
) -> Result<RunHandle, BuildError> {
    spawn_on(topology, operators, config, Some(executors))
}

/// [`spawn_topology`] on `executors` data-plane threads (`None`: one per
/// available core, at most one per pipeline).
fn spawn_on(
    topology: Topology,
    operators: Operators,
    config: LiveConfig,
    executors: Option<usize>,
) -> Result<RunHandle, BuildError> {
    config.validate(&topology, &operators)?;

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
    let (done_tx, done_rx) = unbounded();
    let (routing, mut pipelines, wakers) =
        wire_up(topology, config, fabric, fault, executors, &done_tx);
    let routing = Arc::new(routing);

    let start = Instant::now();
    let stop = Arc::new(AtomicBool::new(false));
    let control = Control::new(&routing, pipelines.len(), Arc::clone(&stop), done_tx);
    populate(&routing, &operators, &mut pipelines);
    Ok(RunHandle {
        pipelines: pipelines.len(),
        control_waker: control.as_ref().and(wakers.last()).map(Arc::clone),
        executors: Executor::spawn_all(pipelines, control, &wakers, &routing),
        stop,
        routing,
        start,
        done_rx,
    })
}

/// A live run in progress (see [`spawn_topology`]). Dropping it without
/// [`Self::join`] tears the run down the same way, unreported.
pub struct RunHandle {
    routing: Arc<Routing>,
    start: Instant,
    done_rx: crossbeam::channel::Receiver<()>,
    /// One per (worker, shard), each with a fabric endpoint.
    pipelines: usize,
    /// The run's threads; empty once torn down.
    executors: Vec<JoinHandle<()>>,
    /// The waker of the executor that runs the control step, if there is
    /// one, and the flag that ends that step.
    control_waker: Option<Arc<Waker>>,
    stop: Arc<AtomicBool>,
}

impl RunHandle {
    /// The run as it reads now: every counter and the delivery-latency
    /// histogram so far, `elapsed` since it started, and the outcome they
    /// add up to, without the relay's timing reservoirs [`Self::join`]
    /// takes. No counter reads lower later.
    pub fn snapshot(&self) -> RunReport {
        self.routing.snapshot(self.start.elapsed())
    }

    /// Wait until every executor has drained, tear the run down in order
    /// and report it.
    pub fn join(mut self) -> RunReport {
        self.teardown();
        RunReport::collect(&self.routing, self.start.elapsed())
    }

    /// Wait for every pipeline to report its tasks complete, then for the
    /// control step to end, close the fabric and join everything. A second
    /// call finds no executor left and does nothing.
    fn teardown(&mut self) {
        if self.executors.is_empty() {
            return;
        }
        let (routing, fabric) = (&self.routing, &self.routing.fabric);
        // A pipeline on an executor that panicked counts: the executor
        // signals for it before re-raising.
        for _ in 0..self.pipelines {
            if self.done_rx.recv().is_err() {
                break;
            }
        }
        // Producers done: stop reconfiguring, and replaying (every replay
        // that can still complete a tuple has happened), before the fabric
        // tears down. The control step signals once the last demoted
        // generation has retired (or at once, if it already went).
        if let Some(waker) = &self.control_waker {
            self.stop.store(true, Ordering::Relaxed);
            waker.wake();
            let _ = self.done_rx.recv();
        }
        // Then collect what resolved after each endpoint's last append, so
        // the retained-bytes gauge is the end-of-run one.
        if let Some(log) = &routing.log {
            log.gc_pass();
        }
        // All producers done: release any fault-parked frames and flush
        // anything still buffered in the transport, then close the fabric
        // endpoints so the pipelines exit (they keep draining/relaying
        // frames until their endpoint closes).
        fabric.flush();
        for flat in 0..self.pipelines {
            fabric.deregister(EndpointId(flat as u32));
        }
        // Join every thread even if some panicked: bailing on the first
        // failure would leave the rest running. Operator panics were
        // counted where the pipelines caught them (the executor survives
        // to run its other tasks); a dying thread joins the same
        // degradation signal.
        let joins = self.executors.drain(..).map(JoinHandle::join);
        let thread_panics = joins.filter(Result::is_err).count() as u64;
        routing.stats.add(Ctr::thread_panics, thread_panics);
    }
}

impl Drop for RunHandle {
    fn drop(&mut self) {
        self.teardown();
    }
}

/// Capacity of each pipeline's cross-shard inbox. Deliveries to a task
/// another shard owns go through this bounded queue; a full inbox
/// backpressures the sender under [`LiveConfig::send`] and drops loudly
/// (`send_failed`) if it never clears.
const SHARD_INBOX_CAPACITY: usize = 4096;

/// Everything of a run that exists before a thread does: the shared
/// [`Routing`] over `fabric` (the `fault` wrapper, when there is one), one
/// empty pipeline per (worker, shard), each registered on the fabric, the
/// waker of each of `executors` executors (`None`: [`executor::executors_for`]).
/// The pipelines report completion on `done_tx`.
fn wire_up(
    topology: Topology,
    config: LiveConfig,
    fabric: Arc<dyn FabricPath>,
    fault: Option<Arc<FaultFabric>>,
    executors: Option<usize>,
    done_tx: &Sender<()>,
) -> (Routing, Vec<ShardPipeline>, Vec<Arc<Waker>>) {
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

    // Each pipeline's endpoint and cross-shard inbox wake the executor it
    // runs on. Endpoint ids are assigned sequentially, so registration
    // cannot collide.
    let executors = executors.unwrap_or_else(|| executor::executors_for(n_flat));
    let wakers: Vec<Arc<Waker>> = (0..executors.clamp(1, n_flat.max(1)))
        .map(|_| Arc::default())
        .collect();
    let mut shard_inboxes = Vec::with_capacity(n_flat);
    let mut pipelines: Vec<ShardPipeline> = Vec::with_capacity(n_flat);
    for flat in 0..n_flat {
        let endpoint = EndpointId(flat as u32);
        let worker = flat as u32 / shards;
        let waker = &wakers[executor::executor_of(flat, n_flat, wakers.len())];
        let (tx, inbox_rx) = bounded(SHARD_INBOX_CAPACITY);
        shard_inboxes.push(ShardInbox::new(tx, Arc::clone(waker)));
        let fabric_rx = fabric
            .register_woken(endpoint, Arc::clone(waker))
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
    // An untracked run logs nothing: its watermark stays at 0.
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
    (routing, pipelines, wakers)
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
    pub(super) use std::sync::atomic::AtomicU64;
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
        paced_ack_topology(n, fanout, false)
    }

    /// [`ack_topology`] whose spout, when `slow`, takes longer on each
    /// tuple than a step waits on one call: every step emits one tuple, so
    /// every run it sends is a run of one — one frame per tuple and
    /// destination, which is what a schedule counted in frames assumes.
    pub(super) fn paced_ack_topology(n: i64, fanout: u32, slow: bool) -> (Topology, Operators) {
        let mut b = crate::topology::TopologyBuilder::new();
        b.spout("src", 1, Schema::new(vec!["n"]))
            .bolt("sink", fanout, Schema::new(vec!["n"]))
            .connect("src", "sink", Grouping::All);
        let t = b.build().unwrap();
        let ops = Operators::new()
            .spout("src", move |_| {
                Box::new(IterSpout::new((0..n).map(move |i| {
                    if slow {
                        std::thread::sleep(Duration::from_micros(60));
                    }
                    Tuple::with_id(i as u64, vec![Value::I64(i)])
                })))
            })
            .bolt("sink", |_| {
                Box::new(FnBolt::new(|_t: &Tuple, _out: &mut dyn Emitter| {}))
            });
        (t, ops)
    }

    /// A sink that counts what it executes into its slot of the first
    /// array, and what it had counted when its EOS arrived into the second.
    pub(super) struct AtEos {
        idx: usize,
        executed: Arc<[AtomicU64; 16]>,
        at_eos: Arc<[AtomicU64; 16]>,
    }

    impl crate::operator::Bolt for AtEos {
        fn execute(&mut self, _t: &Tuple, _out: &mut dyn Emitter) {
            self.executed[self.idx].fetch_add(1, Ordering::Relaxed);
        }

        fn finish(&mut self, _out: &mut dyn Emitter) {
            let n = self.executed[self.idx].load(Ordering::Relaxed);
            self.at_eos[self.idx].store(n, Ordering::Relaxed);
        }
    }

    /// A prompt spout of `tuples` tuples → 16 all-grouped [`AtEos`]
    /// sinks, and what each sink had executed when its EOS arrived. The
    /// spout doubles its batch each step, so its last step emits a run's
    /// worth of tuples and then finds the source dry: the EOS it sends in
    /// that step must leave behind that run, or a sink would finish short.
    pub(super) fn at_eos_topology(tuples: u64) -> (Topology, Operators, Arc<[AtomicU64; 16]>) {
        let mut b = crate::topology::TopologyBuilder::new();
        b.spout("src", 1, Schema::new(vec!["n"]))
            .bolt("sink", 16, Schema::new(vec!["n"]))
            .connect("src", "sink", Grouping::All);
        let executed: Arc<[AtomicU64; 16]> = Arc::default();
        let at_eos: Arc<[AtomicU64; 16]> = Arc::default();
        let (counts, finished) = (Arc::clone(&executed), Arc::clone(&at_eos));
        let ops = Operators::new()
            .spout("src", move |_| {
                let tuples = (0..tuples).map(|i| Tuple::with_id(i, vec![Value::I64(i as i64)]));
                Box::new(IterSpout::new(tuples))
            })
            .bolt("sink", move |idx| {
                Box::new(AtEos {
                    idx: idx as usize,
                    executed: Arc::clone(&counts),
                    at_eos: Arc::clone(&finished),
                })
            });
        (b.build().unwrap(), ops, at_eos)
    }

    /// [`run_topology`] on `executors` data-plane threads, however many
    /// cores there are.
    pub(super) fn run_on(
        topology: Topology,
        operators: Operators,
        config: LiveConfig,
        executors: usize,
    ) -> RunReport {
        let run = spawn_topology_on(topology, operators, config, executors);
        run.expect("a runnable config").join()
    }

    /// The threads of a run without the run around them: `topology`'s
    /// pipelines on their executors over a per-send fabric, left running —
    /// parked once their tasks are done — until [`Self::finish`], for tests
    /// that reach into the shared state of a run in progress. No control
    /// step runs.
    pub(super) struct LiveRun {
        pub(super) routing: Arc<Routing>,
        /// What each executor parks on.
        pub(super) wakers: Vec<Arc<Waker>>,
        pipelines: usize,
        handles: Vec<std::thread::JoinHandle<()>>,
        done_rx: crossbeam::channel::Receiver<()>,
    }

    impl LiveRun {
        pub(super) fn start(topology: Topology, operators: &Operators, config: LiveConfig) -> Self {
            let fabric: Arc<dyn FabricPath> = Arc::new(whale_net::LiveFabric::new());
            let (done_tx, done_rx) = unbounded();
            let (routing, mut pipelines, wakers) =
                wire_up(topology, config, fabric, None, None, &done_tx);
            let routing = Arc::new(routing);
            populate(&routing, operators, &mut pipelines);
            LiveRun {
                pipelines: pipelines.len(),
                handles: Executor::spawn_all(pipelines, None, &wakers, &routing),
                routing,
                wakers,
                done_rx,
            }
        }

        /// Block until every pipeline has completed its tasks.
        pub(super) fn wait_done(&self) {
            for _ in 0..self.pipelines {
                self.done_rx.recv().expect("pipelines report completion");
            }
        }

        /// Close the endpoints and join the executors (after
        /// [`Self::wait_done`]).
        pub(super) fn finish(self) {
            for flat in 0..self.pipelines {
                self.routing.fabric.deregister(EndpointId(flat as u32));
            }
            for h in self.handles {
                h.join().expect("no executor panicked");
            }
        }
    }

    /// Snapshot `run` every millisecond until a read satisfies `until`, or
    /// for at most 30 s: every read taken, oldest first.
    pub(super) fn read_until(
        run: &RunHandle,
        until: impl Fn(&RunReport) -> bool,
    ) -> Vec<RunReport> {
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut reads = vec![run.snapshot()];
        while !until(reads.last().unwrap()) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
            reads.push(run.snapshot());
        }
        reads
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
        // Same data-plane results through the batched path: the same
        // records and bytes (how many records share a frame follows the
        // schedule)...
        assert_eq!(ring.executed, direct.executed);
        assert_eq!(ring.spout_emitted, direct.spout_emitted);
        assert_eq!(ring.frames_encoded, direct.frames_encoded);
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
        // Same data-plane results through the remote-fetch path: the same
        // records and bytes...
        assert_eq!(one_sided.executed, direct.executed);
        assert_eq!(one_sided.spout_emitted, direct.spout_emitted);
        assert_eq!(one_sided.frames_encoded, direct.frames_encoded);
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

    /// src → an all-grouped `sink` of `sinks` instances over four
    /// machines; the spout calls `before` with each of its `tuples`' index
    /// before it emits that tuple.
    fn broadcast(
        tuples: u64,
        before: impl Fn(u64) + Clone + Send + Sync + 'static,
        sinks: u32,
        sink: impl Fn() -> Box<dyn crate::operator::Bolt> + Send + Sync + 'static,
    ) -> (Topology, Operators) {
        let mut b = crate::topology::TopologyBuilder::new();
        b.spout("src", 1, Schema::new(vec!["n"]))
            .bolt("sink", sinks, Schema::new(vec!["n"]))
            .connect("src", "sink", Grouping::All);
        let ops = Operators::new()
            .spout("src", move |_| {
                let before = before.clone();
                Box::new(IterSpout::new((0..tuples).map(move |i| {
                    before(i);
                    Tuple::with_id(i, vec![Value::I64(i as i64)])
                })))
            })
            .bolt("sink", move |_| sink());
        (b.build().unwrap(), ops)
    }

    #[test]
    fn a_snapshot_mid_run_reads_the_run_so_far() {
        // The caller's thread reads a running broadcast at its own pace:
        // a read lands mid-stream (the spout waits at its midpoint until
        // one has seen it there), no counter a read shows ever falls, and
        // the joined report is at least the last read, its delivery
        // histogram included.
        const TUPLES: u64 = 200;
        let gate = Arc::new(std::sync::Barrier::new(2));
        let spout_gate = Arc::clone(&gate);
        let throttled = move |i| {
            std::thread::sleep(Duration::from_micros(200));
            if i == TUPLES / 2 {
                spout_gate.wait();
            }
        };
        let (t, ops) = broadcast(TUPLES, throttled, 8, || {
            Box::new(FnBolt::new(|_t: &Tuple, _out: &mut dyn Emitter| {}))
        });
        let run = spawn_topology(t, ops, LiveConfig::default()).expect("a runnable config");
        let mut snapshots = read_until(&run, |s| s.spout_emitted >= TUPLES / 2);
        gate.wait();
        snapshots.extend(read_until(&run, |s| s.spout_emitted == TUPLES));
        let joined = run.join();
        assert_eq!(joined.outcome, RunOutcome::Clean);
        assert_eq!(joined.executed[1], TUPLES * 8);
        assert!(
            (snapshots.iter()).any(|s| (1..TUPLES).contains(&s.spout_emitted)),
            "no read landed mid-stream"
        );
        // Ids 8, 16, …, 192 are sampled, each executed by all 8 sinks.
        assert_eq!(joined.delivery_ns.count(), 24 * 8);
        // (elapsed, spout_emitted, executed, fabric_messages, latencies)
        let read = |r: &RunReport| {
            let executed: u64 = r.executed.iter().sum();
            let latencies = r.delivery_ns.count();
            (
                r.elapsed,
                r.spout_emitted,
                executed,
                r.fabric_messages,
                latencies,
            )
        };
        let reads: Vec<_> = snapshots.iter().chain([&joined]).map(read).collect();
        for w in reads.windows(2) {
            let (a, b) = (w[0], w[1]);
            let none_fell = b.0 >= a.0 && b.1 >= a.1 && b.2 >= a.2 && b.3 >= a.3 && b.4 >= a.4;
            assert!(none_fell, "a later read fell: {a:?} then {b:?}");
        }
    }

    /// A bolt that counts what it executes (`[0]`) and its own drop (`[1]`).
    struct Counted(Arc<[std::sync::atomic::AtomicU64; 2]>);

    impl crate::operator::Bolt for Counted {
        fn execute(&mut self, _input: &Tuple, _out: &mut dyn Emitter) {
            self.0[0].fetch_add(1, Ordering::Relaxed);
        }
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            self.0[1].fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn dropping_a_run_handle_tears_the_run_down() {
        // A handle dropped mid-run, never joined, tears down as `join`
        // does: the run finishes, then closes its fabric and joins its
        // pipelines, which drop their bolts. The drop runs on a thread of
        // its own and the wait is bounded, so a teardown that never comes
        // fails instead of hanging.
        const SINKS: u32 = 8;
        let counts: Arc<[std::sync::atomic::AtomicU64; 2]> = Arc::default();
        let counter = Arc::clone(&counts);
        let throttled = |_| std::thread::sleep(Duration::from_micros(200));
        let (t, ops) = broadcast(100, throttled, SINKS, move || {
            Box::new(Counted(Arc::clone(&counter)))
        });
        let run = spawn_topology(t, ops, LiveConfig::default()).expect("a runnable config");
        let dropper = std::thread::spawn(move || drop(run));
        let deadline = Instant::now() + Duration::from_secs(30);
        while counts[1].load(Ordering::Relaxed) < SINKS as u64 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let [executed, dropped] = [0, 1].map(|i| counts[i].load(Ordering::Relaxed));
        assert_eq!(
            dropped, SINKS as u64,
            "every bolt is dropped once its pipeline is joined"
        );
        assert_eq!(
            executed,
            100 * SINKS as u64,
            "the run finished before it tore down"
        );
        dropper.join().expect("dropping a handle does not panic");
    }
}
