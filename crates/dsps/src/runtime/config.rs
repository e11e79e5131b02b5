//! What a live run is configured with: [`LiveConfig`] and its
//! sub-configs, the [`Operators`] registry, and the up-front validation
//! that turns an unrunnable combination into a [`BuildError`] before
//! anything is built.

use crate::messaging::CommMode;
use crate::operator::{Bolt, BoltFactory, Spout, SpoutFactory};
use crate::topology::{ComponentKind, Grouping, Topology};
use std::collections::HashMap;
use std::time::Duration;
use whale_net::{FabricKind, FaultPlan, LogConfig, SendPolicy, TopologyConfig};

/// Runtime configuration.
#[derive(Clone, Debug)]
pub struct LiveConfig {
    /// Number of simulated machines (= worker processes).
    pub machines: u32,
    /// Instance-oriented (Storm) or worker-oriented (Whale) messaging.
    pub comm_mode: CommMode,
    /// RDMA-style shared buffers (true) vs TCP-style copies (false).
    pub zero_copy: bool,
    /// Relay all-grouped broadcasts through a non-blocking multicast tree
    /// over the workers with this maximum out-degree, instead of the
    /// source sending to every worker directly. Requires
    /// [`CommMode::WorkerOriented`].
    pub multicast_d_star: Option<u32>,
    /// Re-plan the relay tree's out-degree at runtime from live workload
    /// samples (the paper's workload monitor + self-adjusting
    /// controller), switching between epoch-versioned tree generations
    /// without stopping the data plane. Implies the relay path, whose
    /// first generation has out-degree `multicast_d_star` (2 when that
    /// is `None`). Requires [`CommMode::WorkerOriented`].
    pub multicast_adaptive: Option<AdaptiveConfig>,
    /// Shard-owned pipelines per worker. Each worker's tasks are split
    /// across this many pipelines by the stable map `task % shards`;
    /// every pipeline owns its own fabric endpoint — on a buffered
    /// transport it drains that endpoint's ring or links itself — routing
    /// state, and bolts, and runs as steps on one of the run's executor
    /// threads (one per available core), so the per-worker receive path
    /// scales with cores instead of serializing behind one dispatcher or
    /// drain thread. `1` (the default) runs one pipeline per worker.
    /// Values are clamped to at least 1.
    pub shards: u32,
    /// Which live transport carries inter-worker frames: synchronous
    /// per-send delivery, or descriptors posted to per-endpoint rings and
    /// flushed in MMS/WTL batches (the paper's stream slicing, §4).
    pub fabric: FabricKind,
    /// Bounded retry schedule for backpressured sends. The default parks
    /// up to 5 s before declaring a frame failed; a run can never
    /// livelock on a reader that stopped reading.
    pub send: SendPolicy,
    /// At-least-once delivery tracking (Storm's XOR acker wired into the
    /// live path). `None` (the default) runs exactly the untracked wire
    /// protocol; `Some` tracks every spout emission to its first-hop
    /// subscribers, replays expired trees, and dedups replays at the
    /// executors by root id.
    pub ack: Option<AckConfig>,
    /// Deterministic fault injection: when set, the run's fabric is
    /// wrapped in a [`whale_net::FaultFabric`] driven by this plan, and the injected
    /// fault counters surface in the [`super::RunReport`].
    pub fault: Option<FaultPlan>,
    /// Persistent partition log behind the send path: every
    /// point-to-point data frame the acker tracks (a spout's, on a run
    /// with [`Self::ack`]) is appended to a per-endpoint
    /// [`whale_net::PartitionLog`] *before* the fabric send (write-ahead, so frames
    /// rejected inside a crash window are still replayable). The acker's
    /// resolved roots drive the log's GC watermark, and a crashed endpoint
    /// with a scheduled [`whale_net::EndpointRestart`] gets its slice
    /// replayed from the log once it rejoins — executors' root-id dedup
    /// absorbs the overlap with live and acker-replayed deliveries, so
    /// delivery upgrades to effectively-once without spending the acker's
    /// replay budget. A bolt's emission carries no root, so it is not
    /// logged: a later hop heals as it would in an unlogged run, and an
    /// untracked run logs nothing. Relay-tree frames are not logged
    /// either, so a run with the relay tree on cannot set it
    /// ([`BuildError::RelayBypassesLog`]).
    pub log: Option<LogConfig>,
    /// Liveness backstop: executors give up waiting for traffic (EOS
    /// included) this long after the run starts, so a lost EOS frame can
    /// degrade the run but never hang it. `None` waits forever.
    pub run_deadline: Option<Duration>,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            machines: 4,
            comm_mode: CommMode::WorkerOriented,
            zero_copy: true,
            multicast_d_star: None,
            multicast_adaptive: None,
            shards: 1,
            fabric: FabricKind::PerSend,
            send: SendPolicy::default(),
            ack: None,
            fault: None,
            log: None,
            run_deadline: None,
        }
    }
}

/// Runtime tree adaptation (see [`LiveConfig::multicast_adaptive`]).
#[derive(Clone, Debug)]
pub struct AdaptiveConfig {
    /// Controller sampling interval (wall clock); zero is a
    /// [`BuildError::BadInterval`].
    pub interval: Duration,
    /// Deterministic forced switches for benchmarks and tests: when
    /// `spout_emitted` crosses each threshold, switch to the paired
    /// degree. Non-empty bypasses the λ-driven controller.
    pub forced_switches: Vec<(u64, u32)>,
    /// Cluster topology awareness: when set, workers are placed on the
    /// configured rack layout, a [`whale_net::LinkTracker`] attributes every fabric
    /// send to its (loopback / intra-rack / rack-uplink) link, the
    /// controller sees per-uplink pressure alongside λ, and — unless
    /// [`TopologyConfig::topo_trees`] is off — relay epochs are built
    /// rack-aware: subtrees stay intra-rack, each destination rack is
    /// entered over exactly one uplink edge, and switches route rack
    /// entries over the coolest uplinks. `None` keeps the single-rack
    /// topology-oblivious behavior.
    pub topology: Option<TopologyConfig>,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            interval: Duration::from_millis(2),
            forced_switches: Vec::new(),
            topology: None,
        }
    }
}

/// At-least-once tracking configuration (see [`LiveConfig::ack`]).
#[derive(Clone, Copy, Debug)]
pub struct AckConfig {
    /// How long a tuple tree may stay incomplete before it is failed and
    /// replayed (Storm's `topology.message.timeout.secs`).
    pub timeout: Duration,
    /// Replay attempts per tuple before giving up and counting it in
    /// [`super::RunReport::tuples_failed`].
    pub max_replays: u32,
    /// Hard bound on the spout's post-emission drain loop; pending
    /// tuples left at the deadline are failed, never waited on forever.
    pub drain_deadline: Duration,
    /// Send each remote EOS frame this many times. The receiver's EOS
    /// accounting is idempotent, so redundancy costs only bytes and buys
    /// EOS survival under drop faults.
    pub eos_redundancy: u32,
}

impl Default for AckConfig {
    fn default() -> Self {
        AckConfig {
            timeout: Duration::from_millis(250),
            max_replays: 8,
            drain_deadline: Duration::from_secs(30),
            eos_redundancy: 1,
        }
    }
}

/// Why a topology could not be built into a running worker set.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BuildError {
    /// A spout component has no registered factory in [`Operators`].
    MissingSpout(String),
    /// A bolt component has no registered factory in [`Operators`].
    MissingBolt(String),
    /// The relay tree ([`LiveConfig::multicast_d_star`] or
    /// [`LiveConfig::multicast_adaptive`]) forwards worker-oriented
    /// frames, but the run asked for [`CommMode::InstanceOriented`].
    RelayNeedsWorkerOriented,
    /// The run asked for the partition log ([`LiveConfig::log`]) and the
    /// relay tree together. Relay frames are not written to the log, so a
    /// crash would fall back to acker replay for every broadcast.
    RelayBypassesLog,
    /// An edge (`"from->to"`) uses [`Grouping::Direct`], which the live
    /// runtime does not route.
    UnsupportedGrouping(String),
    /// [`LiveConfig::machines`] and the [`TopologyConfig`] do not describe
    /// a cluster: no machines, a rack count outside `1..=machines`, or a
    /// rack map of the wrong length or naming a rack that does not exist.
    BadCluster(String),
    /// The [`LiveConfig::fabric`] transport, or the [`LiveConfig::log`]
    /// partition logs, cannot be built (a ring or outbox with no slots, a
    /// log with no segments or segments too small for one record header).
    BadTransport(String),
    /// The controller's sampling interval ([`AdaptiveConfig::interval`])
    /// is zero: its thread would spin.
    BadInterval(String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::MissingSpout(name) => write!(f, "no spout registered for {name:?}"),
            BuildError::MissingBolt(name) => write!(f, "no bolt registered for {name:?}"),
            BuildError::RelayNeedsWorkerOriented => {
                write!(f, "the multicast tree relays worker-oriented messages")
            }
            BuildError::RelayBypassesLog => write!(f, "relay frames bypass the partition log"),
            BuildError::UnsupportedGrouping(edge) => {
                write!(
                    f,
                    "direct grouping on {edge} is not supported by the live runtime"
                )
            }
            BuildError::BadCluster(why) => write!(f, "unrunnable cluster: {why}"),
            BuildError::BadTransport(why) => write!(f, "unrunnable transport: {why}"),
            BuildError::BadInterval(why) => write!(f, "unrunnable interval: {why}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Per-component operator implementations.
#[derive(Default)]
pub struct Operators {
    pub(super) spouts: HashMap<String, SpoutFactory>,
    pub(super) bolts: HashMap<String, BoltFactory>,
}

impl Operators {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a spout factory for a component name.
    pub fn spout(
        mut self,
        name: &str,
        f: impl Fn(u32) -> Box<dyn Spout> + Send + Sync + 'static,
    ) -> Self {
        self.spouts.insert(name.to_string(), Box::new(f));
        self
    }

    /// Register a bolt factory for a component name.
    pub fn bolt(
        mut self,
        name: &str,
        f: impl Fn(u32) -> Box<dyn Bolt> + Send + Sync + 'static,
    ) -> Self {
        self.bolts.insert(name.to_string(), Box::new(f));
        self
    }
}

impl LiveConfig {
    /// Whether all-grouped broadcasts travel the multicast relay tree.
    pub(super) fn relay_enabled(&self) -> bool {
        self.multicast_d_star.is_some() || self.multicast_adaptive.is_some()
    }

    /// The rack layout, when topology awareness is on.
    pub(super) fn topology(&self) -> Option<&TopologyConfig> {
        self.multicast_adaptive.as_ref()?.topology.as_ref()
    }

    /// Check the run can be built at all — every component has an
    /// operator, every grouping is one the runtime routes, the relay
    /// tree has the message format it forwards, and the cluster and the
    /// transport are ones their constructors accept — so a bad
    /// configuration is a [`BuildError`], never a worker crash.
    pub(super) fn validate(&self, topology: &Topology, ops: &Operators) -> Result<(), BuildError> {
        for comp in topology.components() {
            match comp.kind {
                ComponentKind::Spout if !ops.spouts.contains_key(&comp.name) => {
                    return Err(BuildError::MissingSpout(comp.name.clone()));
                }
                ComponentKind::Bolt if !ops.bolts.contains_key(&comp.name) => {
                    return Err(BuildError::MissingBolt(comp.name.clone()));
                }
                _ => {}
            }
        }
        if let Some(e) = topology
            .edges()
            .iter()
            .find(|e| e.grouping == Grouping::Direct)
        {
            let name = |id| &topology.component_by_id(id).name;
            return Err(BuildError::UnsupportedGrouping(format!(
                "{}->{}",
                name(e.from),
                name(e.to)
            )));
        }
        if self.relay_enabled() && self.comm_mode != CommMode::WorkerOriented {
            return Err(BuildError::RelayNeedsWorkerOriented);
        }
        if self.relay_enabled() && self.log.is_some() {
            return Err(BuildError::RelayBypassesLog);
        }
        if (self.multicast_adaptive.as_ref()).is_some_and(|a| a.interval.is_zero()) {
            let why = "AdaptiveConfig::interval must be positive";
            return Err(BuildError::BadInterval(why.into()));
        }
        self.validate_cluster().map_err(BuildError::BadCluster)?;
        self.validate_transport().map_err(BuildError::BadTransport)
    }

    /// What the transports' and [`whale_net::PartitionLog`]'s constructors
    /// would panic on.
    fn validate_transport(&self) -> Result<(), String> {
        match self.fabric {
            FabricKind::Ring(ring) if ring.ring_capacity == 0 => {
                return Err("RingConfig::ring_capacity must be positive".into());
            }
            FabricKind::Ring(ring) if ring.batch.mms == 0 => {
                return Err("BatchConfig::mms must be positive".into());
            }
            FabricKind::Ring(ring) if ring.batch.wtl.is_zero() => {
                return Err("BatchConfig::wtl must be positive".into());
            }
            FabricKind::OneSided(one_sided) if one_sided.ring_slots == 0 => {
                return Err("OneSidedConfig::ring_slots must be positive".into());
            }
            _ => {}
        }
        if let Some(log) = self.log {
            if log.segment_bytes <= whale_net::RECORD_HEADER {
                return Err("LogConfig::segment_bytes must exceed one record header".into());
            }
            if log.max_segments == 0 {
                return Err("LogConfig::max_segments must be positive".into());
            }
        }
        Ok(())
    }

    /// What [`whale_net::ClusterSpec`]'s constructors would panic on.
    fn validate_cluster(&self) -> Result<(), String> {
        let machines = self.machines;
        if machines == 0 {
            return Err("machines must be positive".into());
        }
        let Some(topo) = self.topology() else {
            return Ok(());
        };
        let racks = topo.racks;
        if racks == 0 || racks > machines {
            return Err(format!("racks = {racks} is outside 1..={machines}"));
        }
        match &topo.rack_of_machine {
            Some(map) if map.len() != machines as usize => Err(format!(
                "rack_of_machine has {} entries for {machines} machines",
                map.len()
            )),
            Some(map) if map.iter().any(|&r| r >= racks) => {
                Err(format!("rack_of_machine names a rack >= {racks}"))
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use whale_net::{LogConfig, TopologyConfig};

    /// A config error is caught before anything is built: every counter
    /// is zero, with one `executed` slot per component.
    fn assert_nothing_ran(r: &RunReport) {
        assert!(r.executed.iter().all(|&n| n == 0));
        assert_eq!(r.spout_emitted, 0);
        assert_eq!(r.fabric_messages, 0);
        assert_eq!(r.frames_encoded, 0);
        assert_eq!(r.thread_panics, 0);
        assert_eq!(r.elapsed, Duration::ZERO);
    }

    #[test]
    fn missing_spout_is_a_config_error_not_a_panic() {
        let (t, _ops) = counting_topology(2, 4);
        let ops = Operators::new()
            .bolt("double", |_| {
                Box::new(FnBolt::new(|_t: &Tuple, _out: &mut dyn Emitter| {}))
            })
            .bolt("sink", |_| {
                Box::new(FnBolt::new(|_t: &Tuple, _out: &mut dyn Emitter| {}))
            });
        let r = run_topology(t, ops, LiveConfig::default());
        assert_eq!(
            r.outcome,
            RunOutcome::ConfigError(BuildError::MissingSpout("src".into()))
        );
        // Nothing ran: the report is all zeros with one slot per component.
        assert_eq!(r.executed, vec![0, 0, 0]);
        assert_eq!(r.spout_emitted, 0);
        assert_eq!(r.fabric_messages, 0);
        assert_eq!(r.thread_panics, 0);
        // The reason round-trips through Display for operators' logs.
        if let RunOutcome::ConfigError(e) = &r.outcome {
            assert!(e.to_string().contains("src"));
        }
    }

    #[test]
    fn missing_bolt_is_a_config_error_not_a_panic() {
        let (t, _ops) = counting_topology(2, 4);
        let ops = Operators::new().spout("src", |_| {
            Box::new(IterSpout::new(
                (0..10i64).map(|i| Tuple::with_id(i as u64, vec![Value::I64(i)])),
            ))
        });
        let r = run_topology(t, ops, LiveConfig::default());
        assert!(matches!(
            &r.outcome,
            RunOutcome::ConfigError(BuildError::MissingBolt(name)) if name == "double" || name == "sink"
        ));
        assert_eq!(r.spout_emitted, 0, "no spout thread may have started");
    }

    #[test]
    fn relay_requires_worker_oriented() {
        let (t, ops) = counting_topology(4, 4);
        let r = run_topology(
            t,
            ops,
            LiveConfig {
                machines: 4,
                comm_mode: CommMode::InstanceOriented,
                zero_copy: false,
                multicast_d_star: Some(2),
                ..LiveConfig::default()
            },
        );
        assert_eq!(
            r.outcome,
            RunOutcome::ConfigError(BuildError::RelayNeedsWorkerOriented)
        );
        assert_nothing_ran(&r);
    }

    #[test]
    fn unbuildable_clusters_and_transports_are_config_errors_not_panics() {
        let topo = |racks: u32, rack_of_machine: Option<Vec<u32>>| LiveConfig {
            multicast_adaptive: Some(AdaptiveConfig {
                topology: Some(TopologyConfig {
                    racks,
                    rack_of_machine,
                    ..TopologyConfig::default()
                }),
                ..AdaptiveConfig::default()
            }),
            ..LiveConfig::default()
        };
        let fabric = |fabric: FabricKind| LiveConfig {
            fabric,
            ..LiveConfig::default()
        };
        let no_machines = LiveConfig {
            machines: 0,
            ..LiveConfig::default()
        };
        let no_ring = whale_net::RingConfig {
            ring_capacity: 0,
            ..Default::default()
        };
        let no_mms = whale_net::RingConfig {
            batch: whale_net::BatchConfig {
                mms: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        let no_wtl = whale_net::RingConfig {
            batch: whale_net::BatchConfig {
                wtl: Duration::ZERO,
                ..Default::default()
            },
            ..Default::default()
        };
        let no_slots = whale_net::OneSidedConfig { ring_slots: 0 };
        let no_segments = LogConfig {
            max_segments: 0,
            ..LogConfig::default()
        };
        let small_segments = LiveConfig {
            log: Some(LogConfig {
                segment_bytes: whale_net::RECORD_HEADER,
                ..LogConfig::default()
            }),
            ..LiveConfig::default()
        };
        let logged = LiveConfig {
            log: Some(no_segments),
            ..LiveConfig::default()
        };
        // Logged and relayed: the log would silently miss every broadcast.
        let logged_relay = LiveConfig {
            multicast_d_star: Some(2),
            log: Some(LogConfig::default()),
            ..LiveConfig::default()
        };
        // A zero sampling interval: the controller thread would spin for
        // the whole run.
        let no_adaptive_interval = LiveConfig {
            multicast_adaptive: Some(AdaptiveConfig {
                interval: Duration::ZERO,
                ..AdaptiveConfig::default()
            }),
            ..LiveConfig::default()
        };
        let cluster = std::mem::discriminant(&BuildError::BadCluster(String::new()));
        let transport = std::mem::discriminant(&BuildError::BadTransport(String::new()));
        let interval = std::mem::discriminant(&BuildError::BadInterval(String::new()));
        // Each shape but the last two used to reach an `assert!` in
        // `ClusterSpec::new`, `ClusterSpec::with_rack_map`, a transport
        // constructor, `Batcher::new` or `PartitionLog::new`.
        let shapes = [
            ("machines: 0", no_machines, cluster),
            ("racks: 0", topo(0, None), cluster),
            ("racks > machines", topo(5, None), cluster),
            ("short rack map", topo(2, Some(vec![0, 1, 0])), cluster),
            (
                "rack map entry >= racks",
                topo(2, Some(vec![0, 1, 2, 0])),
                cluster,
            ),
            (
                "ring_capacity: 0",
                fabric(FabricKind::Ring(no_ring)),
                transport,
            ),
            ("mms: 0", fabric(FabricKind::Ring(no_mms)), transport),
            ("wtl: 0", fabric(FabricKind::Ring(no_wtl)), transport),
            (
                "ring_slots: 0",
                fabric(FabricKind::OneSided(no_slots)),
                transport,
            ),
            ("max_segments: 0", logged, transport),
            ("segment too small", small_segments, transport),
            (
                "log + relay",
                logged_relay,
                std::mem::discriminant(&BuildError::RelayBypassesLog),
            ),
            ("adaptive interval: 0", no_adaptive_interval, interval),
        ];
        for (shape, config, want) in shapes {
            let (t, ops) = counting_topology(4, 4);
            let r = run_topology(t, ops, config);
            match &r.outcome {
                RunOutcome::ConfigError(e) if std::mem::discriminant(e) == want => {}
                other => panic!("{shape}: {other:?}"),
            }
            assert_nothing_ran(&r);
        }
    }

    #[test]
    fn an_adaptive_run_starts_at_multicast_d_star_or_two() {
        for (d_star, expect) in [(None, 2), (Some(4), 4)] {
            let (t, ops) = counting_topology(8, 16);
            let r = run_topology(
                t,
                ops,
                LiveConfig {
                    machines: 8,
                    multicast_d_star: d_star,
                    multicast_adaptive: Some(AdaptiveConfig {
                        // Longer than the run: no switch moves the degree.
                        interval: Duration::from_secs(30),
                        ..AdaptiveConfig::default()
                    }),
                    ..LiveConfig::default()
                },
            );
            assert_eq!(r.outcome, RunOutcome::Clean);
            assert_eq!(r.relay_switches, 0);
            assert_eq!(r.relay_d_star, expect, "multicast_d_star: {d_star:?}");
        }
    }

    /// Every settable field of the run's own config structs, destructured
    /// with no `..`: adding a field fails to compile here. Before it goes
    /// in, it needs a row in DESIGN.md's "The settable surface" naming the
    /// two non-test callers that set it differently (or the timing- or
    /// fault-dependent failure a test needs it to reach); with one value
    /// in use it is a constant next to its reader.
    #[test]
    fn the_settable_surface_is_pinned() {
        let LiveConfig {
            machines: _,
            comm_mode: _,
            zero_copy: _,
            multicast_d_star: _,
            multicast_adaptive: _,
            shards: _,
            fabric: _,
            send: _,
            ack: _,
            fault: _,
            log: _,
            run_deadline: _,
        } = LiveConfig::default();
        let AdaptiveConfig {
            interval: _,
            forced_switches: _,
            topology: _,
        } = AdaptiveConfig::default();
        let AckConfig {
            timeout: _,
            max_replays: _,
            drain_deadline: _,
            eos_redundancy: _,
        } = AckConfig::default();
    }

    #[test]
    fn direct_grouping_is_a_config_error_not_a_panic() {
        let mut b = crate::topology::TopologyBuilder::new();
        b.spout("src", 1, Schema::new(vec!["n"]))
            .bolt("sink", 2, Schema::new(vec!["n"]))
            .connect("src", "sink", Grouping::Direct);
        let (_, ops) = ack_topology(10, 2);
        let r = run_topology(b.build().unwrap(), ops, LiveConfig::default());
        assert_eq!(
            r.outcome,
            RunOutcome::ConfigError(BuildError::UnsupportedGrouping("src->sink".into()))
        );
        assert_nothing_ran(&r);
    }
}
