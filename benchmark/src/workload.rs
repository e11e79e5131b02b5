//! The four workloads: their seeded input pools, topologies, operator
//! wiring and runtime configuration, and the reference each run is
//! checked against.
//!
//! Every workload runs `machines: 4, shards: 1` with 16 instances of
//! the component that completes a tuple. The four pipeline threads plus
//! at most one transport thread are the system under test, and the
//! process pins them all to one CPU (`procfs::pin_to_one_cpu`), so
//! shard/core *scaling* is deliberately not a metric.

use crate::probe::{BenchSpout, Collector, Discard, Probe, ProbeMode, Release, MAX_STREAMS};
use std::sync::Arc;
use std::time::Duration;
use whale_apps::{ride_hailing, stock_exchange};
use whale_dsps::{
    AckConfig, Bolt, CommMode, FabricKind, Grouping, GroupingExec, LiveConfig, LogConfig,
    Operators, RingConfig, Schema, Spout, TaskId, Topology, TopologyBuilder, Tuple, Value,
    VecEmitter,
};
use whale_net::OneSidedConfig;
use whale_sim::SimRng;
use whale_workloads::{DidiConfig, NasdaqConfig, Side, StockRecord};

/// Records per stream pool, generated from the seed before any clock
/// starts; spouts cycle it.
pub const POOL_RECORDS: usize = 65_536;
/// Instances of the completing component, on every workload.
pub const SINKS: u32 = 16;
pub const MACHINES: u32 = 4;
/// Distinct keys of `keyed_ring`. Uniform, so no instance runs hot and
/// the seed does not choose the bottleneck.
const KEYED_KEYS: u64 = 4_096;
/// Opaque payload bytes of a `fanout_relay` tuple (~150 B on the wire).
const FANOUT_PAYLOAD: usize = 126;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    FanoutRelay,
    KeyedRing,
    StockAcklog,
    RideOnesided,
}

pub const ALL: [Kind; 4] = [
    Kind::FanoutRelay,
    Kind::KeyedRing,
    Kind::StockAcklog,
    Kind::RideOnesided,
];

/// The runtime configuration a segment runs under. Only `Main` feeds
/// end-to-end metrics; the other two are `fanout_relay`'s short
/// reference runs (`runtime.direct_tps`, `runtime.storm_baseline_tps`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    Main,
    /// Same workload, source sends to every worker itself (no relay).
    Direct,
    /// Storm's design: one serialized copy per destination instance.
    StormBaseline,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::FanoutRelay => "fanout_relay",
            Kind::KeyedRing => "keyed_ring",
            Kind::StockAcklog => "stock_acklog",
            Kind::RideOnesided => "ride_onesided",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == name)
    }

    /// Source tuples per second the seed commit sustains at saturation
    /// on one CPU of the reference host. Frozen: it only sizes a saturation
    /// segment (`rate × segment seconds` tuples), so the work per run is
    /// the same on every commit.
    pub fn saturation_ref_tps(self) -> f64 {
        match self {
            Kind::FanoutRelay => 290_000.0,
            Kind::KeyedRing => 460_000.0,
            Kind::StockAcklog => 92_000.0,
            Kind::RideOnesided => 13_500.0,
        }
    }

    /// Open-loop offered rate, all streams together: frozen at a third
    /// to two fifths of the seed's saturation rate on one CPU.
    pub fn paced_tps(self) -> f64 {
        match self {
            Kind::FanoutRelay => 100_000.0,
            Kind::KeyedRing => 150_000.0,
            Kind::StockAcklog => 40_000.0,
            Kind::RideOnesided => 5_000.0,
        }
    }

    /// The component whose executions complete a source tuple.
    pub fn sink(self) -> &'static str {
        match self {
            Kind::FanoutRelay | Kind::KeyedRing => "sink",
            Kind::StockAcklog | Kind::RideOnesided => "matching",
        }
    }

    /// Sink executions that complete the tuples `latency_p50_us` is taken
    /// over: the workload's one-to-many tuples (what the paper is
    /// about), or its only kind. Mixing the
    /// apps' unicast and broadcast tuples would put the median on the
    /// edge between two populations, where it cannot repeat.
    pub fn latency_fanout(self) -> u8 {
        match self {
            Kind::KeyedRing => 1,
            _ => SINKS as u8,
        }
    }

    /// One tuple in this many carries a completion-latency sample. The
    /// ride-hailing rate is low enough to need (and afford) every tuple.
    pub fn latency_sample(self) -> u64 {
        match self {
            Kind::RideOnesided => 1,
            _ => 16,
        }
    }

    pub fn relays(self) -> bool {
        matches!(self, Kind::FanoutRelay | Kind::RideOnesided)
    }

    pub fn tracked(self) -> bool {
        self == Kind::StockAcklog
    }

    pub fn config(self, variant: Variant) -> LiveConfig {
        let base = LiveConfig {
            machines: MACHINES,
            comm_mode: CommMode::WorkerOriented,
            zero_copy: true,
            shards: 1,
            // Liveness backstop only: a lost EOS degrades the run (and
            // fails the gate) instead of hanging the benchmark.
            run_deadline: Some(Duration::from_secs(90)),
            ..LiveConfig::default()
        };
        let main = match self {
            Kind::FanoutRelay => LiveConfig {
                multicast_d_star: Some(2),
                fabric: FabricKind::PerSend,
                ..base
            },
            Kind::KeyedRing => LiveConfig {
                fabric: FabricKind::Ring(RingConfig::default()),
                ..base
            },
            Kind::StockAcklog => LiveConfig {
                fabric: FabricKind::PerSend,
                // The default 250 ms timeout replays tuples whenever a
                // host stall holds the unthrottled spout's backlog that
                // long; replays are legitimate at-least-once behaviour
                // but would make the work per run, and the delivery
                // reference, depend on the host. Nothing is lost on a
                // fault-free fabric, so nothing needs the timeout.
                ack: Some(AckConfig {
                    timeout: Duration::from_secs(20),
                    ..AckConfig::default()
                }),
                log: Some(LogConfig::default()),
                ..base
            },
            Kind::RideOnesided => LiveConfig {
                multicast_d_star: Some(2),
                fabric: FabricKind::OneSided(OneSidedConfig::default()),
                ..base
            },
        };
        match variant {
            Variant::Main => main,
            Variant::Direct => LiveConfig {
                multicast_d_star: None,
                ..main
            },
            Variant::StormBaseline => LiveConfig {
                multicast_d_star: None,
                comm_mode: CommMode::InstanceOriented,
                zero_copy: false,
                ..main
            },
        }
    }
}

/// One spout's input and what the reference says must happen to it.
pub struct Stream {
    /// The spout component this stream feeds.
    pub component: &'static str,
    pub pool: Arc<Vec<Tuple>>,
    /// Field the spout overwrites with the tuple's due time.
    pub stamp_field: usize,
    /// Sink executions each pool record must cause: 0 (filtered), 1
    /// (keyed) or [`SINKS`] (broadcast).
    pub fanout: Vec<u8>,
    /// Routing key of each keyed record: equal keys must execute on one
    /// instance.
    pub key: Vec<u64>,
}

impl Stream {
    pub fn fanout_of(&self, seq: u64) -> u8 {
        self.fanout[(seq % self.fanout.len() as u64) as usize]
    }

    /// Sink executions the first `emitted` tuples must cause.
    pub fn expected_executions(&self, emitted: u64) -> u64 {
        (0..emitted).map(|s| self.fanout_of(s) as u64).sum()
    }
}

/// How one segment drives the workload.
#[derive(Clone, Debug)]
pub struct SegmentPlan {
    /// Tuples each stream emits.
    pub counts: Vec<u64>,
    pub release: Vec<Release>,
    /// One tuple in this many is stamped for completion latency.
    pub latency_sample: u64,
    /// Record 1-in-64 spans around `next_tuple` / `execute_lazy`.
    pub trace: bool,
}

pub struct Workload {
    pub kind: Kind,
    pub streams: Vec<Stream>,
    /// Per sink instance, pool records executed into the operator before
    /// the run starts (ride-hailing only): every driver of the location
    /// pool, on the instance its key routes to. A fresh `MatchingBolt`
    /// scans an empty table that fills as locations arrive, so cost and
    /// latency would climb through every segment; a table at its steady
    /// size is the sustained regime the paper measures.
    preload: Arc<Vec<Vec<Tuple>>>,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn drain(mut spout: impl Spout) -> Arc<Vec<Tuple>> {
    Arc::new(std::iter::from_fn(|| spout.next_tuple()).collect())
}

impl Workload {
    /// Build the input pools from `seed`: the same seed gives the same
    /// records, and the program under test receives nothing else.
    pub fn generate(kind: Kind, seed: u64) -> Workload {
        let streams = match kind {
            Kind::FanoutRelay => {
                let mut rng = SimRng::new(seed);
                let pool = (0..POOL_RECORDS)
                    .map(|_| {
                        let mut payload = [0u8; FANOUT_PAYLOAD];
                        for chunk in payload.chunks_mut(8) {
                            let word = rng.next_u64().to_le_bytes();
                            chunk.copy_from_slice(&word[..chunk.len()]);
                        }
                        Tuple::new(vec![Value::I64(0), Value::Bytes(Arc::from(&payload[..]))])
                    })
                    .collect();
                vec![Stream {
                    component: "source",
                    pool: Arc::new(pool),
                    stamp_field: 0,
                    fanout: vec![SINKS as u8; POOL_RECORDS],
                    key: Vec::new(),
                }]
            }
            Kind::KeyedRing => {
                let mut rng = SimRng::new(seed);
                let key: Vec<u64> = (0..POOL_RECORDS)
                    .map(|_| rng.gen_range(KEYED_KEYS))
                    .collect();
                let pool = key
                    .iter()
                    .map(|&k| Tuple::new(vec![Value::I64(k as i64), Value::I64(0)]))
                    .collect();
                vec![Stream {
                    component: "source",
                    pool: Arc::new(pool),
                    stamp_field: 1,
                    fanout: vec![1; POOL_RECORDS],
                    key,
                }]
            }
            Kind::StockAcklog => {
                let pool = drain(stock_exchange::ExchangeSpout::new(
                    seed,
                    NasdaqConfig::default(),
                    POOL_RECORDS as u64,
                ));
                let records: Vec<StockRecord> = pool
                    .iter()
                    .map(|t| StockRecord::from_tuple(t).expect("generator output parses"))
                    .collect();
                vec![Stream {
                    component: "source",
                    stamp_field: 4,
                    fanout: records
                        .iter()
                        .map(|r| match (r.valid, r.side) {
                            (false, _) => 0,
                            (true, Side::Sell) => 1,
                            (true, Side::Buy) => SINKS as u8,
                        })
                        .collect(),
                    key: records.iter().map(|r| fnv1a(r.symbol.as_bytes())).collect(),
                    pool,
                }]
            }
            Kind::RideOnesided => {
                let config = DidiConfig::default();
                let n = POOL_RECORDS as u64;
                let locations = drain(ride_hailing::LocationSpout::new(seed, config, n));
                let requests = drain(ride_hailing::RequestSpout::new(
                    seed ^ 0x9e37_79b9_7f4a_7c15,
                    config,
                    n,
                ));
                let driver = |t: &Tuple| t.get(1).and_then(Value::as_i64).expect("key field");
                vec![
                    Stream {
                        component: "locations",
                        stamp_field: 4,
                        fanout: vec![1; POOL_RECORDS],
                        key: locations.iter().map(|t| driver(t) as u64).collect(),
                        pool: locations,
                    },
                    Stream {
                        component: "requests",
                        stamp_field: 4,
                        fanout: vec![SINKS as u8; POOL_RECORDS],
                        key: Vec::new(),
                        pool: requests,
                    },
                ]
            }
        };
        assert!(streams.len() <= MAX_STREAMS);
        let mut preload = vec![Vec::new(); SINKS as usize];
        if kind == Kind::RideOnesided {
            let targets = (0..SINKS).map(TaskId).collect();
            let mut keyed = GroupingExec::new(Grouping::Fields(1), targets);
            let mut owner = Vec::new();
            for t in streams[0].pool.iter() {
                keyed
                    .route_into(t, None, &mut owner)
                    .expect("key field present");
                preload[owner[0].0 as usize].push(t.clone());
            }
        }
        Workload {
            kind,
            streams,
            preload: Arc::new(preload),
        }
    }

    /// Pool records preloaded into sink `instance`.
    pub fn preloaded(&self, instance: usize) -> &[Tuple] {
        &self.preload[instance]
    }

    pub fn topology(&self) -> Topology {
        match self.kind {
            Kind::FanoutRelay | Kind::KeyedRing => {
                let (fields, grouping) = if self.kind == Kind::FanoutRelay {
                    (vec!["due_ns", "payload"], Grouping::All)
                } else {
                    (vec!["key", "due_ns"], Grouping::Fields(0))
                };
                let mut b = TopologyBuilder::new();
                b.spout("source", 1, Schema::new(fields))
                    .bolt("sink", SINKS, Schema::new(Vec::<String>::new()))
                    .connect("source", "sink", grouping);
                b.build().expect("bare topology is valid")
            }
            Kind::StockAcklog => stock_exchange::topology(SINKS),
            Kind::RideOnesided => ride_hailing::topology(SINKS),
        }
    }

    /// Split `total` source tuples across the streams (evenly: the two
    /// ride-hailing spouts share a pipeline and alternate one for one).
    pub fn split(&self, total: u64) -> Vec<u64> {
        let n = self.streams.len() as u64;
        (0..n)
            .map(|i| total / n + u64::from(i < total % n))
            .collect()
    }

    /// A closed-loop segment of `total` source tuples.
    pub fn saturation_plan(&self, total: u64, trace: bool) -> SegmentPlan {
        SegmentPlan {
            counts: self.split(total),
            release: vec![Release::Saturate; self.streams.len()],
            latency_sample: self.kind.latency_sample(),
            trace,
        }
    }

    /// An open-loop segment at the workload's frozen rate.
    pub fn paced_plan(&self, seconds: f64, trace: bool) -> SegmentPlan {
        let per_stream = self.kind.paced_tps() / self.streams.len() as f64;
        let total = (self.kind.paced_tps() * seconds) as u64;
        SegmentPlan {
            counts: self.split(total),
            release: vec![Release::Paced(per_stream); self.streams.len()],
            latency_sample: self.kind.latency_sample(),
            trace,
        }
    }

    /// Benchmark-owned spouts, and the workload's bolts — the public
    /// `whale_apps` operators, or [`Discard`] — each inside a [`Probe`].
    pub fn operators(&self, plan: &SegmentPlan, collector: &Arc<Collector>) -> Operators {
        let mut ops = Operators::new();
        for (idx, s) in self.streams.iter().enumerate() {
            let (pool, stamp_field, component) = (Arc::clone(&s.pool), s.stamp_field, s.component);
            let (count, release, trace) = (plan.counts[idx], plan.release[idx], plan.trace);
            let latency_sample = plan.latency_sample;
            let collector = Arc::clone(collector);
            ops = ops.spout(component, move |_| {
                Box::new(BenchSpout::new(
                    component,
                    idx,
                    Arc::clone(&pool),
                    stamp_field,
                    count,
                    release,
                    latency_sample,
                    trace,
                    Arc::clone(&collector),
                ))
            });
        }
        let mut expected = [0u64; MAX_STREAMS];
        expected[..plan.counts.len()].copy_from_slice(&plan.counts);
        type Make = fn(&[Tuple]) -> Box<dyn Bolt>;
        let bolts: &[(&'static str, Make)] = match self.kind {
            Kind::FanoutRelay | Kind::KeyedRing => &[("sink", |_| Box::new(Discard))],
            Kind::StockAcklog => &[
                ("split_sell", |_| {
                    Box::new(stock_exchange::SplitBolt::new(Side::Sell))
                }),
                ("split_buy", |_| {
                    Box::new(stock_exchange::SplitBolt::new(Side::Buy))
                }),
                (
                    "matching",
                    |_| Box::new(stock_exchange::MatchingBolt::new()),
                ),
                ("aggregation", |_| {
                    Box::new(stock_exchange::VolumeBolt::new())
                }),
            ],
            Kind::RideOnesided => &[
                ("matching", |drivers| {
                    let mut bolt = ride_hailing::MatchingBolt::new();
                    let mut none = VecEmitter::default();
                    for t in drivers {
                        bolt.execute(t, &mut none);
                    }
                    Box::new(bolt)
                }),
                ("aggregation", |_| {
                    Box::new(ride_hailing::AggregationBolt::new())
                }),
            ],
        };
        for &(name, make) in bolts {
            let is_sink = name == self.kind.sink();
            let mode = ProbeMode {
                account: is_sink,
                // The bare sinks read one field off the wire view, as a
                // key-touch operator would; the apps' bolts materialize.
                touch: (is_sink && name == "sink").then_some(self.streams[0].stamp_field),
                latency_sample: plan.latency_sample,
                trace: plan.trace,
            };
            let collector = Arc::clone(collector);
            let preload = Arc::clone(&self.preload);
            ops = ops.bolt(name, move |instance| {
                let state: &[Tuple] = if is_sink {
                    &preload[instance as usize]
                } else {
                    &[]
                };
                Box::new(Probe::new(
                    make(state),
                    name,
                    instance,
                    mode,
                    expected,
                    Arc::clone(&collector),
                ))
            });
        }
        ops
    }

    /// Components whose execution count the input fixes exactly, with
    /// that count. (Trade and candidate counts depend on interleaving,
    /// so `aggregation` is checked by invariant, not total.)
    pub fn exact_executions(&self, emitted: &[u64]) -> Vec<(&'static str, u64)> {
        let at_sinks: u64 = self
            .streams
            .iter()
            .zip(emitted)
            .map(|(s, &n)| s.expected_executions(n))
            .sum();
        let mut exact = vec![(self.kind.sink(), at_sinks)];
        if self.kind == Kind::StockAcklog {
            // Shuffle delivers every record to one task of each split.
            exact.push(("split_sell", emitted[0]));
            exact.push(("split_buy", emitted[0]));
        }
        exact
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_pool_other_seed_other_pool() {
        for kind in ALL {
            let a = Workload::generate(kind, 7);
            let b = Workload::generate(kind, 7);
            let c = Workload::generate(kind, 8);
            for (x, y) in a.streams.iter().zip(&b.streams) {
                assert_eq!(x.pool, y.pool, "{kind:?}");
                assert_eq!(x.pool.len(), POOL_RECORDS);
                assert_eq!(x.fanout.len(), POOL_RECORDS);
            }
            assert_ne!(a.streams[0].pool, c.streams[0].pool, "{kind:?}");
        }
    }

    #[test]
    fn names_round_trip() {
        for kind in ALL {
            assert_eq!(Kind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(Kind::from_name("nope"), None);
    }

    #[test]
    fn reference_counts_follow_the_pool() {
        let w = Workload::generate(Kind::StockAcklog, 3);
        let s = &w.streams[0];
        let one_cycle = s.expected_executions(POOL_RECORDS as u64);
        assert_eq!(
            s.expected_executions(2 * POOL_RECORDS as u64),
            2 * one_cycle
        );
        // ~49 % valid sells ×1 + ~49 % valid buys ×16.
        let per_record = one_cycle as f64 / POOL_RECORDS as f64;
        assert!((7.5..9.2).contains(&per_record), "{per_record}");
        assert_eq!(w.split(9), vec![9]);
        let ride = Workload::generate(Kind::RideOnesided, 3);
        assert_eq!(ride.split(9), vec![5, 4]);
        assert_eq!(
            ride.exact_executions(&[5, 4]),
            vec![("matching", 5 + 4 * SINKS as u64)]
        );
    }

    #[test]
    fn paced_plan_splits_the_frozen_rate_across_streams() {
        let ride = Workload::generate(Kind::RideOnesided, 1);
        let plan = ride.paced_plan(2.0, false);
        let total = Kind::RideOnesided.paced_tps();
        assert_eq!(plan.counts.iter().sum::<u64>(), (total * 2.0) as u64);
        assert_eq!(plan.release, vec![Release::Paced(total / 2.0); 2]);
    }
}
