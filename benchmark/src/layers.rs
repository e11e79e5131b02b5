//! Per-layer timed drives: replay the workload's own pool through each
//! layer's public functions, single-threaded, and report the median
//! ns/op over repeated batches. A drive runs only on a workload that
//! uses its layer; elsewhere the metric stays 0, which is also the
//! prediction for a change to that layer.

use crate::workload::{Kind, Workload, MACHINES, SINKS};
use bytes::{BufMut, BytesMut};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use whale_apps::{ride_hailing, stock_exchange};
use whale_dsps::codec::encode_tuple_into;
use whale_dsps::{
    plan, Acker, Bolt, BufferPool, CommMode, Emitter, Grouping, GroupingExec, LazyTuple, Placement,
    TaskId, Tuple, VecEmitter, WorkerMessage, WorkerMessageView,
};
use whale_multicast::{
    build_nonblocking, plan_switch, AdjustController, ControllerConfig, LinkPressure, MonitorReport,
};
use whale_net::{
    ClusterSpec, EndpointId, LiveFabric, LogConfig, OneSidedConfig, OneSidedFabric, PartitionLog,
    RingConfig, RingFabric,
};
use whale_sim::{SimDuration, SimTime};
use whale_workloads::Side;

/// Timed batches per drive (after one untimed warm-up batch).
const BATCHES: usize = 7;
/// Pool records a batch replays.
const BATCH_RECORDS: usize = 16_384;
/// Frames posted between two flushes/fetches of the buffered transports.
const TRANSPORT_BURST: usize = 64;

/// Median ns per op over [`BATCHES`] runs of `batch`, which performs
/// `ops` operations and returns the nanoseconds its timed part took.
fn bench(ops: usize, mut batch: impl FnMut() -> u64) -> f64 {
    batch();
    let per_op: Vec<f64> = (0..BATCHES).map(|_| batch() as f64 / ops as f64).collect();
    crate::stats::median(&per_op)
}

fn timed(f: impl FnOnce()) -> u64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as u64
}

struct NullEmitter;

impl Emitter for NullEmitter {
    fn emit(&mut self, tuple: Tuple) {
        black_box(tuple);
    }
}

/// Destination tasks of one pool record at the sink component: all 16
/// for a broadcast record, one otherwise.
fn destinations(fanout: u8, i: usize) -> Vec<TaskId> {
    if fanout as u32 == SINKS {
        (0..SINKS).map(TaskId).collect()
    } else {
        vec![TaskId(i as u32 % SINKS)]
    }
}

/// Run every drive `workload` has a layer for. Names are the
/// `BENCHMARK.json` per-layer metric names.
pub fn drive_all(workload: &Workload) -> Vec<(&'static str, f64)> {
    let kind = workload.kind;
    let mut out = Vec::new();
    // The stream that reaches the sinks by the grouping under test.
    let stream = workload.streams.last().expect("at least one stream");
    let records: Vec<&Tuple> = stream.pool.iter().take(BATCH_RECORDS).collect();
    let n = records.len();

    // --- codec ---
    let mut buf = BytesMut::with_capacity(1024);
    out.push((
        "codec.encode_ns",
        bench(n, || {
            timed(|| {
                for t in &records {
                    buf.clear();
                    encode_tuple_into(&mut buf, t);
                    black_box(&buf);
                }
            })
        }),
    ));
    let items: Vec<Vec<u8>> = records
        .iter()
        .map(|t| {
            buf.clear();
            encode_tuple_into(&mut buf, t);
            buf.to_vec()
        })
        .collect();
    // A worker-oriented frame lists the destination tasks on one
    // worker: a quarter of the sinks for a broadcast, one for a keyed
    // tuple.
    let per_worker: Vec<Vec<TaskId>> = (0..n)
        .map(|i| {
            let all = destinations(stream.fanout[i], i);
            all.into_iter()
                .filter(|t| t.0 % MACHINES == 0 || stream.fanout[i] == 1)
                .collect()
        })
        .collect();
    out.push((
        "codec.frame_encode_ns",
        bench(n, || {
            timed(|| {
                for (item, dsts) in items.iter().zip(&per_worker) {
                    buf.clear();
                    WorkerMessage::encode_with_item_into(TaskId(0), dsts, item, &mut buf);
                    black_box(&buf);
                }
            })
        }),
    ));
    let frames: Vec<Arc<[u8]>> = items
        .iter()
        .zip(&per_worker)
        .map(|(item, dsts)| {
            buf.clear();
            WorkerMessage::encode_with_item_into(TaskId(0), dsts, item, &mut buf);
            Arc::from(&buf[..])
        })
        .collect();
    out.push((
        "codec.view_parse_ns",
        bench(n, || {
            timed(|| {
                for f in &frames {
                    let view = WorkerMessageView::parse(f).expect("own encoding parses");
                    black_box(view.tuple().field(stream.stamp_field));
                }
            })
        }),
    ));
    let wire_items: Vec<Arc<[u8]>> = items.iter().map(|i| Arc::from(&i[..])).collect();
    out.push((
        "codec.materialize_ns",
        bench(n, || {
            timed(|| {
                for item in &wire_items {
                    let lazy = LazyTuple::from_wire(Arc::clone(item), 0).expect("own encoding");
                    black_box(lazy.materialize().expect("valid tuple"));
                }
            })
        }),
    ));

    // --- grouping ---
    let targets: Vec<TaskId> = (0..SINKS).map(TaskId).collect();
    let key_field = match kind {
        Kind::RideOnesided => 1,
        _ => 0,
    };
    let mut broadcast = GroupingExec::new(Grouping::All, targets.clone());
    let mut keyed = GroupingExec::new(Grouping::Fields(key_field), targets.clone());
    let mut shuffle = GroupingExec::new(Grouping::Shuffle, targets);
    let mut scratch = Vec::new();
    out.push((
        "grouping.route_ns",
        bench(n, || {
            timed(|| {
                for (i, t) in records.iter().enumerate() {
                    let exec = match stream.fanout[i] as u32 {
                        SINKS => &mut broadcast,
                        1 => &mut keyed,
                        _ => &mut shuffle,
                    };
                    exec.route_into(t, None, &mut scratch)
                        .expect("key field present");
                    black_box(&scratch);
                }
            })
        }),
    ));
    let topology = workload.topology();
    let placement = Placement::even(&topology, &ClusterSpec::new(MACHINES, 1, 16));
    let sink_tasks = topology.tasks_of(kind.sink());
    let src = topology.tasks_of(stream.component)[0];
    let routed: Vec<Vec<TaskId>> = (0..n)
        .map(|i| {
            destinations(stream.fanout[i], i)
                .into_iter()
                .map(|t| sink_tasks[t.0 as usize])
                .collect()
        })
        .collect();
    out.push((
        "grouping.plan_ns",
        bench(n, || {
            timed(|| {
                for (item, dsts) in items.iter().zip(&routed) {
                    black_box(plan(
                        CommMode::WorkerOriented,
                        src,
                        item.len(),
                        dsts,
                        &placement,
                    ));
                }
            })
        }),
    ));

    // --- pool ---
    let pool = BufferPool::default();
    out.push((
        "pool.acquire_share_ns",
        bench(n, || {
            timed(|| {
                for item in &items {
                    let mut scratch = pool.acquire();
                    scratch.put_slice(item);
                    black_box(scratch.share());
                }
            })
        }),
    ));

    // --- fabric: the workload's own transport, at its frame size ---
    let (from, to) = (EndpointId(0), EndpointId(1));
    match kind {
        Kind::FanoutRelay | Kind::StockAcklog => {
            let fabric = LiveFabric::new();
            let rx = fabric.register(to).expect("fresh fabric");
            out.push((
                "fabric.per_send.send_recv_ns",
                bench(n, || {
                    timed(|| {
                        for f in &frames {
                            fabric
                                .send_shared(from, to, Arc::clone(f))
                                .expect("open inbox");
                            black_box(rx.try_recv().expect("synchronous delivery"));
                        }
                    })
                }),
            ));
        }
        Kind::KeyedRing => {
            let fabric = RingFabric::new(RingConfig::default());
            let rx = fabric.register(to).expect("fresh fabric");
            out.push((
                "fabric.ring.post_flush_ns",
                bench(n, || {
                    timed(|| {
                        for burst in frames.chunks(TRANSPORT_BURST) {
                            for f in burst {
                                fabric
                                    .send_shared(from, to, Arc::clone(f))
                                    .expect("ring has room");
                            }
                            fabric.flush_at(fabric.wall_now());
                            while let Ok(m) = rx.try_recv() {
                                black_box(m);
                            }
                        }
                    })
                }),
            ));
        }
        Kind::RideOnesided => {
            let fabric = OneSidedFabric::new(OneSidedConfig::default());
            let rx = fabric.register(to).expect("fresh fabric");
            out.push((
                "fabric.one_sided.publish_fetch_ns",
                bench(n, || {
                    timed(|| {
                        for burst in frames.chunks(TRANSPORT_BURST) {
                            for f in burst {
                                fabric
                                    .send_shared(from, to, Arc::clone(f))
                                    .expect("ring has room");
                            }
                            fabric.fetch_all();
                            while let Ok(m) = rx.try_recv() {
                                black_box(m);
                            }
                        }
                    })
                }),
            ));
        }
    }

    // --- multicast: tree construction, switching, the controller ---
    if kind.relays() {
        for (name, workers) in [
            ("multicast.build_tree_us_n4", MACHINES),
            ("multicast.build_tree_us_n480", 480),
        ] {
            let reps = 480 / workers as usize * 4;
            let ns = bench(reps, || {
                timed(|| {
                    for _ in 0..reps {
                        black_box(build_nonblocking(black_box(workers - 1), 2));
                    }
                })
            });
            out.push((name, ns / 1e3));
        }
        let tree = build_nonblocking(479, 2);
        let ns = bench(4, || {
            timed(|| {
                for _ in 0..4 {
                    black_box(plan_switch(&tree, 4));
                }
            })
        });
        out.push(("multicast.plan_switch_us", ns / 1e3));
        let mut controller = AdjustController::new(ControllerConfig::for_queue(1024, 480), 2);
        let reports: Vec<MonitorReport> = (0..64u64)
            .map(|i| MonitorReport {
                at: SimTime::from_millis(2 * i),
                lambda: 50_000.0 + 5_000.0 * (i % 7) as f64,
                t_e_secs: 20e-6,
                queue_len: (i * 37 % 900) as usize,
                prev_queue_len: (i * 53 % 900) as usize,
                links: LinkPressure::default(),
            })
            .collect();
        out.push((
            "multicast.decide_ns",
            bench(reports.len() * 64, || {
                timed(|| {
                    for _ in 0..64 {
                        for r in &reports {
                            black_box(controller.decide(r));
                        }
                    }
                })
            }),
        ));
    }

    // --- acker and log: only the tracked, logged workload ---
    if kind.tracked() {
        let mut acker = Acker::new(SimDuration::from_millis(250));
        let mut root = 0u64;
        out.push((
            "acker.init_ack_ns",
            bench(n, || {
                timed(|| {
                    for _ in 0..n {
                        root += 1;
                        let anchor =
                            |i: u64| (root << 8 | i).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
                        acker.init(root, 0, SimTime::from_nanos(root));
                        acker.ack(root, (0..SINKS as u64).fold(0, |x, i| x ^ anchor(i)));
                        for i in 0..SINKS as u64 {
                            black_box(acker.ack(root, anchor(i)));
                        }
                    }
                })
            }),
        ));
        assert_eq!(acker.pending(), 0, "every driven tree must close");

        let mut log = PartitionLog::new(LogConfig::default());
        out.push((
            "log.append_ns",
            bench(n, || {
                timed(|| {
                    for f in &frames {
                        black_box(log.append(f));
                    }
                })
            }),
        ));
        out.push((
            "log.read_ns",
            bench(n, || {
                let mut log = PartitionLog::new(LogConfig::default());
                for f in &frames {
                    log.append(f);
                }
                timed(|| {
                    black_box(log.read_from(0));
                })
            }),
        ));
        out.push((
            "log.truncate_ns",
            bench(n, || {
                let mut log = PartitionLog::new(LogConfig::default());
                for f in &frames {
                    log.append(f);
                }
                let end = log.next_seq();
                timed(|| log.truncate_to(end))
            }),
        ));
    }

    // --- apps: the public operators on their own input ---
    match kind {
        Kind::StockAcklog => {
            let mut split = stock_exchange::SplitBolt::new(Side::Sell);
            out.push((
                "apps.stock.split_execute_ns",
                bench(n, || {
                    timed(|| {
                        for t in &records {
                            split.execute(t, &mut NullEmitter);
                        }
                    })
                }),
            ));
            // Matching sees what the splits pass: valid records only.
            let valid: Vec<&Tuple> = records
                .iter()
                .zip(&stream.fanout)
                .filter(|(_, &f)| f > 0)
                .map(|(t, _)| *t)
                .collect();
            let mut trades = VecEmitter::default();
            out.push((
                "apps.stock.matching_execute_ns",
                bench(valid.len(), || {
                    let mut matching = stock_exchange::MatchingBolt::new();
                    trades.emitted.clear();
                    timed(|| {
                        for t in &valid {
                            matching.execute(t, &mut trades);
                        }
                    })
                }),
            ));
            let mut volume = stock_exchange::VolumeBolt::new();
            out.push((
                "apps.stock.volume_execute_ns",
                bench(trades.emitted.len().max(1), || {
                    timed(|| {
                        for t in &trades.emitted {
                            volume.execute(t, &mut NullEmitter);
                        }
                    })
                }),
            ));
        }
        Kind::RideOnesided => {
            // One of 16 instances: it holds the drivers the run preloads
            // into it and sees every request.
            let requests: Vec<&Tuple> = records.iter().take(2_048).copied().collect();
            let mut matching = ride_hailing::MatchingBolt::new();
            for t in workload.preloaded(0) {
                matching.execute(t, &mut NullEmitter);
            }
            let mut candidates = VecEmitter::default();
            out.push((
                "apps.ride.matching_execute_ns",
                bench(requests.len(), || {
                    candidates.emitted.clear();
                    timed(|| {
                        for t in &requests {
                            matching.execute(t, &mut candidates);
                        }
                    })
                }),
            ));
            let mut aggregation = ride_hailing::AggregationBolt::new();
            out.push((
                "apps.ride.aggregation_execute_ns",
                bench(candidates.emitted.len().max(1), || {
                    timed(|| {
                        for t in &candidates.emitted {
                            aggregation.execute(t, &mut NullEmitter);
                        }
                    })
                }),
            ));
        }
        Kind::FanoutRelay | Kind::KeyedRing => {}
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::ALL;

    #[test]
    fn drives_cover_exactly_the_layers_a_workload_uses() {
        for kind in ALL {
            let w = Workload::generate(kind, 11);
            let drives = drive_all(&w);
            let has = |name: &str| drives.iter().any(|(n, _)| *n == name);
            for (name, v) in &drives {
                assert!(v.is_finite() && *v > 0.0, "{kind:?} {name} = {v}");
            }
            assert!(has("codec.encode_ns") && has("grouping.route_ns"));
            assert_eq!(has("multicast.decide_ns"), kind.relays());
            assert_eq!(has("acker.init_ack_ns"), kind.tracked());
            assert_eq!(has("log.append_ns"), kind.tracked());
            assert_eq!(has("fabric.ring.post_flush_ns"), kind == Kind::KeyedRing);
            assert_eq!(
                has("fabric.one_sided.publish_fetch_ns"),
                kind == Kind::RideOnesided
            );
            assert_eq!(
                has("apps.stock.matching_execute_ns"),
                kind == Kind::StockAcklog
            );
            assert_eq!(
                has("apps.ride.matching_execute_ns"),
                kind == Kind::RideOnesided
            );
        }
    }
}
