//! Criterion microbenchmarks of the zero-copy live path: buffer-pool
//! acquire/release vs fresh allocation, pooled encode + share, the
//! per-tuple send path up to the fabric, the receive path from a relayed
//! frame to its local sinks, one tracked and logged source tuple with its
//! acks, and the ring drain.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;
use whale_dsps::runtime::PipelineHarness;
use whale_dsps::{
    codec, AckConfig, BufferPool, CommMode, Emitter, Grouping, GroupingExec, IterSpout, LazyFnBolt,
    LazyTuple, LiveConfig, LogConfig, MessagePlan, Operators, Placement, PoolConfig, Schema,
    TopologyBuilder, Tuple, Value,
};
use whale_net::{
    BatchConfig, ClusterSpec, EndpointId, LiveMessage, Payload, RingConfig, RingFabric,
};

use bytes::BufMut;

fn bench_pool(c: &mut Criterion) {
    c.bench_function("pool_acquire_release", |b| {
        let pool = BufferPool::new(PoolConfig::default());
        drop(pool.acquire()); // warm: steady state is all hits
        b.iter(|| {
            let mut buf = pool.acquire();
            buf.put_slice(black_box(b"steady-state frame payload"));
            black_box(buf.len())
        })
    });

    c.bench_function("fresh_alloc_baseline", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(1024);
            buf.put_slice(black_box(b"steady-state frame payload"));
            black_box(buf.len())
        })
    });

    c.bench_function("pool_encode_share_150B", |b| {
        let pool = BufferPool::new(PoolConfig::default());
        let payload = [0u8; 150];
        b.iter(|| {
            let mut buf = pool.acquire();
            buf.put_slice(black_box(&payload));
            black_box(buf.share())
        })
    });
}

/// Everything the sender of one key-grouped 30 B tuple does before the
/// fabric takes over, with the state a task keeps between tuples: route,
/// plan, one worker frame (header, then the tuple serialized in place)
/// into pooled scratch, share.
fn bench_send_path(c: &mut Criterion) {
    c.bench_function("send_path_keyed", |b| {
        let mut t = TopologyBuilder::new();
        t.spout("src", 1, Schema::new(vec!["n", "k"]))
            .bolt("sink", 16, Schema::new(vec!["n", "k"]))
            .connect("src", "sink", Grouping::Fields(1));
        let topology = t.build().unwrap();
        let placement = Placement::even(&topology, &ClusterSpec::new(4, 1, 16));
        let src = topology.tasks_of("src")[0];
        let mut grouping = GroupingExec::new(Grouping::Fields(1), topology.tasks_of("sink"));
        // A key whose sink is not on the source's worker.
        let tuple = (0..)
            .map(|k| Tuple::with_id(7, vec![Value::I64(k), Value::str("key-07")]))
            .find(|t| {
                let dst = grouping.route(t, None).unwrap()[0];
                !placement.colocated(src, dst)
            })
            .unwrap();
        assert_eq!(tuple.payload_bytes(), 30);
        let (mut dsts, mut plan) = (Vec::new(), MessagePlan::default());
        let pool = BufferPool::new(PoolConfig::default());
        b.iter(|| {
            let tuple = black_box(&tuple);
            grouping.route_into(tuple, None, &mut dsts).unwrap();
            let mode = CommMode::WorkerOriented;
            plan.fill(mode, src, tuple.payload_bytes(), &dsts, &placement);
            let frame = &plan.remote()[0];
            let mut buf = pool.acquire();
            buf.put_u8(2);
            buf.put_u32_le(src.0);
            buf.put_u32_le(plan.tasks_of(frame).len() as u32);
            for dst in plan.tasks_of(frame) {
                buf.put_u32_le(dst.0);
            }
            codec::encode_tuple_into(&mut buf, tuple);
            black_box(buf.share())
        })
    });
}

/// Everything a worker of the relay tree does with one received 150 B
/// broadcast frame, through its real pipeline: parse, admit, forward to
/// its tree children, anchor the item to the receive buffer, hand it to
/// the worker's four sinks and run them (they read one field off the wire
/// and discard). `local_fanout_4` is a leaf — worker 1 of two —
/// `relay_forward_1_local_4` the mid-tree worker of four machines, which
/// forwards every frame to one child.
fn bench_relay_receive(c: &mut Criterion) {
    for (name, machines, forwards) in [("local_fanout_4", 2, 0), ("relay_forward_1_local_4", 4, 1)]
    {
        c.bench_function(name, |b| {
            let mut t = TopologyBuilder::new();
            t.spout("src", 1, Schema::new(vec!["n", "payload"]))
                .bolt("sink", 4 * machines, Schema::new(vec!["n", "payload"]))
                .connect("src", "sink", Grouping::All);
            let ops = Operators::new()
                .spout("src", |_| Box::new(IterSpout::new(std::iter::empty())))
                .bolt("sink", |_| {
                    Box::new(LazyFnBolt::new(|t: &LazyTuple, _out: &mut dyn Emitter| {
                        black_box(t.field(0));
                    }))
                });
            let config = LiveConfig {
                machines,
                multicast_d_star: Some(2),
                ..LiveConfig::default()
            };
            // Worker 1: the first child of worker 0's tree.
            let mut worker = PipelineHarness::new(t.build().unwrap(), &ops, config, 1);
            let payload = "x".repeat(126);
            let tuple = Tuple::with_id(7, vec![Value::I64(7), Value::str(payload)]);
            assert_eq!(tuple.payload_bytes(), 150);
            let msg = LiveMessage {
                from: EndpointId(0),
                payload: Payload::Shared(worker.relay_frame(0, "sink", None, &tuple)),
            };
            b.iter(|| {
                worker.receive(black_box(&msg));
                // A leaf sends nothing; a relay's child is drained so its
                // queue does not grow with the iteration count.
                if forwards > 0 {
                    assert_eq!(worker.take_sent(), forwards);
                }
            });
            let executed = worker.snapshot().executed[1];
            assert!(executed > 0 && executed.is_multiple_of(4));
        });
    }
}

/// One tracked, logged source tuple, end to end on the sending side,
/// through the spout's real pipeline: register the root with the acker,
/// route a 30 B tuple to two sinks on two other workers, arm the ledger,
/// write both worker frames ahead to their partition logs (GC inline),
/// hand them to the fabric — then the two acks the sinks would send,
/// which close the tree and move the watermark. (The sinks' own dedup
/// check is not in it: the acks go straight to the ledger.) Before the
/// ledger became a window — a map of trees, a map of pending tuples
/// holding a deep clone, a walk over it every 64 emits, a second lock
/// per logged frame — the same loop, pinned to one CPU on the reference
/// host and alternated five times with this one, read 1.13–1.15 µs per
/// tuple; this one 0.76–0.88 µs.
fn bench_tracked_logged_send(c: &mut Criterion) {
    c.bench_function("tracked_logged_send", |b| {
        let mut t = TopologyBuilder::new();
        t.spout("src", 3, Schema::new(vec!["n", "k"]))
            .bolt("sink", 2, Schema::new(vec!["n", "k"]))
            .connect("src", "sink", Grouping::All);
        let topology = t.build().unwrap();
        let sinks = topology.tasks_of("sink");
        let ops = Operators::new()
            .spout("src", |_| Box::new(IterSpout::new(std::iter::empty())))
            .bolt("sink", |_| {
                Box::new(LazyFnBolt::new(|_t: &LazyTuple, _out: &mut dyn Emitter| {}))
            });
        let config = LiveConfig {
            machines: 3,
            ack: Some(AckConfig::default()),
            log: Some(LogConfig::default()),
            ..LiveConfig::default()
        };
        // The even scheduler deals the sinks to workers 0 and 1: both
        // remote from worker 2's spout instance.
        let mut worker = PipelineHarness::new(topology, &ops, config, 2);
        let mut n = 0i64;
        b.iter(|| {
            n += 1;
            let tuple = Tuple::with_id(n as u64, vec![Value::I64(n), Value::str("key-07")]);
            let tracked = worker.emit(black_box(tuple)).expect("a tracked run");
            assert_eq!(worker.take_sent(), 2);
            assert!(!worker.ack(tracked, sinks[0]));
            assert!(
                worker.ack(tracked, sinks[1]),
                "the second ack closes the tree"
            );
        });
    });
}

fn bench_ring_flush(c: &mut Criterion) {
    c.bench_function("ring_fanout8_flush", |b| {
        let fabric = RingFabric::new(RingConfig {
            ring_capacity: 64 * 1024,
            batch: BatchConfig {
                mms: 4 * 1024,
                wtl: Duration::from_millis(1),
            },
        });
        let receivers: Vec<_> = (0..8)
            .map(|d| fabric.register(EndpointId(d + 1)).unwrap())
            .collect();
        let buf: Arc<[u8]> = Arc::from(&[0u8; 150][..]);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            for d in 0..8u32 {
                fabric
                    .send_shared(EndpointId(0), EndpointId(d + 1), buf.clone())
                    .unwrap();
            }
            fabric.flush_at(Duration::from_nanos(i));
            for rx in &receivers {
                black_box(rx.try_recv().unwrap());
            }
        })
    });
}

criterion_group!(
    benches,
    bench_pool,
    bench_send_path,
    bench_relay_receive,
    bench_tracked_logged_send,
    bench_ring_flush
);
criterion_main!(benches);
