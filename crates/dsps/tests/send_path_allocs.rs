//! What one routed tuple costs the sending thread in heap blocks, from
//! `emit` to fabric accept, and what one received frame costs the
//! receiving one, from parse to the last local execution. Its own test
//! binary: the counting `#[global_allocator]` below would tax every other
//! suite.
//!
//! The tuple's own `Arc` and the wire `Arc<[u8]>` the receiver ends up
//! owning (none on the ring, which writes a frame sent once into its
//! stream slice) are the only blocks the direct send path is allowed —
//! grouping, planning, frame encode, scratch reuse and the hand-off to
//! local tasks must not allocate in steady state — and the receive path
//! is allowed none: a received record runs on a handle borrowed from its
//! frame's buffer, and only a clone a bolt keeps takes a block (and a
//! buffer reference) of its own. A bolt that forwards a received tuple
//! pays the frame it sends and nothing else. (That a queue entry naming a batch is no larger than one naming
//! a task is a `const` assertion beside the type, in `runtime/send.rs`.)
//!
//! A run here has one executor per pipeline, so the emitting thread runs
//! the emitting pipeline alone, as it would on a host with a core per
//! pipeline: what receivers sharing its executor would cost it is theirs,
//! not the send path's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, Weak};
use whale_dsps::runtime::{spawn_topology_on, PipelineHarness};
use whale_dsps::{
    AckConfig, Bolt, Emitter, FnBolt, Grouping, IterSpout, LazyFnBolt, LazyTuple, LiveConfig,
    LogConfig, Operators, RunOutcome, Schema, Spout, TopologyBuilder, Tuple, Value,
};
use whale_net::{
    EndpointId, FabricKind, FabricPath, LiveFabric, LiveMessage, OneSidedConfig, OneSidedFabric,
    Payload, RingConfig, RingFabric,
};

thread_local! {
    /// Heap blocks this thread has asked the allocator for.
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count_block() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = BLOCKS.try_with(|b| b.set(b.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a thread-local counter
// bump that itself never allocates (`const`-initialized `Cell<u64>`, no
// destructor).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_block();
        // SAFETY: the caller's `layout` obligations are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_block();
        // SAFETY: as for `dealloc`; `new_size` is the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn blocks() -> u64 {
    BLOCKS.with(Cell::get)
}

const TUPLES: usize = 4_000;
/// Leading sends not judged: buffers, queues and maps are still growing.
const WARMUP: usize = 1_000;

/// A spout that, between handing one tuple to the runtime and being
/// asked for the next, sees exactly the blocks the send of that tuple
/// cost its thread (its own tuple construction is excluded).
struct ProbeSpout {
    sent: usize,
    /// Tuple `i` has id `i * stride`.
    stride: u64,
    /// `blocks()` when the previous `next_tuple` returned.
    handed_over_at: u64,
    /// Blocks per send.
    costs: Vec<u64>,
    report: mpsc::Sender<Vec<u64>>,
}

impl Spout for ProbeSpout {
    fn next_tuple(&mut self) -> Option<Tuple> {
        let now = blocks();
        if self.sent > 0 {
            self.costs.push(now - self.handed_over_at);
        }
        if self.sent == TUPLES {
            let _ = self.report.send(std::mem::take(&mut self.costs));
            return None;
        }
        let i = self.sent as i64;
        self.sent += 1;
        let t = Tuple::with_id(
            i as u64 * self.stride,
            vec![Value::I64(i), Value::str("key-07")],
        );
        assert_eq!(t.payload_bytes(), 30);
        self.handed_over_at = blocks();
        Some(t)
    }
}

/// Run `src` (one instance per machine, only the last one emits) into
/// `sinks` sink instances, which the even scheduler deals round-robin to
/// workers from 0 up — all remote from the emitter when `sinks <
/// machines`, all local to it on one machine, where a send runs through
/// to the last sink's execution before the spout is asked again.
/// `reliable` tracks every tuple in the acker and writes every frame
/// ahead to the partition log. Tuple ids are `stride` apart. Returns the
/// emitter's per-send block counts after warm-up, sorted.
fn send_costs(
    grouping: Grouping,
    fabric: FabricKind,
    machines: u32,
    sinks: u32,
    reliable: bool,
    stride: u64,
) -> Vec<u64> {
    assert!(sinks < machines || machines == 1);
    let fanout = if grouping == Grouping::All { sinks } else { 1 };
    let mut b = TopologyBuilder::new();
    b.spout("src", machines, Schema::new(vec!["n", "k"]))
        .bolt("sink", sinks, Schema::new(vec!["n", "k"]))
        .connect("src", "sink", grouping);
    let (report, costs) = mpsc::channel();
    let report = std::sync::Mutex::new(report);
    let ops = Operators::new()
        .spout("src", move |instance| {
            let emits = instance == machines - 1;
            Box::new(ProbeSpout {
                sent: if emits { 0 } else { TUPLES },
                stride,
                handed_over_at: 0,
                costs: Vec::with_capacity(TUPLES),
                report: report.lock().unwrap().clone(),
            })
        })
        .bolt("sink", |_| {
            Box::new(FnBolt::new(|_t: &Tuple, _out: &mut dyn Emitter| {}))
        });
    let config = LiveConfig {
        machines,
        zero_copy: true,
        fabric,
        // Nothing is lost here, so nothing needs the timeout; a replay
        // would be a second send between two `next_tuple`s.
        ack: reliable.then(|| AckConfig {
            timeout: std::time::Duration::from_secs(20),
            ..AckConfig::default()
        }),
        log: reliable.then(LogConfig::default),
        ..LiveConfig::default()
    };
    let run = spawn_topology_on(b.build().unwrap(), ops, config, machines as usize);
    let r = run.expect("a runnable config").join();
    assert_eq!(r.outcome, RunOutcome::Clean);
    assert_eq!(r.executed[1], (TUPLES as u64) * fanout as u64);
    if stride == SAMPLED {
        // Every id but the first is timed at each sink that executes it.
        assert_eq!(r.delivery_samples, (TUPLES as u64 - 1) * fanout as u64);
    }
    if reliable {
        assert_eq!((r.tuples_acked, r.tuples_replayed), (TUPLES as u64, 0));
        assert_eq!(r.log_appended_records, (TUPLES as u64) * fanout as u64);
    }
    let mut costs = costs
        .try_iter()
        .find(|c| c.len() == TUPLES)
        .expect("the emitting instance reports every send");
    let mut steady = costs.split_off(WARMUP);
    steady.sort_unstable();
    steady
}

/// One block for the tuple's `Arc` plus one wire buffer per frame: held
/// by nine sends in ten, and on average up to 0.05 of a block per frame
/// and 0.01 per send. (The slack is the fabric's own queues, behind the
/// accept, while their buffers still grow; which is why this is not a
/// bound on the maximum.)
fn assert_one_block_per_frame(steady: &[u64], frames: u64, what: &str) {
    let budget = 1 + frames;
    let p90 = steady[steady.len() * 9 / 10];
    let mean = steady.iter().sum::<u64>() as f64 / steady.len() as f64;
    assert!(
        p90 <= budget && mean <= budget as f64 + 0.05 * frames as f64 + 0.01,
        "{what}: p90 {p90}, mean {mean:.3} blocks per send, budget {budget}"
    );
}

#[test]
fn a_keyed_tuple_to_one_remote_worker_costs_two_heap_blocks() {
    for fabric in [FabricKind::PerSend, FabricKind::Ring(RingConfig::default())] {
        let steady = send_costs(Grouping::Fields(1), fabric, 2, 1, false, 1);
        assert_one_block_per_frame(&steady, 1, &format!("keyed over {fabric:?}"));
    }
}

#[test]
fn a_keyed_tuple_lent_to_the_ring_costs_only_the_tuples_own_block() {
    // The frame is written into the destination's stream slice: no buffer
    // of its own. (The slice's one buffer is the pass's, on the reader.)
    let steady = send_costs(
        Grouping::Fields(1),
        FabricKind::Ring(RingConfig::default()),
        2,
        1,
        false,
        1,
    );
    assert_one_block_per_frame(&steady, 0, "keyed, lent to the ring");
}

#[test]
fn a_warm_lent_one_sided_frame_costs_its_sender_no_heap_block() {
    // The frame is written into its link's slice buffer; the outbox slot
    // holds a descriptor.
    let one_sided = FabricKind::OneSided(OneSidedConfig::default());
    let steady = send_costs(Grouping::Fields(1), one_sided, 2, 1, false, 1);
    assert_one_block_per_frame(&steady, 0, "keyed, lent to a one-sided link");
    // The reader's fetch pays for the run, not per frame: its one buffer
    // and the thin handle the frames share.
    let fabric = OneSidedFabric::new(OneSidedConfig::default());
    let rx = fabric.register(EndpointId(1)).unwrap();
    let frame = [7u8; 30];
    let (mut publish, mut fetch) = (Vec::new(), Vec::new());
    for _ in 0..TUPLES / 64 {
        let before = blocks();
        for _ in 0..64 {
            fabric
                .send_lent(EndpointId(0), EndpointId(1), &frame)
                .unwrap();
        }
        publish.push(blocks() - before);
        let before = blocks();
        let mut got = 0;
        while let Ok(msg) = rx.try_recv() {
            assert!(matches!(msg.payload, Payload::Slice(..)));
            got += 1;
        }
        fetch.push(blocks() - before);
        assert_eq!(got, 64);
    }
    let (publish, fetch) = (&publish[WARMUP / 64..], &fetch[WARMUP / 64..]);
    assert!(publish.iter().all(|&c| c == 0), "publish {publish:?}");
    assert!(fetch.iter().all(|&c| c == 2), "fetch {fetch:?}");
}

#[test]
fn a_frame_taken_from_a_slice_costs_its_receiver_no_heap_block() {
    // Worker 1 of two, a leaf of worker 0's tree: each round lends 64
    // relayed frames to its ring endpoint and flushes them as one slice;
    // taking a frame off the inbox and running its four sinks is judged.
    // The slice's buffer and its frame list are the pass's blocks.
    let executed = Arc::new(AtomicU64::new(0));
    let tap = Arc::clone(&executed);
    let mut worker = relay_worker(2, 1, move || {
        let executed = Arc::clone(&tap);
        Box::new(LazyFnBolt::new(
            move |t: &LazyTuple, _out: &mut dyn Emitter| {
                assert!(t.field(0).is_some());
                executed.fetch_add(1, Ordering::Relaxed);
            },
        ))
    });
    let frames: Vec<LiveMessage> = (0..64).map(|n| relayed(&worker, n)).collect();
    let ring = RingFabric::new(RingConfig::default());
    let rx = ring.register(EndpointId(1)).unwrap();
    let mut costs = Vec::with_capacity(TUPLES);
    while costs.len() < TUPLES {
        for msg in &frames {
            ring.send_lent(msg.from, EndpointId(1), msg.payload.bytes())
                .unwrap();
        }
        ring.flush_at(ring.wall_now());
        for _ in &frames {
            let before = blocks();
            let msg = rx.try_recv().expect("the flushed slice");
            assert!(matches!(msg.payload, Payload::Slice(..)));
            worker.receive(&msg);
            drop(msg);
            costs.push(blocks() - before);
        }
    }
    assert_eq!(executed.load(Ordering::Relaxed), 4 * costs.len() as u64);
    let steady = &costs[WARMUP..];
    let max = steady.iter().max();
    assert!(steady.iter().all(|&c| c == 0), "max {max:?}");
}

#[test]
fn a_warm_per_send_inbox_costs_no_heap_block_per_frame() {
    // A shared frame's buffer is its sender's; the send resolves its
    // destination from a handle it already holds, pushes into the queue,
    // and the reader swaps the queue's buffer for its own empty one. Once
    // both buffers have grown to a round's frames, nothing allocates.
    const ROUND: usize = 64;
    let fabric = LiveFabric::new();
    let rx = fabric.register(EndpointId(1)).unwrap();
    let frame: Arc<[u8]> = Arc::from(&[7u8; 30][..]);
    let mut costs = Vec::with_capacity(TUPLES);
    for _ in 0..TUPLES / ROUND {
        for _ in 0..ROUND {
            let before = blocks();
            fabric
                .send_shared(EndpointId(0), EndpointId(1), Arc::clone(&frame))
                .unwrap();
            let msg = rx.try_recv().expect("delivered by the send");
            drop(msg);
            costs.push(blocks() - before);
        }
        // Half the round queued at once, then taken in one swap.
        let before = blocks();
        for _ in 0..ROUND / 2 {
            fabric
                .send_shared(EndpointId(0), EndpointId(1), Arc::clone(&frame))
                .unwrap();
        }
        while rx.try_recv().is_ok() {}
        costs.push(blocks() - before);
    }
    let steady = &costs[WARMUP..];
    let max = steady.iter().max();
    assert!(steady.iter().all(|&c| c == 0), "max {max:?}");
}

#[test]
fn a_direct_broadcast_costs_one_block_plus_one_per_remote_frame() {
    for fabric in [FabricKind::PerSend, FabricKind::Ring(RingConfig::default())] {
        // Four sinks on four other workers: four worker frames.
        let steady = send_costs(Grouping::All, fabric, 5, 4, false, 1);
        assert_one_block_per_frame(&steady, 4, &format!("broadcast over {fabric:?}"));
    }
}

#[test]
fn a_tracked_logged_tuple_costs_no_block_beyond_its_frames() {
    // Two sinks on two other workers, tracked and logged: registering the
    // root shares the tuple's `Arc` with the ledger's slot (a deep clone
    // of its values used to be a block per tuple, and a map insert a
    // rehash now and then), arming and the write-ahead appends allocate
    // nothing (a log segment is 64 KiB: one block per ≈ 1 200 of these
    // frames, until GC starts handing segments back).
    let steady = send_costs(Grouping::All, FabricKind::PerSend, 3, 2, true, 1);
    assert_one_block_per_frame(&steady, 2, "tracked + logged broadcast");
}

#[test]
fn a_broadcast_to_four_local_sinks_costs_the_tuples_own_block() {
    // One machine: nothing is framed, and handing the tuple to its four
    // local sinks (one queue entry) and running them adds no block.
    let steady = send_costs(Grouping::All, FabricKind::PerSend, 1, 4, false, 1);
    assert_one_block_per_frame(&steady, 0, "local broadcast");
}

/// The runtime times the delivery of every id that is a multiple of this.
const SAMPLED: u64 = 8;

#[test]
fn a_sampled_local_broadcast_costs_the_tuples_own_block_and_nothing_more() {
    // Every id timed: stamping the emit and recording each sink's latency
    // write into memory the run allocated when it started, so no warm
    // send and execute costs a block beyond the tuple's own.
    let steady = send_costs(Grouping::All, FabricKind::PerSend, 1, 4, false, SAMPLED);
    let max = steady.iter().max();
    assert!(steady.iter().all(|&c| c == 1), "max {max:?}");
}

/// `worker`'s pipeline of src → `4 * machines` all-grouped sinks over
/// `machines` machines with the d* = 2 relay tree on: four sinks each,
/// built by `sink`.
fn relay_worker(
    machines: u32,
    worker: u32,
    sink: impl Fn() -> Box<dyn Bolt> + Send + Sync + 'static,
) -> PipelineHarness {
    let mut b = TopologyBuilder::new();
    b.spout("src", 1, Schema::new(vec!["n", "k"]))
        .bolt("sink", 4 * machines, Schema::new(vec!["n", "k"]))
        .connect("src", "sink", Grouping::All);
    let ops = Operators::new()
        .spout("src", |_| Box::new(IterSpout::new(std::iter::empty())))
        .bolt("sink", move |_| sink());
    let config = LiveConfig {
        machines,
        multicast_d_star: Some(2),
        ..LiveConfig::default()
    };
    PipelineHarness::new(b.build().unwrap(), &ops, config, worker)
}

/// Tuple `n` as worker 0 would put it on the relay tree.
fn relayed(worker: &PipelineHarness, n: i64) -> LiveMessage {
    let tuple = Tuple::with_id(
        (8 * n + 15) as u64,
        vec![Value::I64(n), Value::str("key-07")],
    );
    LiveMessage {
        from: EndpointId(0),
        payload: Payload::Shared(worker.relay_frame(0, "sink", None, &tuple)),
    }
}

#[test]
fn a_relayed_frame_costs_its_receiver_no_heap_block() {
    // Seen from worker 1 of two — a leaf of worker 0's tree — and from
    // every worker of four, one of which forwards. The sinks read a field
    // off the wire; materializing would allocate.
    let mut relays = 0;
    for (machines, worker) in [(2, 1), (4, 1), (4, 2), (4, 3)] {
        let executed = Arc::new(AtomicU64::new(0));
        let tap = Arc::clone(&executed);
        let mut worker = relay_worker(machines, worker, move || {
            let executed = Arc::clone(&tap);
            Box::new(LazyFnBolt::new(
                move |t: &LazyTuple, _out: &mut dyn Emitter| {
                    assert!(t.field(0).is_some());
                    executed.fetch_add(1, Ordering::Relaxed);
                },
            ))
        });
        let msg = relayed(&worker, 0);
        let (mut costs, mut forwarded) = (Vec::with_capacity(TUPLES), 0);
        for _ in 0..TUPLES {
            let before = blocks();
            worker.receive(&msg);
            costs.push(blocks() - before);
            forwarded += worker.take_sent();
        }
        assert_eq!(executed.load(Ordering::Relaxed), 4 * TUPLES as u64);
        let steady = &mut costs[WARMUP..];
        if forwarded == 0 {
            let max = steady.iter().max();
            assert!(steady.iter().all(|&c| c == 0), "a leaf: max {max:?}");
        } else {
            // A forward enters the fabric's queue, whose buffer grows now
            // and then, and one hop in eight is timed into a reservoir
            // that doubles as it fills.
            assert!(forwarded.is_multiple_of(TUPLES), "{forwarded} forwards");
            relays += 1;
            steady.sort_unstable();
            let mean = steady.iter().sum::<u64>() as f64 / steady.len() as f64;
            let p90 = steady[steady.len() * 9 / 10];
            let per_frame = (forwarded / TUPLES) as f64;
            assert!(
                p90 == 0 && mean <= 0.05 * per_frame,
                "a relay: p90 {p90}, mean {mean:.3} blocks per frame"
            );
        }
    }
    assert_eq!(
        relays, 1,
        "d* = 2 over three receivers: one of them forwards"
    );
}

/// Tuples a spout step of [`a_spout_steps_run_costs_its_origin_one_frame_buffer_and_its_receivers_none`]
/// relays.
const RUN: usize = 32;

#[test]
fn a_spout_steps_run_costs_its_origin_one_frame_buffer_and_its_receivers_none() {
    // Four machines, d* = 2: worker 0's spout step relays RUN tuples, and
    // they leave as one run — one shared buffer that both of its tree
    // children's frames refcount. Per step, the blocks are the tuples' own
    // `Arc`s and that one buffer (a frame per tuple would be one each).
    let sink = || -> Box<dyn Bolt> {
        Box::new(LazyFnBolt::new(|t: &LazyTuple, _out: &mut dyn Emitter| {
            assert!(t.field(0).is_some());
        }))
    };
    let tuple = |n: usize| {
        let n = n as i64;
        Tuple::with_id(
            (8 * n + 15) as u64,
            vec![Value::I64(n), Value::str("key-07")],
        )
    };
    let mut origin = relay_worker(4, 0, sink);
    let mut costs = Vec::new();
    let mut run = Vec::new();
    for step in 0..TUPLES / RUN {
        let tuples: Vec<Tuple> = (0..RUN).map(|i| tuple(step * RUN + i)).collect();
        let before = blocks();
        origin.emit_in_one_step(tuples);
        costs.push(blocks() - before);
        let sent = origin.take_sent_frames();
        assert_eq!(sent.len(), 2, "one frame per tree child, not one per tuple");
        run = sent[0].1.payload.bytes().to_vec();
    }
    let steady = &costs[WARMUP / RUN..];
    let max = steady.iter().max();
    assert!(steady.iter().all(|&c| c == RUN as u64 + 1), "max {max:?}");
    // Every worker of the tree receives the run: it runs each record
    // borrowed from the run's buffer, and forwards the run as it came.
    let run: Arc<[u8]> = Arc::from(run);
    for worker in 1..4 {
        let executed = Arc::new(AtomicU64::new(0));
        let tap = Arc::clone(&executed);
        let mut receiver = relay_worker(4, worker, move || {
            let executed = Arc::clone(&tap);
            Box::new(LazyFnBolt::new(
                move |t: &LazyTuple, _out: &mut dyn Emitter| {
                    assert!(t.field(0).is_some());
                    executed.fetch_add(1, Ordering::Relaxed);
                },
            ))
        });
        let msg = LiveMessage {
            from: EndpointId(0),
            payload: Payload::Shared(Arc::clone(&run)),
        };
        let mut costs = Vec::with_capacity(TUPLES / RUN);
        for _ in 0..TUPLES / RUN {
            let before = blocks();
            receiver.receive(&msg);
            costs.push(blocks() - before);
            for (_, forwarded) in receiver.take_sent_frames() {
                assert_eq!(forwarded.payload.bytes(), &run[..], "forwarded whole");
            }
        }
        let received = (TUPLES / RUN * RUN * 4) as u64;
        assert_eq!(
            executed.load(Ordering::Relaxed),
            received,
            "worker {worker}"
        );
        // A forward enters the fabric's queue, whose buffer grows now and
        // then.
        let steady = &costs[WARMUP / RUN..];
        let mean = steady.iter().sum::<u64>() as f64 / steady.len() as f64;
        assert!(
            mean <= 0.05,
            "worker {worker}: mean {mean:.3} blocks per run"
        );
    }
}

#[test]
fn a_spout_steps_keyed_emissions_cost_one_frame_per_destination_pipeline() {
    // Four machines, one `src` instance each and three keyed sinks dealt
    // to workers 0 to 2: worker 3's spout step emits RUN tuples with
    // distinct keys, and each sink's worker gets its share as one run —
    // three frames, not one per tuple. Per step, the blocks are the
    // tuples' own `Arc`s and one buffer per frame the per-send fabric
    // takes.
    let mut b = TopologyBuilder::new();
    b.spout("src", 4, Schema::new(vec!["n", "k"]))
        .bolt("sink", 3, Schema::new(vec!["n", "k"]))
        .connect("src", "sink", Grouping::Fields(1));
    let ops = Operators::new()
        .spout("src", |_| Box::new(IterSpout::new(std::iter::empty())))
        .bolt("sink", |_| {
            Box::new(FnBolt::new(|_t: &Tuple, _out: &mut dyn Emitter| {}))
        });
    let config = LiveConfig {
        machines: 4,
        ..LiveConfig::default()
    };
    let mut origin = PipelineHarness::new(b.build().unwrap(), &ops, config, 3);
    let tuple = |n: usize| {
        let key = Value::str(format!("key-{n}").as_str());
        Tuple::with_id(n as u64, vec![Value::I64(n as i64), key])
    };
    let mut costs = Vec::new();
    let mut frames = 0;
    for step in 0..TUPLES / RUN {
        let tuples: Vec<Tuple> = (0..RUN).map(|i| tuple(step * RUN + i)).collect();
        let before = blocks();
        origin.emit_in_one_step(tuples);
        costs.push(blocks() - before);
        let sent = origin.take_sent_frames();
        let mut workers: Vec<u32> = sent.iter().map(|(worker, _)| *worker).collect();
        workers.sort_unstable();
        assert_eq!(workers, [0, 1, 2], "one frame per pipeline, step {step}");
        frames += sent.len();
    }
    let records = origin.snapshot().frames_encoded;
    assert_eq!(records, (TUPLES / RUN * RUN) as u64);
    assert_eq!(frames, TUPLES / RUN * 3);
    let steady = &costs[WARMUP / RUN..];
    let max = steady.iter().max();
    assert!(steady.iter().all(|&c| c == RUN as u64 + 3), "max {max:?}");
}

/// Where `pass` hands a tuple on to: sinks of one task each, on worker 0.
#[derive(Clone, Copy, Debug)]
enum Downstream {
    /// One shuffled edge.
    Shuffle,
    /// Two shuffled edges, to two sinks.
    TwoShuffles,
    /// One all-grouped edge, over the relay tree.
    Relayed,
}

/// Per relayed frame worker 1 of two receives, the blocks its one `pass`
/// instance costs handing the tuple on to `down`'s sinks on worker 0 —
/// sorted, after warm-up — with `pass` built by `pass`.
fn pass_on_costs(down: Downstream, pass: fn(&LazyTuple, &mut dyn Emitter)) -> Vec<u64> {
    let mut b = TopologyBuilder::new();
    b.spout("src", 1, Schema::new(vec!["n", "k"]))
        .bolt("pass", 2, Schema::new(vec!["n", "k"]))
        .bolt("sink", 1, Schema::new(vec!["n", "k"]))
        .bolt("sink2", 1, Schema::new(vec!["n", "k"]))
        .connect("src", "pass", Grouping::All);
    match down {
        Downstream::Shuffle => b.connect("pass", "sink", Grouping::Shuffle),
        Downstream::TwoShuffles => (b.connect("pass", "sink", Grouping::Shuffle))
            .connect("pass", "sink2", Grouping::Shuffle),
        Downstream::Relayed => b.connect("pass", "sink", Grouping::All),
    };
    let sink = |_: u32| -> Box<dyn Bolt> {
        Box::new(FnBolt::new(|_t: &Tuple, _out: &mut dyn Emitter| {}))
    };
    let ops = Operators::new()
        .spout("src", |_| Box::new(IterSpout::new(std::iter::empty())))
        .bolt("pass", move |_| Box::new(LazyFnBolt::new(pass)))
        .bolt("sink", sink)
        .bolt("sink2", sink);
    let config = LiveConfig {
        machines: 2,
        multicast_d_star: Some(2),
        ..LiveConfig::default()
    };
    let mut worker = PipelineHarness::new(b.build().unwrap(), &ops, config, 1);
    let tuple = Tuple::with_id(15, vec![Value::I64(0), Value::str("key-07")]);
    let msg = LiveMessage {
        from: EndpointId(0),
        payload: Payload::Shared(worker.relay_frame(0, "pass", None, &tuple)),
    };
    let mut costs = Vec::with_capacity(TUPLES);
    for _ in 0..TUPLES {
        let before = blocks();
        worker.receive(&msg);
        costs.push(blocks() - before);
        assert_eq!(worker.take_sent(), 1, "one frame to worker 0, {down:?}");
    }
    let mut steady = costs.split_off(WARMUP);
    steady.sort_unstable();
    steady
}

/// The frame's shared buffer, and now and then the fabric's queue
/// growing its buffer.
fn assert_no_block_beyond_the_frame(costs: &[u64], down: Downstream) {
    let p90 = costs[costs.len() * 9 / 10];
    let mean = costs.iter().sum::<u64>() as f64 / costs.len() as f64;
    assert!(p90 <= 1 && mean <= 1.05, "{down:?}: p90 {p90}, mean {mean:.3}");
}

#[test]
fn a_forwarded_wire_tuple_costs_no_block_beyond_its_frame() {
    let forward = |t: &LazyTuple, out: &mut dyn Emitter| out.forward(t).unwrap();
    let forwarded = pass_on_costs(Downstream::Shuffle, forward);
    assert_no_block_beyond_the_frame(&forwarded, Downstream::Shuffle);
    // The copy it replaces: a decode (the value vector and the string),
    // the copy's vector and its `Arc`, beside the frame.
    let reemitted = pass_on_costs(Downstream::Shuffle, |t, out| {
        out.emit(t.materialize().unwrap().clone())
    });
    let median = |costs: &[u64]| costs[costs.len() / 2];
    assert_eq!(median(&reemitted), median(&forwarded) + 4);
}

#[test]
fn a_record_forwarded_to_no_local_task_is_never_promoted() {
    // Two edges that both leave the worker, and a relayed edge whose
    // component has no task on the forwarding worker: the record is
    // copied into the one frame and promoted for nothing.
    let forward = |t: &LazyTuple, out: &mut dyn Emitter| out.forward(t).unwrap();
    for down in [Downstream::TwoShuffles, Downstream::Relayed] {
        assert_no_block_beyond_the_frame(&pass_on_costs(down, forward), down);
    }
}

#[test]
fn a_bolt_that_keeps_a_clone_gets_its_own_block_and_keeps_its_bytes() {
    // One sink keeps a handle on tuple 3: the clone promotes the borrowed
    // record into a block of its own (frame 3's only block), and the kept
    // handle reads tuple 3 however many frames follow.
    let kept: Arc<Mutex<Option<LazyTuple<'static>>>> = Arc::default();
    let keeper = Arc::clone(&kept);
    let mut worker = relay_worker(2, 1, move || {
        let kept = Arc::clone(&keeper);
        Box::new(LazyFnBolt::new(
            move |t: &LazyTuple, _out: &mut dyn Emitter| {
                let n = t.field(0).unwrap().unwrap().as_i64();
                let mut kept = kept.lock().unwrap();
                if n == Some(3) && kept.is_none() {
                    *kept = Some(t.clone().into_owned());
                }
            },
        ))
    });
    // Not judged: the pipeline's queues come into being.
    worker.receive(&relayed(&worker, -1));
    let frames: Vec<LiveMessage> = (0..14).map(|n| relayed(&worker, n)).collect();
    let costs: Vec<u64> = (frames.iter())
        .map(|msg| {
            let before = blocks();
            worker.receive(msg);
            blocks() - before
        })
        .collect();
    assert_eq!(costs, [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
    let kept = kept.lock().unwrap().take().expect("a sink saw tuple 3");
    assert_eq!(kept.id(), 8 * 3 + 15);
    assert_eq!(kept.field(0).unwrap().unwrap().as_i64(), Some(3));
    assert_eq!(kept.field(1).unwrap().unwrap().as_str(), Some("key-07"));
    let owned = Tuple::with_id(8 * 3 + 15, vec![Value::I64(3), Value::str("key-07")]);
    assert_eq!(kept.materialize().unwrap(), &owned);
}

#[test]
fn a_memoized_tuple_is_not_visible_on_the_next_frame() {
    // Every sink materializes (the four of a frame share one decode). Each
    // frame's record must start unmaterialized and decode that frame's
    // bytes.
    let seen: Arc<Mutex<Vec<(bool, i64)>>> = Arc::default();
    let tap = Arc::clone(&seen);
    let mut worker = relay_worker(2, 1, move || {
        let seen = Arc::clone(&tap);
        Box::new(LazyFnBolt::new(
            move |t: &LazyTuple, _out: &mut dyn Emitter| {
                let was_materialized = t.is_materialized();
                let n = t.materialize().unwrap().get(0).unwrap().as_i64().unwrap();
                seen.lock().unwrap().push((was_materialized, n));
            },
        ))
    });
    for n in 0..20 {
        worker.receive(&relayed(&worker, n));
    }
    assert_eq!(worker.snapshot().tuples_materialized, 20);
    let seen = seen.lock().unwrap();
    for (n, frame) in seen.chunks(4).enumerate() {
        let expected = [false, true, true, true].map(|m| (m, n as i64));
        assert_eq!(frame, expected, "frame {n}");
    }
    assert_eq!(seen.len(), 4 * 20);
}

/// A run of [`RUN`] relayed tuples, `n` = 0 up, as worker 1 of two — a
/// leaf of worker 0's tree — receives it.
fn leaf_run() -> Arc<[u8]> {
    let sink =
        || -> Box<dyn Bolt> { Box::new(FnBolt::new(|_t: &Tuple, _out: &mut dyn Emitter| {})) };
    let mut origin = relay_worker(2, 0, sink);
    origin.emit_in_one_step((0..RUN as i64).map(|n| {
        Tuple::with_id(
            (8 * n + 15) as u64,
            vec![Value::I64(n), Value::str("key-07")],
        )
    }));
    let mut sent = origin.take_sent_frames();
    assert_eq!(sent.len(), 1, "one run to the one child");
    Arc::from(sent.remove(0).1.payload.bytes())
}

/// Worker 1 of two, its four sinks built by `sink`, and `run` as its
/// fabric hands it over.
fn leaf_receiving(
    run: &Arc<[u8]>,
    sink: impl Fn() -> Box<dyn Bolt> + Send + Sync + 'static,
) -> (PipelineHarness, LiveMessage) {
    let msg = LiveMessage {
        from: EndpointId(0),
        payload: Payload::Shared(Arc::clone(run)),
    };
    (relay_worker(2, 1, sink), msg)
}

#[test]
fn a_relay_runs_records_execute_without_touching_its_buffers_count() {
    // Each sink reads one field and notes the buffer's strong count: the
    // run itself and the message holding it, and nothing per record.
    let run = leaf_run();
    let counts: Arc<Mutex<Vec<usize>>> = Arc::default();
    let (tap, buf) = (Arc::clone(&counts), Arc::downgrade(&run));
    let (mut worker, msg) = leaf_receiving(&run, move || {
        let (counts, buf) = (Arc::clone(&tap), Weak::clone(&buf));
        Box::new(LazyFnBolt::new(
            move |t: &LazyTuple, _out: &mut dyn Emitter| {
                assert!(t.field(0).unwrap().unwrap().as_i64().is_some());
                counts.lock().unwrap().push(buf.strong_count());
            },
        ))
    });
    for _ in 0..4 {
        worker.receive(&msg);
    }
    let counts = counts.lock().unwrap();
    assert_eq!(counts.len(), 4 * 4 * RUN, "four sinks, four runs");
    assert!(counts.iter().all(|&c| c == 2), "{counts:?}");
}

#[test]
fn a_sink_that_keeps_every_other_record_takes_one_block_per_kept_record() {
    // Each of the four sinks keeps a clone of every even record, into room
    // reserved up front: the four clones of a record share one block, and
    // those blocks are the only ones a run costs.
    const FRAMES: usize = 8;
    let run = leaf_run();
    let kept: Arc<Mutex<Vec<LazyTuple<'static>>>> =
        Arc::new(Mutex::new(Vec::with_capacity(4 * RUN * FRAMES)));
    let keeper = Arc::clone(&kept);
    let (mut worker, msg) = leaf_receiving(&run, move || {
        let kept = Arc::clone(&keeper);
        Box::new(LazyFnBolt::new(
            move |t: &LazyTuple, _out: &mut dyn Emitter| {
                let n = t.field(0).unwrap().unwrap().as_i64().unwrap();
                if n % 2 == 0 {
                    kept.lock().unwrap().push(t.clone().into_owned());
                }
            },
        ))
    });
    // Not judged: the pipeline's queues come into being.
    worker.receive(&msg);
    let mut costs = Vec::new();
    for _ in 1..FRAMES {
        let (before, kept_before) = (blocks(), kept.lock().unwrap().len());
        worker.receive(&msg);
        let kept_now = kept.lock().unwrap().len() - kept_before;
        assert_eq!(kept_now, 4 * RUN / 2);
        costs.push(blocks() - before);
    }
    assert!(costs.iter().all(|&c| c == RUN as u64 / 2), "{costs:?}");
    for (i, t) in kept.lock().unwrap().iter().enumerate() {
        let n = (i / 4 % (RUN / 2) * 2) as i64;
        assert_eq!(t.field(0).unwrap().unwrap().as_i64(), Some(n));
        assert_eq!(t.field(1).unwrap().unwrap().as_str(), Some("key-07"));
    }
}

#[test]
fn the_buffers_count_is_back_to_one_once_the_kept_clones_drop() {
    // The sinks keep every other record: each kept record's block holds
    // the buffer once, and nothing else the run left behind does.
    let run = leaf_run();
    let kept: Arc<Mutex<Vec<LazyTuple<'static>>>> = Arc::default();
    let keeper = Arc::clone(&kept);
    let (mut worker, msg) = leaf_receiving(&run, move || {
        let kept = Arc::clone(&keeper);
        Box::new(LazyFnBolt::new(
            move |t: &LazyTuple, _out: &mut dyn Emitter| {
                if t.field(0).unwrap().unwrap().as_i64().unwrap() % 2 == 1 {
                    kept.lock().unwrap().push(t.clone().into_owned());
                }
            },
        ))
    });
    for _ in 0..3 {
        worker.receive(&msg);
    }
    drop(msg);
    let held = kept.lock().unwrap().len();
    assert_eq!(held, 3 * 4 * RUN / 2);
    assert_eq!(Arc::strong_count(&run), 1 + held / 4, "one per kept record");
    kept.lock().unwrap().clear();
    assert_eq!(Arc::strong_count(&run), 1);
    drop(worker);
}

#[test]
fn a_kept_record_shares_its_decode_with_the_sinks_that_run_it() {
    // Every sink materializes every record. Of every four records, the
    // sinks keep the first after materializing it, the second before, and
    // not the others. A decode is a record's value vector and its string.
    // A promotion is the record's block, which the other three sinks'
    // clones share, and — after a decode — a copy of the value vector (the
    // string is shared). Kept before the decode, the record decodes into
    // its block: the sinks still run it and its clones read that one
    // decode.
    const FRAMES: usize = 8;
    let run = leaf_run();
    let kept: Arc<Mutex<Vec<LazyTuple<'static>>>> =
        Arc::new(Mutex::new(Vec::with_capacity(4 * RUN * FRAMES)));
    let keeper = Arc::clone(&kept);
    let (mut worker, msg) = leaf_receiving(&run, move || {
        let kept = Arc::clone(&keeper);
        Box::new(LazyFnBolt::new(
            move |t: &LazyTuple, _out: &mut dyn Emitter| {
                let keep = || kept.lock().unwrap().push(t.clone().into_owned());
                let n = t.field(0).unwrap().unwrap().as_i64().unwrap();
                if n % 4 == 1 {
                    keep();
                }
                assert_eq!(t.materialize().unwrap().get(0), Some(&Value::I64(n)));
                if n % 4 == 0 {
                    keep();
                }
            },
        ))
    });
    // Not judged: the pipeline's queues come into being.
    worker.receive(&msg);
    for frame in 1..FRAMES {
        let before = blocks();
        worker.receive(&msg);
        let (decodes, copies, blocks_kept) = (2 * RUN, RUN / 4, 2 * RUN / 4);
        assert_eq!(blocks() - before, (decodes + copies + blocks_kept) as u64);
        let materialized = worker.snapshot().tuples_materialized;
        assert_eq!(materialized, ((frame + 1) * RUN) as u64, "one decode a record");
    }
    let kept = kept.lock().unwrap();
    assert_eq!(kept.len(), 4 * FRAMES * RUN / 2);
    for four in kept.chunks(4) {
        assert!(four.iter().all(LazyTuple::is_materialized));
        let first = four[0].materialize().unwrap() as *const Tuple;
        assert!(four.iter().all(|t| std::ptr::eq(t.materialize().unwrap(), first)));
    }
    assert_eq!(Arc::strong_count(&run), 2 + kept.len() / 4, "one block a kept record");
}
