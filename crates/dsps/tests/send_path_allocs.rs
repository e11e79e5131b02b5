//! What one routed tuple costs the sending thread in heap blocks, from
//! `emit` to fabric accept. Its own test binary: the counting
//! `#[global_allocator]` below would tax every other suite.
//!
//! The tuple's own `Arc` and the wire `Arc<[u8]>` the receiver ends up
//! owning are the only blocks the direct send path is allowed — grouping,
//! planning, frame encode and scratch reuse must not allocate in steady
//! state.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::mpsc;
use whale_dsps::{
    run_topology, Emitter, FnBolt, Grouping, LiveConfig, Operators, RunOutcome, Schema, Spout,
    TopologyBuilder, Tuple, Value,
};
use whale_net::{FabricKind, RingConfig};

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
        let t = Tuple::with_id(i as u64, vec![Value::I64(i), Value::str("key-07")]);
        assert_eq!(t.payload_bytes(), 30);
        self.handed_over_at = blocks();
        Some(t)
    }
}

/// Run `src` (one instance per machine, only the last one emits) into
/// `sinks` sink instances, which the even scheduler deals to workers
/// `0..sinks` — all remote from the emitter as long as `sinks < machines`.
/// Returns the emitter's per-send block counts after warm-up, sorted.
fn send_costs(grouping: Grouping, fabric: FabricKind, machines: u32, sinks: u32) -> Vec<u64> {
    assert!(sinks < machines);
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
                handed_over_at: 0,
                costs: Vec::with_capacity(TUPLES),
                report: report.lock().unwrap().clone(),
            })
        })
        .bolt("sink", |_| {
            Box::new(FnBolt::new(|_t: &Tuple, _out: &mut dyn Emitter| {}))
        });
    let r = run_topology(
        b.build().unwrap(),
        ops,
        LiveConfig {
            machines,
            zero_copy: true,
            fabric,
            ..LiveConfig::default()
        },
    );
    assert_eq!(r.outcome, RunOutcome::Clean);
    assert_eq!(r.executed[1], (TUPLES as u64) * fanout as u64);
    let mut costs = costs
        .try_iter()
        .find(|c| c.len() == TUPLES)
        .expect("the emitting instance reports every send");
    let mut steady = costs.split_off(WARMUP);
    steady.sort_unstable();
    steady
}

/// One block for the tuple's `Arc` plus one wire buffer per frame: held
/// by nine sends in ten, and on average up to 0.05 of a block per frame.
/// (The slack is the fabric's own queue, behind the accept — std's list
/// channel links a new segment every 31 messages — which is why this is
/// not a bound on the maximum.)
fn assert_one_block_per_frame(steady: &[u64], frames: u64, what: &str) {
    let budget = 1 + frames;
    let p90 = steady[steady.len() * 9 / 10];
    let mean = steady.iter().sum::<u64>() as f64 / steady.len() as f64;
    assert!(
        p90 <= budget && mean <= budget as f64 + 0.05 * frames as f64,
        "{what}: p90 {p90}, mean {mean:.3} blocks per send, budget {budget}"
    );
}

#[test]
fn a_keyed_tuple_to_one_remote_worker_costs_two_heap_blocks() {
    for fabric in [FabricKind::PerSend, FabricKind::Ring(RingConfig::default())] {
        let steady = send_costs(Grouping::Fields(1), fabric, 2, 1);
        assert_one_block_per_frame(&steady, 1, &format!("keyed over {fabric:?}"));
    }
}

#[test]
fn a_direct_broadcast_costs_one_block_plus_one_per_remote_frame() {
    for fabric in [FabricKind::PerSend, FabricKind::Ring(RingConfig::default())] {
        // Four sinks on four other workers: four worker frames.
        let steady = send_costs(Grouping::All, fabric, 5, 4);
        assert_one_block_per_frame(&steady, 4, &format!("broadcast over {fabric:?}"));
    }
}
