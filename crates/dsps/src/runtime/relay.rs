//! The multicast relay plane: epoch-versioned tree generations, the
//! source-side broadcast into the tree, and the per-hop
//! validate-forward-deliver path for relayed data and relayed EOS.

use super::reliability::anchor_for;
use super::report::{Ctr, Reservoir, LATENCY_SAMPLE};
use super::send::{ExecMsg, Routing, CURRENT_SHARD};
use super::wire::{self, RelayEos, Wire};
use crate::codec::{LazyTuple, RelayHeader, TupleView, WireSpare};
use crate::scheduler::{Placement, WorkerId};
use crate::task::{ComponentId, TaskId};
use crate::topology::Grouping;
use parking_lot::{Mutex, RwLock};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use whale_multicast::{build_nonblocking, MulticastTree, Node, TopoTreeBuilder};
use whale_net::{ClusterSpec, Payload};

/// Node index i of origin worker `origin` maps to this worker id.
pub(super) fn relay_node_worker(origin: u32, node: u32, n_workers: u32) -> WorkerId {
    // Workers ascending, skipping the origin.
    let id = if node < origin { node } else { node + 1 };
    debug_assert!(id < n_workers);
    WorkerId(id)
}

/// Inverse of [`relay_node_worker`]: the node index of `worker` in
/// `origin`'s tree, or `None` for the origin itself. Because the mapping
/// is a pure function of `(origin, worker)`, relay frames never carry a
/// node index — every receiver derives its own — which is what makes one
/// wire buffer valid for every child.
pub(super) fn relay_node_of_worker(origin: u32, worker: u32) -> Option<u32> {
    match worker.cmp(&origin) {
        std::cmp::Ordering::Less => Some(worker),
        std::cmp::Ordering::Equal => None,
        std::cmp::Ordering::Greater => Some(worker - 1),
    }
}

/// Relay-depth histogram buckets (hop distance from the origin; the last
/// bucket absorbs deeper hops).
pub(super) const DEPTH_BUCKETS: usize = 16;

/// Bounded wait for the previous tree generation to drain before a switch
/// retires it and before EOS departs on the current tree. Frames a fault
/// swallowed never drain; the grace keeps lossy runs moving.
const DRAIN_GRACE: Duration = Duration::from_millis(250);

/// One immutable generation of relay structures: every origin worker's
/// tree over the *other* workers (node index i = the i-th worker id
/// excluding the origin), all built with the same out-degree.
///
/// Each generation owns its in-flight send accounting: the counter is
/// charged against the epoch a frame was stamped with, travels with the
/// generation through demotion, and dies with it — so a retired
/// generation's leftover charges can never bleed into a fresh epoch.
pub(super) struct RelayEpoch {
    pub(super) epoch: u32,
    pub(super) d_star: u32,
    pub(super) trees: Vec<MulticastTree>,
    /// Per origin, each destination node's hop distance from the source
    /// (`None` if unreachable) — walked once here, read per frame.
    depths: Vec<Vec<Option<u32>>>,
    /// Relay frames sent minus received on this generation. A node
    /// forwards to its children *before* decrementing its own receipt,
    /// so zero means the generation is genuinely drained (frames a fault
    /// dropped never decrement; the bounded grace covers those).
    pub(super) inflight: AtomicI64,
}

impl RelayEpoch {
    pub(super) fn new(epoch: u32, d_star: u32, trees: Vec<MulticastTree>) -> Self {
        let depths_of = |tree: &MulticastTree| {
            let mut depths = vec![None; tree.n() as usize];
            for (node, depth) in tree.bfs() {
                if let Node::Dest(i) = node {
                    depths[i as usize] = Some(depth);
                }
            }
            depths
        };
        RelayEpoch {
            epoch,
            d_star,
            depths: trees.iter().map(depths_of).collect(),
            trees,
            inflight: AtomicI64::new(0),
        }
    }

    /// Charge one in-flight frame — called *before* the send, so the
    /// generation can never read drained while an accepted frame sits
    /// uncounted in a fabric queue. Undo with [`Self::note_received`] if
    /// the fabric rejects the send.
    pub(super) fn note_sent(&self) {
        self.inflight.fetch_add(1, Ordering::Relaxed);
    }

    pub(super) fn note_received(&self) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One topology-oblivious tree of out-degree `d` per origin worker.
pub(super) fn oblivious_trees(d: u32, workers: u32) -> Vec<MulticastTree> {
    (0..workers)
        .map(|_| build_nonblocking(workers.saturating_sub(1), d))
        .collect()
}

/// Rack-aware sibling of [`oblivious_trees`]: each origin's tree is
/// built over the placement's rack map (node i of origin o lives in the
/// rack of `relay_node_worker(o, i)`'s machine), with the current
/// per-rack uplink loads steering which uplinks carry rack entries.
pub(super) fn rack_aware_trees(
    d: u32,
    placement: &Placement,
    spec: &ClusterSpec,
    uplink_loads: &[u64],
) -> Vec<MulticastTree> {
    let workers = placement.workers();
    let rack_of_worker = |w: WorkerId| spec.rack_of(placement.machine_of_worker(w)).0;
    (0..workers)
        .map(|origin| {
            let node_racks: Vec<u32> = (0..workers.saturating_sub(1))
                .map(|node| rack_of_worker(relay_node_worker(origin, node, workers)))
                .collect();
            TopoTreeBuilder::new(d.max(1), rack_of_worker(WorkerId(origin)), node_racks)
                .with_uplink_load(uplink_loads)
                .build()
        })
        .collect()
}

/// The live relay plane: the current tree generation behind a swap slot,
/// the previous generation draining out, and the relay-path samples.
///
/// Epoch lifecycle: senders stamp the current epoch into every relay
/// frame; a switch publishes a new generation and demotes the old one to
/// `prev`, which keeps accepting its in-flight frames until drained (or
/// until the bounded grace expires). Frames from any older generation
/// are dropped and counted in `relay_stale_drops` — on tracked runs the
/// acker replays them on the current tree, so a switch can delay but
/// never silently lose a tracked tuple.
pub(super) struct RelayState {
    current: RwLock<Arc<RelayEpoch>>,
    /// `current`'s epoch id, stored under `current`'s write lock: what a
    /// pipeline revalidates the generation it holds against (one load).
    current_id: AtomicU32,
    prev: RwLock<Option<Arc<RelayEpoch>>>,
    /// Received relay frames by tree depth of the receiving node.
    pub(super) depth_counts: [AtomicU64; DEPTH_BUCKETS],
    /// Sampled per-hop forward latencies (receipt to last child send).
    pub(super) forward_ns: Mutex<Reservoir>,
    /// Forward events so far (drives latency sampling).
    forward_events: AtomicU64,
}

impl RelayState {
    pub(super) fn new(initial: RelayEpoch) -> Self {
        RelayState {
            current_id: AtomicU32::new(initial.epoch),
            current: RwLock::new(Arc::new(initial)),
            prev: RwLock::new(None),
            depth_counts: [(); DEPTH_BUCKETS].map(|_| AtomicU64::new(0)),
            forward_ns: Mutex::default(),
            forward_events: AtomicU64::new(0),
        }
    }

    pub(super) fn current(&self) -> Arc<RelayEpoch> {
        Arc::clone(&self.current.read())
    }

    /// The generation a frame's epoch belongs to: current, draining
    /// previous, or `None` (retired — the frame is stale).
    fn lookup(&self, epoch: u32) -> Option<Arc<RelayEpoch>> {
        let cur = self.current.read();
        if cur.epoch == epoch {
            return Some(Arc::clone(&cur));
        }
        drop(cur);
        let prev = self.prev.read();
        prev.as_ref().filter(|p| p.epoch == epoch).map(Arc::clone)
    }

    /// The generation `want` names — `None`: whichever is current — for
    /// the caller to charge and send on, or `None` for a retired one.
    ///
    /// A pipeline thread answers for the current generation from the
    /// reference it [holds](HELD) whenever that still is the published
    /// one (one load), and refills it under the lock when it is not; a
    /// draining or stale epoch, and any other thread, take the locked
    /// [`Self::lookup`] / [`Self::current`], one reference per call.
    pub(super) fn hold(&self, want: Option<u32>) -> Option<Held> {
        let uncached = |generation: Arc<RelayEpoch>| Held {
            generation: Some(generation),
            keep: false,
        };
        if CURRENT_SHARD.with(|c| c.get()).is_none() {
            let generation = want.map_or_else(|| Some(self.current()), |e| self.lookup(e));
            return generation.map(uncached);
        }
        let published = self.current_id.load(Ordering::Acquire);
        let held = HELD.take().filter(|held| held.epoch == published);
        let held = held.unwrap_or_else(|| self.current());
        if want.is_none_or(|epoch| epoch == held.epoch) {
            return Some(Held {
                generation: Some(held),
                keep: true,
            });
        }
        HELD.set(Some(held));
        self.lookup(want?).map(uncached)
    }

    /// Let go of a held generation that is no longer the published one.
    /// Every [`Self::hold`] does this for itself; a pipeline also calls it
    /// once per scheduling pass, so one that stops using the relay plane
    /// cannot keep a demoted generation from retiring.
    pub(super) fn revalidate_held(&self) {
        let published = self.current_id.load(Ordering::Acquire);
        HELD.set(HELD.take().filter(|held| held.epoch == published));
    }

    pub(super) fn record_depth(&self, depth: u32) {
        let bucket = (depth as usize).min(DEPTH_BUCKETS - 1);
        self.depth_counts[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Retire the previous generation if it has drained. Returns true
    /// when no previous generation remains.
    pub(super) fn try_retire_prev(&self) -> bool {
        let mut prev = self.prev.write();
        match prev.as_ref() {
            None => true,
            Some(p) => {
                // Invariant: whoever can still charge a generation holds
                // a strong reference to it. Drained therefore means no
                // counted frames in flight AND nobody else holds the
                // generation — senders and receivers keep theirs from
                // resolving it until after their last `note_sent`, a
                // pipeline for up to one scheduling pass (see [`HELD`]) —
                // so a frame between resolve and charge can't slip
                // through retirement. The counter is the generation's
                // own, so retirement is exact: it fires the moment *this*
                // epoch's queue is empty, not when a shared slot happens
                // to read zero.
                if p.inflight.load(Ordering::Relaxed) <= 0 && Arc::strong_count(p) == 1 {
                    *prev = None;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Wait up to [`DRAIN_GRACE`] for the previous generation to drain;
    /// frames a fault swallowed never decrement the slot, so the grace
    /// keeps a lossy run from wedging the switch (tracked replays recover
    /// the loss).
    pub(super) fn await_prev_drained(&self) -> bool {
        let deadline = Instant::now() + DRAIN_GRACE;
        loop {
            if self.try_retire_prev() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Install a new generation: the current one becomes `prev` (any
    /// unretired `prev` is force-retired — its remaining frames become
    /// stale and their charges die with the dropped generation).
    pub(super) fn publish(&self, next: Arc<RelayEpoch>) {
        let mut cur = self.current.write();
        self.current_id.store(next.epoch, Ordering::Release);
        let old = std::mem::replace(&mut *cur, next);
        *self.prev.write() = Some(old);
    }
}

thread_local! {
    /// The pipeline on this thread's own reference to the current
    /// generation, kept from one [`RelayState::hold`] to the next so that
    /// resolving it costs a load instead of a lock round trip and a
    /// refcount round trip per frame. It is revalidated at every use and
    /// once per scheduling pass, and given up ([`swap_held`]) before the
    /// pipeline blocks and when it exits: a generation is never pinned by
    /// a pipeline that is not running. Threads without a pipeline never
    /// fill it.
    static HELD: Cell<Option<Arc<RelayEpoch>>> = const { Cell::new(None) };
}

/// Exchange this thread's held generation for `with`. `swap_held(None)`
/// is how a pipeline lets go of it.
pub(super) fn swap_held(with: Option<Arc<RelayEpoch>>) -> Option<Arc<RelayEpoch>> {
    HELD.replace(with)
}

/// A generation resolved by [`RelayState::hold`], good for one use. On a
/// pipeline thread dropping it hands the current generation's reference
/// back to the thread instead of releasing it.
pub(super) struct Held {
    /// `Some` until dropped.
    generation: Option<Arc<RelayEpoch>>,
    /// Whether the reference goes back to [`HELD`].
    keep: bool,
}

impl std::ops::Deref for Held {
    type Target = RelayEpoch;

    fn deref(&self) -> &RelayEpoch {
        self.generation.as_deref().expect("taken only by drop")
    }
}

impl Drop for Held {
    fn drop(&mut self) {
        if self.keep {
            // `try_with`: nothing to hand back to on a thread whose
            // locals are already gone.
            let _ = HELD.try_with(|held| held.set(self.generation.take()));
        }
    }
}

impl Routing {
    /// Whether a stream with this grouping travels the relay tree (data
    /// and EOS alike). Tracked tuples ride it too: the frame carries the
    /// tracked id, every receiver derives its local tasks' anchors, and
    /// executor root-id dedup makes any relay duplicate harmless.
    pub(super) fn relayed(&self, grouping: &Grouping) -> bool {
        self.relay.is_some() && *grouping == Grouping::All
    }

    /// Whale's multicast path: encode once into a child-invariant relay
    /// frame (a forwarded wire item's bytes are copied, not serialized),
    /// dispatch locally, and send the same wire buffer to each of the
    /// source worker's tree children; relays forward the received bytes
    /// verbatim. Returns the XOR of the anchors armed for the component's
    /// tasks when `tracked` is set (the whole subscriber set, local and
    /// remote, is charged up front — an undelivered branch times out into
    /// a replay).
    pub(super) fn relay_broadcast(
        &self,
        src: TaskId,
        item: &LazyTuple,
        comp: ComponentId,
        tracked: Option<u64>,
    ) -> u64 {
        let relay = self.relay.as_ref().expect("relayed implies relay state");
        if !item.is_wire() {
            self.stats.add(Ctr::serializations, 1);
        }
        let src_worker = self.placement.worker_of(src);
        let mut arm_xor = 0u64;
        if let Some(tr) = tracked {
            for t in self.topology.tasks().task_ids(comp) {
                arm_xor ^= anchor_for(tr, t);
            }
        }
        let data = ExecMsg::Data(item.clone(), tracked);
        self.deliver_to_component(src_worker, comp, data);
        let epoch = relay.hold(None).expect("a current generation");
        let header = RelayHeader {
            origin: src_worker.0,
            epoch: epoch.epoch,
            component: comp.0,
            tracked: tracked.unwrap_or(0),
        };
        self.with_frame(
            |buf| wire::encode_relay(buf, header, item),
            |frame| self.relay_fanout(&epoch, src_worker.0, Node::Source, frame, 1),
        );
        arm_xor
    }

    /// End-of-stream for a relayed stream: it travels the same tree as
    /// the data so it stays behind every in-flight tuple (per-hop FIFO
    /// channels).
    pub(super) fn relay_eos(&self, src: TaskId, comp: ComponentId, copies: u32) {
        let relay = self.relay.as_ref().expect("relayed implies relay state");
        let src_worker = self.placement.worker_of(src);
        self.deliver_to_component(src_worker, comp, ExecMsg::Eos(src));
        // EOS departs on the current generation; wait (bounded) for the
        // previous one to drain first so it cannot beat still-relaying
        // data from before a switch — holding nothing meanwhile, or a
        // switch during the wait would find this thread in its way.
        drop(swap_held(None));
        relay.await_prev_drained();
        let epoch = relay.hold(None).expect("a current generation");
        let eos = RelayEos {
            origin: src_worker.0,
            epoch: epoch.epoch,
            component: comp,
            src,
        };
        self.with_frame(
            |buf| wire::encode_relay_eos(buf, eos),
            |frame| self.relay_fanout(&epoch, src_worker.0, Node::Source, frame, copies),
        );
    }

    /// Send `frame` `copies` times to each tree child of `node` in
    /// `origin`'s tree, charging every send to `epoch`. Returns how many
    /// the fabric accepted.
    fn relay_fanout(
        &self,
        epoch: &RelayEpoch,
        origin: u32,
        node: Node,
        frame: Wire<'_>,
        copies: u32,
    ) -> u64 {
        let workers = self.placement.workers();
        let me = match node {
            Node::Source => origin,
            Node::Dest(n) => relay_node_worker(origin, n, workers).0,
        };
        let from = self.relay_endpoint(me);
        let mut accepted = 0u64;
        for &child in epoch.trees[origin as usize].children(node) {
            let Node::Dest(c) = child else { continue };
            let to = self.relay_endpoint(relay_node_worker(origin, c, workers).0);
            for _ in 0..copies {
                accepted += self.send_wire(from, to, frame, Some(epoch)) as u64;
            }
        }
        accepted
    }

    /// The shared admission check of relayed data and relayed EOS: the
    /// generation the frame was stamped with (current or draining) and
    /// this worker's node in `origin`'s tree. A frame on a retired
    /// generation is stale-dropped — never delivered; tracked runs replay
    /// the tuple on the current tree — and one whose origin or node does
    /// not exist is dropped and its in-flight charge released.
    fn relay_admit(
        &self,
        my_worker: u32,
        origin: u32,
        epoch: u32,
    ) -> Option<(&RelayState, Held, u32)> {
        let Some(relay) = self.relay.as_ref() else {
            self.stats.add(Ctr::dropped_frames, 1);
            return None;
        };
        let Some(epoch) = relay.hold(Some(epoch)) else {
            self.stats.add(Ctr::relay_stale_drops, 1);
            return None;
        };
        match relay_node_of_worker(origin, my_worker) {
            Some(node)
                if origin < self.placement.workers() && node < epoch.trees[origin as usize].n() =>
            {
                Some((relay, epoch, node))
            }
            _ => {
                self.stats.add(Ctr::dropped_frames, 1);
                epoch.note_received();
                None
            }
        }
    }

    /// A relay worker received a broadcast frame: forward the *received
    /// wire bytes* to the tree children — no decode, no re-encode, no
    /// buffer-pool round-trip; a shared payload is refcount-bumped, a
    /// copied one is copied by the fabric — then decode once, only for
    /// local delivery.
    pub(super) fn on_relay_frame(
        &self,
        my_worker: u32,
        h: RelayHeader,
        payload: &Payload,
        item: &[u8],
        spare: &mut WireSpare,
    ) {
        let Some((relay, epoch, node)) = self.relay_admit(my_worker, h.origin, h.epoch) else {
            return;
        };
        if let Some(depth) = epoch.depths[h.origin as usize][node as usize] {
            relay.record_depth(depth);
        }
        // Only 1 in LATENCY_SAMPLE forwarding hops is timed: pick first,
        // read the clock only for the pick.
        let forwards = !epoch.trees[h.origin as usize]
            .children(Node::Dest(node))
            .is_empty();
        let sampled =
            forwards && relay.forward_events.fetch_add(1, Ordering::Relaxed) % LATENCY_SAMPLE == 0;
        let t0 = sampled.then(Instant::now);
        let forwarded = self.relay_fanout(&epoch, h.origin, Node::Dest(node), payload.into(), 1);
        // Children are charged before this receipt is released, so the
        // epoch's in-flight count can only read zero once the whole
        // subtree has drained.
        epoch.note_received();
        if forwarded > 0 {
            self.stats.add(Ctr::relay_forwards, forwarded);
            if let Some(t0) = t0 {
                let ns = t0.elapsed().as_nanos() as u64;
                relay.forward_ns.lock().record(ns);
            }
        }
        // Validate framing once for the whole worker, then dispatch the
        // lazy view — local executors decode at most once, on first
        // touch, against the shared relay buffer. A corrupt frame is
        // dropped (and counted) rather than crashing the relay worker.
        let lazy = TupleView::parse(item).and_then(|v| self.lazy_tuple(payload, &v, spare));
        let lazy = match lazy {
            Ok(l) => l,
            Err(_) => {
                self.stats.add(Ctr::dropped_frames, 1);
                return;
            }
        };
        let tracked = (h.tracked != 0).then_some(h.tracked);
        let comp = ComponentId(h.component);
        self.deliver_to_component(WorkerId(my_worker), comp, ExecMsg::Data(lazy, tracked));
    }

    /// A relay worker received an EOS frame: forward the received bytes
    /// along the tree, then deliver EOS to the local instances of the
    /// component.
    pub(super) fn on_relay_eos(&self, my_worker: u32, eos: RelayEos, payload: &Payload) {
        let Some((_, epoch, node)) = self.relay_admit(my_worker, eos.origin, eos.epoch) else {
            return;
        };
        self.relay_fanout(&epoch, eos.origin, Node::Dest(node), payload.into(), 1);
        epoch.note_received();
        self.deliver_to_component(WorkerId(my_worker), eos.component, ExecMsg::Eos(eos.src));
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn relay_node_worker_mapping_skips_origin() {
        assert_eq!(relay_node_worker(0, 0, 4), WorkerId(1));
        assert_eq!(relay_node_worker(0, 2, 4), WorkerId(3));
        assert_eq!(relay_node_worker(2, 0, 4), WorkerId(0));
        assert_eq!(relay_node_worker(2, 1, 4), WorkerId(1));
        assert_eq!(relay_node_worker(2, 2, 4), WorkerId(3));
    }

    #[test]
    fn relay_multicast_equals_direct_results() {
        let (t, ops) = counting_topology(8, 16);
        let relayed = run_topology(
            t,
            ops,
            LiveConfig {
                machines: 8,
                comm_mode: CommMode::WorkerOriented,
                zero_copy: true,
                multicast_d_star: Some(2),
                fabric: FabricKind::PerSend,
                ..LiveConfig::default()
            },
        );
        let direct = run(CommMode::WorkerOriented, true, 8, 16);
        assert_eq!(relayed.executed, direct.executed);
        assert_eq!(relayed.spout_emitted, direct.spout_emitted);
        assert!(relayed.relay_forwards > 0, "relays must forward");
        assert_eq!(direct.relay_forwards, 0);
    }

    #[test]
    fn relay_offloads_the_source() {
        // With 8 workers and d* = 2, the source sends to its 2 tree
        // children; relays forward the remaining 5 frames per broadcast
        // tuple. 100 broadcast tuples → 500 relay forwards (the shuffle
        // stage to the sink is not relayed).
        let (t, ops) = counting_topology(8, 16);
        let r = run_topology(
            t,
            ops,
            LiveConfig {
                machines: 8,
                comm_mode: CommMode::WorkerOriented,
                zero_copy: true,
                multicast_d_star: Some(2),
                fabric: FabricKind::PerSend,
                ..LiveConfig::default()
            },
        );
        assert_eq!(r.relay_forwards, 100 * 5);
        // Still exactly one serialization per broadcast tuple.
        assert_eq!(r.executed[1], 100 * 16);
    }

    #[test]
    fn ring_fabric_with_relay_tree() {
        let (t, ops) = counting_topology(8, 16);
        let r = run_topology(
            t,
            ops,
            LiveConfig {
                machines: 8,
                comm_mode: CommMode::WorkerOriented,
                zero_copy: true,
                multicast_d_star: Some(2),
                fabric: FabricKind::Ring(whale_net::RingConfig::default()),
                ..LiveConfig::default()
            },
        );
        assert_eq!(r.executed[1], 100 * 16);
        assert_eq!(r.relay_forwards, 100 * 5);
        assert_eq!(r.outcome, RunOutcome::Clean);
        assert!(r.batches_flushed > 0);
    }

    #[test]
    fn one_sided_fabric_with_relay_tree() {
        let (t, ops) = counting_topology(8, 16);
        let r = run_topology(
            t,
            ops,
            LiveConfig {
                machines: 8,
                comm_mode: CommMode::WorkerOriented,
                zero_copy: true,
                multicast_d_star: Some(2),
                fabric: FabricKind::OneSided(whale_net::OneSidedConfig::default()),
                ..LiveConfig::default()
            },
        );
        // The relay tree forwards fetched Arc frames unchanged.
        assert_eq!(r.executed[1], 100 * 16);
        assert_eq!(r.relay_forwards, 100 * 5);
        assert_eq!(r.outcome, RunOutcome::Clean);
        assert!(r.shared_bytes > 0, "relay forwards stay zero-copy");
    }

    #[test]
    fn tracked_tuples_ride_the_relay_tree() {
        // The tracked-bypass is gone: an acked broadcast travels the
        // multicast tree (relay_forwards > 0) and still accounts for
        // every tuple exactly.
        let (t, ops) = ack_topology(150, 16);
        let r = run_topology(
            t,
            ops,
            LiveConfig {
                machines: 8,
                multicast_d_star: Some(2),
                ack: Some(AckConfig {
                    timeout: Duration::from_secs(10),
                    ..AckConfig::default()
                }),
                ..LiveConfig::default()
            },
        );
        assert_eq!(r.outcome, RunOutcome::Clean);
        assert!(r.relay_forwards > 0, "tracked broadcasts must relay");
        assert_eq!(r.tuples_acked + r.tuples_failed, r.spout_emitted);
        assert_eq!(r.tuples_acked, 150);
        assert_eq!(r.executed[1], 150 * 16);
        // Observability: the relay/direct byte split is exported.
        assert!(r.relay_bytes > 0);
        let m = r.metrics();
        assert_eq!(m.counter("dsps.relay.bytes"), Some(r.relay_bytes));
        assert!(m.counter("dsps.direct_bytes").is_some());
        assert!(
            r.relay_depths.iter().skip(1).any(|&n| n > 0),
            "d*=2 over 8 workers has relay nodes deeper than the root"
        );
        assert!(!r.relay_forward_ns.is_empty(), "forward latency sampled");
        assert!(m.summary("dsps.relay.forward_ns").is_some());
    }

    /// src → 16 all-grouped sinks counting into the first array; the
    /// spout counts into the second and emits ids 1, 2, … flat out — never
    /// more than 256 ahead of the slowest sink: a spout that outruns its
    /// sinks without bound would put the drain time of its backlog, not
    /// the switch, under test — until `stop` is set and at least
    /// `at_least` are out.
    fn windowed_broadcast(
        at_least: u64,
        stop: &Arc<AtomicBool>,
    ) -> (Topology, Operators, Arc<[AtomicU64; 16]>, Arc<AtomicU64>) {
        let mut b = crate::topology::TopologyBuilder::new();
        b.spout("src", 1, Schema::new(vec!["n"]))
            .bolt("sink", 16, Schema::new(vec!["n"]))
            .connect("src", "sink", Grouping::All);
        let counts: Arc<[AtomicU64; 16]> = Arc::default();
        let emitted: Arc<AtomicU64> = Arc::default();
        let (seen, sent, stop) = (Arc::clone(&counts), Arc::clone(&emitted), Arc::clone(stop));
        let executed = Arc::clone(&counts);
        let ops = Operators::new()
            .spout("src", move |_| {
                let (seen, sent, stop) = (Arc::clone(&seen), Arc::clone(&sent), Arc::clone(&stop));
                Box::new(IterSpout::new(std::iter::from_fn(move || {
                    let n = sent.load(Ordering::Relaxed);
                    if n >= at_least && stop.load(Ordering::Relaxed) {
                        return None;
                    }
                    let slowest = || seen.iter().map(|c| c.load(Ordering::Relaxed)).min();
                    while slowest().unwrap() + 256 <= n {
                        std::thread::yield_now();
                    }
                    sent.store(n + 1, Ordering::Relaxed);
                    Some(Tuple::with_id(n + 1, vec![Value::I64(n as i64)]))
                })))
            })
            .bolt("sink", move |idx| {
                let executed = Arc::clone(&executed);
                Box::new(FnBolt::new(move |_t: &Tuple, _out: &mut dyn Emitter| {
                    executed[idx as usize].fetch_add(1, Ordering::Relaxed);
                }))
            });
        (b.build().unwrap(), ops, counts, emitted)
    }

    #[test]
    fn a_switch_storm_under_saturation_loses_nothing() {
        const SWITCHES: u64 = 24;
        for shards in [1, 2] {
            let stop = Arc::new(AtomicBool::new(false));
            let (topology, ops, counts, emitted) = windowed_broadcast(1, &stop);
            let config = LiveConfig {
                machines: 4,
                shards,
                multicast_d_star: Some(2),
                ..LiveConfig::default()
            };
            let run = LiveRun::start(topology, &ops, config);
            let relay = run.routing.relay.as_ref().unwrap();
            let mut generations = vec![Arc::downgrade(&relay.current())];
            for k in 0..SWITCHES {
                // Some hundred tuples travel every generation.
                let mark = emitted.load(Ordering::Relaxed) + 300;
                while emitted.load(Ordering::Relaxed) < mark {
                    std::thread::yield_now();
                }
                // The generation before last drains while traffic runs on
                // (the grace is the bound, never the mechanism), so at most
                // two are ever alive.
                let drained = relay.await_prev_drained();
                assert!(drained, "{shards} shards, switch {k}");
                let d_star = [3, 1, 2][k as usize % 3];
                super::super::control::switch_structure(&run.routing, d_star);
                generations.push(Arc::downgrade(&relay.current()));
                let alive = generations.iter().filter(|g| g.strong_count() > 0);
                assert!(alive.count() <= 2, "{shards} shards, switch {k}");
            }
            stop.store(true, Ordering::Relaxed);
            run.wait_done();
            let emitted = emitted.load(Ordering::Relaxed);
            assert!(emitted >= 300 * SWITCHES);
            for (sink, count) in counts.iter().enumerate() {
                assert_eq!(count.load(Ordering::Relaxed), emitted, "sink {sink}");
            }
            let stats = &run.routing.stats;
            assert_eq!(stats.get(Ctr::relay_switches), SWITCHES);
            assert_eq!(relay.current().epoch as u64, SWITCHES);
            assert_eq!(stats.get(Ctr::relay_stale_drops), 0);
            assert_eq!(stats.get(Ctr::dropped_frames), 0);
            assert_eq!(stats.get(Ctr::send_failed), 0);
            run.finish();
        }
    }

    #[test]
    fn a_parked_pipeline_does_not_pin_a_generation() {
        // Every pipeline resolves generation 0 a thousand times over,
        // then runs out of work and blocks on its endpoint.
        let stop = Arc::new(AtomicBool::new(true));
        let (topology, ops, counts, _) = windowed_broadcast(1_000, &stop);
        let config = LiveConfig {
            machines: 4,
            multicast_d_star: Some(2),
            ..LiveConfig::default()
        };
        let run = LiveRun::start(topology, &ops, config);
        run.wait_done();
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1_000));
        let all_parked = || {
            let parked = |i: &super::super::send::ShardInbox| i.parked.load(Ordering::SeqCst);
            run.routing.shard_inboxes.iter().all(parked)
        };
        while !all_parked() {
            std::thread::yield_now();
        }
        // One switch: the demoted generation has nothing in flight, and
        // retires at once — not when the blocked pipelines next wake
        // (`PARK_CAP`), not when the drain grace runs out — because none
        // of them took its reference into the block.
        let relay = run.routing.relay.as_ref().unwrap();
        super::super::control::switch_structure(&run.routing, 3);
        assert!(relay.try_retire_prev());
        run.finish();
    }

    #[test]
    fn stale_epoch_relay_frames_are_dropped_not_delivered() {
        let routing = bare_routing(
            LiveConfig {
                machines: 2,
                zero_copy: false,
                multicast_d_star: Some(2),
                ..LiveConfig::default()
            },
            Some(RelayState::new(RelayEpoch::new(
                3,
                2,
                oblivious_trees(2, 2),
            ))),
        );
        // A relay frame from worker 1 whose item is empty (corrupt).
        let receive = |epoch: u32| {
            let h = RelayHeader {
                origin: 1,
                epoch,
                component: 1,
                tracked: 0,
            };
            let mut f = bytes::BytesMut::new();
            wire::encode_relay(&mut f, h, &LazyTuple::from_tuple(Tuple::new(vec![])));
            let msg = whale_net::LiveMessage {
                from: whale_net::EndpointId(1),
                payload: Payload::Copied(f[..1 + RelayHeader::WIRE_BYTES].to_vec()),
            };
            super::super::pipeline::on_frame(0, &msg, &routing, &mut Default::default());
        };
        // A frame from a retired generation: stale-dropped, not counted
        // as a malformed frame, never delivered.
        receive(0);
        // A frame on the live generation with a corrupt (empty) item:
        // accepted by the epoch check, dropped at decode.
        receive(3);
        assert_eq!(routing.stats.get(Ctr::relay_stale_drops), 1);
        assert_eq!(routing.stats.get(Ctr::dropped_frames), 1);
    }
}
