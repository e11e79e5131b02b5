//! The multicast relay plane: epoch-versioned tree generations, the
//! source-side broadcast into the tree, and the per-hop
//! validate-forward-deliver path for relayed data and relayed EOS.

use super::reliability::anchor_for;
use super::report::LATENCY_SAMPLE;
use super::send::{ExecMsg, Routing};
use super::wire::{self, RelayEos, Wire};
use crate::codec::{LazyTuple, RelayHeader, TupleView};
use crate::scheduler::{Placement, WorkerId};
use crate::task::{ComponentId, TaskId};
use crate::topology::Grouping;
use crate::tuple::Tuple;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
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
/// the previous generation draining out, and the relay-path counters.
///
/// Epoch lifecycle: senders stamp the current epoch into every relay
/// frame; a switch publishes a new generation and demotes the old one to
/// `prev`, which keeps accepting its in-flight frames until drained (or
/// until the bounded grace expires). Frames from any older generation
/// are dropped and counted in `stale_drops` — on tracked runs the acker
/// replays them on the current tree, so a switch can delay but never
/// silently lose a tracked tuple.
pub(super) struct RelayState {
    current: RwLock<Arc<RelayEpoch>>,
    prev: RwLock<Option<Arc<RelayEpoch>>>,
    /// Frames dropped because their epoch was already retired.
    pub(super) stale_drops: AtomicU64,
    /// Tree reconfigurations performed.
    pub(super) switches: AtomicU64,
    /// Per-instance connection moves across all reconfigurations.
    pub(super) switch_moves: AtomicU64,
    /// Wire bytes sent on the relay path (origin sends + forwards).
    pub(super) relay_bytes: AtomicU64,
    /// Received relay frames by tree depth of the receiving node.
    pub(super) depth_counts: [AtomicU64; DEPTH_BUCKETS],
    /// Sampled per-hop forward latencies (receipt to last child send).
    pub(super) forward_ns: Mutex<Vec<u64>>,
    /// Forward events so far (drives latency sampling).
    forward_events: AtomicU64,
}

impl RelayState {
    pub(super) fn new(initial: RelayEpoch) -> Self {
        RelayState {
            current: RwLock::new(Arc::new(initial)),
            prev: RwLock::new(None),
            stale_drops: AtomicU64::new(0),
            switches: AtomicU64::new(0),
            switch_moves: AtomicU64::new(0),
            relay_bytes: AtomicU64::new(0),
            depth_counts: [(); DEPTH_BUCKETS].map(|_| AtomicU64::new(0)),
            forward_ns: Mutex::new(Vec::new()),
            forward_events: AtomicU64::new(0),
        }
    }

    pub(super) fn current(&self) -> Arc<RelayEpoch> {
        Arc::clone(&self.current.read())
    }

    /// The generation a frame's epoch belongs to: current, draining
    /// previous, or `None` (retired — the frame is stale).
    pub(super) fn lookup(&self, epoch: u32) -> Option<Arc<RelayEpoch>> {
        let cur = self.current.read();
        if cur.epoch == epoch {
            return Some(Arc::clone(&cur));
        }
        drop(cur);
        let prev = self.prev.read();
        prev.as_ref().filter(|p| p.epoch == epoch).map(Arc::clone)
    }

    pub(super) fn note_bytes(&self, bytes: usize) {
        self.relay_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
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
                // Drained means no counted frames in flight AND nobody
                // else holds the generation (senders keep the Arc from
                // snapshot until after their note_sent; receivers keep
                // theirs through forwarding) — so a frame between
                // snapshot and charge can't slip through retirement. The
                // counter is the generation's own, so retirement is
                // exact: it fires the moment *this* epoch's queue is
                // empty, not when a shared slot happens to read zero.
                if p.inflight.load(Ordering::Relaxed) <= 0 && Arc::strong_count(p) == 1 {
                    *prev = None;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Bounded wait for the previous generation to drain; frames a fault
    /// swallowed never decrement the slot, so the grace keeps a lossy run
    /// from wedging the switch (tracked replays recover the loss).
    pub(super) fn await_prev_drained(&self, grace: Duration) -> bool {
        let deadline = Instant::now() + grace;
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
        let old = std::mem::replace(&mut *cur, next);
        *self.prev.write() = Some(old);
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

    /// Whale's multicast path: serialize once into a child-invariant
    /// relay frame, dispatch locally, and send the same wire buffer to
    /// each of the source worker's tree children; relays forward the
    /// received bytes verbatim. Returns the XOR of the anchors armed for
    /// the component's tasks when `tracked` is set (the whole subscriber
    /// set, local and remote, is charged up front — an undelivered
    /// branch times out into a replay).
    pub(super) fn relay_broadcast(
        &self,
        src: TaskId,
        tuple: &Arc<Tuple>,
        comp: ComponentId,
        tracked: Option<u64>,
    ) -> u64 {
        let relay = self.relay.as_ref().expect("relayed implies relay state");
        self.stats.serializations.fetch_add(1, Ordering::Relaxed);
        let src_worker = self.placement.worker_of(src);
        let mut arm_xor = 0u64;
        if let Some(tr) = tracked {
            for t in self.topology.tasks().task_ids(comp) {
                arm_xor ^= anchor_for(tr, t);
            }
        }
        let lazy = LazyTuple::from_arc(Arc::clone(tuple));
        self.deliver_to_component(src_worker, comp, ExecMsg::Data(lazy, tracked));
        let epoch = relay.current();
        let header = RelayHeader {
            origin: src_worker.0,
            epoch: epoch.epoch,
            component: comp.0,
            tracked: tracked.unwrap_or(0),
        };
        self.with_frame(
            |buf| wire::encode_relay(buf, header, tuple),
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
        // data from before a switch.
        relay.await_prev_drained(self.drain_grace());
        let epoch = relay.current();
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
    ) -> Option<(&RelayState, Arc<RelayEpoch>, u32)> {
        let Some(relay) = self.relay.as_ref() else {
            self.stats.dropped_frames.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let Some(epoch) = relay.lookup(epoch) else {
            relay.stale_drops.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        match relay_node_of_worker(origin, my_worker) {
            Some(node)
                if origin < self.placement.workers() && node < epoch.trees[origin as usize].n() =>
            {
                Some((relay, epoch, node))
            }
            _ => {
                self.stats.dropped_frames.fetch_add(1, Ordering::Relaxed);
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
            self.stats
                .relay_forwards
                .fetch_add(forwarded, Ordering::Relaxed);
            if let Some(t0) = t0 {
                relay.forward_ns.lock().push(t0.elapsed().as_nanos() as u64);
            }
        }
        // Validate framing once for the whole worker, then dispatch the
        // lazy view — local executors decode at most once, on first
        // touch, against the shared relay buffer. A corrupt frame is
        // dropped (and counted) rather than crashing the relay worker.
        let lazy = match TupleView::parse(item).and_then(|v| self.lazy_tuple(payload, &v)) {
            Ok(l) => l,
            Err(_) => {
                self.stats.dropped_frames.fetch_add(1, Ordering::Relaxed);
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
            wire::encode_relay(&mut f, h, &Tuple::new(vec![]));
            let msg = whale_net::LiveMessage {
                from: whale_net::EndpointId(1),
                payload: Payload::Copied(f[..1 + RelayHeader::WIRE_BYTES].to_vec()),
            };
            super::super::pipeline::on_frame(0, &msg, &routing, &mut Vec::new());
        };
        // A frame from a retired generation: stale-dropped, not counted
        // as a malformed frame, never delivered.
        receive(0);
        // A frame on the live generation with a corrupt (empty) item:
        // accepted by the epoch check, dropped at decode.
        receive(3);
        let relay = routing.relay.as_ref().unwrap();
        assert_eq!(relay.stale_drops.load(Ordering::Relaxed), 1);
        assert_eq!(routing.stats.dropped_frames.load(Ordering::Relaxed), 1);
    }
}
