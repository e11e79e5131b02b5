//! The multicast relay plane: epoch-versioned tree generations, the
//! source-side broadcast into the tree, the per-hop
//! validate-forward-deliver path for relayed data and relayed EOS, and
//! the end-of-generation markers that flush a demoted generation.
//!
//! A pipeline's step does not put each broadcast tuple on the fabric by
//! itself: its relay record joins the step's pending run
//! ([`PendingRun`], one of the step's runs, see [`super::runs`]), which
//! leaves as one relay frame per tree child at the end of the step,
//! before an EOS, when the current generation changes, or at
//! [`RUN_CAP`] records — whichever comes first.

use super::reliability::anchor_for;
use super::report::{Ctr, Lanes, Reservoir, LATENCY_SAMPLE};
use super::runs::{RUNS, RUN_CAP};
use super::send::{loop_back, Entry, ExecMsg, Routing, CURRENT_SHARD};
use super::wire::{self, RelayEos, RelayMarker, RelayRun, Wire};
use crate::codec::{LazyTuple, RelayHeader, WireSpare};
use crate::scheduler::{Placement, WorkerId};
use crate::task::{ComponentId, TaskId};
use crate::topology::Grouping;
use bytes::BytesMut;
use parking_lot::{Mutex, RwLock};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{fence, AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};
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

/// How long the roots of a demoted generation wait on its flush before
/// they send their markers again. A marker lost on the way delays
/// retirement by about this much; it cannot wedge it.
pub(super) const MARKER_RESEND: Duration = Duration::from_millis(10);

/// One immutable generation of relay structures: every origin worker's
/// tree over the *other* workers (node index i = the i-th worker id
/// excluding the origin), all built with the same out-degree.
///
/// Once demoted, a generation keeps the record of its own flush: which
/// nodes of which origin's tree have received that origin's
/// end-of-generation marker. It retires at the last receipt.
pub(super) struct RelayEpoch {
    pub(super) epoch: u32,
    pub(super) d_star: u32,
    pub(super) trees: Vec<MulticastTree>,
    /// Per origin, each destination node's hop distance from the source
    /// (`None` if unreachable) — walked once here, read per frame.
    depths: Vec<Vec<Option<u32>>>,
    /// Per origin, one flag per node, set by the node's first receipt of
    /// the marker. A node no marker can reach starts set.
    flushed: Vec<Box<[AtomicBool]>>,
    /// Per origin, the nodes whose flag is still clear.
    unflushed: Vec<AtomicU32>,
    /// Origins whose tree has not flushed yet.
    origins_left: AtomicU32,
    /// When the generation was demoted: where T_switch starts.
    demoted_at: OnceLock<Instant>,
    /// When its roots last sent their markers; `None` until the first.
    markers_sent_at: Mutex<Option<Instant>>,
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
        let depths: Vec<_> = trees.iter().map(depths_of).collect();
        let flushed: Vec<Box<[AtomicBool]>> = (depths.iter())
            .map(|d| d.iter().map(|d| AtomicBool::new(d.is_none())).collect())
            .collect();
        let reachable = |d: &Vec<Option<u32>>| d.iter().flatten().count() as u32;
        let unflushed: Vec<AtomicU32> = depths.iter().map(reachable).map(AtomicU32::new).collect();
        let origins_left = depths.iter().filter(|d| reachable(d) > 0).count() as u32;
        RelayEpoch {
            epoch,
            d_star,
            depths,
            trees,
            flushed,
            unflushed,
            origins_left: AtomicU32::new(origins_left),
            demoted_at: OnceLock::new(),
            markers_sent_at: Mutex::new(None),
        }
    }

    /// Nodes of `origin`'s tree that have not received its marker yet.
    pub(super) fn unflushed(&self, origin: u32) -> u32 {
        self.unflushed[origin as usize].load(Ordering::Acquire)
    }

    /// Record that nothing more of this generation can reach `nodes` of
    /// `origin`'s tree. Returns whether that flushed the last of it. The
    /// `AcqRel` updates pair with [`Self::unflushed`]'s `Acquire`: whoever
    /// reads a tree flushed sees the receipts that flushed it.
    fn mark_flushed(&self, origin: u32, nodes: impl IntoIterator<Item = u32>) -> bool {
        let o = origin as usize;
        let mut last = false;
        for node in nodes {
            let first = !self.flushed[o][node as usize].swap(true, Ordering::AcqRel);
            if first && self.unflushed[o].fetch_sub(1, Ordering::AcqRel) == 1 {
                last = self.origins_left.fetch_sub(1, Ordering::AcqRel) == 1;
            }
        }
        last
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
/// the previous generation flushing out, and the relay-path samples.
///
/// Epoch lifecycle: senders stamp the current epoch into every relay
/// frame; a switch publishes a new generation and demotes the old one to
/// `prev`, which keeps accepting its frames until every node has
/// received the end-of-generation marker of every origin — per-link FIFO
/// puts the marker behind all of the generation's data — and then
/// retires. Frames from any older generation are dropped and counted in
/// `relay_stale_drops`; on tracked runs the acker replays them on the
/// current tree, so a switch can delay but never silently lose a tracked
/// tuple.
pub(super) struct RelayState {
    current: RwLock<Arc<RelayEpoch>>,
    /// `current`'s epoch id, stored under `current`'s write lock: what a
    /// pipeline revalidates the generation it holds against (one load).
    current_id: AtomicU32,
    prev: RwLock<Option<Arc<RelayEpoch>>>,
    /// T_switch of each retired generation: demotion to the last marker
    /// receipt, ns.
    pub(super) retire_ns: Mutex<Reservoir>,
    /// Received relay records by tree depth of the receiving node.
    pub(super) depth_counts: Lanes,
    /// Sampled per-hop forward latencies (receipt to last child send).
    pub(super) forward_ns: Mutex<Reservoir>,
    /// Forward events so far, one count per pipeline (drives latency
    /// sampling).
    forward_events: Lanes,
}

impl RelayState {
    /// The relay plane of a run over `pipelines` pipelines, starting on
    /// `initial`.
    pub(super) fn new(initial: RelayEpoch, pipelines: usize) -> Self {
        RelayState {
            current_id: AtomicU32::new(initial.epoch),
            current: RwLock::new(Arc::new(initial)),
            prev: RwLock::new(None),
            retire_ns: Mutex::default(),
            depth_counts: Lanes::new(DEPTH_BUCKETS, pipelines),
            forward_ns: Mutex::default(),
            forward_events: Lanes::new(1, pipelines),
        }
    }

    pub(super) fn current(&self) -> Arc<RelayEpoch> {
        Arc::clone(&self.current.read())
    }

    /// The demoted generation if its epoch is `epoch`.
    fn demoted(&self, epoch: u32) -> Option<Arc<RelayEpoch>> {
        let prev = self.prev.read();
        prev.as_ref().filter(|p| p.epoch == epoch).map(Arc::clone)
    }

    /// The generation a frame's epoch belongs to: current, flushing
    /// previous, or `None` (retired — the frame is stale).
    fn lookup(&self, epoch: u32) -> Option<Arc<RelayEpoch>> {
        let cur = self.current.read();
        if cur.epoch == epoch {
            return Some(Arc::clone(&cur));
        }
        drop(cur);
        self.demoted(epoch)
    }

    /// The generation `want` names — `None`: whichever is current — for
    /// the caller to send on, or `None` for a retired one.
    ///
    /// A running pipeline answers for the current generation from the
    /// reference it [holds](HELD) whenever that still is the published
    /// one (one load), and refills it under the lock when it is not; a
    /// flushing or stale epoch, and any other thread, take the locked
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
    /// once per step, so one that stops using the relay plane cannot keep
    /// a demoted generation from being flushed.
    pub(super) fn revalidate_held(&self) {
        let published = self.current_id.load(Ordering::Acquire);
        HELD.set(HELD.take().filter(|held| held.epoch == published));
    }

    /// Count `records` received at a node `depth` hops from the origin.
    pub(super) fn record_depth(&self, depth: u32, records: u64) {
        let bucket = (depth as usize).min(DEPTH_BUCKETS - 1);
        self.depth_counts.add(bucket, records);
    }

    /// Install a new generation and demote the current one to `prev`,
    /// which starts its flush. The previous flush must be over: at most
    /// two generations are ever live.
    pub(super) fn publish(&self, next: Arc<RelayEpoch>) {
        let mut cur = self.current.write();
        let mut prev = self.prev.write();
        debug_assert!(prev.is_none(), "the last demoted generation retired first");
        self.current_id.store(next.epoch, Ordering::Release);
        let old = std::mem::replace(&mut *cur, next);
        let _ = old.demoted_at.set(Instant::now());
        *prev = Some(old);
    }

    /// Retire the demoted generation `epoch` (if it still is the demoted
    /// one), recording its T_switch before anyone can see it gone.
    fn retire(&self, epoch: u32) {
        let mut prev = self.prev.write();
        if let Some(retired) = prev.take_if(|p| p.epoch == epoch) {
            let demoted_at = retired.demoted_at.get().expect("demoted by publish");
            let ns = demoted_at.elapsed().as_nanos() as u64;
            self.retire_ns.lock().record(ns);
        }
    }
}

thread_local! {
    /// The running pipeline's own reference to the current generation,
    /// kept from one [`RelayState::hold`] to the next so that resolving it
    /// costs a load instead of a lock round trip and a refcount round trip
    /// per frame. It is revalidated at every use and once per step, moved
    /// out with the rest of the pipeline's [`RelayLocal`] when the step
    /// ends, and given up before the pipeline's executor parks: a
    /// generation is never pinned by a pipeline that is not running.
    /// Threads without a pipeline never fill it.
    static HELD: Cell<Option<Arc<RelayEpoch>>> = const { Cell::new(None) };
    /// The relayed EOS the running pipeline holds back until its origin's
    /// tree of the demoted generation has flushed; retried once per step
    /// ([`Routing::send_waiting_eos`]).
    static WAITING_EOS: RefCell<Vec<WaitingEos>> = const { RefCell::new(Vec::new()) };
}

/// A pipeline's relay state between its steps: what the thread running
/// it keeps in [`HELD`] and [`WAITING_EOS`] while it runs.
#[derive(Default)]
pub(super) struct RelayLocal {
    held: Option<Arc<RelayEpoch>>,
    waiting_eos: Vec<WaitingEos>,
}

impl RelayLocal {
    /// Swap this pipeline's state into the calling thread's.
    pub(super) fn enter(&mut self) {
        HELD.set(self.held.take());
        WAITING_EOS.with_borrow_mut(|waiting| std::mem::swap(waiting, &mut self.waiting_eos));
    }

    /// Swap it back out, leaving the thread's empty.
    pub(super) fn leave(&mut self) {
        self.held = HELD.take();
        WAITING_EOS.with_borrow_mut(|waiting| std::mem::swap(waiting, &mut self.waiting_eos));
    }

    /// Let go of the held generation: a parked pipeline must not keep one
    /// from flushing.
    pub(super) fn release(&mut self) {
        self.held = None;
    }
}

/// The relay records one pipeline's step has broadcast on its origin's
/// tree of one generation and not yet sent: encoded back to back into
/// one buffer, they leave as one relay frame per tree child.
#[derive(Default)]
pub(super) struct PendingRun {
    /// The generation every record is stamped with, held until they
    /// leave, so its end-of-generation markers cannot overtake them.
    /// `None` while the run is empty.
    generation: Option<Arc<RelayEpoch>>,
    /// The worker whose tree the records travel.
    origin: u32,
    records: usize,
    bytes: BytesMut,
}

impl PendingRun {
    /// Empty it, keeping the buffer's capacity.
    pub(super) fn clear(&mut self) {
        self.generation = None;
        self.records = 0;
        self.bytes.clear();
    }
}

/// A generation resolved by [`RelayState::hold`], good for one use. Inside
/// a pipeline's step dropping it hands the current generation's reference
/// back to the pipeline instead of releasing it.
pub(super) struct Held {
    /// `Some` until dropped.
    generation: Option<Arc<RelayEpoch>>,
    /// Whether the reference goes back to [`HELD`].
    keep: bool,
}

impl Held {
    /// A reference of the run's own to the generation.
    fn share(&self) -> Arc<RelayEpoch> {
        Arc::clone(self.generation.as_ref().expect("taken only by drop"))
    }
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

/// A relayed end-of-stream not yet sent down the tree.
#[derive(Clone, Copy)]
struct WaitingEos {
    src: TaskId,
    comp: ComponentId,
    copies: u32,
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
    /// record (a forwarded wire item's bytes are copied, not serialized),
    /// dispatch locally, and append the record to the step's pending run,
    /// which sends one wire buffer to each of the source worker's tree
    /// children ([`Self::send_relay_run`]); relays forward the received
    /// bytes verbatim. Off a pipeline's step the record leaves at once, as
    /// a frame of its own. Returns the XOR of the anchors armed for the
    /// component's tasks when `tracked` is set (the whole subscriber set,
    /// local and remote, is charged up front — an undelivered branch times
    /// out into a replay).
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
        loop_back(self.deliver_to_component(src_worker, comp, data));
        let epoch = relay.hold(None).expect("a current generation");
        let origin = src_worker.0;
        let header = RelayHeader {
            origin,
            epoch: epoch.epoch,
            component: comp.0,
            tracked: tracked.unwrap_or(0),
        };
        // Off a pipeline's step nothing would send the run later.
        let alone = CURRENT_SHARD.with(|c| c.get()).is_none();
        self.stats.add(Ctr::frames_encoded, 1);
        RUNS.with_borrow_mut(|runs| {
            let run = &mut runs.relay;
            let other = |g: &Arc<RelayEpoch>| g.epoch != epoch.epoch || run.origin != origin;
            if run.generation.as_ref().is_some_and(other) {
                self.send_relay(run);
            }
            if run.generation.is_none() {
                (run.generation, run.origin) = (Some(epoch.share()), origin);
            }
            wire::encode_relay(&mut run.bytes, header, item);
            run.records += 1;
            if alone || run.records >= RUN_CAP {
                self.send_relay(run);
            }
        });
        arm_xor
    }

    /// Send the running pipeline's pending relay run, if it has one: one
    /// frame to each of its origin's tree children on the generation its
    /// records carry.
    pub(super) fn send_relay_run(&self) {
        RUNS.with_borrow_mut(|runs| self.send_relay(&mut runs.relay));
    }

    /// [`Self::send_relay_run`] of `run`, which is left empty. The records
    /// were counted in `frames_encoded` as they were encoded; the frame
    /// is snapshotted once into a buffer every child's send shares.
    pub(super) fn send_relay(&self, run: &mut PendingRun) {
        let Some(generation) = run.generation.take() else {
            return;
        };
        self.with_encoded(&run.bytes, |frame| {
            self.relay_fanout(&generation, run.origin, Node::Source, frame, 1, drop)
        });
        run.clear();
    }

    /// End-of-stream for a relayed stream: it travels the same tree as
    /// the data so it stays behind every in-flight tuple (per-hop FIFO
    /// channels). Held back while its origin's tree of a demoted
    /// generation is flushing — sent on the new tree it could overtake
    /// data still on the old one — and then sent by the pipeline's
    /// [`Self::send_waiting_eos`].
    pub(super) fn relay_eos(&self, src: TaskId, comp: ComponentId, copies: u32) {
        let src_worker = self.placement.worker_of(src);
        loop_back(self.deliver_to_component(src_worker, comp, ExecMsg::Eos(src)));
        let eos = WaitingEos { src, comp, copies };
        if !self.try_relay_eos(eos) {
            WAITING_EOS.with_borrow_mut(|waiting| waiting.push(eos));
        }
    }

    /// Send the relayed EOS this thread holds back whose origin's tree has
    /// flushed by now; returns whether any still waits. While one does,
    /// the demoted generation's overdue markers are re-sent: a pipeline
    /// that waits on a flush cannot count on anyone else to repair it.
    pub(super) fn send_waiting_eos(&self) -> bool {
        let waiting = WAITING_EOS.with_borrow_mut(|waiting| {
            waiting.retain(|&eos| !self.try_relay_eos(eos));
            !waiting.is_empty()
        });
        if waiting {
            self.tend_flush();
        }
        waiting
    }

    /// Send `eos` down its origin's tree of the current generation,
    /// unless that origin's tree of the demoted one has yet to flush.
    /// Returns whether it went. The markers of a generation a switch
    /// demotes while it is held here leave only once this thread has let
    /// go of it, so they trail this EOS.
    fn try_relay_eos(&self, eos: WaitingEos) -> bool {
        let relay = self.relay.as_ref().expect("relayed implies relay state");
        // Behind every record this pipeline has broadcast, and not holding
        // a generation whose flush it may wait on.
        self.send_relay_run();
        let origin = self.placement.worker_of(eos.src).0;
        let epoch = relay.hold(None).expect("a current generation");
        let prev = relay.prev.read();
        if (prev.as_ref()).is_some_and(|p| p.epoch < epoch.epoch && p.unflushed(origin) > 0) {
            return false;
        }
        drop(prev);
        let frame = RelayEos {
            origin,
            epoch: epoch.epoch,
            component: eos.comp,
            src: eos.src,
        };
        self.with_frame(
            |buf| wire::encode_relay_eos(buf, frame),
            |frame| self.relay_fanout(&epoch, origin, Node::Source, frame, eos.copies, drop),
        );
        true
    }

    /// Send `frame` `copies` times to each tree child of `node` in
    /// `origin`'s tree of `epoch`, counting the accepted bytes as relay
    /// bytes and telling `rejected` each child a send was refused for.
    /// Returns how many the fabric accepted.
    fn relay_fanout(
        &self,
        epoch: &RelayEpoch,
        origin: u32,
        node: Node,
        frame: Wire<'_>,
        copies: u32,
        mut rejected: impl FnMut(u32),
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
                if self.send_wire(from, to, frame) {
                    accepted += 1;
                } else {
                    rejected(c);
                }
            }
        }
        if accepted > 0 {
            let bytes = accepted * frame.len() as u64;
            self.stats.add(Ctr::relay_bytes, bytes);
        }
        accepted
    }

    /// This worker's node in `origin`'s tree of `epoch`, if both exist.
    fn node_in(&self, epoch: &RelayEpoch, origin: u32, my_worker: u32) -> Option<u32> {
        let node = relay_node_of_worker(origin, my_worker)?;
        let exists = origin < self.placement.workers() && node < epoch.trees[origin as usize].n();
        exists.then_some(node)
    }

    /// The shared admission check of relayed data and relayed EOS: the
    /// generation the frame was stamped with (current or flushing) and
    /// this worker's node in `origin`'s tree. A frame on a retired
    /// generation is stale-dropped — never delivered; tracked runs replay
    /// its tuples on the current tree — and counted as the `stale` tuples
    /// it carries; one whose origin or node does not exist is dropped.
    fn relay_admit(
        &self,
        my_worker: u32,
        origin: u32,
        epoch: u32,
        stale: impl FnOnce() -> u64,
    ) -> Option<(&RelayState, Held, u32)> {
        let Some(relay) = self.relay.as_ref() else {
            self.stats.add(Ctr::dropped_frames, 1);
            return None;
        };
        let Some(epoch) = relay.hold(Some(epoch)) else {
            self.stats.add(Ctr::relay_stale_drops, stale());
            return None;
        };
        let Some(node) = self.node_in(&epoch, origin, my_worker) else {
            self.stats.add(Ctr::dropped_frames, 1);
            return None;
        };
        Some((relay, epoch, node))
    }

    /// A relay worker received a broadcast frame: admit it once, on its
    /// first record's origin and generation, and forward the *received
    /// wire bytes* to the tree children — no decode, no re-encode, no
    /// buffer-pool round-trip; a shared payload is refcount-bumped, a
    /// copied one is copied by the fabric — then deliver its records in
    /// order, each decoded once, only for local delivery. Each record is
    /// handed to the worker's other pipelines first; `run` then runs the
    /// receiving pipeline's own entry in place, and what that caused,
    /// before the next record is anchored — so the block (and the buffer
    /// reference) `spare` gets back serves every record. A record that
    /// does not frame, or is on another tree than the first, is dropped
    /// with the rest of the frame (nothing after it can be trusted) and
    /// counted once in `dropped_frames`; forwarding, which comes first,
    /// sent the frame on whole.
    pub(super) fn on_relay_frame(
        &self,
        my_worker: u32,
        run: RelayRun<'_>,
        payload: &Payload,
        spare: &mut WireSpare,
        run_own: &mut dyn FnMut(&mut WireSpare, Option<Entry>),
    ) {
        let h = run.header;
        let stale = || run.records().count() as u64;
        let Some((relay, epoch, node)) = self.relay_admit(my_worker, h.origin, h.epoch, stale)
        else {
            return;
        };
        let depth = epoch.depths[h.origin as usize][node as usize];
        // Only 1 in LATENCY_SAMPLE forwarding hops of each pipeline is
        // timed: pick first, read the clock only for the pick.
        let forwards = !epoch.trees[h.origin as usize]
            .children(Node::Dest(node))
            .is_empty();
        let sampled = forwards
            && relay
                .forward_events
                .add(0, 1)
                .is_multiple_of(LATENCY_SAMPLE);
        let t0 = sampled.then(Instant::now);
        let forwarded =
            self.relay_fanout(&epoch, h.origin, Node::Dest(node), payload.into(), 1, drop);
        if let Some(t0) = t0.filter(|_| forwarded > 0) {
            let ns = t0.elapsed().as_nanos() as u64;
            relay.forward_ns.lock().record(ns);
        }
        // What the records cause locally may broadcast on the generation
        // in turn: the pipeline's own reference goes back to it first.
        drop(epoch);
        // Validate each record's framing once for the whole worker, then
        // dispatch the lazy view — local executors decode at most once,
        // on first touch, against the shared relay buffer. A corrupt
        // record is dropped (and counted) rather than crashing the relay
        // worker.
        let mut records = 0u64;
        for record in run.records() {
            records += 1;
            let record = record
                .ok()
                .filter(|(r, _)| (r.origin, r.epoch) == (h.origin, h.epoch));
            let Some((r, view)) = record else {
                self.stats.add(Ctr::dropped_frames, 1);
                break;
            };
            let Ok(lazy) = self.lazy_tuple(payload, &view, spare) else {
                self.stats.add(Ctr::dropped_frames, 1);
                continue;
            };
            let tracked = (r.tracked != 0).then_some(r.tracked);
            let comp = ComponentId(r.component);
            let data = ExecMsg::Data(lazy, tracked);
            run_own(spare, self.deliver_to_component(WorkerId(my_worker), comp, data));
        }
        if let Some(depth) = depth {
            relay.record_depth(depth, records);
        }
        if forwarded > 0 {
            self.stats.add(Ctr::relay_forwards, forwarded * records);
        }
    }

    /// A relay worker received an EOS frame: forward the received bytes
    /// along the tree, then deliver EOS to the local instances of the
    /// component. Returns the receiving pipeline's own entry, to run in
    /// place.
    pub(super) fn on_relay_eos(
        &self,
        my_worker: u32,
        eos: RelayEos,
        payload: &Payload,
    ) -> Option<Entry> {
        let admitted = self.relay_admit(my_worker, eos.origin, eos.epoch, || 1);
        let (_, epoch, node) = admitted?;
        let from = Node::Dest(node);
        self.relay_fanout(&epoch, eos.origin, from, payload.into(), 1, drop);
        let worker = WorkerId(my_worker);
        self.deliver_to_component(worker, eos.component, ExecMsg::Eos(eos.src))
    }

    /// A relay worker received a demoted generation's marker: whatever of
    /// that generation its parent sent has arrived ahead of it. Forward
    /// it to the children — every copy, so that a root's resend repairs a
    /// loss anywhere below — and record the receipt; the last receipt of
    /// the generation retires it. A marker of any other generation is a
    /// resend that outlived its flush, and is ignored.
    pub(super) fn on_relay_marker(&self, my_worker: u32, marker: RelayMarker, payload: &Payload) {
        let Some(relay) = self.relay.as_ref() else {
            self.stats.add(Ctr::dropped_frames, 1);
            return;
        };
        let Some(generation) = relay.demoted(marker.epoch) else {
            return;
        };
        let Some(node) = self.node_in(&generation, marker.origin, my_worker) else {
            self.stats.add(Ctr::dropped_frames, 1);
            return;
        };
        let from = Node::Dest(node);
        self.send_marker(&generation, marker.origin, from, payload.into());
        if generation.mark_flushed(marker.origin, [node]) {
            relay.retire(marker.epoch);
        }
    }

    /// Send `origin`'s marker of the demoted `generation` to the children
    /// of `node`. A child the fabric rejects outright (a crashed
    /// endpoint) can be sent nothing more of the generation either: its
    /// whole subtree counts as flushed.
    fn send_marker(&self, generation: &RelayEpoch, origin: u32, node: Node, frame: Wire<'_>) {
        let relay = self.relay.as_ref().expect("markers imply relay state");
        let tree = &generation.trees[origin as usize];
        self.relay_fanout(generation, origin, node, frame, 1, |child| {
            if generation.mark_flushed(origin, tree.subtree(child)) {
                relay.retire(generation.epoch);
            }
        });
    }

    /// Each root of `generation` whose tree has not flushed sends its
    /// marker down it. Returns how many did.
    fn post_markers(&self, generation: &RelayEpoch) -> u64 {
        let mut posted = 0;
        for origin in 0..self.placement.workers() {
            if generation.unflushed(origin) == 0 {
                continue;
            }
            let marker = RelayMarker {
                origin,
                epoch: generation.epoch,
            };
            self.with_frame(
                |buf| wire::encode_relay_marker(buf, marker),
                |frame| self.send_marker(generation, origin, Node::Source, frame),
            );
            posted += 1;
        }
        posted
    }

    /// Drive the demoted generation's flush; returns whether none is
    /// left. Its first markers must trail every frame a root sent on it,
    /// so they wait until no thread but the `prev` slot holds it: each
    /// root that resolved it has sent and let go (a pipeline by its next
    /// step, or as its executor parks, see [`HELD`]). A forwarder that
    /// still looks it up passes on only frames that reached it ahead of
    /// the marker. Once they left, and again every [`MARKER_RESEND`], each
    /// root whose tree has not flushed sends its marker down the whole
    /// tree, so a marker lost anywhere on it is replaced.
    pub(super) fn tend_flush(&self) -> bool {
        let relay = self.relay.as_ref().expect("a flush implies relay state");
        // Checked and stamped under the one lock: two callers never both
        // post the first markers, and a pipeline polling this never holds
        // a reference that would keep them back.
        let (generation, first) = {
            let prev = relay.prev.read();
            let Some(generation) = prev.as_ref() else {
                return true;
            };
            let mut sent_at = generation.markers_sent_at.lock();
            let first = sent_at.is_none();
            if first && Arc::strong_count(generation) > 1 {
                return false;
            }
            if sent_at.is_some_and(|at| at.elapsed() < MARKER_RESEND) {
                return false;
            }
            // Pairs with the release in the last other reference's drop:
            // the sends made under it happened before these.
            fence(Ordering::Acquire);
            *sent_at = Some(Instant::now());
            (Arc::clone(generation), first)
        };
        let posted = self.post_markers(&generation);
        if !first {
            self.stats.add(Ctr::relay_marker_resends, posted);
        } else if generation.origins_left.load(Ordering::Acquire) == 0 {
            // A generation without nodes has nothing to wait for.
            relay.retire(generation.epoch);
        }
        false
    }

    /// Whether the demoted generation, if any, still waits for its first
    /// markers.
    pub(super) fn markers_unposted(&self) -> bool {
        let relay = self.relay.as_ref().expect("a flush implies relay state");
        let prev = relay.prev.read();
        prev.as_ref()
            .is_some_and(|p| p.markers_sent_at.lock().is_none())
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;
    use std::sync::atomic::AtomicU64;

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
    /// spout counts into the second and emits ids 1, 2, … flat out — but
    /// pauses 50 µs before each tuple while it is 256 or more ahead of the
    /// slowest sink: a spout that outruns its sinks without bound would put
    /// the drain time of its backlog, not the switch, under test. (It
    /// pauses rather than waits: sinks on its own executor run only once
    /// its step returns.) Until `stop` is set and at least `at_least` are
    /// out.
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
                    let slowest = seen.iter().map(|c| c.load(Ordering::Relaxed)).min();
                    if slowest.unwrap() + 256 <= n {
                        std::thread::sleep(Duration::from_micros(50));
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

    /// Whether `routing` is left with no demoted generation within
    /// `timeout`, tending its flush as the control step would: its first
    /// markers leave once no pipeline holds it.
    fn retires_within(routing: &Routing, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while !routing.tend_flush() {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::yield_now();
        }
        true
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
                // The generation before last retires by marker while
                // traffic runs on, and the thread that took its last
                // marker lets go of it: at most two are ever alive.
                let retired = retires_within(&run.routing, Duration::from_secs(10));
                assert!(retired, "{shards} shards, switch {k}");
                let before_last = &generations[generations.len().saturating_sub(2)];
                while k > 0 && before_last.strong_count() > 0 {
                    std::thread::yield_now();
                }
                let d_star = [3, 1, 2][k as usize % 3];
                let switched = super::super::control::switch_structure(&run.routing, d_star);
                assert!(switched, "{shards} shards, switch {k}");
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
    fn a_parked_executor_does_not_pin_a_generation() {
        // Every pipeline resolves generation 0 a thousand times over,
        // then runs out of work, and its executor parks.
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
        while !run.wakers.iter().all(|waker| waker.is_parked()) {
            std::thread::yield_now();
        }
        // One switch: no parked executor took generation 0's reference
        // into the park, so its markers leave at once, and their arrival
        // wakes each executor that forwards them. The generation retires
        // well before any park would have timed out (`PARK_CAP`).
        let relay = run.routing.relay.as_ref().unwrap();
        assert!(super::super::control::switch_structure(&run.routing, 3));
        assert!(retires_within(&run.routing, Duration::from_secs(10)));
        let (t_switch, switches) = relay.retire_ns.lock().take();
        assert_eq!(switches, 1);
        let cap = super::super::executor::PARK_CAP / 2;
        let t_switch = Duration::from_nanos(t_switch[0]);
        assert!(t_switch < cap, "T_switch {t_switch:?}");
        run.finish();
    }

    /// [`counting_topology`] over four workers, one pipeline each and no
    /// thread behind any, relaying at `d* = 1` — every origin's tree a
    /// chain of three nodes. Each worker's endpoint is registered on
    /// `fabric`; what the receive path hands its pipeline lands in the
    /// worker's executor queue.
    fn chains(fabric: Arc<dyn FabricPath>) -> (Routing, Vec<whale_net::Inbox>, Vec<Rx>) {
        const WORKERS: u32 = 4;
        let (topology, _ops) = counting_topology(WORKERS, 8);
        let placement = Placement::even(&topology, &ClusterSpec::new(WORKERS, 1, 16));
        let endpoints = (0..WORKERS)
            .map(|w| fabric.register(EndpointId(w)).unwrap())
            .collect();
        let (inboxes, queues) = (0..WORKERS)
            .map(|_| {
                let (tx, rx) = crossbeam::channel::bounded(1024);
                let waker = Arc::default();
                (super::super::send::ShardInbox::new(tx, waker), rx)
            })
            .unzip();
        let config = LiveConfig {
            machines: WORKERS,
            multicast_d_star: Some(1),
            ..LiveConfig::default()
        };
        let relay = RelayState::new(RelayEpoch::new(0, 1, oblivious_trees(1, WORKERS)), 0);
        let routing = Routing {
            groups: LocalGroups::new(&topology, &placement, 1),
            topology,
            placement,
            fabric,
            shard_inboxes: inboxes,
            ..bare_routing(config, Some(relay))
        };
        (routing, endpoints, queues)
    }

    type Rx = crossbeam::channel::Receiver<super::super::send::Entry>;

    /// Run every frame on the endpoints through the receive path until
    /// they are all empty; `keep` sees each `(receiving worker, frame)`
    /// first and may lose it instead.
    fn pump(
        routing: &Routing,
        endpoints: &[whale_net::Inbox],
        mut keep: impl FnMut(u32, &[u8]) -> bool,
    ) {
        let mut scratch = Default::default();
        let mut any = true;
        while std::mem::take(&mut any) {
            for (worker, endpoint) in (0..).zip(endpoints) {
                while let Ok(msg) = endpoint.try_recv() {
                    any = true;
                    if keep(worker, msg.payload.bytes()) {
                        super::super::pipeline::on_frame(
                            worker,
                            &msg,
                            routing,
                            &mut scratch,
                            &mut [],
                        );
                    }
                }
            }
        }
    }

    /// The queue entries a worker's pipeline was handed: `(data, EOS)`.
    fn handed(queue: &Rx) -> (usize, usize) {
        let entries: Vec<_> = std::iter::from_fn(|| queue.try_recv().ok()).collect();
        let eos = entries.iter().filter(|(_, m)| matches!(m, ExecMsg::Eos(_)));
        (entries.len() - eos.clone().count(), eos.count())
    }

    #[test]
    fn a_lost_marker_is_resent_by_its_root_and_the_generation_still_retires() {
        let (routing, endpoints, queues) = chains(Arc::new(whale_net::LiveFabric::new()));
        let relay = routing.relay.as_ref().unwrap();
        let src = routing.topology.tasks_of("src")[0];
        let origin = routing.placement.worker_of(src).0;
        let double = routing.topology.component("double").unwrap().id;
        let emit = |n: u64| {
            let item = LazyTuple::from_tuple(Tuple::with_id(n, vec![Value::I64(n as i64)]));
            routing.relay_broadcast(src, &item, double, None);
        };
        // Three tuples on generation 0, a switch (d* 1 → 2), two more on
        // generation 1.
        (0..3).for_each(emit);
        assert!(super::super::control::switch_structure(&routing, 2));
        (3..5).for_each(emit);
        // The origin's marker is lost on its way to the second node of its
        // chain: neither that node nor the one below it hears of it.
        let second = relay_node_worker(origin, 1, 4).0;
        let mut lost = 0;
        pump(&routing, &endpoints, |worker, frame| {
            let ours = matches!(
                wire::parse(frame),
                Ok(wire::FrameView::RelayMarker(m)) if m.origin == origin
            );
            let lose = ours && worker == second && lost == 0;
            lost += lose as u32;
            !lose
        });
        assert_eq!(lost, 1);
        let demoted = relay.demoted(0).expect("generation 0 is still flushing");
        assert_eq!(demoted.unflushed(origin), 2);
        let others = (0..4).filter(|&o| o != origin);
        assert!(others.map(|o| demoted.unflushed(o)).all(|n| n == 0));
        drop(demoted);
        // The spout finishes: its EOS waits behind the unflushed chain.
        // Its first retry comes after the resend interval, and so the
        // root sends its marker again, once, down the whole chain.
        std::thread::sleep(MARKER_RESEND);
        routing.relay_eos(src, double, 1);
        assert!(routing.send_waiting_eos(), "the EOS waits on the flush");
        assert_eq!(routing.stats.get(Ctr::relay_marker_resends), 1);
        pump(&routing, &endpoints, |_, _| true);
        assert!(relay.prev.read().is_none(), "the resend flushed the chain");
        assert_eq!(relay.retire_ns.lock().take().1, 1);
        assert!(!routing.send_waiting_eos(), "the EOS went");
        pump(&routing, &endpoints, |_, _| true);
        // Every worker's pipeline got each tuple once, then the EOS.
        for (worker, queue) in queues.iter().enumerate() {
            assert_eq!(handed(queue), (5, 1), "worker {worker}");
        }
        let stats = &routing.stats;
        assert_eq!(stats.get(Ctr::relay_marker_resends), 1);
        assert_eq!(stats.get(Ctr::relay_stale_drops), 0);
        assert_eq!(stats.get(Ctr::dropped_frames), 0);
    }

    #[test]
    fn a_switch_while_the_generation_is_held_posts_its_markers_once_let_go() {
        let (routing, endpoints, _) = chains(Arc::new(whale_net::LiveFabric::new()));
        let relay = routing.relay.as_ref().unwrap();
        let unsent = || endpoints.iter().all(whale_net::Inbox::is_empty);
        // A root still holds generation 0: the switch returns at once,
        // and no marker may overtake what that root sends on it.
        let held = relay.current();
        assert!(super::super::control::switch_structure(&routing, 2));
        assert!(routing.markers_unposted() && unsent());
        assert!(!routing.tend_flush());
        assert!(routing.markers_unposted() && unsent());
        // Let go: the next tend posts them, as first markers, not resends.
        drop(held);
        assert!(!routing.tend_flush());
        assert!(!routing.markers_unposted() && !unsent());
        assert_eq!(routing.stats.get(Ctr::relay_marker_resends), 0);
        pump(&routing, &endpoints, |_, _| true);
        assert!(routing.tend_flush(), "the generation retired");
        assert_eq!(relay.retire_ns.lock().take().1, 1);
        assert_eq!(routing.stats.get(Ctr::relay_stale_drops), 0);
    }

    #[test]
    fn a_marker_the_fabric_rejects_counts_the_childs_subtree_as_flushed() {
        // Worker 1 has crashed: every send to it is refused.
        let plan = whale_net::FaultPlan {
            crashes: vec![whale_net::EndpointCrash {
                endpoint: EndpointId(1),
                at_frame: 0,
            }],
            ..whale_net::FaultPlan::default()
        };
        let inner = Arc::new(whale_net::LiveFabric::new());
        let (routing, endpoints, _) = chains(Arc::new(FaultFabric::new(inner, plan)));
        let relay = routing.relay.as_ref().unwrap();
        assert!(super::super::control::switch_structure(&routing, 2));
        // Worker 0's chain starts at worker 1: refused at the root, the
        // whole chain counts as flushed before any marker arrives.
        let demoted = relay.demoted(0).expect("generation 0 is flushing");
        assert_eq!(demoted.unflushed(0), 0);
        assert!((1..4).all(|origin| demoted.unflushed(origin) > 0));
        drop(demoted);
        // Elsewhere worker 1 sits lower in the chain: the node above it
        // is refused, and worker 1 and what is below it count as
        // flushed. The generation retires on what gets through.
        pump(&routing, &endpoints, |_, _| true);
        assert!(relay.prev.read().is_none());
        assert_eq!(relay.retire_ns.lock().take().1, 1);
        assert_eq!(routing.stats.get(Ctr::relay_marker_resends), 0);
    }

    #[test]
    fn a_relayed_eos_sent_in_the_same_step_as_data_trails_all_of_it() {
        // A prompt spout doubles its batch each step, so its last step
        // emits a run's worth of tuples and then finds the source dry: the
        // EOS it relays in that step must leave behind that run, or a sink
        // would finish short and drop what came after.
        const TUPLES: u64 = 1_000;
        for fabric in [
            FabricKind::PerSend,
            FabricKind::Ring(whale_net::RingConfig::default()),
            FabricKind::OneSided(whale_net::OneSidedConfig::default()),
        ] {
            let (topology, ops, at_eos) = at_eos_topology(TUPLES);
            let config = LiveConfig {
                machines: 4,
                multicast_d_star: Some(2),
                fabric,
                ..LiveConfig::default()
            };
            let r = run_on(topology, ops, config, 1);
            assert_eq!(r.outcome, RunOutcome::Clean, "{fabric:?}");
            assert_eq!(r.executed[1], TUPLES * 16, "{fabric:?}");
            for sink in 0..16 {
                let at_eos = at_eos[sink].load(Ordering::Relaxed);
                assert_eq!(at_eos, TUPLES, "{fabric:?}: sink {sink} finished early");
            }
            // Runs, not a frame per tuple on each of the three tree edges.
            assert!(r.fabric_messages < TUPLES * 3, "{fabric:?}: {r:?}");
            assert_eq!(r.relay_forwards, TUPLES, "{fabric:?}: one forwarding node");
        }
    }

    /// Run `f` as a step of worker `origin`'s pipeline in [`chains`] would
    /// run: its relay state entered, its pending run sent at the end.
    /// Returns what it delivered to the pipeline's own tasks.
    fn as_step(routing: &Routing, origin: u32, local: &mut RelayLocal, f: impl FnOnce()) -> usize {
        CURRENT_SHARD.with(|c| c.set(Some(origin as usize)));
        local.enter();
        f();
        routing.send_relay_run();
        local.leave();
        CURRENT_SHARD.with(|c| c.set(None));
        let own = super::super::send::LOCAL_QUEUE.with_borrow_mut(std::mem::take);
        own.len()
    }

    /// `(epoch, records)` of a relay frame, each record's epoch checked
    /// against the first's; `None` for any other frame.
    fn relay_run(frame: &[u8]) -> Option<(u32, usize)> {
        let Ok(wire::FrameView::Relay(run)) = wire::parse(frame) else {
            return None;
        };
        let records: Vec<_> = run.records().map(Result::unwrap).collect();
        let epoch = run.header.epoch;
        assert!(
            records.iter().all(|(h, _)| h.epoch == epoch),
            "one generation per run"
        );
        Some((epoch, records.len()))
    }

    #[test]
    fn a_switch_inside_a_step_cuts_its_run_and_the_markers_trail_the_first_part() {
        let (routing, endpoints, queues) = chains(Arc::new(whale_net::LiveFabric::new()));
        let src = routing.topology.tasks_of("src")[0];
        let origin = routing.placement.worker_of(src).0;
        let double = routing.topology.component("double").unwrap().id;
        let emit = |n: u64| {
            let item = LazyTuple::from_tuple(Tuple::with_id(n, vec![Value::I64(n as i64)]));
            routing.relay_broadcast(src, &item, double, None);
        };
        // Three tuples on generation 0, a switch (d* 1 → 2), two more on
        // generation 1 — all in one step.
        let mut local = RelayLocal::default();
        let own = as_step(&routing, origin, &mut local, || {
            (0..3).for_each(emit);
            assert!(super::super::control::switch_structure(&routing, 2));
            // The run holds generation 0: no marker may leave yet.
            assert!(routing.markers_unposted());
            (3..5).for_each(emit);
        });
        assert_eq!(own, 5, "the origin's own sinks, once per tuple");
        // Between steps the pipeline holds only the current generation:
        // the demoted one's markers leave now.
        assert!(!routing.tend_flush());
        assert!(!routing.markers_unposted());
        // Each generation's tree delivers its part once to every node, and
        // a link carries what it carries of one tree in order: the
        // generation-0 run ahead of that generation's marker. (The two
        // generations' parts may reach a node over different links.)
        let mut seen: Vec<Vec<(&str, u32, usize)>> = vec![Vec::new(); 4];
        pump(&routing, &endpoints, |worker, frame| {
            let what = match (relay_run(frame), wire::parse(frame)) {
                (Some((epoch, records)), _) => Some(("run", epoch, records)),
                (None, Ok(wire::FrameView::RelayMarker(m))) if m.origin == origin => {
                    Some(("marker", m.epoch, 0))
                }
                _ => None,
            };
            seen[worker as usize].extend(what);
            true
        });
        for (worker, frames) in seen.iter().enumerate() {
            if worker as u32 == origin {
                assert!(frames.is_empty());
                continue;
            }
            let mut runs: Vec<_> = frames.iter().filter(|f| f.0 == "run").collect();
            runs.sort_unstable();
            assert_eq!(runs, [&("run", 0, 3), &("run", 1, 2)], "worker {worker}");
            let marker = frames.iter().position(|f| f.0 == "marker");
            let first = frames.iter().position(|f| *f == ("run", 0, 3));
            assert!(marker > first, "worker {worker}: {frames:?}");
            assert_eq!(handed(&queues[worker]), (5, 0), "worker {worker}");
        }
        assert!(retires_within(&routing, Duration::from_secs(1)));
        let stats = &routing.stats;
        assert_eq!(stats.get(Ctr::relay_stale_drops), 0);
        assert_eq!(stats.get(Ctr::dropped_frames), 0);
        // Each tuple forwarded once per forwarding hop, and every record
        // counted in the depth histogram it was received at.
        assert_eq!(stats.get(Ctr::relay_forwards), 3 * 2 + 2);
        assert_eq!(stats.get(Ctr::frames_encoded), 5 + 4);
    }

    #[test]
    fn a_run_whose_third_record_is_corrupt_delivers_two_and_is_forwarded_whole() {
        let (routing, endpoints, queues) = chains(Arc::new(whale_net::LiveFabric::new()));
        let src = routing.topology.tasks_of("src")[0];
        let origin = routing.placement.worker_of(src).0;
        let double = routing.topology.component("double").unwrap().id;
        let mut run = bytes::BytesMut::new();
        let mut third = 0;
        for n in 0..3u64 {
            third = run.len();
            let header = RelayHeader {
                origin,
                epoch: 0,
                component: double.0,
                tracked: 0,
            };
            let item = LazyTuple::from_tuple(Tuple::with_id(n, vec![Value::I64(n as i64)]));
            wire::encode_relay(&mut run, header, &item);
        }
        // The third item's first value tag (after kind, header, id and
        // arity) names no type.
        run[third + 1 + RelayHeader::WIRE_BYTES + 10] = 99;
        let run: Arc<[u8]> = Arc::from(&run[..]);
        let child = relay_node_worker(origin, 0, 4).0;
        let (from, to) = (
            routing.relay_endpoint(origin),
            routing.relay_endpoint(child),
        );
        assert!(routing.send_wire(from, to, Wire::Shared(&run)));
        let mut received = 0;
        pump(&routing, &endpoints, |worker, frame| {
            assert_ne!(worker, origin);
            assert_eq!(frame, &run[..], "worker {worker}: forwarded whole");
            received += 1;
            true
        });
        assert_eq!(received, 3, "down the whole chain");
        for (worker, queue) in queues.iter().enumerate() {
            let expected = if worker as u32 == origin { 0 } else { 2 };
            assert_eq!(handed(queue), (expected, 0), "worker {worker}");
        }
        // One drop per receiver: the corrupt record and what follows it.
        assert_eq!(routing.stats.get(Ctr::dropped_frames), 3);
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
            Some(RelayState::new(
                RelayEpoch::new(3, 2, oblivious_trees(2, 2)),
                0,
            )),
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
            super::super::pipeline::on_frame(0, &msg, &routing, &mut Default::default(), &mut []);
        };
        // A frame from a retired generation: stale-dropped, not counted
        // as a malformed frame, never delivered.
        receive(0);
        // A frame on the live generation with a corrupt (empty) item:
        // accepted by the epoch check, dropped at decode.
        receive(3);
        assert_eq!(routing.stats.get(Ctr::relay_stale_drops), 1);
        assert_eq!(routing.stats.get(Ctr::dropped_frames), 1);
        // A retired generation's run of three records: three tuples
        // stale-dropped.
        let mut run = bytes::BytesMut::new();
        for n in 0..3 {
            let h = RelayHeader {
                origin: 1,
                epoch: 0,
                component: 1,
                tracked: 0,
            };
            let item = LazyTuple::from_tuple(Tuple::with_id(n, vec![Value::I64(1)]));
            wire::encode_relay(&mut run, h, &item);
        }
        let msg = whale_net::LiveMessage {
            from: whale_net::EndpointId(1),
            payload: Payload::Copied(run.to_vec()),
        };
        super::super::pipeline::on_frame(0, &msg, &routing, &mut Default::default(), &mut []);
        assert_eq!(routing.stats.get(Ctr::relay_stale_drops), 1 + 3);
        assert_eq!(routing.stats.get(Ctr::dropped_frames), 1);
    }
}
