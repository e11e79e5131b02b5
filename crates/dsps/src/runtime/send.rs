//! The send side of the hot path: the shared [`Routing`] context, per-task
//! grouping state, local delivery across shard pipelines, and the one
//! path every frame takes to the fabric — encode once into pooled
//! scratch, optionally write ahead to the partition log, then
//! [`Routing::send_wire`].

use super::config::LiveConfig;
use super::relay::{RelayEpoch, RelayState};
use super::reliability::{anchor_for, splitmix64, AckRuntime, LogRuntime};
use super::report::RunStats;
use super::wire::{self, Wire};
use crate::codec::{self, DecodeError, LazyTuple, TupleView};
use crate::grouping::GroupingExec;
use crate::messaging::{plan, CommMode};
use crate::operator::Emitter;
use crate::pool::BufferPool;
use crate::scheduler::{Placement, WorkerId};
use crate::task::{ComponentId, TaskId};
use crate::topology::Topology;
use crate::tuple::Tuple;
use bytes::BytesMut;
use crossbeam::channel::{Sender, TrySendError};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use whale_net::{EndpointId, FabricPath, LinkTracker, Payload, SendError};

/// What an executor receives in its incoming queue.
pub(super) enum ExecMsg {
    /// A data tuple — locally emitted ones arrive owned, received wire
    /// frames arrive as lazy views anchored to the shared receive buffer
    /// (the handle memoizes, so a worker still decodes at most once) —
    /// with the acker ledger key (`attempt << ROOT_BITS | root`) when the
    /// run tracks deliveries. The receiving task derives its own anchor.
    Data(LazyTuple, Option<u64>),
    /// End-of-stream from one upstream task.
    Eos(TaskId),
}

/// The sending side of one pipeline's cross-shard inbox.
pub(super) struct ShardInbox {
    pub(super) tx: Sender<(TaskId, ExecMsg)>,
    /// Set by the owning pipeline while it blocks on its fabric endpoint.
    /// The pipeline re-checks the inbox after setting it, and a sender
    /// tests it after sending (`SeqCst` fences on both sides), so one of
    /// the two always sees the other: an inbox message can never sit
    /// behind a blocked pipeline.
    pub(super) parked: AtomicBool,
}

impl ShardInbox {
    pub(super) fn new(tx: Sender<(TaskId, ExecMsg)>) -> Self {
        ShardInbox {
            tx,
            parked: AtomicBool::new(false),
        }
    }
}

/// Per-task routing state: one [`GroupingExec`] per downstream edge plus
/// reusable destination scratch, so steady-state routing allocates
/// nothing (`route_into` fills `scratch` in place; `All` never clones
/// its target list).
pub(super) struct Groupings {
    edges: Vec<(ComponentId, GroupingExec)>,
    scratch: Vec<TaskId>,
}

/// Shared, immutable context of one run, used by every pipeline and
/// control thread.
pub(super) struct Routing {
    pub(super) topology: Topology,
    pub(super) placement: Placement,
    pub(super) config: LiveConfig,
    pub(super) fabric: Arc<dyn FabricPath>,
    /// Encode scratch buffers, reused across frames: the steady-state hot
    /// path allocates nothing (see [`BufferPool`]).
    pub(super) pool: BufferPool,
    /// Cross-shard inboxes, indexed by flat shard id
    /// (`worker * shards + task % shards`). Bounded: a full inbox
    /// backpressures the sender under the run's [`whale_net::SendPolicy`].
    pub(super) shard_inboxes: Vec<ShardInbox>,
    /// Pipeline threads per worker (`LiveConfig::shards`, clamped ≥ 1).
    pub(super) shards: u32,
    /// Behind its own allocation: the counters are written constantly,
    /// the rest of this struct is read-mostly.
    pub(super) stats: Arc<RunStats>,
    /// At-least-once machinery; `None` runs untracked.
    pub(super) ack: Option<AckRuntime>,
    /// Epoch-versioned multicast relay structures; `None` sends
    /// broadcasts directly.
    pub(super) relay: Option<RelayState>,
    /// Per-link load accounting over the cluster topology; `None` unless
    /// [`super::AdaptiveConfig::topology`] is set. Installed on the outermost
    /// fabric, so every send is attributed to exactly one link.
    pub(super) tracker: Option<Arc<LinkTracker>>,
    /// Write-ahead partition logs for crash recovery; `None` runs
    /// unlogged (see [`LiveConfig::log`]).
    pub(super) log: Option<LogRuntime>,
}

thread_local! {
    /// Flat shard id of the pipeline running on this thread, if any.
    /// Deliveries targeting this shard skip the inbox and loop back
    /// through [`LOCAL_QUEUE`]; threads without a pipeline (tests)
    /// always deliver through the inboxes.
    pub(super) static CURRENT_SHARD: Cell<Option<usize>> = const { Cell::new(None) };
    /// Same-shard deliveries looped back without touching any channel;
    /// the owning pipeline drains it after every operator step.
    pub(super) static LOCAL_QUEUE: RefCell<VecDeque<(TaskId, ExecMsg)>> =
        const { RefCell::new(VecDeque::new()) };
}

impl Routing {
    /// The shard slice a task belongs to on its worker (stable map).
    pub(super) fn shard_of(&self, t: TaskId) -> u32 {
        t.0 % self.shards
    }

    /// The flat pipeline index of a task: `worker * shards + shard`.
    pub(super) fn flat_shard_of(&self, t: TaskId) -> usize {
        (self.placement.worker_of(t).0 * self.shards + self.shard_of(t)) as usize
    }

    /// The fabric endpoint of one (worker, shard) pipeline.
    pub(super) fn endpoint(&self, worker: u32, shard: u32) -> EndpointId {
        EndpointId(worker * self.shards + shard)
    }

    /// The endpoint relay traffic targets: a worker's shard-0 pipeline
    /// (relay frames address whole workers, not tasks; the receiving
    /// pipeline fans decoded tuples out to the owning shards).
    pub(super) fn relay_endpoint(&self, worker: u32) -> EndpointId {
        EndpointId(worker * self.shards)
    }

    /// Deepest cross-shard inbox backlog (queue-pressure input for the
    /// adaptive controller, alongside the fabric's transfer queues).
    pub(super) fn max_inbox_depth(&self) -> usize {
        self.shard_inboxes
            .iter()
            .map(|s| s.tx.len())
            .max()
            .unwrap_or(0)
    }

    /// Turn a received data item into the executor-facing handle. A
    /// shared payload (RDMA semantics) is anchored as-is — the view
    /// rides the receive buffer's refcount and nothing is decoded until
    /// an executor touches it. A copied payload (TCP semantics) does not
    /// outlive dispatch, so the tuple is materialized here, eagerly —
    /// which is also where a copied frame's bad UTF-8 still surfaces.
    pub(super) fn lazy_tuple(
        &self,
        payload: &Payload,
        view: &TupleView<'_>,
    ) -> Result<LazyTuple, DecodeError> {
        match payload {
            Payload::Shared(buf) => Ok(LazyTuple::from_wire_view(Arc::clone(buf), view)),
            Payload::Copied(_) => view.to_tuple().map(LazyTuple::from_tuple),
        }
    }

    /// Deliver one executor message to the pipeline owning `dst`.
    /// Same-shard deliveries loop back through the thread-local queue
    /// (no channel, no lock); everything else goes to the owning shard's
    /// bounded inbox under the send policy's backoff — a full inbox that
    /// never clears drops the message loudly (`send_failed`), mirroring
    /// fabric backpressure. Returns false only when `dst` is not a task
    /// this run hosts (the caller counts the drop when it came off the
    /// wire); backpressure loss and teardown races are handled here.
    /// Deliveries of lazy wire views are counted here.
    pub(super) fn deliver(&self, dst: TaskId, msg: ExecMsg) -> bool {
        if matches!(&msg, ExecMsg::Data(lazy, _) if lazy.is_wire()) {
            self.stats.wire_tuples_lazy.fetch_add(1, Ordering::Relaxed);
        }
        if self.topology.tasks().component_of(dst).is_none() {
            return false;
        }
        let flat = self.flat_shard_of(dst);
        let Some(inbox) = self.shard_inboxes.get(flat) else {
            return false;
        };
        if CURRENT_SHARD.with(|c| c.get()) == Some(flat) {
            LOCAL_QUEUE.with_borrow_mut(|q| q.push_back((dst, msg)));
            return true;
        }
        let mut item = Some((dst, msg));
        let sent = self.config.send.run(&self.stats.send_retries, || {
            match inbox.tx.try_send(item.take().expect("re-armed on Full")) {
                Ok(()) => Ok(()),
                Err(TrySendError::Full(v)) => {
                    item = Some(v);
                    Err(SendError::Full)
                }
                Err(TrySendError::Disconnected(_)) => Err(SendError::Disconnected),
            }
        });
        match sent {
            Ok(()) => {
                self.stats.cross_shard_msgs.fetch_add(1, Ordering::Relaxed);
                // The owning pipeline blocks on its fabric endpoint, not on
                // this inbox: if it is parked, wake it through the fabric
                // (the swap elects one waker per park).
                fence(Ordering::SeqCst);
                if inbox.parked.load(Ordering::SeqCst) && inbox.parked.swap(false, Ordering::SeqCst)
                {
                    self.fabric.wake(EndpointId(flat as u32));
                }
            }
            Err(SendError::Full) => {
                // Backpressure never cleared: the message is lost,
                // loudly (tracked tuples time out into replays).
                self.stats.send_failed.fetch_add(1, Ordering::Relaxed);
            }
            // Teardown race: the owning pipeline already exited.
            Err(_) => {}
        }
        true
    }

    /// Send one tuple from `src` to routed destinations of every
    /// downstream edge. `groupings` carries the per-task grouping state.
    /// A `tracked` id pre-registered with the acker is armed here: one
    /// anchor per destination, XOR'd into the ledger atomically after
    /// every destination is known (an empty destination set arms to zero
    /// and acks immediately). A tuple a grouping cannot route (missing
    /// key field) is dropped and counted, never a panic.
    pub(super) fn emit(
        &self,
        src: TaskId,
        groupings: &mut Groupings,
        tuple: Tuple,
        tracked: Option<u64>,
    ) {
        let Groupings { edges, scratch } = groupings;
        let shared = Arc::new(tuple);
        let mut arm_xor = 0u64;
        for (comp, g) in edges.iter_mut() {
            if self.relayed(g.grouping()) {
                arm_xor ^= self.relay_broadcast(src, &shared, *comp, tracked);
            } else {
                match g.route_into(&shared, None, scratch) {
                    Ok(()) => arm_xor ^= self.send_data(src, &shared, scratch, tracked),
                    Err(_) => {
                        self.stats.dropped_frames.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        if let (Some(tr), Some(ack)) = (tracked, self.ack.as_ref()) {
            // Arming is order-independent with executor acks: XOR cancels
            // regardless of which side lands first.
            ack.acker.lock().ack(tr, arm_xor);
        }
    }

    /// Returns the XOR of the anchors assigned to `dsts` when `tracked`
    /// is set (for ledger arming), 0 otherwise. Anchors are charged for
    /// every destination — including ones whose frame fails to send — so
    /// an undelivered destination leaves the ledger non-zero and the
    /// tuple times out into a replay instead of silently "completing".
    fn send_data(
        &self,
        src: TaskId,
        tuple: &Arc<Tuple>,
        dsts: &[TaskId],
        tracked: Option<u64>,
    ) -> u64 {
        let p = plan(
            self.config.comm_mode,
            src,
            tuple.payload_bytes(),
            dsts,
            &self.placement,
        );
        let mut arm_xor = 0u64;
        // Local deliveries: no serialization beyond what the mode charges.
        let lazy = LazyTuple::from_arc(Arc::clone(tuple));
        for &t in &p.local_tasks {
            arm_xor ^= tracked.map_or(0, |tr| anchor_for(tr, t));
            // The owning pipeline may already have exited after EOS; the
            // delivery layer swallows that race.
            self.deliver(t, ExecMsg::Data(lazy.clone(), tracked));
        }
        self.stats
            .serializations
            .fetch_add(p.serializations as u64, Ordering::Relaxed);
        if p.remote.is_empty() {
            return arm_xor;
        }
        // Whale serializes the data item once into pooled scratch; each
        // per-worker frame borrows it and adds only the header.
        let item = (self.config.comm_mode == CommMode::WorkerOriented).then(|| {
            let mut item = self.pool.acquire();
            codec::encode_tuple_into(&mut item, tuple);
            item
        });
        for env in &p.remote {
            if let Some(tr) = tracked {
                for &t in &env.dst_tasks {
                    arm_xor ^= anchor_for(tr, t);
                }
            }
            match &item {
                Some(item) => {
                    self.transmit_worker_frame(src, env.dst_worker, &env.dst_tasks, item, tracked)
                }
                // Storm serializes per destination, but without a deep
                // clone of the tuple: the shared decoded tuple is borrowed
                // straight into the frame.
                None => {
                    debug_assert_eq!(env.dst_tasks.len(), 1);
                    let dst = env.dst_tasks[0];
                    self.transmit(src, env.dst_worker, self.shard_of(dst), tracked, |buf| {
                        wire::encode_instance(buf, tracked, src, dst, tuple)
                    });
                }
            }
        }
        arm_xor
    }

    /// Send one worker-oriented frame per destination *pipeline*: the
    /// envelope's task list is split by owning shard (each pipeline reads
    /// only its own endpoint) and every per-shard frame borrows the same
    /// serialized item. One shard (the common case, and always true at
    /// `shards == 1`) stays a single frame with no extra allocation.
    fn transmit_worker_frame(
        &self,
        src: TaskId,
        dst_worker: WorkerId,
        dst_tasks: &[TaskId],
        item: &[u8],
        tracked: Option<u64>,
    ) {
        let send = |shard: u32, tasks: &[TaskId]| {
            self.transmit(src, dst_worker, shard, tracked, |buf| {
                wire::encode_worker(buf, tracked, src, tasks, item)
            });
        };
        let first_shard = self.shard_of(dst_tasks[0]);
        if self.shards == 1 || dst_tasks.iter().all(|&t| self.shard_of(t) == first_shard) {
            send(first_shard, dst_tasks);
            return;
        }
        for (shard, tasks) in self.split_by_shard(dst_tasks) {
            send(shard, &tasks);
        }
    }

    /// `tasks` (all on one worker) grouped by owning shard, empty shards
    /// skipped.
    fn split_by_shard<'a>(
        &'a self,
        tasks: &'a [TaskId],
    ) -> impl Iterator<Item = (u32, Vec<TaskId>)> + 'a {
        (0..self.shards).filter_map(move |shard| {
            let owned: Vec<TaskId> = tasks
                .iter()
                .copied()
                .filter(|&t| self.shard_of(t) == shard)
                .collect();
            (!owned.is_empty()).then_some((shard, owned))
        })
    }

    /// Send one point-to-point data frame from `src`'s pipeline to a
    /// destination pipeline, written through the destination's partition
    /// log first when [`LiveConfig::log`] is set. Relay and EOS frames
    /// never come through here and are not logged.
    fn transmit(
        &self,
        src: TaskId,
        dst_worker: WorkerId,
        dst_shard: u32,
        tracked: Option<u64>,
        fill: impl FnOnce(&mut BytesMut),
    ) {
        let from = self.endpoint(self.placement.worker_of(src).0, self.shard_of(src));
        let to = self.endpoint(dst_worker.0, dst_shard);
        self.with_frame(Some((to, tracked)), fill, |frame| {
            self.send_wire(from, to, frame, None)
        });
    }

    /// Encode one frame into pooled scratch and hand it to `send` as a
    /// [`Wire`] — the one place a frame is built. With `log_to` (and a
    /// log configured) the encoded bytes are appended to that endpoint's
    /// partition log *before* any send (write-ahead), so a crash after
    /// the append can always be healed by replaying the log. Zero-copy
    /// runs snapshot the frame into a single shared buffer that every
    /// send and retry refcounts, and return the scratch to the pool
    /// before any retry wait; copied runs lend the scratch itself and pay
    /// the TCP copy per send. Sending `frame` several times costs wire
    /// bytes but never a second encode.
    pub(super) fn with_frame<R>(
        &self,
        log_to: Option<(EndpointId, Option<u64>)>,
        fill: impl FnOnce(&mut BytesMut),
        send: impl FnOnce(Wire<'_>) -> R,
    ) -> R {
        let mut scratch = self.pool.acquire();
        fill(&mut scratch);
        self.stats.frames_encoded.fetch_add(1, Ordering::Relaxed);
        if let (Some(log), Some((to, tracked))) = (&self.log, log_to) {
            log.append(to, tracked, &scratch);
        }
        if self.config.zero_copy {
            let buf = scratch.share();
            drop(scratch);
            send(Wire::Shared(&buf))
        } else {
            send(Wire::Copied(&scratch))
        }
    }

    /// The one fabric send. Waits out transient backpressure under the
    /// run's [`SendPolicy`](whale_net::SendPolicy) (`Full` means posted
    /// descriptors outran the flusher, the bounded transfer queue of the
    /// paper's model — spin, yield, then park with exponential backoff up
    /// to the policy deadline); `Full` past the deadline fails the frame
    /// loudly, so a dead flusher degrades the run instead of livelocking
    /// it. Teardown races (unknown or disconnected endpoints) are dropped
    /// here; the fabric counts them in `send_errors`.
    ///
    /// A relay send names the generation to `charge`: the in-flight count
    /// is raised *before* the send, so the generation can never read
    /// drained while an accepted frame sits uncounted in a fabric queue,
    /// and released again if the fabric rejects; accepted bytes count
    /// toward the relay byte total. Returns whether the fabric accepted.
    pub(super) fn send_wire(
        &self,
        from: EndpointId,
        to: EndpointId,
        frame: Wire<'_>,
        charge: Option<&RelayEpoch>,
    ) -> bool {
        let charge = charge.zip(self.relay.as_ref());
        if let Some((epoch, _)) = charge {
            epoch.note_sent();
        }
        let retries = &self.stats.send_retries;
        let sent = match frame {
            Wire::Shared(buf) => self.config.send.run(retries, || {
                self.fabric.send_shared(from, to, Arc::clone(buf))
            }),
            Wire::Copied(bytes) => self
                .config
                .send
                .run(retries, || self.fabric.send_copied(from, to, bytes)),
        };
        if sent == Err(SendError::Full) {
            self.stats.send_failed.fetch_add(1, Ordering::Relaxed);
        }
        match charge {
            Some((_, relay)) if sent.is_ok() => relay.note_bytes(frame.len()),
            Some((epoch, _)) => epoch.note_received(),
            None => {}
        }
        sent.is_ok()
    }

    /// Broadcast end-of-stream from `src` to every subscriber of its
    /// component, across both local and remote paths.
    pub(super) fn broadcast_eos(&self, src: TaskId) {
        let comp = self
            .topology
            .tasks()
            .component_of(src)
            .expect("task belongs to a component");
        // Ack runs may face injected frame drops; EOS frames are sent
        // redundantly (receivers count each upstream task at most once,
        // so duplicates are harmless). Each redundant frame is encoded
        // once and resent — copies grow wire traffic, not encodes.
        let copies = self.config.ack.map_or(1, |a| a.eos_redundancy.max(1));
        let src_worker = self.placement.worker_of(src);
        let from = self.endpoint(src_worker.0, self.shard_of(src));
        for edge in self.topology.downstream_edges(comp) {
            if self.relayed(&edge.grouping) {
                self.relay_eos(src, edge.to, copies);
                continue;
            }
            let dsts = self.topology.tasks().tasks_of(edge.to);
            for (worker, tasks) in self.placement.group_by_worker(&dsts) {
                if worker == src_worker {
                    for t in tasks {
                        self.deliver(t, ExecMsg::Eos(src));
                    }
                    continue;
                }
                // One EOS frame per destination pipeline: each shard
                // reads only its own endpoint.
                for (shard, shard_tasks) in self.split_by_shard(&tasks) {
                    let to = self.endpoint(worker.0, shard);
                    self.with_frame(
                        None,
                        |buf| wire::encode_eos(buf, src, &shard_tasks),
                        |frame| {
                            for _ in 0..copies {
                                self.send_wire(from, to, frame, None);
                            }
                        },
                    );
                }
            }
        }
    }

    /// Bounded drain wait used before EOS departure and switches.
    pub(super) fn drain_grace(&self) -> Duration {
        let adaptive = self.config.multicast_adaptive.as_ref();
        adaptive.map_or(Duration::from_millis(250), |a| a.drain_grace)
    }
}

impl Groupings {
    /// Routing state for `src`'s downstream edges. Shuffle cursors are
    /// seeded by a stable hash of the source task id, so the N routers of
    /// a parallel component start at spread-out offsets instead of all
    /// hammering `targets[0]` first.
    pub(super) fn new(topology: &Topology, src: TaskId, comp: ComponentId) -> Self {
        let edges = topology
            .downstream_edges(comp)
            .into_iter()
            .map(|e| {
                let targets = topology.tasks().tasks_of(e.to);
                let seed = splitmix64(src.0 as u64);
                (
                    e.to,
                    GroupingExec::with_rr_seed(e.grouping.clone(), targets, seed),
                )
            })
            .collect();
        Groupings {
            edges,
            scratch: Vec::new(),
        }
    }
}

/// The [`Emitter`] a bolt is handed: routes on the bolt's own pipeline
/// thread, through its grouping state.
pub(super) struct TaskEmitter<'a> {
    pub(super) routing: &'a Routing,
    pub(super) src: TaskId,
    pub(super) groupings: &'a mut Groupings,
}

impl Emitter for TaskEmitter<'_> {
    fn emit(&mut self, tuple: Tuple) {
        // Bolt emissions are untracked: the acker tracks spout roots to
        // their first-hop subscribers (delivery tracking, not full tree
        // tracking — replays re-enter at the spout).
        self.routing.emit(self.src, self.groupings, tuple, None);
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use std::time::Instant;
    use whale_net::{FaultPlan, SendPolicy};

    #[test]
    fn zero_copy_uses_shared_path() {
        let r = run(CommMode::WorkerOriented, true, 4, 8);
        assert_eq!(r.copied_bytes, 0);
        assert!(r.shared_bytes > 0);
        let r = run(CommMode::WorkerOriented, false, 4, 8);
        assert_eq!(r.shared_bytes, 0);
        assert!(r.copied_bytes > 0);
    }

    #[test]
    fn hot_path_reuses_pooled_encode_buffers() {
        // 100 broadcast tuples to 8 instances across 4 machines produce
        // hundreds of frames; the pool must serve almost all of them from
        // reused buffers and every buffer must be back after the run.
        for zero_copy in [true, false] {
            let r = run(CommMode::WorkerOriented, zero_copy, 4, 8);
            assert!(
                r.pool_hits > 0,
                "zero_copy={zero_copy}: buffers returned after use are reused"
            );
            assert!(
                r.pool_hit_rate > 0.9,
                "zero_copy={zero_copy}: steady state must stop allocating, \
                 hit rate {:.3} (hits {}, misses {})",
                r.pool_hit_rate,
                r.pool_hits,
                r.pool_misses
            );
            assert!(r.pool_high_watermark >= 1);
            let m = r.metrics();
            assert_eq!(m.counter("dsps.pool.hits"), Some(r.pool_hits));
            assert!(m.gauge("dsps.pool.hit_rate").unwrap() > 0.9);
        }
    }

    #[test]
    fn redundant_eos_is_encoded_once_and_resent() {
        // eos_redundancy grows wire frames, never encodes: the frame is
        // built once and the same buffer is resent.
        let frames_encoded_with = |redundancy: u32| {
            let (t, ops) = ack_topology(50, 4);
            run_topology(
                t,
                ops,
                LiveConfig {
                    machines: 4,
                    ack: Some(AckConfig {
                        timeout: Duration::from_secs(10),
                        eos_redundancy: redundancy,
                        ..AckConfig::default()
                    }),
                    ..LiveConfig::default()
                },
            )
        };
        let one = frames_encoded_with(1);
        let eight = frames_encoded_with(8);
        assert_eq!(one.outcome, RunOutcome::Clean);
        assert_eq!(eight.outcome, RunOutcome::Clean);
        assert_eq!(
            one.frames_encoded, eight.frames_encoded,
            "EOS redundancy must not add encodes"
        );
        assert!(
            eight.fabric_messages > one.fabric_messages,
            "redundant copies do add wire frames"
        );
    }

    #[test]
    fn exhausted_send_deadline_degrades_instead_of_livelocking() {
        // Every remote send is stuck Full forever: the policy deadline
        // must fail frames loudly and the run deadline must reap the
        // starved executors — the run terminates on its own.
        let (t, ops) = ack_topology(20, 2);
        let plan = FaultPlan {
            seed: 1,
            default_link: whale_net::LinkFaults {
                full_burst: 1.0,
                full_burst_len: u32::MAX,
                ..whale_net::LinkFaults::default()
            },
            ..FaultPlan::default()
        };
        let started = Instant::now();
        let r = run_topology(
            t,
            ops,
            LiveConfig {
                machines: 2,
                send: SendPolicy {
                    spin: 4,
                    yields: 4,
                    park_initial: Duration::from_micros(50),
                    park_max: Duration::from_micros(200),
                    deadline: Duration::from_millis(5),
                },
                fault: Some(plan),
                run_deadline: Some(Duration::from_millis(500)),
                ..LiveConfig::default()
            },
        );
        assert!(r.send_failed > 0, "stuck sends must fail loudly");
        assert!(r.send_retries > 0);
        assert!(r.deadline_exits > 0, "starved executors must be reaped");
        assert!(matches!(r.outcome, RunOutcome::Degraded { .. }));
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "bounded backoff must terminate promptly"
        );
        let m = r.metrics();
        assert_eq!(m.counter("dsps.send.failed"), Some(r.send_failed));
        assert_eq!(m.counter("dsps.send.retries"), Some(r.send_retries));
    }
}
