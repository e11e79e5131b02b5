//! The send side of the hot path: the shared [`Routing`] context, per-task
//! grouping state, local delivery across shard pipelines, and the one
//! call every frame leaves by, [`Routing::send_wire`]. A worker or relay
//! record is encoded once into its step's run ([`super::runs`]); any other
//! frame into pooled scratch. A tracked record or frame is written ahead
//! to its destination's partition log before it leaves.

use super::config::LiveConfig;
use super::relay::RelayState;
use super::reliability::{anchor_for, splitmix64, AckRuntime, LogRuntime};
use super::report::{Ctr, RunStats};
use super::wire::{self, Wire};
use crate::codec::{DecodeError, LazyTuple, TupleView, WireRecord};
use crate::grouping::GroupingExec;
use crate::messaging::{CommMode, MessagePlan};
use crate::operator::Emitter;
use crate::pool::{BufferPool, PooledBuf};
use crate::scheduler::{Placement, WorkerId};
use crate::task::{ComponentId, TaskId};
use crate::topology::{ComponentKind, Topology};
use crate::tuple::Tuple;
use bytes::BytesMut;
use crossbeam::channel::{Sender, TrySendError};
use parking_lot::Mutex;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use whale_net::{EndpointId, FabricPath, FaultFabric, LinkTracker, Payload, SendError, Waker};

/// What an executor receives in its incoming queue — or, borrowing a
/// received record (`'a`), runs in place.
#[derive(Clone)]
pub(super) enum ExecMsg<'a> {
    /// A data tuple — locally emitted ones arrive owned, received wire
    /// records as lazy views over the receive buffer (borrowed where they
    /// run in place, anchored to it in their own block when queued; the
    /// handle memoizes, so a worker still decodes at most once) — with
    /// the acker ledger key (`attempt << ROOT_BITS | root`) when the run
    /// tracks deliveries. The receiving task derives its own anchor.
    Data(LazyTuple<'a>, Option<u64>),
    /// End-of-stream from one upstream task.
    Eos(TaskId),
}

impl ExecMsg<'_> {
    /// The message, free to be queued: a borrowed record promoted.
    pub(super) fn into_owned(self) -> ExecMsg<'static> {
        match self {
            ExecMsg::Data(t, tracked) => ExecMsg::Data(t.into_owned(), tracked),
            ExecMsg::Eos(src) => ExecMsg::Eos(src),
        }
    }
}

/// Who one queue entry is for. The unit of local delivery is one message
/// for one destination *pipeline*: only `Grouping::All` fans out, so a
/// multi-task destination set is always every bolt task of one component
/// that one pipeline owns — a row of [`LocalGroups`] — and the pipeline
/// runs those bolts back to back against the one message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum Dest {
    Task(TaskId),
    /// A [`LocalGroups`] row.
    Group(u32),
}

/// One entry of a pipeline's loopback queue or cross-shard inbox
/// (`'static`), or a received one its receiver runs in place.
pub(super) type Entry<'a> = (Dest, ExecMsg<'a>);

// The inboxes preallocate `SHARD_INBOX_CAPACITY` (4 096) entries per
// pipeline: naming a batch must not cost more than naming a task did
// (`(TaskId, ExecMsg)` was 40 bytes).
const _: () = assert!(std::mem::size_of::<Entry<'static>>() <= 40);

/// `(pipeline, component) → [TaskId]`: the bolt tasks of each component
/// each pipeline owns, built once per run. It is what a [`Dest::Group`]
/// names, what tells a sender which pipelines of a worker host a
/// component at all, and what a task id off the wire is checked against.
pub(super) struct LocalGroups {
    n_components: u32,
    shards: u32,
    /// Row `flat * n_components + component`, tasks ascending.
    rows: Vec<Vec<TaskId>>,
    /// Task id → its row; [`Self::NO_ROW`] for a task that executes
    /// nothing (a spout).
    row_of_task: Vec<u32>,
}

impl LocalGroups {
    const NO_ROW: u32 = u32::MAX;

    pub(super) fn new(topology: &Topology, placement: &Placement, shards: u32) -> Self {
        let n_components = topology.components().len() as u32;
        let n_rows = placement.workers() * shards * n_components;
        let mut rows = vec![Vec::new(); n_rows as usize];
        let mut row_of_task = vec![Self::NO_ROW; topology.total_tasks() as usize];
        for comp in topology.components() {
            if comp.kind != ComponentKind::Bolt {
                continue;
            }
            for task in topology.tasks().task_ids(comp.id) {
                let row = flat_shard(placement, shards, task) * n_components + comp.id.0;
                rows[row as usize].push(task);
                row_of_task[task.0 as usize] = row;
            }
        }
        LocalGroups {
            n_components,
            shards,
            rows,
            row_of_task,
        }
    }

    /// The row holding `task`; `None` for an id this run executes
    /// nothing on.
    pub(super) fn row_of(&self, task: TaskId) -> Option<u32> {
        let row = self.row_of_task.get(task.0 as usize).copied();
        row.filter(|&r| r != Self::NO_ROW)
    }

    pub(super) fn tasks(&self, row: u32) -> &[TaskId] {
        &self.rows[row as usize]
    }

    /// The flat shard id of the pipeline a row belongs to.
    fn pipeline_of(&self, row: u32) -> usize {
        (row / self.n_components) as usize
    }

    /// The non-empty rows of `comp` on `worker`, one per owning
    /// pipeline (none for a component id that does not exist).
    fn rows_on(&self, worker: WorkerId, comp: ComponentId) -> impl Iterator<Item = u32> + '_ {
        let shards = if comp.0 < self.n_components {
            0..self.shards
        } else {
            0..0
        };
        shards
            .map(move |shard| (worker.0 * self.shards + shard) * self.n_components + comp.0)
            .filter(|&row| !self.tasks(row).is_empty())
    }
}

/// The flat pipeline index of a task: `worker * shards + task % shards`.
fn flat_shard(placement: &Placement, shards: u32, task: TaskId) -> u32 {
    placement.worker_of(task).0 * shards + task.0 % shards
}

/// The sending side of one pipeline's cross-shard inbox.
pub(super) struct ShardInbox {
    /// What other threads send: bounded, so a busy pipeline backpressures
    /// them.
    pub(super) tx: Sender<Entry<'static>>,
    /// What the owning pipeline's executor parks on: a send wakes it
    /// (a send from that executor itself wakes nothing).
    pub(super) waker: Arc<Waker>,
    /// What steps of the owning executor itself hand over.
    handed: Handed,
}

impl ShardInbox {
    pub(super) fn new(tx: Sender<Entry<'static>>, waker: Arc<Waker>) -> Self {
        let handed = Handed::default();
        ShardInbox { tx, waker, handed }
    }

    /// Entries queued for the pipeline, sent and handed over.
    fn depth(&self) -> usize {
        self.tx.len() + self.handed.len()
    }

    /// Move what steps of this executor handed the pipeline into `into`
    /// (empty), keeping both buffers' capacity. Returns whether it moved
    /// any.
    pub(super) fn take_handed(&self, into: &mut VecDeque<Entry<'static>>) -> bool {
        self.handed.len() > 0 && {
            let mut queue = self.handed.queue.lock();
            std::mem::swap(&mut *queue, into);
            self.handed.len.store(0, Ordering::Relaxed);
            true
        }
    }
}

/// Hand-offs to one pipeline from a step of the executor that steps it.
/// That one thread pushes and drains, so a push never waits on anyone and
/// the queue takes no bound: the destination cannot drain a full one
/// while its own executor waits on it, and what one step hands over the
/// destination's next step takes, as with a pipeline's own
/// [`LOCAL_QUEUE`].
#[derive(Default)]
struct Handed {
    queue: Mutex<VecDeque<Entry<'static>>>,
    /// The queue's length, read without its lock (its one thread writes
    /// it under the lock).
    len: AtomicUsize,
}

impl Handed {
    fn push(&self, entry: Entry<'static>) {
        let mut queue = self.queue.lock();
        queue.push_back(entry);
        self.len.store(queue.len(), Ordering::Relaxed);
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }
}

/// Per-task routing state: one [`GroupingExec`] per downstream edge plus
/// reusable destination scratch and send plan, so steady-state routing
/// and planning allocate nothing (`route_into` fills `scratch` and
/// [`MessagePlan::fill`] the plan in place; `All` never clones its target
/// list).
pub(super) struct Groupings {
    edges: Vec<(ComponentId, GroupingExec)>,
    scratch: Vec<TaskId>,
    plan: MessagePlan,
}

/// Shared, immutable context of one run, used by every pipeline and by
/// the control step.
pub(super) struct Routing {
    pub(super) topology: Topology,
    pub(super) placement: Placement,
    pub(super) config: LiveConfig,
    pub(super) fabric: Arc<dyn FabricPath>,
    /// The fault-injection wrapper `fabric` is, kept for its counters;
    /// `None` unless [`LiveConfig::fault`] is set.
    pub(super) fault: Option<Arc<FaultFabric>>,
    /// Encode scratch buffers, reused across frames: the steady-state hot
    /// path allocates nothing (see [`BufferPool`]).
    pub(super) pool: BufferPool,
    /// Cross-shard inboxes, indexed by flat shard id
    /// (`worker * shards + task % shards`). Bounded: a full inbox
    /// backpressures the sender under the run's [`whale_net::SendPolicy`].
    pub(super) shard_inboxes: Vec<ShardInbox>,
    /// Pipeline threads per worker (`LiveConfig::shards`, clamped ≥ 1).
    pub(super) shards: u32,
    /// Which bolt tasks each pipeline owns, by component.
    pub(super) groups: LocalGroups,
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
    /// Deliveries targeting this shard skip the inbox and come back to
    /// the caller ([`Delivery::Own`]); threads without a pipeline (tests)
    /// always deliver through the inboxes.
    pub(super) static CURRENT_SHARD: Cell<Option<usize>> = const { Cell::new(None) };
    /// Same-shard deliveries made while the pipeline's bolts are borrowed
    /// (an operator emitting, a spout step, a bolt's EOS), looped back
    /// without touching any channel; the owning pipeline drains it after
    /// every operator step. A received entry is never queued here: its
    /// receiver runs it in place ([`Delivery::Own`]).
    pub(super) static LOCAL_QUEUE: RefCell<VecDeque<Entry<'static>>> =
        const { RefCell::new(VecDeque::new()) };
}

/// Queue the running pipeline's own entry, if a delivery left one, to run
/// when it drains [`LOCAL_QUEUE`] next.
pub(super) fn loop_back(own: Option<Entry<'static>>) {
    if let Some(entry) = own {
        LOCAL_QUEUE.with_borrow_mut(|q| q.push_back(entry));
    }
}

/// Where [`Routing::deliver`] left an executor message.
#[must_use]
pub(super) enum Delivery<'a> {
    /// Addressed to a task this run executes nothing on.
    Rejected,
    /// Handed to the pipeline that owns it (or lost to backpressure,
    /// counted).
    Handed,
    /// For the calling pipeline's own bolts: the caller runs it in place
    /// (a received record, still borrowed) or queues it with
    /// [`loop_back`] (an emission, made while those bolts are borrowed).
    Own(Entry<'a>),
}

impl Delivery<'static> {
    /// Queue an own entry with [`loop_back`]; returns whether the message
    /// was accepted.
    pub(super) fn loop_back(self) -> bool {
        match self {
            Delivery::Rejected => false,
            Delivery::Handed => true,
            Delivery::Own(entry) => {
                loop_back(Some(entry));
                true
            }
        }
    }
}

impl<'a> Delivery<'a> {
    /// `(rejected ids, own entry)` of a delivery to `n` listed ids.
    fn listed(self, n: usize) -> (u64, Option<Entry<'a>>) {
        match self {
            Delivery::Rejected => (n as u64, None),
            Delivery::Handed => (0, None),
            Delivery::Own(entry) => (0, Some(entry)),
        }
    }
}

impl Routing {
    /// The shard slice a task belongs to on its worker (stable map).
    pub(super) fn shard_of(&self, t: TaskId) -> u32 {
        t.0 % self.shards
    }

    /// The flat pipeline index of a task: `worker * shards + shard`.
    pub(super) fn flat_shard_of(&self, t: TaskId) -> usize {
        flat_shard(&self.placement, self.shards, t) as usize
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
            .map(ShardInbox::depth)
            .max()
            .unwrap_or(0)
    }

    /// Run `f` on a received data item as its tasks execute it. Over a
    /// shared payload (RDMA semantics) the item is a record borrowed from
    /// the receive buffer — a slice's frame from the slice's one buffer —
    /// built on the stack: no block, no buffer reference, nothing decoded
    /// until an executor touches it, and only what outlives `f` promoted
    /// ([`LazyTuple::into_owned`]). A copied payload (TCP semantics) does
    /// not outlive dispatch, so the tuple is materialized here, eagerly —
    /// which is also where a copied frame's bad UTF-8 still surfaces.
    pub(super) fn lazy_tuple<'p, R>(
        &self,
        payload: &'p Payload,
        view: &TupleView<'p>,
        f: impl FnOnce(LazyTuple<'_>) -> R,
    ) -> Result<R, DecodeError> {
        let buf = match payload {
            Payload::Shared(buf) => buf,
            Payload::Slice(slice) => slice.buffer(),
            Payload::Copied(_) => return view.to_tuple().map(|t| f(LazyTuple::from_tuple(t))),
        };
        Ok(f(WireRecord::new(buf, view).tuple()))
    }

    /// Deliver one executor message to the pipeline owning `dest`.
    /// A same-shard delivery is handed back to the caller
    /// ([`Delivery::Own`]: no channel, no lock, no queue); one from a
    /// step of the executor that steps the owner is handed over unbounded
    /// (that executor alone could drain a bounded inbox); everything else
    /// goes to the owning shard's bounded inbox under the send policy's
    /// backoff — a full inbox that never clears drops the message loudly
    /// (`send_failed`), mirroring fabric backpressure. Rejected only when
    /// `dest` is a task this run executes nothing on (the caller counts
    /// the drop when it came off the wire); backpressure loss and
    /// teardown races are handled here. Accepted deliveries of lazy wire
    /// views are counted here, one per destination task
    /// ([`Self::own_entry`]). Only an own entry keeps a borrowed record; a
    /// hand-off promotes it.
    pub(super) fn deliver<'a>(&self, dest: Dest, msg: ExecMsg<'a>) -> Delivery<'a> {
        let (row, n_tasks) = match dest {
            Dest::Task(t) => match self.groups.row_of(t) {
                Some(row) => (row, 1),
                None => return Delivery::Rejected,
            },
            Dest::Group(row) => (row, self.groups.tasks(row).len() as u64),
        };
        let flat = self.groups.pipeline_of(row);
        let Some(inbox) = self.shard_inboxes.get(flat) else {
            return Delivery::Rejected;
        };
        if CURRENT_SHARD.with(|c| c.get()) == Some(flat) {
            return Delivery::Own(self.own_entry(dest, n_tasks, msg));
        }
        let lazy = matches!(&msg, ExecMsg::Data(lazy, _) if lazy.is_wire());
        let sent = if inbox.waker.is_owned() {
            inbox.handed.push((dest, msg.into_owned()));
            Ok(())
        } else {
            let mut item = Some((dest, msg.into_owned()));
            let retries = self.stats.slot(Ctr::send_retries);
            self.config.send.run(retries, || {
                match inbox.tx.try_send(item.take().expect("re-armed on Full")) {
                    Ok(()) => Ok(()),
                    Err(TrySendError::Full(v)) => {
                        item = Some(v);
                        Err(SendError::Full)
                    }
                    Err(TrySendError::Disconnected(_)) => Err(SendError::Disconnected),
                }
            })
        };
        match sent {
            Ok(()) => {
                if lazy {
                    self.stats.add(Ctr::wire_tuples_lazy, n_tasks);
                }
                self.stats.add(Ctr::cross_shard_msgs, 1);
                inbox.waker.wake();
            }
            Err(SendError::Full) => {
                // Backpressure never cleared: the message is lost,
                // loudly (tracked tuples time out into replays).
                self.stats.add(Ctr::send_failed, 1);
            }
            // Teardown race: the owning pipeline already exited.
            Err(_) => {}
        }
        Delivery::Handed
    }

    /// The own entry's destination, and how many tasks it names, when
    /// the calling pipeline runs every task of `comp` on `worker`: what
    /// [`Self::deliver_to_component`] would hand back as the own entry,
    /// with nothing handed to another pipeline.
    pub(super) fn own_row(&self, worker: WorkerId, comp: ComponentId) -> Option<(Dest, u64)> {
        let mut rows = self.groups.rows_on(worker, comp);
        let row = rows.next()?;
        let own = CURRENT_SHARD.with(|c| c.get()) == Some(self.groups.pipeline_of(row));
        let tasks = self.groups.tasks(row).len() as u64;
        (own && rows.next().is_none()).then_some((Dest::Group(row), tasks))
    }

    /// Whether any pipeline of `worker` runs a bolt task of `comp`.
    pub(super) fn hosts(&self, worker: WorkerId, comp: ComponentId) -> bool {
        self.groups.rows_on(worker, comp).next().is_some()
    }

    /// Deliver `msg` to every bolt task of `comp` on `worker`: one entry
    /// per pipeline owning any (the cross-shard mirror of
    /// [`Self::pipelines_of`]), the last one taking `msg` itself. The
    /// calling pipeline's own entry comes back only after every other
    /// pipeline's hand-off, so whatever running it emits trails the
    /// message everywhere else. A borrowed record that more than one
    /// pipeline takes is promoted once, up front, and every entry —
    /// the own one too — shares that block.
    pub(super) fn deliver_to_component<'a>(
        &self,
        worker: WorkerId,
        comp: ComponentId,
        mut msg: ExecMsg<'a>,
    ) -> Option<Entry<'a>> {
        let mut rows = self.groups.rows_on(worker, comp).peekable();
        let mut row = rows.next()?;
        if rows.peek().is_some() {
            msg = msg.into_owned();
        }
        let mut own = None;
        for next in rows {
            if let Delivery::Own(entry) = self.deliver(Dest::Group(row), msg.clone()) {
                own = Some(entry);
            }
            row = next;
        }
        match self.deliver(Dest::Group(row), msg) {
            Delivery::Own(entry) => Some(entry),
            _ => own,
        }
    }

    /// The calling pipeline's own entry for `msg` to `dest`, which names
    /// `tasks` of its tasks, counted: one lazy wire delivery per task.
    pub(super) fn own_entry<'a>(&self, dest: Dest, tasks: u64, msg: ExecMsg<'a>) -> Entry<'a> {
        if matches!(&msg, ExecMsg::Data(t, _) if t.is_wire()) {
            self.stats.add(Ctr::wire_tuples_lazy, tasks);
        }
        (dest, msg)
    }

    /// Deliver `msg` to a destination list read off the wire, returning
    /// how many of its ids were rejected (see [`Self::deliver`]) and the
    /// calling pipeline's own entry. A list that is exactly one
    /// pipeline's tasks of one component — what [`Self::pipelines_of`]
    /// writes for a broadcast — is one entry; any other list is checked
    /// and delivered id by id, the record promoted once and its own
    /// entries queued ([`loop_back`]) for the caller's next drain.
    pub(super) fn deliver_listed<'a>(
        &self,
        dsts: &[TaskId],
        msg: ExecMsg<'a>,
    ) -> (u64, Option<Entry<'a>>) {
        match dsts {
            [] => (0, None),
            [dst] => self.deliver(Dest::Task(*dst), msg).listed(1),
            [first, ..] => {
                let row = self.groups.row_of(*first);
                if let Some(row) = row.filter(|&row| self.groups.tasks(row) == dsts) {
                    return self.deliver(Dest::Group(row), msg).listed(dsts.len());
                }
                let msg = msg.into_owned();
                let deliver = |&dst| self.deliver(Dest::Task(dst), msg.clone()).loop_back();
                (dsts.iter().filter(|dst| !deliver(dst)).count() as u64, None)
            }
        }
    }

    /// Send one item from `src` to routed destinations of every
    /// downstream edge: an emitted tuple, or a received one passed on as
    /// it arrived ([`Emitter::forward`]) — routed off its wire view, its
    /// bytes copied into every frame ([`LazyTuple::encode_into`]) and no
    /// serialization counted for it. `groupings` carries the per-task
    /// grouping state. A `tracked` id pre-registered with the acker is
    /// armed here: one anchor per destination, XOR'd into the ledger
    /// atomically after every destination is known (an empty destination
    /// set arms to zero and acks immediately). An item a grouping cannot
    /// route (missing key field, or a wire key whose deferred UTF-8 check
    /// fails) is dropped and counted, never a panic. A borrowed item is
    /// promoted only where a local delivery queues it, into one block
    /// every such delivery shares.
    pub(super) fn emit(
        &self,
        src: TaskId,
        groupings: &mut Groupings,
        item: &LazyTuple<'_>,
        tracked: Option<u64>,
    ) {
        let Groupings {
            edges,
            scratch,
            plan,
        } = groupings;
        let mut arm_xor = 0u64;
        for (comp, g) in edges.iter_mut() {
            if self.relayed(g.grouping()) {
                arm_xor ^= self.relay_broadcast(src, item, *comp, tracked);
            } else {
                match g.route_by(|i| item.key(i), None, scratch) {
                    Ok(()) => arm_xor ^= self.send_data(src, item, scratch, plan, tracked),
                    Err(_) => self.stats.add(Ctr::dropped_frames, 1),
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
    ///
    /// Whale's remote records join their destination pipelines' runs
    /// ([`Self::append_worker_records`]), the item encoded once. Storm's
    /// frames, one per destination task, are built one at a time in one
    /// pooled scratch and leave at once.
    fn send_data(
        &self,
        src: TaskId,
        item: &LazyTuple<'_>,
        dsts: &[TaskId],
        plan: &mut MessagePlan,
        tracked: Option<u64>,
    ) -> u64 {
        let mode = self.config.comm_mode;
        plan.fill(mode, src, item.wire_len(), dsts, &self.placement);
        let arm_xor = tracked.map_or(0, |tr| {
            let anchors = dsts.iter().map(|&t| anchor_for(tr, t));
            anchors.fold(0, |xor, anchor| xor ^ anchor)
        });
        // Local deliveries share the item's handle: no serialization
        // beyond what the mode charges. The owning pipeline may already
        // have exited after EOS; the delivery layer swallows that race.
        let data = || ExecMsg::Data(item.clone().into_owned(), tracked);
        match plan.local_tasks() {
            [] => {}
            [dst] => {
                self.deliver(Dest::Task(*dst), data()).loop_back();
            }
            // Only `Grouping::All` routes to more than one task, and it
            // routes to every task of the component.
            [dst, ..] => {
                let tasks = self.topology.tasks();
                let comp = tasks.component_of(*dst).expect("routed to a task");
                let worker = self.placement.worker_of(src);
                loop_back(self.deliver_to_component(worker, comp, data()));
            }
        }
        if !item.is_wire() {
            self.stats
                .add(Ctr::serializations, plan.serializations as u64);
        }
        if plan.remote().is_empty() {
            return arm_xor;
        }
        if mode == CommMode::WorkerOriented {
            self.append_worker_records(src, plan, item, tracked);
            return arm_xor;
        }
        let from = self.endpoint(self.placement.worker_of(src).0, self.shard_of(src));
        let mut scratch = self.pool.acquire();
        for env in plan.remote() {
            let tasks = plan.tasks_of(env);
            for (to, _) in self.pipelines_of(env.dst_worker, tasks) {
                // Storm serializes per destination, but without a deep
                // clone of the tuple: the shared item is encoded straight
                // into the frame.
                wire::encode_instance(&mut scratch, tracked, src, tasks[0], item);
                self.send_frame(&scratch, Some((to, tracked)), |frame| {
                    self.send_wire(from, to, frame)
                });
                scratch.clear();
            }
        }
        arm_xor
    }

    /// One frame per destination *pipeline*: each reads only its own
    /// endpoint, so `tasks` (all on `worker`) are split by owning shard —
    /// the endpoint and tasks of every shard that owns any.
    pub(super) fn pipelines_of<'a>(
        &'a self,
        worker: WorkerId,
        tasks: &'a [TaskId],
    ) -> impl Iterator<Item = (EndpointId, impl Iterator<Item = TaskId> + Clone + 'a)> + 'a {
        (0..self.shards).filter_map(move |shard| {
            let owns = move |t: &TaskId| self.shard_of(*t) == shard;
            let owned = tasks.iter().copied().filter(owns);
            let to = self.endpoint(worker.0, shard);
            owned.clone().next().map(|_| (to, owned))
        })
    }

    /// Encode one unlogged frame that is sent several times or to several
    /// endpoints (EOS, relay EOS, marker) into pooled scratch and hand it
    /// to `send` (see [`Self::send_frame`]).
    pub(super) fn with_frame<R>(
        &self,
        fill: impl FnOnce(&mut BytesMut),
        send: impl FnOnce(Wire<'_>) -> R,
    ) -> R {
        let mut scratch = self.pool.acquire();
        fill(&mut scratch);
        self.send_frame(&scratch, None, send)
    }

    /// Hand `frame`, encoded and counted elsewhere (a relay run), to `send`
    /// as a [`Wire`] that may be sent several times: zero-copy runs
    /// snapshot it once into a shared buffer every send refcounts, copied
    /// runs lend it and pay the TCP copy per send.
    pub(super) fn with_encoded<R>(&self, frame: &[u8], send: impl FnOnce(Wire<'_>) -> R) -> R {
        if self.config.zero_copy {
            send(Wire::Shared(&Arc::from(frame)))
        } else {
            send(Wire::Copied(frame))
        }
    }

    /// Hand the frame encoded in `scratch` to `send` as a [`Wire`]. `once`
    /// names the one endpoint (and the ledger key) of a data frame sent
    /// once. With a log configured, a frame the acker tracks is appended
    /// to that endpoint's partition log *before* the send (write-ahead),
    /// so a crash after the append can always be healed by replaying the
    /// log, and root dedup absorbs every replayed copy that already
    /// arrived. An untracked frame (a bolt's emission) is not logged: no
    /// root would let a replay of it be deduplicated, and no ledger
    /// watermark would ever collect it. Zero-copy runs lend a frame sent
    /// once to the fabric (the ring writes it into the destination's
    /// stream slice; the other transports take one shared buffer), and
    /// snapshot any other frame into a single shared buffer that every
    /// send and retry refcounts; copied runs lend the scratch itself and
    /// pay the TCP copy per send.
    /// Sending `frame` several times costs wire bytes but never a second
    /// encode.
    fn send_frame<R>(
        &self,
        scratch: &PooledBuf<'_>,
        once: Option<(EndpointId, Option<u64>)>,
        send: impl FnOnce(Wire<'_>) -> R,
    ) -> R {
        let frame = &scratch[..];
        self.stats.add(Ctr::frames_encoded, 1);
        if let (Some(log), Some((to, Some(tracked)))) = (&self.log, once) {
            log.append(to, tracked, frame);
        }
        match (self.config.zero_copy, once) {
            (true, Some(_)) => send(Wire::Lent(frame)),
            (true, None) => send(Wire::Shared(&scratch.share_from(0))),
            (false, _) => send(Wire::Copied(frame)),
        }
    }

    /// The one fabric send. Waits out transient backpressure under the
    /// run's [`SendPolicy`](whale_net::SendPolicy) (`Full` means posted
    /// descriptors outran the destination's passes, the bounded transfer
    /// queue of the paper's model — spin, yield, then park with
    /// exponential backoff up to the policy deadline); `Full` past the
    /// deadline fails the frame loudly, so a reader that stopped reading
    /// degrades the run instead of livelocking it. Teardown races (unknown or disconnected endpoints) are dropped
    /// here; the fabric counts them in `send_errors`. Returns whether the
    /// fabric accepted.
    pub(super) fn send_wire(&self, from: EndpointId, to: EndpointId, frame: Wire<'_>) -> bool {
        let retries = self.stats.slot(Ctr::send_retries);
        let sent = match frame {
            Wire::Shared(buf) => self.config.send.run(retries, || {
                self.fabric.send_shared(from, to, Arc::clone(buf))
            }),
            Wire::Lent(bytes) => self
                .config
                .send
                .run(retries, || self.fabric.send_lent(from, to, bytes)),
            Wire::Copied(bytes) => self
                .config
                .send
                .run(retries, || self.fabric.send_copied(from, to, bytes)),
        };
        if sent == Err(SendError::Full) {
            self.stats.add(Ctr::send_failed, 1);
        }
        sent.is_ok()
    }

    /// Broadcast end-of-stream from `src` to every subscriber of its
    /// component, across both local and remote paths, behind every record
    /// the step has sent so far: its runs leave first.
    pub(super) fn broadcast_eos(&self, src: TaskId) {
        self.send_runs();
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
        let from = self.endpoint(self.placement.worker_of(src).0, self.shard_of(src));
        for edge in self.topology.downstream_edges(comp) {
            if self.relayed(&edge.grouping) {
                self.relay_eos(src, edge.to, copies);
                continue;
            }
            let dsts = self.topology.tasks().tasks_of(edge.to);
            let mut plan = MessagePlan::default();
            plan.fill(CommMode::WorkerOriented, src, 0, &dsts, &self.placement);
            let worker = self.placement.worker_of(src);
            loop_back(self.deliver_to_component(worker, edge.to, ExecMsg::Eos(src)));
            for env in plan.remote() {
                for (to, owned) in self.pipelines_of(env.dst_worker, plan.tasks_of(env)) {
                    self.with_frame(
                        |buf| wire::encode_eos(buf, src, owned),
                        |frame| {
                            for _ in 0..copies {
                                self.send_wire(from, to, frame);
                            }
                        },
                    );
                }
            }
        }
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
            plan: MessagePlan::default(),
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

// Bolt emissions are untracked: the acker tracks spout roots to their
// first-hop subscribers (delivery tracking, not full tree tracking —
// replays re-enter at the spout).
impl Emitter for TaskEmitter<'_> {
    fn emit(&mut self, tuple: Tuple) {
        let item = LazyTuple::from_tuple(tuple);
        self.routing.emit(self.src, self.groupings, &item, None);
    }

    fn forward(&mut self, input: &LazyTuple<'_>) -> Result<(), DecodeError> {
        self.routing.emit(self.src, self.groupings, input, None);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::reliability::replay_endpoint;
    use super::super::testkit::*;
    use super::*;
    use crate::operator::LazyFnBolt;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;
    use std::time::Instant;
    use whale_net::{
        ClusterSpec, FaultPlan, LogConfig, OneSidedConfig, RingConfig, SendPolicy, TopologyConfig,
    };

    /// How the pass-through bolt of [`pass_through`] hands its input on.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum PassOn {
        Forward,
        Reemit,
    }

    /// Sink instances of [`pass_through`].
    const PASS_SINKS: u32 = 5;

    /// src → shuffle → 6 `pass` → `edge` → 5 `sink`: what the run
    /// reports, every sink delivery as `(instance, tuple)` sorted, and
    /// how many of the inputs `pass` forwarded were wire-backed.
    fn pass_through(
        on: PassOn,
        edge: Grouping,
        config: LiveConfig,
    ) -> (RunReport, Vec<(u32, Tuple)>, u64) {
        let fields = || Schema::new(vec!["n", "x", "key"]);
        let mut b = crate::topology::TopologyBuilder::new();
        b.spout("src", 1, fields())
            .bolt("pass", 6, fields())
            .bolt("sink", PASS_SINKS, fields())
            .connect("src", "pass", Grouping::Shuffle)
            .connect("pass", "sink", edge);
        let delivered: Arc<Mutex<Vec<(u32, Tuple)>>> = Arc::default();
        let forwarded_wire: Arc<AtomicU64> = Arc::default();
        let (sunk, wire) = (Arc::clone(&delivered), Arc::clone(&forwarded_wire));
        let ops = Operators::new()
            .spout("src", |_| {
                Box::new(IterSpout::new((1..=120i64).map(|i| {
                    let key = Value::str(format!("key-{}", i % 7).as_str());
                    Tuple::with_id(
                        i as u64,
                        vec![Value::I64(i), Value::F64(i as f64 / 3.0), key],
                    )
                })))
            })
            .bolt("pass", move |_| {
                let wire = Arc::clone(&wire);
                Box::new(LazyFnBolt::new(
                    move |t: &LazyTuple, out: &mut dyn Emitter| match on {
                        PassOn::Forward => {
                            wire.fetch_add(t.is_wire() as u64, Ordering::Relaxed);
                            out.forward(t).unwrap();
                        }
                        PassOn::Reemit => out.emit(t.materialize().unwrap().clone()),
                    },
                ))
            })
            .bolt("sink", move |idx| {
                let sunk = Arc::clone(&sunk);
                Box::new(FnBolt::new(move |t: &Tuple, _out: &mut dyn Emitter| {
                    sunk.lock().unwrap().push((idx, t.clone()));
                }))
            });
        let r = run_topology(b.build().unwrap(), ops, config);
        let mut delivered = std::mem::take(&mut *delivered.lock().unwrap());
        delivered.sort_by_key(|(idx, t)| (*idx, t.id));
        (r, delivered, forwarded_wire.load(Ordering::Relaxed))
    }

    #[test]
    fn forwarding_is_invisible_except_in_its_counters() {
        let fabrics = [
            FabricKind::PerSend,
            FabricKind::Ring(RingConfig::default()),
            FabricKind::OneSided(OneSidedConfig::default()),
        ];
        let modes = [
            (CommMode::WorkerOriented, true),
            (CommMode::InstanceOriented, true),
            // Storm's shape: copied frames are decoded at dispatch, so
            // every input arrives owned and is forwarded by sharing it.
            (CommMode::InstanceOriented, false),
        ];
        let edges = [
            ("fields", Grouping::Fields(2), false),
            ("all", Grouping::All, false),
            ("relayed", Grouping::All, true),
        ];
        for fabric in fabrics {
            for (comm_mode, zero_copy) in modes {
                for (edge_name, edge, relayed) in edges.clone() {
                    if relayed && comm_mode == CommMode::InstanceOriented {
                        continue;
                    }
                    for tracked in [false, true] {
                        let what = format!(
                            "{fabric:?} {comm_mode:?} zero_copy={zero_copy} {edge_name} tracked={tracked}"
                        );
                        // A relayed run cannot log; it tracks its links
                        // instead (the controller never ticks).
                        let topology = TopologyConfig {
                            racks: 2,
                            ..TopologyConfig::default()
                        };
                        let config = LiveConfig {
                            machines: 4,
                            comm_mode,
                            zero_copy,
                            fabric,
                            multicast_d_star: relayed.then_some(2),
                            multicast_adaptive: relayed.then(|| AdaptiveConfig {
                                interval: Duration::from_secs(600),
                                topology: Some(topology),
                                ..AdaptiveConfig::default()
                            }),
                            ack: tracked.then(|| AckConfig {
                                timeout: Duration::from_secs(20),
                                ..AckConfig::default()
                            }),
                            log: (tracked && !relayed).then(LogConfig::default),
                            ..LiveConfig::default()
                        };
                        let (fwd, fwd_sunk, wire_items) =
                            pass_through(PassOn::Forward, edge.clone(), config.clone());
                        let (re, re_sunk, _) = pass_through(PassOn::Reemit, edge.clone(), config);
                        assert_eq!(fwd.outcome, RunOutcome::Clean, "{what}");
                        assert_eq!(re.outcome, RunOutcome::Clean, "{what}");
                        assert_eq!(fwd_sunk, re_sunk, "{what}");
                        let fanout = if edge == Grouping::All { PASS_SINKS } else { 1 };
                        assert_eq!(fwd_sunk.len() as u32, 120 * fanout, "{what}");
                        // How many worker or relay records share a frame
                        // follows the schedule; what the frames carry does
                        // not. Storm's frames are one per record.
                        let storm = comm_mode == CommMode::InstanceOriented;
                        let messages = |r: &RunReport| storm.then_some(r.fabric_messages);
                        let frames = |r: &RunReport| {
                            (
                                (messages(r), r.shared_bytes, r.copied_bytes),
                                (r.frames_encoded, r.relay_forwards, r.relay_bytes),
                                (r.log_appended_records, r.log_appended_bytes),
                                r.link_bytes.clone(),
                                (r.executed.clone(), r.tuples_acked, r.dropped_frames),
                            )
                        };
                        assert_eq!(frames(&fwd), frames(&re), "{what}");
                        assert_eq!(relayed, !fwd.link_bytes.is_empty(), "{what}");
                        assert_eq!(tracked && !relayed, fwd.log_appended_bytes > 0, "{what}");
                        // Per forwarded wire item, the serializations its
                        // re-emission costs: one, or one per destination
                        // task of an instance-oriented broadcast.
                        let per_item = match comm_mode {
                            CommMode::InstanceOriented => fanout as u64,
                            CommMode::WorkerOriented => 1,
                        };
                        assert_eq!(
                            re.serializations - fwd.serializations,
                            wire_items * per_item,
                            "{what}"
                        );
                        assert_eq!(zero_copy, wire_items > 0, "{what}");
                        assert!(wire_items < 120, "{what}: some pass runs beside the spout");
                    }
                }
            }
        }
    }

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
        // hundreds of Storm frames, each built in pooled scratch (Whale's
        // records go into their step's runs instead); the pool must serve
        // almost all of them from reused buffers and every buffer must be
        // back after the run.
        for zero_copy in [true, false] {
            let r = run(CommMode::InstanceOriented, zero_copy, 4, 8);
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
    fn log_and_fabric_see_the_frames_a_separate_item_would_have_given() {
        // One broadcast tuple, sent directly to 1..=4 remote workers with
        // the write-ahead log on: every worker's frame — as the fabric
        // delivers it and, when the acker tracks it, as the log replays
        // it — is byte for byte the frame built around a separately
        // serialized item. An untracked frame is not logged, so its
        // endpoint's log replays nothing.
        let tuple = Tuple::with_id(9, vec![Value::I64(-3), Value::str("driver-42")]);
        let item = crate::codec::encode_tuple(&tuple);
        for remote in 1..=4u32 {
            for tracked in [None, Some((2u64 << 48) | 77)] {
                let machines = remote + 1;
                let (topology, _ops) = counting_topology(machines, 2 * machines + 1);
                let placement = Placement::even(&topology, &ClusterSpec::new(machines, 1, 16));
                let config = LiveConfig {
                    machines,
                    ..LiveConfig::default()
                };
                let routing = Routing {
                    groups: LocalGroups::new(&topology, &placement, 1),
                    topology,
                    placement,
                    log: Some(LogRuntime::new(
                        LogConfig::default(),
                        machines as usize,
                        Arc::default(),
                    )),
                    ..bare_routing(config, None)
                };
                let inboxes: Vec<_> = (0..machines)
                    .map(|w| routing.fabric.register(EndpointId(w)).unwrap())
                    .collect();
                let src = routing.topology.tasks_of("src")[0];
                let comp = routing.topology.tasks().component_of(src).unwrap();
                let mut groupings = Groupings::new(&routing.topology, src, comp);
                let owned = LazyTuple::from_tuple(tuple.clone());
                routing.emit(src, &mut groupings, &owned, tracked);
                for w in 1..machines {
                    let dsts: Vec<TaskId> = routing
                        .topology
                        .tasks_of("double")
                        .into_iter()
                        .filter(|&t| routing.placement.worker_of(t).0 == w)
                        .collect();
                    let expected = wire::worker_around_item(tracked, src, &dsts, &item);
                    let sent = inboxes[w as usize].try_recv().unwrap();
                    assert_eq!(sent.payload.bytes(), expected, "{remote} remote: {w}");
                    replay_endpoint(&routing, EndpointId(w));
                    let logged = inboxes[w as usize].try_recv();
                    match tracked {
                        Some(_) => {
                            let logged = logged.unwrap();
                            assert_eq!(logged.payload.bytes(), expected, "log of worker {w}");
                        }
                        None => {
                            assert!(logged.is_err(), "worker {w}: an untracked frame is logged")
                        }
                    }
                    assert!(inboxes[w as usize].try_recv().is_err(), "one frame each");
                }
                assert_eq!(routing.pool.high_watermark(), 0, "records go into runs");
            }
        }
    }

    #[test]
    fn a_refused_delivery_is_not_counted_as_a_lazy_delivery() {
        // A capacity-1 inbox nobody reads and a policy that gives up at
        // once: the first delivery is accepted, every later one refused.
        // Each attempt is in exactly one of the two counters.
        let (tx, _inbox_rx) = crossbeam::channel::bounded(1);
        let routing = Routing {
            shard_inboxes: vec![ShardInbox::new(tx, Arc::default())],
            ..bare_routing(
                LiveConfig {
                    machines: 2,
                    send: SendPolicy {
                        spin: 0,
                        yields: 0,
                        deadline: Duration::ZERO,
                    },
                    ..LiveConfig::default()
                },
                None,
            )
        };
        // Worker 0's pipeline owns two `double` tasks: one row, two
        // lazy deliveries per accepted entry.
        let groups = &routing.groups;
        let row = (routing.topology.tasks_of("double").into_iter())
            .find_map(|t| groups.row_of(t).filter(|&r| groups.pipeline_of(r) == 0))
            .expect("worker 0 hosts a bolt");
        let n_tasks = routing.groups.tasks(row).len() as u64;
        let item: Arc<[u8]> = Arc::from(&crate::codec::encode_tuple(&Tuple::new(vec![]))[..]);
        const ATTEMPTS: u64 = 5;
        for _ in 0..ATTEMPTS {
            let lazy = LazyTuple::from_wire(Arc::clone(&item), 0).unwrap();
            let handed = routing.deliver(Dest::Group(row), ExecMsg::Data(lazy, None));
            assert!(matches!(handed, Delivery::Handed));
        }
        let stats = &routing.stats;
        let lazy = stats.get(Ctr::wire_tuples_lazy);
        let failed = stats.get(Ctr::send_failed);
        assert_eq!(lazy / n_tasks + failed, ATTEMPTS, "every attempt, once");
        assert_eq!((lazy, failed), (n_tasks, ATTEMPTS - 1));
        assert_eq!(stats.get(Ctr::cross_shard_msgs), 1);
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
