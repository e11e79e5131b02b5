//! The shard-owned pipeline: the whole receive → route → execute → send
//! path for its slice of tasks — spout stepping, frame dispatch, bolt
//! execution — as a [`ShardPipeline::step`] its executor calls, with no
//! central dispatcher.

use super::config::{LiveConfig, Operators};
use super::relay::RelayLocal;
use super::reliability::{anchor_for, AckRuntime, Admit, DedupWindow};
use super::report::{Ctr, RunReport, RunStats};
use super::runs::StepRuns;
use super::send::{
    Dest, Entry, ExecMsg, Groupings, Routing, TaskEmitter, CURRENT_SHARD, LOCAL_QUEUE,
};
use super::wire::{self, FrameView};
use crate::acker::Expired;
use crate::codec::{self, LazyTuple, TupleView, WireSpare};
use crate::operator::{Bolt, Spout};
use crate::task::{ComponentId, TaskId};
use crate::topology::Topology;
use crate::tuple::Tuple;
use crossbeam::channel::{Receiver, Sender};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};
use whale_net::{IdHashSet, TryRecvError};

/// Where one spout is in its lifecycle. The drain phase (tracked runs
/// only) is a cooperative state machine, not a blocking loop: the owning
/// pipeline interleaves drain passes with frame dispatch and bolt work,
/// so a draining spout never starves the pipelines sharing its executor.
enum SpoutPhase {
    /// Still producing tuples.
    Emitting,
    /// Emissions exhausted; waiting out in-flight tracked trees,
    /// replaying expired ones, until `deadline`. `next_poll` rate-limits
    /// the acker polls to the configured interval.
    Draining {
        deadline: Instant,
        next_poll: Instant,
    },
    /// EOS broadcast; nothing left to do.
    Done,
}

/// One spout task owned by a shard pipeline. What it has in flight lives
/// in the ledger, in the slots it owns.
struct SpoutState {
    task: TaskId,
    spout: Box<dyn Spout>,
    groupings: Groupings,
    phase: SpoutPhase,
    /// `next_tuple` calls the next step makes: 1 to [`PIPELINE_BATCH`],
    /// doubling while calls return promptly ([`spout_step`]).
    batch: usize,
    /// Steps left at a batch of 1 after a slow call.
    hold: u32,
}

impl SpoutState {
    /// Give up on everything still in flight: late acks are rejected from
    /// here on, each root counts as failed exactly once, and the ledger's
    /// watermark releases its log records.
    fn fail_pending(&mut self, ack: &AckRuntime, stats: &RunStats) {
        let given_up = ack.acker.lock().fail_owned(self.task.0);
        stats.add(Ctr::tuples_failed, given_up);
    }

    /// Emit one tuple the spout produced; on a tracked run, under a fresh
    /// root. Returns the tracked id.
    fn emit(&mut self, routing: &Routing, t: Tuple) -> Option<u64> {
        let stats = &routing.stats;
        stats.add(Ctr::spout_emitted, 1);
        stats.delivery.on_emit(t.id);
        let t = Arc::new(t);
        let tracked = routing.ack.as_ref().map(|ack| {
            // Registered before emitting: an executor's ack can land
            // before the routing layer arms the ledger, and XOR
            // order-independence keeps that race benign — but only if
            // the slot already exists. The slot shares the tuple with
            // the routing layer; a replay re-emits it.
            let now = ack.now();
            ack.acker.lock().track(self.task.0, Arc::clone(&t), now)
        });
        routing.emit(
            self.task,
            &mut self.groupings,
            &LazyTuple::from_arc(t),
            tracked,
        );
        tracked
    }

    /// Broadcast EOS and retire the spout.
    fn finish(&mut self, routing: &Routing) {
        routing.broadcast_eos(self.task);
        self.phase = SpoutPhase::Done;
    }
}

/// A `next_tuple` call slower than this is taken for a spout that
/// blocks (sleeps until its next tuple is due, waits on a source): its
/// step ends there, and the next [`SLOW_HOLD_STEPS`] make one call each.
const SLOW_CALL: Duration = Duration::from_micros(40);
/// Steps a spout stays at a batch of 1 after a slow call.
const SLOW_HOLD_STEPS: u32 = 64;

/// Advance one spout by one step: emit an adaptive batch of tuples, or
/// run one drain pass. Returns whether the step made progress.
///
/// A spout may block in `next_tuple`; every pipeline on its executor
/// waits that long. So a batch starts at one call and doubles each step,
/// up to [`PIPELINE_BATCH`], while calls return promptly; a call slower
/// than [`SLOW_CALL`] ends the step and pins the batch at one for
/// [`SLOW_HOLD_STEPS`] steps. Below the cap every call is timed; at the
/// cap only a step's first is (a clock read pair per step, not per
/// call). A panicking `next_tuple` poisons the spout: its pending tuples
/// are failed loudly and EOS still departs so downstream drains.
/// `drain` runs what each emitted tuple caused on the spout's own
/// pipeline before the next call, as it would if the spout were asked
/// once per step.
fn spout_step(state: &mut SpoutState, routing: &Routing, drain: &mut dyn FnMut()) -> bool {
    let stats = &routing.stats;
    match state.phase {
        SpoutPhase::Done => false,
        SpoutPhase::Emitting => {
            let batch = state.batch;
            for call in 0..batch {
                let timed = (batch < PIPELINE_BATCH || call == 0).then(Instant::now);
                let next = catch_unwind(AssertUnwindSafe(|| state.spout.next_tuple()));
                let slow = timed.is_some_and(|at| at.elapsed() > SLOW_CALL);
                let Ok(next) = next else {
                    stats.add(Ctr::thread_panics, 1);
                    if let Some(ack) = routing.ack.as_ref() {
                        state.fail_pending(ack, stats);
                    }
                    state.finish(routing);
                    return true;
                };
                let Some(t) = next else {
                    match routing.ack.as_ref() {
                        Some(ack) => {
                            let now = Instant::now();
                            state.phase = SpoutPhase::Draining {
                                deadline: now + ack.config.drain_deadline,
                                next_poll: now,
                            };
                        }
                        None => state.finish(routing),
                    }
                    return true;
                };
                state.emit(routing, t);
                drain();
                if slow {
                    (state.batch, state.hold) = (1, SLOW_HOLD_STEPS);
                    return true;
                }
            }
            if state.hold > 0 {
                state.hold -= 1;
            } else {
                state.batch = (batch * 2).min(PIPELINE_BATCH);
            }
            true
        }
        SpoutPhase::Draining {
            deadline,
            next_poll,
        } => {
            let now = Instant::now();
            if now < next_poll {
                return false;
            }
            let ack = routing.ack.as_ref().expect("draining implies tracking");
            // One drain pass: replay this spout's expired trees (fresh
            // ledger key, stable root for sink dedup) or give up on them.
            let mut expired = Vec::new();
            let owner = state.task.0;
            let mut in_flight = ack
                .acker
                .lock()
                .expire_owned(owner, ack.now(), &mut expired);
            let mut replayed = false;
            for Expired {
                root,
                attempt,
                tuple,
            } in expired
            {
                if attempt >= ack.config.max_replays {
                    // A failed root is resolved: the watermark moves past
                    // it and its log records will never be needed again.
                    ack.acker.lock().give_up(root);
                    stats.add(Ctr::tuples_failed, 1);
                    in_flight -= 1;
                    continue;
                }
                let rearmed = ack.acker.lock().replay(root, ack.now());
                let tracked = rearmed.expect("expired a moment ago, by this spout");
                stats.add(Ctr::tuples_replayed, 1);
                replayed = true;
                let item = LazyTuple::from_arc(tuple);
                routing.emit(state.task, &mut state.groupings, &item, Some(tracked));
            }
            if in_flight == 0 {
                state.finish(routing);
                return true;
            }
            if now >= deadline {
                state.fail_pending(ack, stats);
                state.finish(routing);
                return true;
            }
            state.phase = SpoutPhase::Draining {
                deadline,
                next_poll: now + ACK_POLL_INTERVAL,
            };
            replayed
        }
    }
}

/// What a pipeline reuses from one received frame to the next, so the
/// steady-state dispatch path allocates nothing.
#[derive(Default)]
pub(super) struct RecvScratch {
    /// Destination ids of a worker frame or EOS.
    dsts: Vec<TaskId>,
    /// The wire handle of the last batch executed, when it came back
    /// unique (no bolt kept a clone, it did not cross to another shard),
    /// holding its frame's buffer until that frame is done.
    spare: WireSpare,
}

/// Parse and dispatch one fabric frame received by `worker`'s pipeline,
/// and run everything it causes on `bolts` (the pipeline's own).
/// Framing is validated once per record (views, nothing materialized);
/// a data item is handed on as one shared [`LazyTuple`] per destination
/// pipeline, built in `scratch`. A frame that is
/// truncated, fails to validate or carries an unknown kind is dropped and
/// counted (`dropped_frames`), and so is every destination id this run
/// executes nothing on — a bad peer must not crash the worker. A received
/// record runs where it lands: after its hand-offs to the worker's other
/// pipelines, its entry for this pipeline runs on `bolts` at once
/// ([`run_in_place`]), and what that caused here with it, before the next
/// record is anchored — in the block, and on the buffer reference, the
/// one before it gave back, which the frame lets go of when it is done.
/// At the first record that does not frame, the rest of the frame is
/// dropped and counted once.
pub(super) fn on_frame(
    worker: u32,
    msg: &whale_net::LiveMessage,
    routing: &Routing,
    scratch: &mut RecvScratch,
    bolts: &mut [BoltState],
) {
    let RecvScratch { dsts, spare } = scratch;
    let dropped = |n: u64| {
        if n > 0 {
            routing.stats.add(Ctr::dropped_frames, n);
        }
    };
    // Hand one received data item to `dsts` as a view over the shared
    // receive buffer; returns this pipeline's entry.
    let deliver_data = |spare: &mut WireSpare, item: &TupleView<'_>, tracked, dsts: &[TaskId]| {
        let Ok(lazy) = routing.lazy_tuple(&msg.payload, item, spare) else {
            dropped(1);
            return None;
        };
        let (rejected, own) = routing.deliver_listed(dsts, ExecMsg::Data(lazy, tracked));
        dropped(rejected);
        own
    };
    match wire::parse(msg.payload.bytes()) {
        Ok(FrameView::Instance(tracked, m)) => {
            let own = deliver_data(spare, m.tuple(), tracked, &[m.dst()]);
            run_in_place(bolts, spare, own, routing);
        }
        Ok(FrameView::Worker(run)) => {
            for record in run.records() {
                let Ok((tracked, m)) = record else {
                    dropped(1);
                    break;
                };
                codec::dispatch_worker_message_into(&m, dsts);
                let own = deliver_data(spare, m.tuple(), tracked, dsts);
                run_in_place(bolts, spare, own, routing);
            }
        }
        Ok(FrameView::Eos { src, dsts: listed }) => {
            dsts.clear();
            dsts.extend(listed);
            let (rejected, own) = routing.deliver_listed(dsts, ExecMsg::Eos(src));
            dropped(rejected);
            run_in_place(bolts, spare, own, routing);
        }
        // The received payload is handed along untouched so forwards
        // reuse its bytes.
        Ok(FrameView::Relay(run)) => {
            let mut run_own = |spare: &mut WireSpare, own: Option<Entry>| {
                run_in_place(bolts, spare, own, routing);
            };
            routing.on_relay_frame(worker, run, &msg.payload, spare, &mut run_own)
        }
        Ok(FrameView::RelayEos(eos)) => {
            let own = routing.on_relay_eos(worker, eos, &msg.payload);
            run_in_place(bolts, spare, own, routing);
        }
        Ok(FrameView::RelayMarker(marker)) => routing.on_relay_marker(worker, marker, &msg.payload),
        Err(_) => dropped(1),
    }
    spare.release();
}

/// One bolt task owned by a shard pipeline.
pub(super) struct BoltState {
    task: TaskId,
    comp: ComponentId,
    bolt: Box<dyn Bolt>,
    groupings: Groupings,
    eos_seen: IdHashSet<TaskId>,
    expected_eos: usize,
    /// What this task has acked and executed of the ledger's live roots
    /// (a duplicated frame must not ack the ledger twice; replays and
    /// duplicates are acked but not re-executed).
    dedup: DedupWindow,
    /// A panicking `execute`/`finish` poisons the task: later tuples are
    /// dropped unprocessed and unacked (they time out into replays on
    /// tracked runs), but EOS still departs so downstream drains.
    poisoned: bool,
    done: bool,
}

/// Process one queue entry for the bolts it names (all of one
/// component): one after the other against the one message, with the
/// shared bookkeeping — run counters, the acker, the latency probes —
/// touched once per batch. The executed tuple's handle goes to `spare`.
fn run_batch(bolts: &mut [BoltState], msg: ExecMsg, routing: &Routing, spare: &mut WireSpare) {
    match msg {
        ExecMsg::Data(t, tracked) => {
            execute_batch(bolts, &t, tracked, routing);
            spare.reclaim(t);
        }
        ExecMsg::Eos(src) => {
            for state in bolts.iter_mut().filter(|b| !b.done) {
                state.eos_seen.insert(src);
                if state.eos_seen.len() >= state.expected_eos {
                    finish_bolt(state, routing);
                }
            }
        }
    }
}

fn execute_batch(bolts: &mut [BoltState], t: &LazyTuple, tracked: Option<u64>, routing: &Routing) {
    let stats = &routing.stats;
    let Some(comp) = bolts.first().map(|b| b.comp) else {
        return;
    };
    // The ledger's live roots, read once for the batch.
    let ack = tracked.zip(routing.ack.as_ref());
    let ack = ack.map(|(tracked, ack)| (tracked, ack, ack.gauges.live_roots()));
    let was_materialized = t.is_materialized();
    // A sampled delivery is timed to the start of the batch that executes
    // it: one clock read per sampled batch.
    let latency_ns = stats.delivery.latency(t.id());
    let (mut executed, mut duplicates) = (0u64, 0u64);
    // The batch's acks, folded: XOR is what the ledger does with them.
    let mut ack_xor = None;
    for state in bolts.iter_mut().filter(|b| !b.done && !b.poisoned) {
        if let Some((tracked, _, live)) = &ack {
            let (tracked, admit) = (*tracked, state.dedup.admit(*tracked, live, stats));
            if matches!(admit, Admit::Execute | Admit::Duplicate { ack: true }) {
                // The anchor is derived, not carried: the same pure
                // function the sender armed the ledger with.
                *ack_xor.get_or_insert(0) ^= anchor_for(tracked, state.task);
            }
            if admit != Admit::Execute {
                duplicates += 1;
                continue;
            }
        }
        executed += 1;
        let mut emitter = TaskEmitter {
            routing,
            src: state.task,
            groupings: &mut state.groupings,
        };
        let bolt = &mut state.bolt;
        match catch_unwind(AssertUnwindSafe(|| bolt.execute_lazy(t, &mut emitter))) {
            Err(_) => {
                state.poisoned = true;
                stats.add(Ctr::thread_panics, 1);
            }
            // Corrupt wire bytes (deferred UTF-8 validation failed):
            // drop the tuple, keep the task healthy.
            Ok(Err(_)) => stats.add(Ctr::dropped_frames, 1),
            Ok(Ok(())) => {}
        }
    }
    if let Some((tracked, ack, _)) = ack {
        if let Some(xor) = ack_xor {
            ack.acker.lock().ack(tracked, xor);
        }
        if duplicates > 0 {
            stats.add(Ctr::dedup_dropped, duplicates);
        }
    }
    if executed > 0 {
        stats.add_executed(comp.0 as usize, executed);
    }
    if let Some(ns) = latency_ns {
        stats.delivery.record(ns, executed);
    }
    if !was_materialized && t.is_materialized() {
        stats.add(Ctr::tuples_materialized, 1);
    }
}

/// Close out a bolt: run its `finish` hook (skipped for poisoned tasks —
/// a panicking operator gets no second invocation) and broadcast EOS.
fn finish_bolt(state: &mut BoltState, routing: &Routing) {
    let stats = &routing.stats;
    if state.done {
        return;
    }
    state.done = true;
    if !state.poisoned {
        let mut emitter = TaskEmitter {
            routing,
            src: state.task,
            groupings: &mut state.groupings,
        };
        let bolt = &mut state.bolt;
        if catch_unwind(AssertUnwindSafe(|| bolt.finish(&mut emitter))).is_err() {
            state.poisoned = true;
            stats.add(Ctr::thread_panics, 1);
        }
    }
    routing.broadcast_eos(state.task);
}

/// Gap between a draining spout's passes over its expired trees, and
/// the longest an idle pipeline waits while a relayed EOS waits on a
/// tree flush.
const ACK_POLL_INTERVAL: Duration = Duration::from_millis(1);
/// The most `next_tuple` calls a spout makes in one step before the
/// pipeline hands its executor on (keeps a saturating spout from starving
/// the pipelines it feeds).
pub(super) const PIPELINE_BATCH: usize = 128;

/// What one [`ShardPipeline::step`] did.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum Step {
    /// Some work: step again.
    Progressed,
    /// Nothing to do until a hand-off wakes its executor or
    /// [`ShardPipeline::wake_at`] falls due.
    Idle,
    /// Its tasks are complete and its endpoint closed: never step again.
    Exited,
}

/// One shard-owned pipeline: the whole hot path for its slice of tasks —
/// fabric reader, routing (each task's grouping state), execution, and
/// sink — stepped by one executor, with no central dispatcher. See the
/// module docs.
pub(super) struct ShardPipeline {
    /// Flat shard id (`worker * shards + shard`) — also the fabric
    /// endpoint this pipeline reads.
    pub(super) flat: usize,
    worker: u32,
    fabric_rx: whale_net::Inbox,
    inbox_rx: Receiver<Entry>,
    /// What steps of its own executor handed it, taken in one swap.
    handed: VecDeque<Entry>,
    spouts: Vec<SpoutState>,
    /// Ascending by task id, so one component's bolts — a
    /// [`LocalGroups`](super::send::LocalGroups) row — are one slice.
    bolts: Vec<BoltState>,
    /// Signals the run driver once every owned task has completed (the
    /// pipeline keeps relaying/draining frames until the fabric closes).
    done_tx: Sender<()>,
    /// Whether it has.
    signaled: bool,
    /// Whether its endpoint has not yet been seen closed.
    fabric_open: bool,
    /// [`LiveConfig::run_deadline`] from the pipeline's start, until it
    /// fires or the tasks complete.
    deadline: Option<Instant>,
    /// Whether the last step left a relayed EOS waiting on a flush.
    eos_waiting: bool,
    scratch: RecvScratch,
    /// What the thread running the pipeline holds for it while it runs:
    /// its relay state, and the runs its step has not sent yet.
    relay: RelayLocal,
    runs: StepRuns,
}

impl ShardPipeline {
    /// An empty pipeline reading fabric endpoint `flat` on `worker`.
    pub(super) fn new(
        flat: usize,
        worker: u32,
        fabric_rx: whale_net::Inbox,
        inbox_rx: Receiver<Entry>,
        done_tx: Sender<()>,
    ) -> Self {
        ShardPipeline {
            flat,
            worker,
            fabric_rx,
            inbox_rx,
            handed: VecDeque::new(),
            spouts: Vec::new(),
            bolts: Vec::new(),
            done_tx,
            signaled: false,
            fabric_open: true,
            deadline: None,
            eos_waiting: false,
            scratch: RecvScratch::default(),
            relay: RelayLocal::default(),
            runs: StepRuns::default(),
        }
    }

    pub(super) fn add_spout(&mut self, task: TaskId, spout: Box<dyn Spout>, groupings: Groupings) {
        self.spouts.push(SpoutState {
            task,
            spout,
            groupings,
            phase: SpoutPhase::Emitting,
            batch: 1,
            hold: 0,
        });
    }

    /// `expected_eos` is the number of upstream tasks whose EOS the bolt
    /// waits for before finishing. Bolts are added in task-id order.
    pub(super) fn add_bolt(
        &mut self,
        task: TaskId,
        comp: ComponentId,
        bolt: Box<dyn Bolt>,
        groupings: Groupings,
        expected_eos: usize,
    ) {
        let state = BoltState {
            task,
            comp,
            bolt,
            groupings,
            eos_seen: IdHashSet::default(),
            expected_eos,
            dedup: DedupWindow::default(),
            poisoned: false,
            done: false,
        };
        let ascending = self.bolts.last().is_none_or(|last| last.task < task);
        assert!(ascending, "bolts are added in task-id order");
        self.bolts.push(state);
    }

    /// Run `f` as this pipeline on the calling thread: its shard, its
    /// relay state and its runs are the thread's for `f` and everything
    /// `f` causes locally, and are swapped back out after — its runs sent
    /// first, while it still holds the relay run's generation. The one way
    /// a pipeline's code runs, on its executor and in [`PipelineHarness`]
    /// alike.
    pub(super) fn within<R>(
        &mut self,
        routing: &Routing,
        f: impl FnOnce(&mut Self, &Routing) -> R,
    ) -> R {
        CURRENT_SHARD.with(|c| c.set(Some(self.flat)));
        self.relay.enter();
        self.runs.enter();
        let result = f(self, routing);
        self.drain_local(routing);
        // Entries from other pipelines' frames kept their buffers.
        self.scratch.spare.release();
        debug_assert!(
            LOCAL_QUEUE.with_borrow(|q| q.is_empty()),
            "a pipeline leaves nothing in the loopback queue"
        );
        routing.send_runs();
        self.runs.leave();
        self.relay.leave();
        CURRENT_SHARD.with(|c| c.set(None));
        result
    }

    /// Put the thread back after a step [`within`](Self::within) this
    /// pipeline unwound, and report it done: it will not step again, and
    /// what it left in the loopback queue and its unsent runs are lost
    /// with it.
    pub(super) fn unwound(&mut self) {
        LOCAL_QUEUE.with_borrow_mut(VecDeque::clear);
        self.runs.leave();
        self.runs.discard();
        self.relay.leave();
        CURRENT_SHARD.with(|c| c.set(None));
        self.report_done();
    }

    /// What a pipeline does once, before its first step: arm the run
    /// deadline and close out the bolts no upstream feeds (they can never
    /// receive EOS, and would hang the run).
    pub(super) fn start(&mut self, routing: &Routing) {
        self.deadline = routing.config.run_deadline.map(|d| Instant::now() + d);
        for b in &mut self.bolts {
            if b.expected_eos == 0 {
                finish_bolt(b, routing);
            }
        }
    }

    /// One pass of the pipeline's work, [`within`](Self::within) it: every
    /// frame its endpoint and every entry its cross-shard inbox held when
    /// the step began (sent, or handed over by its executor's other
    /// steps), one step of each spout, and everything those caused
    /// locally.
    pub(super) fn step(&mut self, routing: &Routing) -> Step {
        let mut progress = false;
        if let Some(relay) = &routing.relay {
            relay.revalidate_held();
        }
        // A queue's depth is one load; only what it counts is received,
        // so an empty queue is never probed and no failing receive ends a
        // slice. (A counted send may still be in flight: `Empty` ends the
        // slice early.) On a buffered transport the fabric endpoint's `len`
        // first runs its own pass, so a busy pipeline drains its ring or
        // links once per step. All of what is counted, as for the inbox
        // below: a producer on this executor adds to it only between this
        // pipeline's steps, so what one round brings the next one takes,
        // and no backlog builds up round by round.
        for _ in 0..self.fabric_rx.len() {
            match self.fabric_rx.try_recv() {
                Ok(msg) => {
                    on_frame(
                        self.worker,
                        &msg,
                        routing,
                        &mut self.scratch,
                        &mut self.bolts,
                    );
                    progress = true;
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    self.fabric_open = false;
                    break;
                }
            }
        }
        for _ in 0..self.inbox_rx.len() {
            match self.inbox_rx.try_recv() {
                Ok(entry) => {
                    exec_entry(&mut self.bolts, &mut self.scratch.spare, entry, routing);
                    progress = true;
                    self.drain_local(routing);
                }
                Err(_) => break,
            }
        }
        let inbox = routing.shard_inboxes.get(self.flat);
        if inbox.is_some_and(|inbox| inbox.take_handed(&mut self.handed)) {
            while let Some(entry) = self.handed.pop_front() {
                exec_entry(&mut self.bolts, &mut self.scratch.spare, entry, routing);
                progress = true;
                self.drain_local(routing);
            }
        }
        let (bolts, spare) = (&mut self.bolts, &mut self.scratch.spare);
        for spout in &mut self.spouts {
            let mut drain = || {
                drain_loopback(bolts, spare, routing);
            };
            if spout_step(spout, routing, &mut drain) {
                progress = true;
            }
        }
        if self.drain_local(routing) {
            progress = true;
        }
        self.eos_waiting = routing.relay.is_some() && routing.send_waiting_eos();
        let all_done = self
            .spouts
            .iter()
            .all(|s| matches!(s.phase, SpoutPhase::Done))
            && self.bolts.iter().all(|b| b.done)
            && !self.eos_waiting;
        if all_done {
            self.report_done();
            self.deadline = None;
            if !progress && self.fabric_open {
                // Nothing counted: a closed endpoint is learnt here.
                match self.fabric_rx.try_recv() {
                    Ok(msg) => {
                        on_frame(
                            self.worker,
                            &msg,
                            routing,
                            &mut self.scratch,
                            &mut self.bolts,
                        );
                        return Step::Progressed;
                    }
                    Err(TryRecvError::Disconnected) => self.fabric_open = false,
                    Err(TryRecvError::Empty) => {}
                }
            }
            if !self.fabric_open {
                return Step::Exited;
            }
        }
        if progress {
            return Step::Progressed;
        }
        // Liveness backstop, checked on idle steps only (queued traffic
        // is processed first): a lost EOS degrades the run but never
        // hangs it. Finishing still broadcasts this task's own EOS so
        // downstream can drain.
        if self.deadline.is_some_and(|at| Instant::now() >= at) {
            for b in &mut self.bolts {
                if !b.done {
                    routing.stats.add(Ctr::deadline_exits, 1);
                    finish_bolt(b, routing);
                }
            }
            // Fired: every bolt is finished, nothing left to reap.
            self.deadline = None;
            return Step::Progressed;
        }
        Step::Idle
    }

    /// Tell the run driver this pipeline's tasks are complete, once.
    pub(super) fn report_done(&mut self) {
        if !std::mem::replace(&mut self.signaled, true) {
            let _ = self.done_tx.send(());
        }
    }

    /// When an idle pipeline next needs a step with nothing arriving: its
    /// endpoint's next pass (a WTL deadline), a draining spout's next
    /// acker poll, a relayed EOS's next retry, or the run deadline. `None`:
    /// only a hand-off can give it work.
    pub(super) fn wake_at(&self, now: Instant) -> Option<Instant> {
        let polls = self.spouts.iter().filter_map(|s| match s.phase {
            SpoutPhase::Draining { next_poll, .. } => Some(next_poll),
            _ => None,
        });
        let pass = self.fabric_rx.next_pass().map(|due| now + due);
        let eos = self.eos_waiting.then(|| now + ACK_POLL_INTERVAL);
        polls.chain(pass).chain(eos).chain(self.deadline).min()
    }

    /// Let go of the relay generation the pipeline holds: its executor is
    /// about to park.
    pub(super) fn release_relay(&mut self) {
        self.relay.release();
    }

    /// [`drain_loopback`] into this pipeline's bolts.
    fn drain_local(&mut self, routing: &Routing) -> bool {
        drain_loopback(&mut self.bolts, &mut self.scratch.spare, routing)
    }
}

/// Run one queue entry on the bolts of `bolts` (a pipeline's, ascending)
/// it names. Entries for tasks the pipeline does not own (a stale frame
/// for a completed run) are ignored.
fn exec_entry(
    bolts: &mut [BoltState],
    spare: &mut WireSpare,
    (dest, msg): Entry,
    routing: &Routing,
) {
    let (first, n) = match dest {
        Dest::Task(t) => (Some(t), 1),
        Dest::Group(row) => {
            let tasks = routing.groups.tasks(row);
            (tasks.first().copied(), tasks.len())
        }
    };
    let at = first.and_then(|t| bolts.binary_search_by_key(&t, |b| b.task).ok());
    if let Some(bolts) = at.and_then(|i| bolts.get_mut(i..i + n)) {
        run_batch(bolts, msg, routing, spare);
    }
}

/// Run a received entry that landed on this pipeline (if one did) on
/// `bolts` at once, then drain what its execution caused here. The emit
/// path cannot: it runs inside an execution, with the bolts borrowed, and
/// queues its own entries ([`LOCAL_QUEUE`]) instead.
fn run_in_place(
    bolts: &mut [BoltState],
    spare: &mut WireSpare,
    own: Option<Entry>,
    routing: &Routing,
) {
    if let Some(entry) = own {
        exec_entry(bolts, spare, entry, routing);
    }
    drain_loopback(bolts, spare, routing);
}

/// Drain the thread-local same-shard loopback queue into `bolts`.
/// Executions may push more (a bolt emitting to a same-shard successor),
/// so this loops until the queue is genuinely empty.
fn drain_loopback(bolts: &mut [BoltState], spare: &mut WireSpare, routing: &Routing) -> bool {
    let mut any = false;
    while let Some(entry) = LOCAL_QUEUE.with_borrow_mut(|q| q.pop_front()) {
        exec_entry(bolts, spare, entry, routing);
        any = true;
    }
    any
}

/// One worker's shard-0 pipeline with no executor behind it, driven frame
/// by frame on the caller's thread: the real receive path — parse, relay
/// admission, forwarding, local delivery, batch execution — for benches
/// and tests that need it without a run around it. The other pipelines'
/// endpoints exist and accept what this one sends them; nothing reads
/// them but [`Self::take_sent`].
#[doc(hidden)]
pub struct PipelineHarness {
    routing: Routing,
    pipeline: ShardPipeline,
    peers: Vec<ShardPipeline>,
}

impl PipelineHarness {
    /// Set `topology` up as [`run_topology`](super::run_topology) would
    /// over a per-send fabric and drive `worker`'s first pipeline.
    ///
    /// # Panics
    /// If `config` cannot run `topology` with `operators`.
    pub fn new(topology: Topology, operators: &Operators, config: LiveConfig, worker: u32) -> Self {
        let valid = config.validate(&topology, operators);
        valid.expect("a configuration that runs");
        let fabric = Arc::new(whale_net::LiveFabric::new());
        let (done_tx, _) = crossbeam::channel::unbounded();
        let (routing, mut peers, _) =
            super::wire_up(topology, config, fabric, None, Some(1), &done_tx);
        super::populate(&routing, operators, &mut peers);
        let pipeline = peers.swap_remove((worker * routing.shards) as usize);
        PipelineHarness {
            routing,
            pipeline,
            peers,
        }
    }

    /// Run `f` with this thread standing in for the pipeline's executor.
    fn as_pipeline<R>(&mut self, f: impl FnOnce(&mut ShardPipeline, &Routing) -> R) -> R {
        self.pipeline.within(&self.routing, f)
    }

    /// Receive one fabric frame and run everything it causes locally.
    pub fn receive(&mut self, msg: &whale_net::LiveMessage) {
        self.as_pipeline(|p, routing| {
            on_frame(p.worker, msg, routing, &mut p.scratch, &mut p.bolts)
        });
    }

    /// Emit `tuple` as the pipeline's first spout would (tracked under a
    /// fresh root and written ahead to the log when the run is) and run
    /// everything that causes locally. Returns the tracked id.
    ///
    /// # Panics
    /// If the pipeline owns no spout.
    pub fn emit(&mut self, tuple: Tuple) -> Option<u64> {
        self.as_pipeline(|p, routing| p.spouts[0].emit(routing, tuple))
    }

    /// [`Self::emit`] each of `tuples` in one step, as a spout step that
    /// makes that many calls would: what the step sends to each other
    /// pipeline, and what it broadcasts on the relay tree, leaves as one
    /// run when it ends.
    ///
    /// # Panics
    /// If the pipeline owns no spout.
    pub fn emit_in_one_step(&mut self, tuples: impl IntoIterator<Item = Tuple>) {
        self.as_pipeline(|p, routing| {
            for tuple in tuples {
                p.spouts[0].emit(routing, tuple);
                drain_loopback(&mut p.bolts, &mut p.scratch.spare, routing);
            }
        })
    }

    /// Ack `tracked` as `task` would after executing it; true when that
    /// completed the tree.
    pub fn ack(&self, tracked: u64, task: TaskId) -> bool {
        let ack = self.routing.ack.as_ref().expect("a tracked run");
        let state = ack.acker.lock().ack(tracked, anchor_for(tracked, task));
        state == crate::acker::TreeState::Acked
    }

    /// Discard what the pipeline has sent to its peers' fabric endpoints
    /// since the last call; returns how many frames that was.
    pub fn take_sent(&mut self) -> usize {
        let sent = |p: &ShardPipeline| std::iter::from_fn(|| p.fabric_rx.try_recv().ok()).count();
        self.peers.iter().map(sent).sum()
    }

    /// What the pipeline has sent to its peers' fabric endpoints since the
    /// last call, by destination worker: `(worker, frame)`, each worker's
    /// in the order sent.
    pub fn take_sent_frames(&mut self) -> Vec<(u32, whale_net::LiveMessage)> {
        let sent = |p: &ShardPipeline| {
            let frames = std::iter::from_fn(|| p.fabric_rx.try_recv().ok());
            frames.map(|msg| (p.worker, msg)).collect::<Vec<_>>()
        };
        self.peers.iter().flat_map(sent).collect()
    }

    /// The frame `origin`'s worker would put on the relay tree for
    /// `tuple`, broadcast to `component`.
    pub fn relay_frame(
        &self,
        origin: u32,
        component: &str,
        tracked: Option<u64>,
        tuple: &Tuple,
    ) -> Arc<[u8]> {
        let relay = self.routing.relay.as_ref().expect("a relayed run");
        let component = self.routing.topology.component(component);
        let header = codec::RelayHeader {
            origin,
            epoch: relay.current().epoch,
            component: component.expect("a component of the topology").id.0,
            tracked: tracked.unwrap_or(0),
        };
        let mut buf = bytes::BytesMut::new();
        wire::encode_relay(&mut buf, header, &LazyTuple::from_tuple(tuple.clone()));
        Arc::from(&buf[..])
    }

    /// The run's counters so far (`elapsed` reads zero: the harness keeps
    /// no run clock).
    pub fn snapshot(&self) -> RunReport {
        self.routing.snapshot(Duration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;
    use crate::acker::tracked_id;
    use crate::codec::RelayHeader;

    #[test]
    fn dispatcher_drops_garbage_frames_instead_of_crashing() {
        // Both workers' pipelines have inboxes, so nothing below is
        // dropped for want of one.
        let (inbox_txs, inbox_rxs): (Vec<_>, Vec<_>) = (0..2)
            .map(|_| {
                let (tx, rx) = crossbeam::channel::bounded(4);
                let waker = Arc::default();
                (super::super::send::ShardInbox::new(tx, waker), rx)
            })
            .unzip();
        let routing = Routing {
            shard_inboxes: inbox_txs,
            ..bare_routing(
                LiveConfig {
                    machines: 2,
                    zero_copy: false,
                    ..LiveConfig::default()
                },
                None,
            )
        };
        let encoded = |fill: &dyn Fn(&mut bytes::BytesMut)| {
            let mut buf = bytes::BytesMut::new();
            fill(&mut buf);
            buf.to_vec()
        };
        let tuple = LazyTuple::from_tuple(Tuple::new(vec![Value::I64(1)]));
        let relay = encoded(&|b| {
            let h = RelayHeader {
                origin: 0,
                epoch: 0,
                component: 0,
                tracked: 0,
            };
            wire::encode_relay(b, h, &tuple)
        });
        let relay_eos = encoded(&|b| {
            let eos = wire::RelayEos {
                origin: 0,
                epoch: 0,
                component: ComponentId(0),
                src: TaskId(0),
            };
            wire::encode_relay_eos(b, eos)
        });
        let marker = encoded(&|b| {
            let marker = wire::RelayMarker {
                origin: 0,
                epoch: 0,
            };
            wire::encode_relay_marker(b, marker)
        });
        let instance = encoded(&|b| wire::encode_instance(b, None, TaskId(0), TaskId(7), &tuple));
        let worker_to = |dsts: &'static [TaskId]| {
            encoded(&|b| {
                let dsts = dsts.iter().copied();
                wire::encode_worker(b, None, TaskId(0), dsts, &tuple, None);
            })
        };
        let worker = worker_to(&[]);
        let mut eos = encoded(&|b| wire::encode_eos(b, TaskId(0), std::iter::empty()));
        // Task 0 is the spout: it has a component and an owning pipeline,
        // but nothing there executes for it.
        let spout = routing.topology.tasks_of("src")[0];
        assert_eq!(spout, TaskId(0));
        let frames: Vec<Vec<u8>> = vec![
            vec![],                  // empty
            vec![99],                // unknown kind
            relay[..3].to_vec(),     // truncated relay header (2 of 20 bytes)
            relay[..13].to_vec(),    // truncated relay header (12 of 20 bytes)
            relay_eos[..4].to_vec(), // truncated relay EOS
            marker[..5].to_vec(),    // truncated relay marker
            instance[..4].to_vec(),  // truncated instance message
            worker[..1].to_vec(),    // truncated worker message
            eos[..2].to_vec(),       // truncated EOS header
            // Well-formed relay header and marker on a worker with the
            // relay path off.
            relay[..1 + RelayHeader::WIRE_BYTES].to_vec(),
            marker,
            // EOS claiming 100 destinations but carrying none.
            {
                eos[5..9].copy_from_slice(&100u32.to_le_bytes());
                eos
            },
            // Well-formed instance message addressed to a task that does
            // not exist.
            instance,
            // Well-formed messages addressed to the spout: alone, next to
            // a bolt (which is delivered), and by EOS.
            worker_to(&[TaskId(0)]),
            worker_to(&[TaskId(1), TaskId(0)]),
            encoded(&|b| wire::encode_eos(b, TaskId(0), [TaskId(0)].into_iter())),
        ];
        let mut scratch = RecvScratch::default();
        for f in &frames {
            let msg = whale_net::LiveMessage {
                from: whale_net::EndpointId(1),
                payload: whale_net::Payload::Copied(f.clone()),
            };
            on_frame(0, &msg, &routing, &mut scratch, &mut []);
        }
        assert_eq!(routing.stats.get(Ctr::dropped_frames), frames.len() as u64);
        let queued: Vec<_> = (inbox_rxs.iter())
            .flat_map(|rx| std::iter::from_fn(|| rx.try_recv().ok()))
            .collect();
        assert!(
            matches!(queued[..], [(Dest::Task(TaskId(1)), ExecMsg::Data(..))]),
            "only the bolt next to the spout is delivered"
        );
        // Nothing rejected was counted as delivered (copied payloads are
        // materialized at dispatch, so no delivery here is a lazy view).
        assert_eq!(routing.stats.get(Ctr::wire_tuples_lazy), 0);
    }

    /// src → 8 all-grouped sinks over two machines with the relay tree
    /// on, seen from worker 1: a leaf of worker 0's tree hosting four of
    /// the sinks. Every sink calls `on_execute` with its instance index.
    fn leaf_harness(
        ack: Option<AckConfig>,
        on_execute: impl Fn(u32) + Clone + Send + Sync + 'static,
    ) -> (PipelineHarness, Vec<TaskId>) {
        let mut b = crate::topology::TopologyBuilder::new();
        b.spout("src", 1, Schema::new(vec!["n"]))
            .bolt("sink", 8, Schema::new(vec!["n"]))
            .connect("src", "sink", Grouping::All);
        let ops = Operators::new()
            .spout("src", |_| Box::new(IterSpout::new(std::iter::empty())))
            .bolt("sink", move |idx| {
                let on_execute = on_execute.clone();
                Box::new(FnBolt::new(move |_t: &Tuple, _out: &mut dyn Emitter| {
                    on_execute(idx)
                }))
            });
        let config = LiveConfig {
            machines: 2,
            multicast_d_star: Some(2),
            ack,
            ..LiveConfig::default()
        };
        let harness = PipelineHarness::new(b.build().unwrap(), &ops, config, 1);
        let sinks: Vec<TaskId> = harness.pipeline.bolts.iter().map(|b| b.task).collect();
        assert_eq!(sinks.len(), 4);
        (harness, sinks)
    }

    fn shared(frame: Arc<[u8]>) -> whale_net::LiveMessage {
        whale_net::LiveMessage {
            from: whale_net::EndpointId(0),
            payload: whale_net::Payload::Shared(frame),
        }
    }

    /// Per-instance execution counts, and the hook that feeds them.
    fn counting() -> (
        Arc<[std::sync::atomic::AtomicU64; 8]>,
        impl Fn(u32) + Clone + Send + Sync,
    ) {
        let counts: Arc<[std::sync::atomic::AtomicU64; 8]> = Arc::default();
        let tap = Arc::clone(&counts);
        (counts, move |idx: u32| {
            tap[idx as usize].fetch_add(1, Ordering::Relaxed);
        })
    }

    /// Register `tracked` with the acker, armed for `dsts` plus one
    /// destination that is not there; returns that destination's anchor.
    fn arm(routing: &Routing, tracked: u64, dsts: &[TaskId]) -> u64 {
        let ack = routing.ack.as_ref().unwrap();
        let elsewhere = anchor_for(tracked, TaskId(1_000));
        let anchors = dsts.iter().map(|&t| anchor_for(tracked, t));
        let mut acker = ack.acker.lock();
        acker.init(tracked, 0, ack.now());
        acker.ack(tracked, anchors.fold(elsewhere, |xor, a| xor ^ a));
        elsewhere
    }

    #[test]
    fn a_relayed_frame_runs_its_local_sinks_as_one_batch() {
        let (counts, tap) = counting();
        let (mut h, _sinks) = leaf_harness(None, tap);
        // Id 8 is a latency-sampled one.
        h.routing.stats.delivery.on_emit(8);
        let tuple = Tuple::with_id(8, vec![Value::I64(1)]);
        h.receive(&shared(h.relay_frame(0, "sink", None, &tuple)));
        let r = h.snapshot();
        assert_eq!(r.executed[1], 4);
        assert_eq!(r.wire_tuples_lazy, 4);
        assert_eq!(r.tuples_materialized, 1);
        assert_eq!(r.dropped_frames, 0);
        let executed: u64 = counts.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        assert_eq!(executed, 4);
        let latencies = h.snapshot().delivery_ns;
        assert_eq!(latencies.count(), 4, "one latency per execution");
    }

    #[test]
    fn a_step_that_panics_with_a_pending_relay_run_sends_none_of_it() {
        // src → 2 `pass` → 4 `sink`, both edges relayed, over two machines,
        // seen from worker 1: its `pass` relays what it receives on, in a
        // run of its own pipeline's that goes to worker 0.
        let fields = || Schema::new(vec!["n"]);
        let mut b = crate::topology::TopologyBuilder::new();
        b.spout("src", 1, fields())
            .bolt("pass", 2, fields())
            .bolt("sink", 4, fields())
            .connect("src", "pass", Grouping::All)
            .connect("pass", "sink", Grouping::All);
        let ops = Operators::new()
            .spout("src", |_| Box::new(IterSpout::new(std::iter::empty())))
            .bolt("pass", |_| {
                Box::new(FnBolt::new(|t: &Tuple, out: &mut dyn Emitter| {
                    out.emit(t.clone())
                }))
            })
            .bolt("sink", |_| {
                Box::new(FnBolt::new(|_t: &Tuple, _out: &mut dyn Emitter| {}))
            });
        let config = LiveConfig {
            machines: 2,
            multicast_d_star: Some(2),
            ..LiveConfig::default()
        };
        let mut h = PipelineHarness::new(b.build().unwrap(), &ops, config, 1);
        let tuple = Tuple::with_id(1, vec![Value::I64(1)]);
        let frame = shared(h.relay_frame(0, "pass", None, &tuple));
        h.receive(&frame);
        let queued = |h: &PipelineHarness| h.peers[0].fabric_rx.len();
        assert_eq!(queued(&h), 1, "a run of one to worker 0");
        // The same step, unwinding once the pass has filled the run: the
        // executor catches it and puts the thread back (`Executor::round`).
        let step = catch_unwind(AssertUnwindSafe(|| {
            h.pipeline.within(&h.routing, |p, routing| {
                on_frame(p.worker, &frame, routing, &mut p.scratch, &mut p.bolts);
                panic!("a runtime bug, with a run pending");
            })
        }));
        assert!(step.is_err());
        h.pipeline.unwound();
        assert_eq!(queued(&h), 1, "none of the second run left");
        // Nor does any later: the run went with the step (an executor
        // never steps the pipeline again, but if it did).
        assert_eq!(
            h.pipeline.within(&h.routing, ShardPipeline::step),
            Step::Idle
        );
        assert_eq!(queued(&h), 1);
        // The thread steps the other pipeline on; the first run reaches
        // its sinks, and nothing of the dropped one ever does.
        let (peer, routing) = (&mut h.peers[0], &h.routing);
        assert_eq!(peer.within(routing, ShardPipeline::step), Step::Progressed);
        let r = h.snapshot();
        assert_eq!(r.executed[1], 2, "worker 1's pass, in both steps");
        // Worker 1's two sinks run in both steps, worker 0's two on the
        // first run only.
        assert_eq!(r.executed[2], 2 * 2 + 2);
        assert_eq!(r.thread_panics, 0, "counted by the executor, not here");
    }

    #[test]
    fn a_step_that_panics_with_pending_worker_runs_sends_none_of_them() {
        // src → 2 `pass` → 4 `sink`, both edges all-grouped without the
        // relay tree, over two machines, seen from worker 1: its `pass`
        // hands what it receives on to worker 0's sinks in a worker run of
        // its own pipeline's.
        let fields = || Schema::new(vec!["n"]);
        let mut b = crate::topology::TopologyBuilder::new();
        b.spout("src", 1, fields())
            .bolt("pass", 2, fields())
            .bolt("sink", 4, fields())
            .connect("src", "pass", Grouping::All)
            .connect("pass", "sink", Grouping::All);
        let ops = Operators::new()
            .spout("src", |_| Box::new(IterSpout::new(std::iter::empty())))
            .bolt("pass", |_| {
                Box::new(FnBolt::new(|t: &Tuple, out: &mut dyn Emitter| {
                    out.emit(t.clone())
                }))
            })
            .bolt("sink", |_| {
                Box::new(FnBolt::new(|_t: &Tuple, _out: &mut dyn Emitter| {}))
            });
        let config = LiveConfig {
            machines: 2,
            ..LiveConfig::default()
        };
        let mut h = PipelineHarness::new(b.build().unwrap(), &ops, config, 1);
        let src = h.routing.topology.tasks_of("src")[0];
        let pass = h.routing.topology.component("pass").unwrap().id;
        let mine = h.pipeline.bolts.iter().find(|b| b.comp == pass);
        let mine = mine.unwrap().task;
        let tuple = LazyTuple::from_tuple(Tuple::with_id(1, vec![Value::I64(1)]));
        let mut buf = bytes::BytesMut::new();
        wire::encode_worker(&mut buf, None, src, [mine].into_iter(), &tuple, None);
        let frame = shared(Arc::from(&buf[..]));
        h.receive(&frame);
        let queued = |h: &PipelineHarness| h.peers[0].fabric_rx.len();
        assert_eq!(queued(&h), 1, "a run of one to worker 0");
        // The same step, unwinding once the pass has filled the run: the
        // executor catches it and puts the thread back (`Executor::round`).
        let step = catch_unwind(AssertUnwindSafe(|| {
            h.pipeline.within(&h.routing, |p, routing| {
                on_frame(p.worker, &frame, routing, &mut p.scratch, &mut p.bolts);
                panic!("a runtime bug, with a worker run pending");
            })
        }));
        assert!(step.is_err());
        h.pipeline.unwound();
        assert_eq!(queued(&h), 1, "none of the second run left");
        assert_eq!(
            h.pipeline.within(&h.routing, ShardPipeline::step),
            Step::Idle
        );
        assert_eq!(queued(&h), 1);
        // The first run reaches worker 0's sinks; nothing of the dropped
        // one ever does.
        let (peer, routing) = (&mut h.peers[0], &h.routing);
        assert_eq!(peer.within(routing, ShardPipeline::step), Step::Progressed);
        let r = h.snapshot();
        assert_eq!(r.executed[1], 2, "worker 1's pass, in both steps");
        assert_eq!(r.executed[2], 2 * 2 + 2);
        assert_eq!(r.thread_panics, 0, "counted by the executor, not here");
    }

    #[test]
    fn a_worker_frame_whose_third_record_is_corrupt_delivers_two_and_counts_one_drop() {
        let (counts, tap) = counting();
        let (mut h, sinks) = leaf_harness(None, tap);
        let mut run = bytes::BytesMut::new();
        let mut third = 0;
        for n in 0..3u64 {
            third = run.len();
            let item = LazyTuple::from_tuple(Tuple::with_id(n, vec![Value::I64(n as i64)]));
            let dsts = sinks[..2].iter().copied();
            wire::encode_worker(&mut run, None, TaskId(0), dsts, &item, None);
        }
        // The third item's first value tag (after kind, src, two ids, id
        // and arity) names no type.
        run[third + 1 + 4 + 4 + 2 * 4 + 10] = 99;
        h.receive(&shared(Arc::from(&run[..])));
        let r = h.snapshot();
        assert_eq!(r.executed[1], 2 * 2, "two records, two sinks each");
        assert_eq!(r.dropped_frames, 1, "the rest of the frame, once");
        let per_instance: Vec<u64> = counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        assert_eq!(per_instance, [0, 2, 0, 2, 0, 0, 0, 0]);
    }

    #[test]
    fn a_relay_frame_for_a_component_that_does_not_exist_reaches_nobody() {
        // The component id is read off the wire: one no row exists for
        // (or the spout's, which executes nothing) must find no sinks.
        let (counts, tap) = counting();
        let (mut h, _sinks) = leaf_harness(None, tap);
        for component in [0, 2, u32::MAX] {
            let header = RelayHeader {
                origin: 0,
                epoch: 0,
                component,
                tracked: 0,
            };
            let mut buf = bytes::BytesMut::new();
            let item = LazyTuple::from_tuple(Tuple::new(vec![Value::I64(1)]));
            wire::encode_relay(&mut buf, header, &item);
            h.receive(&shared(Arc::from(&buf[..])));
        }
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 0));
        assert_eq!(h.snapshot().wire_tuples_lazy, 0);
    }

    #[test]
    fn a_bolt_panicking_mid_batch_poisons_only_itself() {
        let (counts, tap) = counting();
        // The second of worker 1's four sinks (instances 1, 3, 5, 7).
        let (mut h, sinks) = leaf_harness(Some(AckConfig::default()), move |idx| {
            tap(idx);
            assert_ne!(idx, 3, "injected bolt failure");
        });
        let tuple = Tuple::new(vec![Value::I64(1)]);
        let elsewhere = arm(&h.routing, 1, &sinks);
        h.receive(&shared(h.relay_frame(0, "sink", Some(1), &tuple)));
        let executed = |h: &PipelineHarness| h.snapshot().executed[1];
        assert_eq!(executed(&h), 4, "the rest of the batch still executed");
        assert_eq!(h.snapshot().thread_panics, 1);
        for idx in [1, 3, 5, 7] {
            assert_eq!(counts[idx].load(Ordering::Relaxed), 1, "instance {idx}");
        }
        // All four acked (the panicking one before it ran, as ever).
        fn acker(h: &PipelineHarness) -> parking_lot::MutexGuard<'_, crate::acker::Acker> {
            h.routing.ack.as_ref().unwrap().acker.lock()
        }
        let state = acker(&h).ack(1, elsewhere);
        assert_eq!(state, crate::acker::TreeState::Acked);
        // The poisoned bolt sits the next tuple out, unexecuted and
        // unacked; its neighbours do not.
        let elsewhere = arm(&h.routing, 2, &sinks);
        h.receive(&shared(h.relay_frame(0, "sink", Some(2), &tuple)));
        assert_eq!(executed(&h), 7);
        assert_eq!(counts[3].load(Ordering::Relaxed), 1);
        assert_eq!(h.snapshot().thread_panics, 1);
        let mut acker = acker(&h);
        assert_eq!(acker.ack(2, elsewhere), crate::acker::TreeState::Pending);
        let state = acker.ack(2, anchor_for(2, sinks[1]));
        assert_eq!(state, crate::acker::TreeState::Acked);
    }

    #[test]
    fn a_bolt_panicking_mid_frame_poisons_only_itself_and_the_frames_other_records_run() {
        let (counts, tap) = counting();
        let seen = Arc::clone(&counts);
        // The second of worker 1's four sinks (instances 1, 3, 5, 7)
        // panics on the frame's second record, which runs in place.
        let (mut h, _sinks) = leaf_harness(None, move |idx| {
            tap(idx);
            let second = idx == 3 && seen[3].load(Ordering::Relaxed) == 2;
            assert!(!second, "injected bolt failure");
        });
        let header = RelayHeader {
            origin: 0,
            epoch: h.routing.relay.as_ref().unwrap().current().epoch,
            component: h.routing.topology.component("sink").unwrap().id.0,
            tracked: 0,
        };
        let mut run = bytes::BytesMut::new();
        for n in 0..3u64 {
            let item = LazyTuple::from_tuple(Tuple::with_id(n, vec![Value::I64(n as i64)]));
            wire::encode_relay(&mut run, header, &item);
        }
        h.receive(&shared(Arc::from(&run[..])));
        assert!(
            LOCAL_QUEUE.with_borrow(|q| q.is_empty()),
            "nothing left in the loopback queue"
        );
        let r = h.snapshot();
        assert_eq!(r.thread_panics, 1);
        assert_eq!(r.dropped_frames, 0);
        assert_eq!(r.executed[1], 4 + 4 + 3, "the poisoned sink sits the third out");
        for idx in [1, 5, 7] {
            assert_eq!(counts[idx].load(Ordering::Relaxed), 3, "instance {idx}");
        }
        assert_eq!(counts[3].load(Ordering::Relaxed), 2);
    }

    #[test]
    fn a_replayed_tracked_batch_acks_every_task_once_and_reexecutes_none() {
        let (counts, tap) = counting();
        let (mut h, sinks) = leaf_harness(Some(AckConfig::default()), tap);
        let tuple = Tuple::new(vec![Value::I64(1)]);
        let root = 77u64;
        let replay = tracked_id(root, 1);
        let original_elsewhere = arm(&h.routing, root, &sinks);
        // The original, a duplicate of it (a second ack of the same
        // ledger key would XOR the first back out), then the replay.
        let original = shared(h.relay_frame(0, "sink", Some(root), &tuple));
        h.receive(&original);
        h.receive(&original);
        let ack = h.routing.ack.as_ref().unwrap();
        // Each sink acked the original once: only the destination that
        // is not here is still owed.
        assert_eq!(ack.acker.lock().ledger_of(root), Some(original_elsewhere));
        // A root holds one attempt at a time: the replay supersedes the
        // original, as the spout's expiry would have.
        let replay_elsewhere = arm(&h.routing, replay, &sinks);
        h.receive(&shared(h.relay_frame(0, "sink", Some(replay), &tuple)));
        assert_eq!(h.snapshot().executed[1], 4);
        let executed: u64 = counts.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        assert_eq!(executed, 4, "no sink runs the root twice");
        assert_eq!(h.snapshot().dedup_dropped, 8);
        let ack = h.routing.ack.as_ref().unwrap();
        let mut acker = ack.acker.lock();
        let late = acker.ack(root, original_elsewhere);
        assert_eq!(late, crate::acker::TreeState::Failed, "superseded");
        let state = acker.ack(replay, replay_elsewhere);
        assert_eq!(state, crate::acker::TreeState::Acked, "{replay:#x}");
    }

    #[test]
    fn a_late_frame_of_a_resolved_root_is_dropped_and_counted() {
        // The rule below the watermark: a frame naming a root that is no
        // longer live — resolved, or never opened — is a duplicate by
        // definition. It is neither executed nor acked, even by a task
        // that has no record of the root.
        let (counts, tap) = counting();
        let (mut h, sinks) = leaf_harness(Some(AckConfig::default()), tap);
        let tuple = Tuple::new(vec![Value::I64(1)]);
        let frame =
            |h: &PipelineHarness, root| shared(h.relay_frame(0, "sink", Some(root), &tuple));
        let elsewhere = arm(&h.routing, 5, &sinks);
        h.receive(&frame(&h, 5));
        let ack = h.routing.ack.as_ref().unwrap();
        let closed = ack.acker.lock().ack(5, elsewhere);
        assert_eq!(closed, crate::acker::TreeState::Acked);
        assert_eq!(ack.gauges.live_roots(), 6..6);
        // Root 6 keeps the window open past the late frames below.
        arm(&h.routing, 6, &sinks);
        for stale in [5, 99, tracked_id(5, 1)] {
            h.receive(&frame(&h, stale));
        }
        let r = h.snapshot();
        assert_eq!(r.executed[1], 4);
        let executed: u64 = counts.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        assert_eq!(executed, 4, "only the live delivery ran");
        assert_eq!(r.dedup_dropped, 3 * 4);
        assert_eq!(r.tuples_acked, 1);
        // The live root still runs, on sinks whose window was trimmed.
        h.receive(&frame(&h, 6));
        assert_eq!(h.snapshot().executed[1], 8);
        assert_eq!(h.snapshot().dedup_window_peak, 1);
    }

    #[test]
    fn a_worker_frame_with_an_unknown_id_drops_that_id_and_runs_the_rest() {
        let (counts, tap) = counting();
        let (mut h, sinks) = leaf_harness(None, tap);
        let tuple = LazyTuple::from_tuple(Tuple::new(vec![Value::I64(1)]));
        let spout = h.routing.topology.tasks_of("src")[0];
        let mut frames = 0;
        for stranger in [TaskId(99), spout] {
            let listed = [sinks[0], stranger, sinks[2]];
            let mut buf = bytes::BytesMut::new();
            let dsts = listed.iter().copied();
            wire::encode_worker(&mut buf, None, TaskId(0), dsts, &tuple, None);
            h.receive(&shared(Arc::from(&buf[..])));
            frames += 1;
            let r = h.snapshot();
            assert_eq!(r.dropped_frames, frames);
            assert_eq!(r.executed[1], 2 * frames);
            assert_eq!(r.wire_tuples_lazy, 2 * frames);
        }
        let per_instance: Vec<u64> = counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        assert_eq!(per_instance, [0, 2, 0, 0, 0, 2, 0, 0]);
    }

    #[test]
    fn sharded_pipelines_match_single_shard_results() {
        let base = run(CommMode::WorkerOriented, true, 4, 8);
        assert_eq!(base.shards, 1);
        for shards in [2, 4] {
            let (t, ops) = counting_topology(4, 8);
            let r = run_topology(
                t,
                ops,
                LiveConfig {
                    machines: 4,
                    shards,
                    ..LiveConfig::default()
                },
            );
            assert_eq!(r.outcome, RunOutcome::Clean, "{shards} shards");
            assert_eq!(r.executed, base.executed, "{shards} shards");
            assert_eq!(r.spout_emitted, base.spout_emitted);
            assert_eq!(r.shards, shards as u64);
            assert_eq!(r.dropped_frames, 0);
        }
    }

    #[test]
    fn same_worker_cross_shard_traffic_uses_the_inboxes() {
        // One machine, 4 shards: nothing crosses the fabric, but the
        // all-grouped stage spans every shard, so deliveries must flow
        // through the cross-shard inboxes (and be counted).
        let (t, ops) = counting_topology(1, 8);
        let r = run_topology(
            t,
            ops,
            LiveConfig {
                machines: 1,
                shards: 4,
                ..LiveConfig::default()
            },
        );
        assert_eq!(r.outcome, RunOutcome::Clean);
        assert_eq!(r.executed[1], 800);
        assert_eq!(r.copied_bytes + r.shared_bytes, 0, "single worker");
        assert!(r.cross_shard_msgs > 0, "fan-out must cross shard inboxes");
        let m = r.metrics();
        assert_eq!(m.counter("dsps.cross_shard_msgs"), Some(r.cross_shard_msgs));
        assert_eq!(m.gauge("dsps.shards"), Some(4.0));
    }

    /// A task-less pipeline on endpoint 0 of its own per-send fabric.
    fn empty_pipeline() -> (ShardPipeline, Routing) {
        let fabric = Arc::new(whale_net::LiveFabric::new());
        let fabric_rx = fabric.register(whale_net::EndpointId(0)).unwrap();
        let (tx, inbox_rx) = crossbeam::channel::bounded(4);
        let (done_tx, _) = crossbeam::channel::unbounded();
        let waker = Arc::default();
        let routing = Routing {
            fabric,
            shard_inboxes: vec![super::super::send::ShardInbox::new(tx, waker)],
            ..bare_routing(LiveConfig::default(), None)
        };
        let pipeline = ShardPipeline::new(0, 0, fabric_rx, inbox_rx, done_tx);
        (pipeline, routing)
    }

    #[test]
    fn wake_at_is_the_next_ack_poll_or_the_run_deadline() {
        let (mut pipeline, routing) = empty_pipeline();
        let now = Instant::now();
        assert_eq!(pipeline.wake_at(now), None, "only a hand-off gives it work");
        let near = now + Duration::from_millis(20);
        pipeline.deadline = Some(near);
        assert_eq!(pipeline.wake_at(now), Some(near));
        // A draining spout is due at its next acker poll, whatever else
        // bounds the wait.
        pipeline.add_spout(
            TaskId(0),
            Box::new(IterSpout::new(std::iter::empty())),
            Groupings::new(&routing.topology, TaskId(0), ComponentId(0)),
        );
        pipeline.spouts[0].phase = SpoutPhase::Draining {
            deadline: now + Duration::from_secs(30),
            next_poll: now + ACK_POLL_INTERVAL,
        };
        assert_eq!(pipeline.wake_at(now), Some(now + ACK_POLL_INTERVAL));
        pipeline.deadline = None;
        assert_eq!(pipeline.wake_at(now), Some(now + ACK_POLL_INTERVAL));
    }

    /// Spout task 0 of [`bare_routing`]'s topology over `spout`: what it
    /// emits reaches no pipeline, which is all a batch test needs.
    fn lone_spout(spout: impl Spout + 'static) -> (SpoutState, Routing) {
        let routing = bare_routing(LiveConfig::default(), None);
        let state = SpoutState {
            task: TaskId(0),
            spout: Box::new(spout),
            groupings: Groupings::new(&routing.topology, TaskId(0), ComponentId(0)),
            phase: SpoutPhase::Emitting,
            batch: 1,
            hold: 0,
        };
        (state, routing)
    }

    #[test]
    fn a_prompt_spout_doubles_its_batch_up_to_the_cap() {
        let tuples = (0..).map(|i| Tuple::with_id(i, vec![Value::I64(i as i64)]));
        let (mut state, routing) = lone_spout(IterSpout::new(tuples));
        let mut batches = Vec::new();
        for _ in 0..9 {
            batches.push(state.batch);
            assert!(spout_step(&mut state, &routing, &mut || ()));
        }
        assert_eq!(batches, [1, 2, 4, 8, 16, 32, 64, 128, 128]);
        assert_eq!(state.batch, PIPELINE_BATCH);
        let emitted: usize = batches.iter().sum();
        assert_eq!(routing.stats.get(Ctr::spout_emitted), emitted as u64);
    }

    #[test]
    fn a_slow_call_ends_the_step_and_pins_the_batch_at_one() {
        // Call `slow_at` (the index of the tuple it returns) blocks.
        let slow_at = Arc::new(std::sync::atomic::AtomicU64::new(20));
        let at = Arc::clone(&slow_at);
        let tuples = (0..).map(move |i: u64| {
            if i == at.load(Ordering::Relaxed) {
                std::thread::sleep(SLOW_CALL * 3);
            }
            Tuple::with_id(i, vec![Value::I64(i as i64)])
        });
        let (mut state, routing) = lone_spout(IterSpout::new(tuples));
        let emitted = || routing.stats.get(Ctr::spout_emitted);
        // Below the cap every call is timed: call 20, the sixth of a step
        // of 16, ends it.
        while emitted() < 21 {
            spout_step(&mut state, &routing, &mut || ());
        }
        assert_eq!(emitted(), 21, "the step ended at the slow call");
        assert_eq!((state.batch, state.hold), (1, SLOW_HOLD_STEPS));
        for _ in 0..SLOW_HOLD_STEPS {
            spout_step(&mut state, &routing, &mut || ());
            assert_eq!(state.batch, 1);
        }
        assert_eq!(emitted(), 21 + SLOW_HOLD_STEPS as u64);
        spout_step(&mut state, &routing, &mut || ());
        assert_eq!(state.batch, 2, "prompt again: doubling resumes");
    }

    #[test]
    fn at_the_cap_a_spout_is_timed_at_a_steps_first_call() {
        let slow_at = Arc::new(std::sync::atomic::AtomicU64::new(u64::MAX));
        let at = Arc::clone(&slow_at);
        let tuples = (0..).map(move |i: u64| {
            if i == at.load(Ordering::Relaxed) {
                std::thread::sleep(SLOW_CALL * 3);
            }
            Tuple::with_id(i, vec![Value::I64(i as i64)])
        });
        let (mut state, routing) = lone_spout(IterSpout::new(tuples));
        let emitted = || routing.stats.get(Ctr::spout_emitted);
        while state.batch < PIPELINE_BATCH {
            spout_step(&mut state, &routing, &mut || ());
        }
        // A slow second call goes unseen; a slow first call ends its step.
        let cap = PIPELINE_BATCH as u64;
        for (offset, emits, batch) in [(1, cap, PIPELINE_BATCH), (0, 1, 1)] {
            let before = emitted();
            slow_at.store(before + offset, Ordering::Relaxed);
            spout_step(&mut state, &routing, &mut || ());
            assert_eq!((emitted() - before, state.batch), (emits, batch));
        }
    }

    #[test]
    fn tracked_sharded_run_accounts_for_every_tuple() {
        for fabric in [
            FabricKind::PerSend,
            FabricKind::Ring(whale_net::RingConfig::default()),
            FabricKind::OneSided(whale_net::OneSidedConfig::default()),
        ] {
            let (t, ops) = ack_topology(200, 4);
            let r = run_topology(
                t,
                ops,
                LiveConfig {
                    machines: 4,
                    shards: 4,
                    fabric,
                    ack: Some(AckConfig::default()),
                    ..LiveConfig::default()
                },
            );
            assert_eq!(r.outcome, RunOutcome::Clean);
            assert_eq!(r.tuples_acked + r.tuples_failed, r.spout_emitted);
            assert_eq!(r.tuples_acked, 200);
            assert_eq!(r.executed[1], 200 * 4, "exactly once per instance");
        }
    }
}
