//! The transport core: everything about a live transport that is not
//! *who moves the bytes and when*.
//!
//! [`Transport`] owns, once, the endpoint table (inbox sender beside the
//! policy's per-endpoint state, duplicate-id rejection, the lazily
//! rebuilt id-sorted snapshot drain passes walk), the counter block
//! behind [`FabricStats`], the [`LinkTracker`] slot, the hand-off into an
//! inbox (`Transport::deliver`, the only place a delivered or lost
//! frame is counted), the doorbells and the drain thread. A [`Policy`]
//! supplies the rest:
//!
//! - [`PerSend`] ([`LiveFabric`]): the sender delivers now;
//! - [`crate::ring_fabric::Ring`] ([`crate::RingFabric`]): the sender
//!   posts to the endpoint's ring, a drain pass batches at MMS/WTL and
//!   delivers;
//! - [`crate::one_sided::OneSided`] ([`crate::OneSidedFabric`]): the
//!   sender publishes to the link's outbox, a drain pass reads each
//!   frame across and delivers.
//!
//! [`FabricPath`] is implemented here for every policy at once.

use crate::fabric::{
    EndpointId, FabricPath, FabricStats, IdHashMap, LiveMessage, Payload, RegisterError, SendError,
};
use crate::one_sided::{OneSidedConfig, OneSidedFabric};
use crate::ring_fabric::{RingConfig, RingFabric};
use crate::topology::LinkTracker;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use whale_sim::{MetricsRegistry, SimTime};

/// Idle heartbeat of a drain shard: the longest a lost doorbell wake-up
/// can stall a fully idle fabric.
pub(crate) const IDLE_HEARTBEAT: Duration = Duration::from_millis(5);

/// Drain-thread backoff while a bounded inbox stays full and a pass makes
/// no delivery progress.
const STALL_BACKOFF: Duration = Duration::from_micros(100);

/// Doorbell: posts set a pending flag and wake the drain thread; the
/// thread clears the flag before sleeping so a post between pass and wait
/// can never be missed. Only the ring that flips the flag notifies — while
/// it stays set the drain thread has not slept since, so it needs no
/// second wake-up (std's `notify_all` is a futex syscall even with no
/// waiter).
struct Doorbell {
    pending: StdMutex<bool>,
    bell: Condvar,
    /// Rings that flipped the flag and notified.
    rings: AtomicU64,
}

impl Doorbell {
    fn new() -> Self {
        Doorbell {
            pending: StdMutex::new(false),
            bell: Condvar::new(),
            rings: AtomicU64::new(0),
        }
    }

    // Doorbell locks tolerate poison: a panicking drain shard must
    // degrade the run, not cascade panics into every sender that rings
    // the bell afterwards. The flag is a plain bool, so the inner value
    // is valid even if a holder died mid-critical-section.
    fn ring(&self) {
        let was_pending = std::mem::replace(
            &mut *self
                .pending
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
            true,
        );
        if !was_pending {
            self.rings.fetch_add(1, Ordering::Relaxed);
            self.bell.notify_all();
        }
    }

    /// Sleep until rung or `timeout`, consuming the pending flag.
    fn wait(&self, timeout: Duration) {
        let guard = self
            .pending
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let (mut guard, _) = self
            .bell
            .wait_timeout_while(guard, timeout, |pending| !*pending)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *guard = false;
    }
}

/// A registered endpoint: its inbox and, beside it, the policy's state,
/// so reaching the inbox never takes a policy lock.
pub struct Entry<S> {
    pub(crate) tx: Sender<LiveMessage>,
    pub(crate) state: S,
}

/// A delivery policy: who moves a frame from the sender to the
/// destination inbox, and when. Everything else is [`Transport`]'s.
pub trait Policy: Send + Sync + Sized + 'static {
    /// State kept per registered endpoint, beside its inbox.
    type Endpoint: Send + Sync;
    /// What a drain pass walks, built from the id-sorted table and
    /// rebuilt only after an endpoint (or link) came or went.
    type Snapshot: Send + Sync;

    /// Drain shards — one doorbell and, under [`spawn_drain`], one thread
    /// each. 0: sends deliver directly and there is nothing to drain.
    fn shards(&self) -> usize {
        0
    }

    /// Longest a drain shard sleeps with nothing due.
    fn idle_heartbeat(&self) -> Duration {
        IDLE_HEARTBEAT
    }

    /// State of a newly registered endpoint.
    fn open(&self, id: EndpointId) -> Self::Endpoint;

    /// The endpoint was deregistered: release what `state` held, refuse later
    /// sends through handles already resolved, and pass every frame still
    /// buffered to `dropped`.
    fn close(&self, _state: Self::Endpoint, _dropped: &mut dyn FnMut(LiveMessage)) {}

    /// Build the drain snapshot from the table, sorted by endpoint id.
    fn snapshot(&self, entries: &[(EndpointId, &Entry<Self::Endpoint>)]) -> Self::Snapshot;

    /// Accept `msg` for `to`: deliver it, or buffer it for a drain pass.
    fn send(t: &Transport<Self>, to: EndpointId, msg: LiveMessage) -> Result<(), SendError>;

    /// One drain pass at `now` over `shard`'s endpoints (`None`: all of
    /// them, in id order). `force` also pushes out what the policy would
    /// still hold back. Returns the frames delivered and when the shard
    /// next needs a pass: `SimTime::ZERO` if work is already waiting,
    /// `None` when idle.
    fn drain(
        _t: &Transport<Self>,
        _shard: Option<usize>,
        _now: SimTime,
        _force: bool,
    ) -> (u64, Option<SimTime>) {
        (0, None)
    }

    /// Frames accepted but not yet in (or drained from) an inbox.
    fn queue_depth(t: &Transport<Self>) -> u64;

    /// Export what this policy adds to the shared delivery counters.
    fn export_metrics(
        t: &Transport<Self>,
        stats: &FabricStats,
        reg: &mut MetricsRegistry,
        prefix: &str,
    );
}

/// Outcome of handing a frame to an inbox ([`Transport::deliver`]).
pub(crate) enum Handoff {
    /// The frame is in the inbox and counted.
    Delivered,
    /// A bounded inbox is full; the frame comes back uncounted.
    Full(LiveMessage),
    /// The receiver is gone; the frame is lost and counted as an error.
    Disconnected,
}

struct Table<P: Policy> {
    by_id: IdHashMap<EndpointId, Entry<P::Endpoint>>,
    /// `None` while stale.
    snapshot: Option<Arc<P::Snapshot>>,
}

#[derive(Default)]
struct Counters {
    messages: AtomicU64,
    copied_bytes: AtomicU64,
    shared_bytes: AtomicU64,
    send_errors: AtomicU64,
    posted: AtomicU64,
    flushed_batches: AtomicU64,
    flushed_items: AtomicU64,
}

/// A live transport: the shared core around one delivery [`Policy`].
pub struct Transport<P: Policy> {
    pub(crate) policy: P,
    table: RwLock<Table<P>>,
    counters: Counters,
    /// Optional per-link attribution: accepting a frame raises its link's
    /// queue gauge, [`Transport::deliver`] settles it.
    tracker: OnceLock<Arc<LinkTracker>>,
    /// One doorbell per drain shard; a post rings only its endpoint's
    /// shard so drain workers never wake for another shard's traffic.
    doorbells: Vec<Doorbell>,
    /// Live-mode clock origin for mapping wall time onto [`SimTime`].
    epoch: Instant,
    stopping: AtomicBool,
}

impl<P: Policy> Transport<P> {
    pub(crate) fn with_policy(policy: P) -> Self {
        Transport {
            doorbells: (0..policy.shards()).map(|_| Doorbell::new()).collect(),
            policy,
            table: RwLock::new(Table {
                by_id: IdHashMap::default(),
                snapshot: None,
            }),
            counters: Counters::default(),
            tracker: OnceLock::new(),
            epoch: Instant::now(),
            stopping: AtomicBool::new(false),
        }
    }

    /// [`FabricPath::register`], for callers without the trait in scope.
    pub fn register(&self, id: EndpointId) -> Result<Receiver<LiveMessage>, RegisterError> {
        FabricPath::register(self, id)
    }

    /// [`FabricPath::send_shared`], for callers without the trait in scope.
    pub fn send_shared(
        &self,
        from: EndpointId,
        to: EndpointId,
        buf: Arc<[u8]>,
    ) -> Result<(), SendError> {
        FabricPath::send_shared(self, from, to, buf)
    }

    /// Wall time since this transport was created, as a [`SimTime`] (what
    /// the drain thread passes its policy; deterministic callers pass
    /// their own clock).
    pub fn wall_now(&self) -> SimTime {
        SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    fn install(&self, id: EndpointId, tx: Sender<LiveMessage>) -> Result<(), RegisterError> {
        let mut table = self.table.write();
        if table.by_id.contains_key(&id) {
            return Err(RegisterError::AlreadyRegistered(id));
        }
        let state = self.policy.open(id);
        table.by_id.insert(id, Entry { tx, state });
        table.snapshot = None;
        Ok(())
    }

    /// Run `f` on `id`'s entry under the table's read lock.
    pub(crate) fn with_entry<R>(
        &self,
        id: EndpointId,
        f: impl FnOnce(&Entry<P::Endpoint>) -> R,
    ) -> Option<R> {
        self.table.read().by_id.get(&id).map(f)
    }

    /// Change `id`'s policy state under the table's write lock (so it
    /// cannot race `deregister`) and mark the snapshot stale.
    pub(crate) fn with_state_mut<R>(
        &self,
        id: EndpointId,
        f: impl FnOnce(&mut P::Endpoint) -> R,
    ) -> Option<R> {
        let mut table = self.table.write();
        let out = f(&mut table.by_id.get_mut(&id)?.state);
        table.snapshot = None;
        Some(out)
    }

    /// The current drain snapshot. An endpoint coming or going only marks
    /// it stale; the next caller rebuilds it once, however many endpoints
    /// changed meanwhile, and every later pass clones one `Arc` — it never
    /// collects or sorts.
    pub(crate) fn snapshot(&self) -> Arc<P::Snapshot> {
        if let Some(snapshot) = &self.table.read().snapshot {
            return Arc::clone(snapshot);
        }
        let mut table = self.table.write();
        let Table { by_id, snapshot } = &mut *table;
        Arc::clone(snapshot.get_or_insert_with(|| {
            let mut entries: Vec<_> = by_id.iter().map(|(id, entry)| (*id, entry)).collect();
            entries.sort_unstable_by_key(|(id, _)| *id);
            Arc::new(self.policy.snapshot(&entries))
        }))
    }

    /// Count a send the transport refused.
    pub(crate) fn reject(&self, err: SendError) -> SendError {
        self.counters.send_errors.fetch_add(1, Ordering::Relaxed);
        err
    }

    /// A frame was buffered for `from → to`: it occupies its link's queue
    /// until [`Transport::deliver`] settles it.
    pub(crate) fn note_queued(&self, from: EndpointId, to: EndpointId, bytes: usize) {
        if let Some(tracker) = self.tracker.get() {
            tracker.on_send(from, to, bytes);
        }
    }

    /// Count a frame accepted into a ring or outbox.
    pub(crate) fn note_posted(&self) {
        self.counters.posted.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one flushed batch of `n_items`.
    pub(crate) fn note_batch(&self, n_items: usize) {
        self.counters
            .flushed_batches
            .fetch_add(1, Ordering::Relaxed);
        self.counters
            .flushed_items
            .fetch_add(n_items as u64, Ordering::Relaxed);
    }

    /// Ring `shard`'s doorbell.
    pub(crate) fn ring_doorbell(&self, shard: usize) {
        self.doorbells[shard].ring();
    }

    /// Hand `msg` to `to`'s inbox — the one place a frame leaves the
    /// transport's books, delivered or lost. `inbox` is `None` when the
    /// endpoint was deregistered under the frame. `queued` says the frame
    /// was buffered ([`Transport::note_queued`]) rather than arriving
    /// straight from its sender.
    ///
    /// Counts before the hand-off: the channel's send→recv
    /// synchronization then guarantees that a receiver which has seen the
    /// message also sees the counters (counting after would let a reader
    /// observe the delivery but a stale count). A failed hand-off undoes
    /// the increment. A full inbox is the caller's to interpret — an error
    /// for a direct send, a retry for a buffered one — so it is not
    /// counted here.
    pub(crate) fn deliver(
        &self,
        inbox: Option<&Sender<LiveMessage>>,
        to: EndpointId,
        msg: LiveMessage,
        queued: bool,
    ) -> Handoff {
        let (from, len) = (msg.from, msg.payload.len());
        let tracker = self.tracker.get();
        let lost = || {
            self.counters.send_errors.fetch_add(1, Ordering::Relaxed);
            if let (Some(tracker), true) = (tracker, queued) {
                tracker.on_dropped(from, to, len);
            }
            Handoff::Disconnected
        };
        let Some(inbox) = inbox else {
            return lost();
        };
        let bytes_ctr = match msg.payload {
            Payload::Shared(_) => &self.counters.shared_bytes,
            Payload::Copied(_) => &self.counters.copied_bytes,
        };
        self.counters.messages.fetch_add(1, Ordering::Relaxed);
        bytes_ctr.fetch_add(len as u64, Ordering::Relaxed);
        let failed = match inbox.try_send(msg) {
            Ok(()) => {
                if let Some(tracker) = tracker {
                    if !queued {
                        tracker.on_send(from, to, len);
                    }
                    tracker.on_delivered(from, to, len);
                }
                return Handoff::Delivered;
            }
            Err(failed) => failed,
        };
        self.counters.messages.fetch_sub(1, Ordering::Relaxed);
        bytes_ctr.fetch_sub(len as u64, Ordering::Relaxed);
        match failed {
            TrySendError::Full(msg) => Handoff::Full(msg),
            TrySendError::Disconnected(_) => lost(),
        }
    }
}

impl<P: Policy> FabricPath for Transport<P> {
    fn register(&self, id: EndpointId) -> Result<Receiver<LiveMessage>, RegisterError> {
        let (tx, rx) = unbounded();
        self.install(id, tx)?;
        Ok(rx)
    }

    fn register_bounded(
        &self,
        id: EndpointId,
        capacity: usize,
    ) -> Result<Receiver<LiveMessage>, RegisterError> {
        let (tx, rx) = bounded(capacity);
        self.install(id, tx)?;
        Ok(rx)
    }

    fn deregister(&self, id: EndpointId) {
        let removed = {
            let mut table = self.table.write();
            let removed = table.by_id.remove(&id);
            if removed.is_some() {
                table.snapshot = None;
            }
            removed
        };
        if let Some(entry) = removed {
            self.policy.close(entry.state, &mut |msg| {
                self.deliver(None, id, msg, true);
            });
        }
    }

    fn send_copied(&self, from: EndpointId, to: EndpointId, bytes: &[u8]) -> Result<(), SendError> {
        let payload = Payload::Copied(bytes.to_vec());
        P::send(self, to, LiveMessage { from, payload })
    }

    fn send_shared(
        &self,
        from: EndpointId,
        to: EndpointId,
        buf: Arc<[u8]>,
    ) -> Result<(), SendError> {
        let payload = Payload::Shared(buf);
        P::send(self, to, LiveMessage { from, payload })
    }

    fn flush(&self) {
        P::drain(self, None, self.wall_now(), true);
    }

    fn wake(&self, id: EndpointId) {
        self.with_entry(id, |entry| {
            let _ = entry.tx.try_send(LiveMessage::wake(id));
        });
    }

    fn stats(&self) -> FabricStats {
        let get = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let c = &self.counters;
        FabricStats {
            messages: get(&c.messages),
            copied_bytes: get(&c.copied_bytes),
            shared_bytes: get(&c.shared_bytes),
            send_errors: get(&c.send_errors),
            posted: get(&c.posted),
            doorbell_rings: self.doorbells.iter().map(|bell| get(&bell.rings)).sum(),
            flushed_batches: get(&c.flushed_batches),
            flushed_items: get(&c.flushed_items),
            queue_depth: P::queue_depth(self),
            endpoints: self.table.read().by_id.len(),
        }
    }

    fn install_link_tracker(&self, tracker: Arc<LinkTracker>) {
        let _ = self.tracker.set(tracker);
    }

    fn export_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        let stats = self.stats();
        reg.set_counter(&format!("{prefix}.messages"), stats.messages);
        reg.set_counter(&format!("{prefix}.copied_bytes"), stats.copied_bytes);
        reg.set_counter(&format!("{prefix}.shared_bytes"), stats.shared_bytes);
        reg.set_counter(&format!("{prefix}.send_errors"), stats.send_errors);
        reg.set_gauge(&format!("{prefix}.endpoints"), stats.endpoints as f64);
        P::export_metrics(self, &stats, reg, prefix);
    }
}

/// The per-send policy: the sender hands the frame to the destination
/// inbox itself, under the table's read lock. Nothing is ever buffered,
/// so the inbox lengths *are* the transfer queue.
#[derive(Clone, Copy, Debug, Default)]
pub struct PerSend;

/// An in-process message fabric with synchronous per-send delivery.
pub type LiveFabric = Transport<PerSend>;

impl LiveFabric {
    /// New fabric with no endpoints.
    pub fn new() -> Self {
        Transport::with_policy(PerSend)
    }
}

impl Default for LiveFabric {
    fn default() -> Self {
        Self::new()
    }
}

impl Policy for PerSend {
    type Endpoint = ();
    type Snapshot = ();

    fn open(&self, _id: EndpointId) {}

    fn snapshot(&self, _entries: &[(EndpointId, &Entry<()>)]) {}

    fn send(t: &LiveFabric, to: EndpointId, msg: LiveMessage) -> Result<(), SendError> {
        // Not `with_entry`: moving the frame into a closure and its
        // `Handoff` back out measured ≈ 8 ns of a ≈ 100 ns send + receive.
        let table = t.table.read();
        let Some(entry) = table.by_id.get(&to) else {
            drop(table);
            return Err(t.reject(SendError::UnknownEndpoint));
        };
        let handoff = t.deliver(Some(&entry.tx), to, msg, false);
        drop(table);
        match handoff {
            Handoff::Delivered => Ok(()),
            Handoff::Full(_) => Err(t.reject(SendError::Full)),
            Handoff::Disconnected => Err(SendError::Disconnected),
        }
    }

    fn queue_depth(t: &LiveFabric) -> u64 {
        let table = t.table.read();
        table.by_id.values().map(|e| e.tx.len() as u64).sum()
    }

    fn export_metrics(
        _: &LiveFabric,
        stats: &FabricStats,
        reg: &mut MetricsRegistry,
        prefix: &str,
    ) {
        reg.set_gauge(&format!("{prefix}.queue_depth"), stats.queue_depth as f64);
    }
}

/// Handle to a transport's background drain shards. Stop it (or drop it)
/// to force a final pass and join every drain worker.
pub struct DrainThread {
    /// Raises the transport's stop flag and rings every doorbell.
    signal_stop: Box<dyn Fn() + Send + Sync>,
    handles: Vec<JoinHandle<()>>,
}

impl DrainThread {
    /// Signal every drain shard to push out everything it can and exit,
    /// then join them all.
    pub fn stop(mut self) {
        self.shutdown();
    }

    /// Number of drain workers running.
    pub fn shard_count(&self) -> usize {
        self.handles.len()
    }

    fn shutdown(&mut self) {
        (self.signal_stop)();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for DrainThread {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Spawn the background drain: one worker per [`Policy::shards`], each
/// running a pass over its shard when its doorbell rings or the pass's
/// own deadline falls due, backing off while a bounded inbox stalls, and
/// forcing everything out on stop. An endpoint is always drained by the
/// same shard, so per-endpoint FIFO order holds.
pub fn spawn_drain<P: Policy>(transport: Arc<Transport<P>>) -> DrainThread {
    let handles = (0..transport.doorbells.len())
        .map(|shard| {
            let worker = Arc::clone(&transport);
            std::thread::Builder::new()
                .name(format!("fabric-drain-{shard}"))
                .spawn(move || drain_loop(&worker, shard))
                .expect("spawn fabric drain shard")
        })
        .collect();
    let signal_stop = Box::new(move || {
        transport.stopping.store(true, Ordering::SeqCst);
        for bell in &transport.doorbells {
            bell.ring();
        }
    });
    DrainThread {
        signal_stop,
        handles,
    }
}

fn drain_loop<P: Policy>(t: &Transport<P>, shard: usize) {
    let idle = t.policy.idle_heartbeat();
    loop {
        // The deadline comes out of the pass's own walk over the endpoint
        // locks. A post that lands behind the pass either found its
        // endpoint idle and rang — the wait below returns at once — or
        // rides a deadline this pass already saw.
        let (delivered, due) = P::drain(t, Some(shard), t.wall_now(), false);
        if t.stopping.load(Ordering::SeqCst) {
            P::drain(t, Some(shard), t.wall_now(), true);
            return;
        }
        let wait = match due {
            Some(due) => {
                let now = t.wall_now();
                if due > now {
                    Duration::from_nanos(due.as_nanos() - now.as_nanos())
                } else if delivered == 0 {
                    STALL_BACKOFF
                } else {
                    // More work is already due; run another pass now.
                    continue;
                }
            }
            None => idle,
        };
        t.doorbells[shard].wait(wait);
    }
}

/// Which live transport a runtime should instantiate.
#[derive(Clone, Copy, Debug, Default)]
pub enum FabricKind {
    /// Synchronous per-send delivery ([`LiveFabric`]).
    #[default]
    PerSend,
    /// The batched ring-buffer path ([`RingFabric`]) with a background
    /// drain thread flushing at MMS/WTL.
    Ring(RingConfig),
    /// The remote-fetch path ([`OneSidedFabric`]) with a background drain
    /// thread: senders publish into per-link ring regions, the receive
    /// side pulls via modeled `RDMA READ`s.
    OneSided(OneSidedConfig),
}

/// A built live transport plus, on the buffered paths, its background
/// drain thread.
pub struct FabricInstance {
    /// The shared transport handle.
    pub fabric: Arc<dyn FabricPath>,
    drain: Option<DrainThread>,
}

impl FabricKind {
    /// Instantiate the transport (and its drain thread, for the buffered
    /// paths).
    pub fn build(self) -> FabricInstance {
        fn live<P: Policy>(transport: Transport<P>) -> FabricInstance {
            let transport = Arc::new(transport);
            let buffered = transport.policy.shards() > 0;
            FabricInstance {
                drain: buffered.then(|| spawn_drain(Arc::clone(&transport))),
                fabric: transport,
            }
        }
        match self {
            FabricKind::PerSend => live(LiveFabric::new()),
            FabricKind::Ring(config) => live(RingFabric::new(config)),
            FabricKind::OneSided(config) => live(OneSidedFabric::new(config)),
        }
    }
}

impl FabricInstance {
    /// Flush buffered sends and stop the drain thread (if any). Call after
    /// all senders have finished but before deregistering receivers.
    pub fn shutdown(&mut self) {
        self.fabric.flush();
        if let Some(drain) = self.drain.take() {
            drain.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{ClusterSpec, MachineId};

    #[test]
    fn failed_sends_do_not_count_bytes() {
        let fabric = LiveFabric::new();

        // Unknown endpoint.
        assert_eq!(
            fabric.send_copied(EndpointId(0), EndpointId(9), b"xxxx"),
            Err(SendError::UnknownEndpoint)
        );
        let buf: Arc<[u8]> = Arc::from(&b"yyyy"[..]);
        assert!(fabric
            .send_shared(EndpointId(0), EndpointId(9), buf.clone())
            .is_err());

        // Backpressured bounded endpoint.
        let _rx = fabric.register_bounded(EndpointId(1), 1).unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"a")
            .unwrap();
        assert_eq!(
            fabric
                .send_copied(EndpointId(0), EndpointId(1), b"bb")
                .unwrap_err(),
            SendError::Full
        );

        // Dropped receiver.
        let rx2 = fabric.register(EndpointId(2)).unwrap();
        drop(rx2);
        assert_eq!(
            fabric
                .send_shared(EndpointId(0), EndpointId(2), buf)
                .unwrap_err(),
            SendError::Disconnected
        );

        // Only the one successful 1-byte copied send counted.
        let stats = fabric.stats();
        assert_eq!(stats.copied_bytes, 1);
        assert_eq!(stats.shared_bytes, 0);
        assert_eq!(stats.messages, 1);
        assert_eq!(stats.send_errors, 4);
    }

    #[test]
    fn queue_depth_tracks_undrained_inboxes() {
        let fabric = LiveFabric::new();
        let rx1 = fabric.register(EndpointId(1)).unwrap();
        let _rx2 = fabric.register(EndpointId(2)).unwrap();
        assert_eq!(fabric.stats().queue_depth, 0);
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"a")
            .unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"b")
            .unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(2), b"c")
            .unwrap();
        assert_eq!(fabric.stats().queue_depth, 3);
        rx1.recv().unwrap();
        assert_eq!(fabric.stats().queue_depth, 2);
        rx1.recv().unwrap();
        assert_eq!(fabric.stats().queue_depth, 1);
    }

    #[test]
    fn queue_depth_stays_sane_while_a_blocked_receiver_is_woken() {
        // Each send wakes the receiver blocked in `recv_timeout`; a depth
        // decremented before it is incremented would wrap and overflow
        // the sum (a debug-build panic in the adaptive controller).
        const SENDS: u64 = 20_000;
        let fabric = Arc::new(LiveFabric::new());
        let rx = fabric.register(EndpointId(1)).unwrap();
        let receiver = std::thread::spawn(move || {
            let mut got = 0;
            while got < SENDS {
                if rx.recv_timeout(std::time::Duration::from_secs(10)).is_ok() {
                    got += 1;
                }
            }
        });
        let sender = {
            let fabric = Arc::clone(&fabric);
            std::thread::spawn(move || {
                for i in 0..SENDS {
                    fabric
                        .send_copied(EndpointId(0), EndpointId(1), b"x")
                        .unwrap();
                    if i % 64 == 0 {
                        std::thread::yield_now();
                    }
                }
            })
        };
        while !sender.is_finished() {
            let depth = fabric.stats().queue_depth;
            assert!(depth <= SENDS, "depth wrapped: {depth}");
        }
        sender.join().unwrap();
        receiver.join().unwrap();
        assert_eq!(fabric.stats().queue_depth, 0);
    }

    #[test]
    fn export_metrics_includes_send_errors() {
        let fabric = LiveFabric::new();
        let _ = fabric.send_copied(EndpointId(0), EndpointId(9), b"x");
        let mut reg = MetricsRegistry::new();
        fabric.export_metrics(&mut reg, "fabric");
        assert_eq!(reg.counter("fabric.send_errors"), Some(1));
        assert_eq!(reg.counter("fabric.messages"), Some(0));
    }

    /// The metric names each kind exports are an interface (the bench
    /// reports and the runtime's registry read them by name).
    #[test]
    fn each_kind_exports_its_pinned_key_set() {
        const PER_SEND: &[&str] = &[
            "copied_bytes",
            "endpoints",
            "messages",
            "queue_depth",
            "send_errors",
            "shared_bytes",
        ];
        const RING: &[&str] = &[
            "copied_bytes",
            "doorbell_rings",
            "endpoints",
            "flushed_batches",
            "flushed_items",
            "flusher_shards",
            "mean_batch_size",
            "messages",
            "posted",
            "send_errors",
            "shared_bytes",
        ];
        const ONE_SIDED: &[&str] = &[
            "copied_bytes",
            "deregistrations",
            "doorbell_rings",
            "endpoints",
            "fetch_cpu_ns",
            "fetch_wire_ns",
            "links",
            "messages",
            "posted",
            "publish_cpu_ns",
            "queue_depth",
            "read_bytes",
            "reads_posted",
            "registered_bytes",
            "registrations",
            "send_errors",
            "shared_bytes",
        ];
        const LOG: &[&str] = &[
            "log.appended_bytes",
            "log.appended_records",
            "log.read_bytes",
            "log.reads_posted",
            "log.retained_bytes",
            "log.sender_cpu_ns",
        ];
        let logged = OneSidedConfig {
            log: Some(crate::LogConfig::default()),
            ..OneSidedConfig::default()
        };
        let mut one_sided_logged = [ONE_SIDED, LOG].concat();
        one_sided_logged.sort_unstable();
        for (kind, want) in [
            (FabricKind::PerSend, PER_SEND),
            (FabricKind::Ring(RingConfig::default()), RING),
            (FabricKind::OneSided(OneSidedConfig::default()), ONE_SIDED),
            (FabricKind::OneSided(logged), &one_sided_logged[..]),
        ] {
            let mut instance = kind.build();
            let mut reg = MetricsRegistry::new();
            instance.fabric.export_metrics(&mut reg, "p");
            let got: Vec<&str> = reg.iter().map(|(key, _)| &key[2..]).collect();
            assert_eq!(got, want, "{kind:?}");
            instance.shutdown();
        }
    }

    /// Four machines in two racks, endpoint `i` on machine `i`.
    fn tracker() -> Arc<LinkTracker> {
        let spec = ClusterSpec::with_rack_map(4, 2, 1, vec![0, 0, 1, 1]);
        let tracker = Arc::new(LinkTracker::new(spec));
        for m in 0..4 {
            tracker.map_endpoint(EndpointId(m), MachineId(m));
        }
        tracker
    }

    #[test]
    fn link_tracker_attributes_per_send_traffic() {
        let fabric = LiveFabric::new();
        let tracker = tracker();
        fabric.install_link_tracker(tracker.clone());
        let _rx1 = fabric.register(EndpointId(1)).unwrap();
        let _rx2 = fabric.register(EndpointId(2)).unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"aaaa") // intra r0
            .unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(2), b"bbbbbb") // uplink r0
            .unwrap();
        // Failed sends never reach a link.
        let _ = fabric.send_copied(EndpointId(0), EndpointId(9), b"cc");
        assert_eq!(tracker.total_bytes(), 10);
        assert_eq!(tracker.uplink_bytes(), 6);
        assert_eq!(tracker.total_bytes(), fabric.stats().copied_bytes);
    }

    /// Frames still buffered when their endpoint goes must leave the link
    /// gauges: a raised `queued_frames` would read as uplink pressure for
    /// the rest of the run.
    #[test]
    fn deregister_settles_the_link_gauges_of_buffered_frames() {
        const FRAMES: u64 = 7;
        let buffered: [Arc<dyn FabricPath>; 2] = [
            Arc::new(RingFabric::new(RingConfig::default())),
            Arc::new(OneSidedFabric::new(OneSidedConfig::default())),
        ];
        for fabric in buffered {
            let tracker = tracker();
            fabric.install_link_tracker(Arc::clone(&tracker));
            let rx = fabric.register(EndpointId(2)).unwrap();
            for _ in 0..FRAMES {
                fabric
                    .send_copied(EndpointId(0), EndpointId(2), b"in flight")
                    .unwrap();
            }
            let queued = |t: &LinkTracker| -> u64 {
                t.snapshot().iter().map(|load| load.queued_frames).sum()
            };
            assert_eq!(queued(&tracker), FRAMES);
            fabric.deregister(EndpointId(2));
            for load in tracker.snapshot() {
                assert_eq!((load.queued_frames, load.queued_bytes), (0, 0), "{load:?}");
            }
            // Dropped, not delivered: errors, no bytes, nothing queued.
            let stats = fabric.stats();
            assert_eq!(stats.send_errors, FRAMES);
            assert_eq!((stats.messages, stats.queue_depth), (0, 0));
            assert_eq!(tracker.total_bytes(), 0);
            assert!(rx.try_recv().is_err());
        }
    }
}
