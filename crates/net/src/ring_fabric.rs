//! `RingFabric`: a bounded ring-buffer live transport with verbs-style
//! doorbell semantics.
//!
//! Sends *post a descriptor* into a fixed-capacity per-endpoint ring and
//! ring a doorbell — they never touch the destination inbox directly. A
//! flusher (a background thread in live mode, or the caller via
//! [`RingFabric::pump`] in deterministic mode) drains each ring into the
//! stream-slicing [`Batcher`] and delivers whole MMS/WTL batches, so the
//! live path exercises the same batching policy the simulator models
//! (§4, Figs 11–12):
//!
//! - a post that would exceed the ring capacity fails with
//!   [`SendError::Full`] — the bounded transfer queue of the paper's M/D/1
//!   model, surfaced as backpressure instead of a deadlock;
//! - batches flush when buffered bytes reach MMS or the oldest descriptor
//!   has waited WTL (the flusher's monitor tick drives
//!   [`Batcher::deadline`]);
//! - per-sender FIFO order is preserved end to end: posts enter the ring
//!   in order, batches drain in order, deliveries retry in order when the
//!   destination inbox is bounded and momentarily full.
//!
//! Byte counters follow the same rule as [`LiveFabric`]: only bytes that
//! actually reach an inbox count; failed posts and failed deliveries
//! increment `send_errors`.

use crate::batch::{BatchConfig, Batcher};
use crate::fabric::{
    EndpointId, FabricPath, IdHashMap, LiveFabric, LiveMessage, Payload, RegisterError, SendError,
};
use crate::topology::LinkTracker;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use parking_lot::{Mutex, RwLock};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use whale_sim::{MetricsRegistry, SimTime};

/// Configuration of the ring transport.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RingConfig {
    /// Per-endpoint descriptor-ring capacity: the maximum number of posted
    /// but not yet delivered descriptors. Posts beyond it fail with
    /// [`SendError::Full`].
    pub ring_capacity: usize,
    /// The MMS/WTL stream-slicing policy the flusher applies.
    pub batch: BatchConfig,
    /// Live drain workers. Endpoints map to shards by
    /// `EndpointId % flusher_shards`, so an endpoint's ring is always
    /// drained by the same worker and per-endpoint FIFO order holds.
    /// Deterministic [`RingFabric::pump`]/[`RingFabric::flush_at`] ignore
    /// sharding and stay single-threaded. `0` is treated as `1`.
    pub flusher_shards: usize,
    /// Idle heartbeat of each flusher shard: the longest a lost doorbell
    /// wakeup can stall a fully idle fabric.
    pub idle_heartbeat: Duration,
    /// Backoff while a bounded inbox stays full and a flusher pass makes
    /// no delivery progress.
    pub stall_backoff: Duration,
}

impl Default for RingConfig {
    fn default() -> Self {
        RingConfig {
            ring_capacity: 64 * 1024,
            batch: BatchConfig::default(),
            flusher_shards: 1,
            idle_heartbeat: Duration::from_millis(5),
            stall_backoff: Duration::from_micros(100),
        }
    }
}

impl RingConfig {
    /// Effective shard count (`flusher_shards`, minimum 1).
    pub fn shard_count(&self) -> usize {
        self.flusher_shards.max(1)
    }

    /// Stable endpoint→shard assignment.
    pub fn shard_of(&self, id: EndpointId) -> usize {
        id.0 as usize % self.shard_count()
    }
}

/// One endpoint's send state: the descriptor ring, the transfer buffer,
/// and the inbox it drains into.
struct EndpointRing {
    /// The destination endpoint this ring feeds (for link attribution).
    id: EndpointId,
    /// Posted, not yet drained descriptors (the send ring proper).
    ring: VecDeque<LiveMessage>,
    /// Payload bytes sitting in `ring` (posted since the last pump).
    ring_bytes: usize,
    /// The MMS/WTL transfer buffer the flusher drains the ring into.
    batcher: Batcher<LiveMessage>,
    /// Destination inbox.
    tx: Sender<LiveMessage>,
    /// Batch items a bounded inbox could not yet accept; retried first on
    /// the next pump so FIFO order holds.
    undelivered: VecDeque<LiveMessage>,
}

impl EndpointRing {
    /// Descriptors posted but not yet handed to the inbox.
    fn pending(&self) -> usize {
        self.ring.len() + self.batcher.len() + self.undelivered.len()
    }

    /// When this endpoint next needs a pump: at once if the ring or the
    /// retry queue holds work, else at the armed WTL deadline, if any.
    fn next_due(&self) -> Option<SimTime> {
        if !self.ring.is_empty() || !self.undelivered.is_empty() {
            Some(SimTime::ZERO)
        } else {
            self.batcher.deadline()
        }
    }
}

/// Doorbell: posts set a pending flag and wake the flusher; the flusher
/// clears the flag before sleeping so a post between pump and wait can
/// never be missed. Only the ring that flips the flag notifies — while it
/// stays set the drain thread has not slept since, so it needs no second
/// wake-up (std's `notify_all` is a futex syscall even with no waiter).
/// Shared with the one-sided fabric, whose fetcher waits on the same
/// post-side wakeup.
pub(crate) struct Doorbell {
    pending: StdMutex<bool>,
    bell: Condvar,
    /// Rings that flipped the flag and notified.
    rings: AtomicU64,
}

impl Doorbell {
    pub(crate) fn new() -> Self {
        Doorbell {
            pending: StdMutex::new(false),
            bell: Condvar::new(),
            rings: AtomicU64::new(0),
        }
    }

    /// Notifying rings so far.
    pub(crate) fn rings(&self) -> u64 {
        self.rings.load(Ordering::Relaxed)
    }

    // Doorbell locks tolerate poison: a panicking flusher shard must
    // degrade the run, not cascade panics into every sender that rings
    // the bell afterwards. The flag is a plain bool, so the inner value
    // is valid even if a holder died mid-critical-section.
    pub(crate) fn ring(&self) {
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
    pub(crate) fn wait(&self, timeout: Duration) {
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

/// Shared handle to one endpoint's send state.
type Slot = Arc<Mutex<EndpointRing>>;

/// The endpoint table plus the id-sorted visit orders every pump walks.
/// An endpoint coming or going only clears `orders`; the next pump
/// rebuilds them once, however many endpoints changed meanwhile, and every
/// later pass clones one `Arc` — it never collects or sorts.
#[derive(Default)]
struct Registry {
    by_id: IdHashMap<EndpointId, Slot>,
    /// `None` while stale.
    orders: Option<VisitOrders>,
}

struct VisitOrders {
    /// Every endpoint in id order (the deterministic pump's visit order).
    all: Arc<[Slot]>,
    /// The same order, split by flusher shard.
    by_shard: Vec<Arc<[Slot]>>,
}

impl VisitOrders {
    fn pick(&self, shard: Option<usize>) -> Arc<[Slot]> {
        match shard {
            None => Arc::clone(&self.all),
            Some(s) => self.by_shard.get(s).cloned().unwrap_or_default(),
        }
    }
}

impl Registry {
    fn orders(&mut self, config: &RingConfig) -> &VisitOrders {
        let by_id = &self.by_id;
        self.orders.get_or_insert_with(|| {
            let mut ids: Vec<EndpointId> = by_id.keys().copied().collect();
            ids.sort_unstable();
            let pick = |shard: Option<usize>| -> Arc<[Slot]> {
                ids.iter()
                    .filter(|id| shard.is_none_or(|s| config.shard_of(**id) == s))
                    .map(|id| Arc::clone(&by_id[id]))
                    .collect()
            };
            VisitOrders {
                all: pick(None),
                by_shard: (0..config.shard_count()).map(|s| pick(Some(s))).collect(),
            }
        })
    }
}

/// The batched ring-buffer transport. See the module docs for semantics.
pub struct RingFabric {
    config: RingConfig,
    endpoints: RwLock<Registry>,
    /// One doorbell per flusher shard; posts ring only their endpoint's
    /// shard so drain workers never wake for another shard's traffic.
    doorbells: Vec<Doorbell>,
    copied_bytes: AtomicU64,
    shared_bytes: AtomicU64,
    messages: AtomicU64,
    send_errors: AtomicU64,
    /// Descriptors accepted into rings.
    posted: AtomicU64,
    flushed_batches: AtomicU64,
    flushed_items: AtomicU64,
    /// Live-mode clock origin for mapping wall time onto [`SimTime`].
    epoch: Instant,
    stopping: AtomicBool,
    /// Optional per-link attribution: posts raise a link's queue gauge,
    /// deliveries settle it and count the bytes.
    tracker: OnceLock<Arc<LinkTracker>>,
}

impl Default for RingFabric {
    fn default() -> Self {
        Self::new(RingConfig::default())
    }
}

impl RingFabric {
    /// New ring fabric with no endpoints. Pair with [`spawn_flusher`] for
    /// live use, or drive [`RingFabric::pump`] manually with a virtual
    /// clock for deterministic benchmarks.
    pub fn new(config: RingConfig) -> Self {
        assert!(config.ring_capacity > 0, "ring capacity must be positive");
        RingFabric {
            config,
            endpoints: RwLock::new(Registry::default()),
            doorbells: (0..config.shard_count()).map(|_| Doorbell::new()).collect(),
            copied_bytes: AtomicU64::new(0),
            shared_bytes: AtomicU64::new(0),
            messages: AtomicU64::new(0),
            send_errors: AtomicU64::new(0),
            posted: AtomicU64::new(0),
            flushed_batches: AtomicU64::new(0),
            flushed_items: AtomicU64::new(0),
            epoch: Instant::now(),
            stopping: AtomicBool::new(false),
            tracker: OnceLock::new(),
        }
    }

    /// Attribute subsequent posts and deliveries to physical links
    /// through `tracker`. Install once, before traffic: a second install
    /// keeps the first.
    pub fn install_link_tracker(&self, tracker: Arc<LinkTracker>) {
        let _ = self.tracker.set(tracker);
    }

    /// The active configuration.
    pub fn config(&self) -> RingConfig {
        self.config
    }

    /// Wall time since this fabric was created, as a [`SimTime`] (live
    /// flusher mode only; deterministic callers pass their own clock).
    pub fn wall_now(&self) -> SimTime {
        SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    fn install(&self, id: EndpointId, tx: Sender<LiveMessage>) -> Result<(), RegisterError> {
        let mut reg = self.endpoints.write();
        if reg.by_id.contains_key(&id) {
            return Err(RegisterError::AlreadyRegistered(id));
        }
        reg.by_id.insert(
            id,
            Arc::new(Mutex::new(EndpointRing {
                id,
                ring: VecDeque::new(),
                ring_bytes: 0,
                batcher: Batcher::new(self.config.batch),
                tx,
                undelivered: VecDeque::new(),
            })),
        );
        reg.orders = None;
        Ok(())
    }

    /// Register an endpoint with an unbounded inbox; returns its receiver.
    pub fn register(&self, id: EndpointId) -> Result<Receiver<LiveMessage>, RegisterError> {
        let (tx, rx) = unbounded();
        self.install(id, tx)?;
        Ok(rx)
    }

    /// Register an endpoint whose inbox holds at most `capacity` delivered
    /// messages; full inboxes park flushed batches for later retry rather
    /// than dropping them.
    pub fn register_bounded(
        &self,
        id: EndpointId,
        capacity: usize,
    ) -> Result<Receiver<LiveMessage>, RegisterError> {
        let (tx, rx) = bounded(capacity);
        self.install(id, tx)?;
        Ok(rx)
    }

    /// Remove an endpoint; pending descriptors are dropped. Flush first if
    /// they must arrive.
    pub fn deregister(&self, id: EndpointId) {
        let mut reg = self.endpoints.write();
        if reg.by_id.remove(&id).is_some() {
            reg.orders = None;
        }
    }

    /// See [`FabricPath::wake`].
    pub fn wake(&self, id: EndpointId) {
        let slot = self.endpoints.read().by_id.get(&id).cloned();
        if let Some(slot) = slot {
            let _ = slot.lock().tx.try_send(LiveMessage::wake(id));
        }
    }

    /// Post a descriptor to `to`'s ring. The doorbell rings only when the
    /// flusher could otherwise sleep past this descriptor: the endpoint was
    /// idle (nothing pending, so no WTL deadline is armed for it), or this
    /// post carries the bytes buffered since the last flush across MMS.
    /// Every other post rides the deadline its predecessors armed — the
    /// flusher wakes for it anyway and pumps whatever was posted meanwhile,
    /// which is what makes a stream slice cost one wake-up, not one per
    /// message.
    fn post(&self, to: EndpointId, msg: LiveMessage) -> Result<(), SendError> {
        let slot = self.endpoints.read().by_id.get(&to).cloned();
        let Some(slot) = slot else {
            self.send_errors.fetch_add(1, Ordering::Relaxed);
            return Err(SendError::UnknownEndpoint);
        };
        let wake = {
            let mut ep = slot.lock();
            let pending = ep.pending();
            if pending >= self.config.ring_capacity {
                drop(ep);
                self.send_errors.fetch_add(1, Ordering::Relaxed);
                return Err(SendError::Full);
            }
            let bytes = msg.payload.len();
            if let Some(tracker) = self.tracker.get() {
                // Accepted into the ring: the frame now occupies its link's
                // queue until the flusher delivers (or drops) it.
                tracker.on_send(msg.from, to, bytes);
            }
            let buffered = ep.batcher.buffered_bytes() + ep.ring_bytes;
            ep.ring_bytes += bytes;
            ep.ring.push_back(msg);
            let mms = self.config.batch.mms;
            pending == 0 || (buffered < mms && buffered + bytes >= mms)
        };
        self.posted.fetch_add(1, Ordering::Relaxed);
        if wake {
            self.doorbells[self.config.shard_of(to)].ring();
        }
        Ok(())
    }

    /// TCP-semantics post: the bytes are copied into the descriptor now
    /// (the copy tax is paid per destination), counted on delivery.
    pub fn send_copied(
        &self,
        from: EndpointId,
        to: EndpointId,
        bytes: &[u8],
    ) -> Result<(), SendError> {
        self.post(
            to,
            LiveMessage {
                from,
                payload: Payload::Copied(bytes.to_vec()),
            },
        )
    }

    /// RDMA-semantics post: the shared buffer rides the descriptor by
    /// reference, counted on delivery.
    pub fn send_shared(
        &self,
        from: EndpointId,
        to: EndpointId,
        buf: Arc<[u8]>,
    ) -> Result<(), SendError> {
        self.post(
            to,
            LiveMessage {
                from,
                payload: Payload::Shared(buf),
            },
        )
    }

    /// Endpoint slots in id order, so deterministic pumps visit rings in
    /// a stable order. `shard = None` selects every endpoint; `Some(s)`
    /// only those assigned to shard `s`.
    fn slots(&self, shard: Option<usize>) -> Arc<[Slot]> {
        if let Some(orders) = &self.endpoints.read().orders {
            return orders.pick(shard);
        }
        self.endpoints.write().orders(&self.config).pick(shard)
    }

    fn note_batch(&self, n_items: usize) {
        self.flushed_batches.fetch_add(1, Ordering::Relaxed);
        self.flushed_items.fetch_add(n_items as u64, Ordering::Relaxed);
    }

    /// Hand parked batch items to the inbox, preserving order. Stops at a
    /// full bounded inbox (retried next pump); drops and counts errors on
    /// a disconnected one.
    fn drain_undelivered(&self, ep: &mut EndpointRing) -> u64 {
        let mut delivered = 0;
        while let Some(msg) = ep.undelivered.pop_front() {
            let len = msg.payload.len() as u64;
            let shared = matches!(msg.payload, Payload::Shared(_));
            // Count before the hand-off: the channel's send→recv
            // synchronization then guarantees that a receiver which has
            // seen the message also sees the counters (counting after
            // would let a reader observe the delivery but a stale count).
            // Failed hand-offs undo the increment below.
            let bytes_ctr = if shared {
                &self.shared_bytes
            } else {
                &self.copied_bytes
            };
            self.messages.fetch_add(1, Ordering::Relaxed);
            bytes_ctr.fetch_add(len, Ordering::Relaxed);
            let from = msg.from;
            match ep.tx.try_send(msg) {
                Ok(()) => {
                    delivered += 1;
                    if let Some(tracker) = self.tracker.get() {
                        tracker.on_delivered(from, ep.id, len as usize);
                    }
                }
                Err(TrySendError::Full(msg)) => {
                    self.messages.fetch_sub(1, Ordering::Relaxed);
                    bytes_ctr.fetch_sub(len, Ordering::Relaxed);
                    ep.undelivered.push_front(msg);
                    break;
                }
                Err(TrySendError::Disconnected(_)) => {
                    self.messages.fetch_sub(1, Ordering::Relaxed);
                    bytes_ctr.fetch_sub(len, Ordering::Relaxed);
                    self.send_errors.fetch_add(1, Ordering::Relaxed);
                    if let Some(tracker) = self.tracker.get() {
                        tracker.on_dropped(from, ep.id, len as usize);
                    }
                }
            }
        }
        delivered
    }

    /// One flusher pass at time `now`: drain every ring into its batcher
    /// (size-triggered batches flush immediately), fire expired WTL timers,
    /// and deliver flushed items. Returns the number delivered.
    ///
    /// Deterministic mode: single-threaded, visits every endpoint in id
    /// order regardless of `flusher_shards`, so virtual-clock delivery
    /// traces are identical across shard counts.
    pub fn pump(&self, now: SimTime) -> u64 {
        self.pump_slots(&self.slots(None), now).0
    }

    /// [`RingFabric::pump`] restricted to the endpoints of one flusher
    /// shard — the live drain workers call this so two shards never
    /// contend on the same endpoint ring.
    pub fn pump_shard(&self, shard: usize, now: SimTime) -> u64 {
        self.pump_slots(&self.slots(Some(shard)), now).0
    }

    /// Returns the number delivered and, taken under the same endpoint
    /// locks, when these slots next need a pump (see
    /// [`RingFabric::next_deadline`]).
    fn pump_slots(&self, slots: &[Slot], now: SimTime) -> (u64, Option<SimTime>) {
        let mut delivered = 0;
        let mut next: Option<SimTime> = None;
        for slot in slots {
            let mut ep = slot.lock();
            ep.ring_bytes = 0;
            while let Some(msg) = ep.ring.pop_front() {
                let bytes = msg.payload.len();
                if let Some(batch) = ep.batcher.offer(now, msg, bytes) {
                    self.note_batch(batch.items.len());
                    ep.undelivered.extend(batch.items);
                }
            }
            if let Some(batch) = ep.batcher.on_timer(now) {
                self.note_batch(batch.items.len());
                ep.undelivered.extend(batch.items);
            }
            delivered += self.drain_undelivered(&mut ep);
            next = next.into_iter().chain(ep.next_due()).min();
        }
        (delivered, next)
    }

    /// Force everything out at time `now`: pump, then force-flush every
    /// batcher regardless of MMS/WTL and deliver (shutdown / end of a
    /// deterministic run). Returns the number delivered.
    pub fn flush_at(&self, now: SimTime) -> u64 {
        self.flush_slots_at(None, now)
    }

    /// [`RingFabric::flush_at`] restricted to one flusher shard's
    /// endpoints (live shard shutdown).
    pub fn flush_shard_at(&self, shard: usize, now: SimTime) -> u64 {
        self.flush_slots_at(Some(shard), now)
    }

    fn flush_slots_at(&self, shard: Option<usize>, now: SimTime) -> u64 {
        let slots = self.slots(shard);
        let (mut delivered, _) = self.pump_slots(&slots, now);
        for slot in slots.iter() {
            let mut ep = slot.lock();
            if let Some(batch) = ep.batcher.flush() {
                self.note_batch(batch.items.len());
                ep.undelivered.extend(batch.items);
            }
            delivered += self.drain_undelivered(&mut ep);
        }
        delivered
    }

    /// Earliest WTL deadline across endpoints; `SimTime::ZERO` if any ring
    /// or retry queue already holds work. `None` when fully idle.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.slots(None)
            .iter()
            .filter_map(|slot| slot.lock().next_due())
            .min()
    }

    /// Descriptors accepted into rings so far.
    pub fn posted(&self) -> u64 {
        self.posted.load(Ordering::Relaxed)
    }

    /// Doorbell rings that woke (or would have woken) a flusher shard: one
    /// per idle→pending transition or MMS crossing, not one per post.
    pub fn doorbell_rings(&self) -> u64 {
        self.doorbells.iter().map(Doorbell::rings).sum()
    }

    /// Descriptors currently sitting in rings awaiting the flusher —
    /// the live transfer-queue length across every endpoint.
    pub fn queue_depth(&self) -> u64 {
        let slots = self.slots(None);
        slots.iter().map(|slot| slot.lock().pending() as u64).sum()
    }

    /// Messages delivered so far.
    pub fn messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Bytes delivered through the copied (TCP) path so far.
    pub fn copied_bytes(&self) -> u64 {
        self.copied_bytes.load(Ordering::Relaxed)
    }

    /// Bytes delivered through the shared (RDMA) path so far.
    pub fn shared_bytes(&self) -> u64 {
        self.shared_bytes.load(Ordering::Relaxed)
    }

    /// Failed posts plus failed deliveries so far.
    pub fn send_errors(&self) -> u64 {
        self.send_errors.load(Ordering::Relaxed)
    }

    /// Batches flushed so far.
    pub fn flushed_batches(&self) -> u64 {
        self.flushed_batches.load(Ordering::Relaxed)
    }

    /// Items delivered through flushed batches so far.
    pub fn flushed_items(&self) -> u64 {
        self.flushed_items.load(Ordering::Relaxed)
    }

    /// Mean items per flushed batch (0 if none flushed yet).
    pub fn mean_batch_size(&self) -> f64 {
        let batches = self.flushed_batches();
        if batches == 0 {
            0.0
        } else {
            self.flushed_items() as f64 / batches as f64
        }
    }

    /// Registered endpoint count.
    pub fn endpoint_count(&self) -> usize {
        self.endpoints.read().by_id.len()
    }

    /// Export delivery and batching counters into `reg` under `prefix.*`.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        reg.set_counter(&format!("{prefix}.posted"), self.posted());
        reg.set_counter(&format!("{prefix}.doorbell_rings"), self.doorbell_rings());
        reg.set_counter(&format!("{prefix}.messages"), self.messages());
        reg.set_counter(&format!("{prefix}.copied_bytes"), self.copied_bytes());
        reg.set_counter(&format!("{prefix}.shared_bytes"), self.shared_bytes());
        reg.set_counter(&format!("{prefix}.send_errors"), self.send_errors());
        reg.set_counter(&format!("{prefix}.flushed_batches"), self.flushed_batches());
        reg.set_counter(&format!("{prefix}.flushed_items"), self.flushed_items());
        reg.set_gauge(&format!("{prefix}.mean_batch_size"), self.mean_batch_size());
        reg.set_gauge(&format!("{prefix}.endpoints"), self.endpoint_count() as f64);
        reg.set_gauge(
            &format!("{prefix}.flusher_shards"),
            self.config.shard_count() as f64,
        );
    }
}

impl FabricPath for RingFabric {
    fn register(&self, id: EndpointId) -> Result<Receiver<LiveMessage>, RegisterError> {
        RingFabric::register(self, id)
    }

    fn register_bounded(
        &self,
        id: EndpointId,
        capacity: usize,
    ) -> Result<Receiver<LiveMessage>, RegisterError> {
        RingFabric::register_bounded(self, id, capacity)
    }

    fn deregister(&self, id: EndpointId) {
        RingFabric::deregister(self, id);
    }

    fn send_copied(
        &self,
        from: EndpointId,
        to: EndpointId,
        bytes: &[u8],
    ) -> Result<(), SendError> {
        RingFabric::send_copied(self, from, to, bytes)
    }

    fn send_shared(
        &self,
        from: EndpointId,
        to: EndpointId,
        buf: Arc<[u8]>,
    ) -> Result<(), SendError> {
        RingFabric::send_shared(self, from, to, buf)
    }

    fn flush(&self) {
        self.flush_at(self.wall_now());
    }

    fn wake(&self, id: EndpointId) {
        RingFabric::wake(self, id);
    }

    fn messages(&self) -> u64 {
        RingFabric::messages(self)
    }

    fn copied_bytes(&self) -> u64 {
        RingFabric::copied_bytes(self)
    }

    fn shared_bytes(&self) -> u64 {
        RingFabric::shared_bytes(self)
    }

    fn send_errors(&self) -> u64 {
        RingFabric::send_errors(self)
    }

    fn flushed_batches(&self) -> u64 {
        RingFabric::flushed_batches(self)
    }

    fn flushed_items(&self) -> u64 {
        RingFabric::flushed_items(self)
    }

    fn queue_depth(&self) -> u64 {
        RingFabric::queue_depth(self)
    }

    fn endpoint_count(&self) -> usize {
        RingFabric::endpoint_count(self)
    }

    fn install_link_tracker(&self, tracker: Arc<LinkTracker>) {
        RingFabric::install_link_tracker(self, tracker);
    }

    fn export_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        RingFabric::export_metrics(self, reg, prefix);
    }
}

/// Handle to the background flusher shards. Stop it (or drop it) to force
/// a final flush and join every drain worker.
pub struct RingFlusher {
    fabric: Arc<RingFabric>,
    handles: Vec<JoinHandle<()>>,
}

impl RingFlusher {
    /// Signal every flusher shard to drain everything and exit, then join
    /// them all.
    pub fn stop(mut self) {
        self.shutdown();
    }

    /// Number of drain workers this flusher runs.
    pub fn shard_count(&self) -> usize {
        self.handles.len().max(1)
    }

    fn shutdown(&mut self) {
        self.fabric.stopping.store(true, Ordering::SeqCst);
        for bell in &self.fabric.doorbells {
            bell.ring();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for RingFlusher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Spawn the background flusher: one drain worker per
/// [`RingConfig::flusher_shards`], each pumping its shard's rings when
/// its doorbell rings (an idle endpoint got a post, or buffered bytes
/// crossed MMS) or the nearest WTL deadline falls due, and force-flushing
/// its shard on stop. An endpoint is
/// always drained by the same shard, so per-endpoint FIFO order holds.
pub fn spawn_flusher(fabric: Arc<RingFabric>) -> RingFlusher {
    let handles = (0..fabric.config.shard_count())
        .map(|shard| {
            let worker = Arc::clone(&fabric);
            std::thread::Builder::new()
                .name(format!("ring-flusher-{shard}"))
                .spawn(move || flusher_loop(&worker, shard))
                .expect("spawn ring flusher shard")
        })
        .collect();
    RingFlusher { fabric, handles }
}

fn flusher_loop(fabric: &RingFabric, shard: usize) {
    // Idle heartbeat so a lost wakeup can never stall the fabric for long.
    let idle = fabric.config.idle_heartbeat;
    // Backoff while a bounded inbox stays full (delivery made no progress).
    let stalled = fabric.config.stall_backoff;
    loop {
        // The deadline comes out of the pump's own pass over the endpoint
        // locks. A post that lands behind the pass either found its
        // endpoint idle and rang — the wait below returns at once — or
        // rides a deadline this pass already saw.
        let (delivered, deadline) =
            fabric.pump_slots(&fabric.slots(Some(shard)), fabric.wall_now());
        if fabric.stopping.load(Ordering::SeqCst) {
            fabric.flush_shard_at(shard, fabric.wall_now());
            return;
        }
        let wait = match deadline {
            Some(deadline) => {
                let now = fabric.wall_now();
                if deadline <= now {
                    if delivered == 0 {
                        stalled
                    } else {
                        // More work is already due; pump again immediately.
                        continue;
                    }
                } else {
                    Duration::from_nanos(deadline.as_nanos() - now.as_nanos())
                }
            }
            None => idle,
        };
        fabric.doorbells[shard].wait(wait);
    }
}

/// Which live transport a runtime should instantiate.
#[derive(Clone, Copy, Debug, Default)]
pub enum FabricKind {
    /// The synchronous per-send channel map ([`LiveFabric`]).
    #[default]
    PerSend,
    /// The batched ring-buffer path ([`RingFabric`]) with a background
    /// flusher.
    Ring(RingConfig),
    /// The remote-fetch path ([`crate::OneSidedFabric`]) with a background
    /// fetcher: senders publish into per-link ring regions, receivers pull
    /// via modeled `RDMA READ`s.
    OneSided(crate::OneSidedConfig),
}

/// A built live transport plus, on the buffered paths, the background
/// drain thread (ring flusher or one-sided fetcher).
pub struct FabricInstance {
    /// The shared transport handle.
    pub fabric: Arc<dyn FabricPath>,
    flusher: Option<RingFlusher>,
    fetcher: Option<crate::OneSidedFetcher>,
}

impl FabricKind {
    /// Instantiate the transport (and its drain thread, for the buffered
    /// paths).
    pub fn build(self) -> FabricInstance {
        match self {
            FabricKind::PerSend => FabricInstance {
                fabric: Arc::new(LiveFabric::new()),
                flusher: None,
                fetcher: None,
            },
            FabricKind::Ring(config) => {
                let ring = Arc::new(RingFabric::new(config));
                let flusher = spawn_flusher(Arc::clone(&ring));
                FabricInstance {
                    fabric: ring,
                    flusher: Some(flusher),
                    fetcher: None,
                }
            }
            FabricKind::OneSided(config) => {
                let one_sided = Arc::new(crate::OneSidedFabric::new(config));
                let fetcher = crate::spawn_fetcher(Arc::clone(&one_sided));
                FabricInstance {
                    fabric: one_sided,
                    flusher: None,
                    fetcher: Some(fetcher),
                }
            }
        }
    }
}

impl FabricInstance {
    /// Flush buffered sends and stop the drain thread (if any). Call after
    /// all senders have finished but before deregistering receivers.
    pub fn shutdown(&mut self) {
        self.fabric.flush();
        if let Some(flusher) = self.flusher.take() {
            flusher.stop();
        }
        if let Some(fetcher) = self.fetcher.take() {
            fetcher.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whale_sim::SimDuration;

    fn cfg(ring_capacity: usize, mms: usize, wtl_ms: u64) -> RingConfig {
        RingConfig {
            ring_capacity,
            batch: BatchConfig {
                mms,
                wtl: SimDuration::from_millis(wtl_ms),
            },
            ..RingConfig::default()
        }
    }

    #[test]
    fn posts_sit_in_ring_until_pumped() {
        let fabric = RingFabric::new(cfg(16, 1_000_000, 1));
        let rx = fabric.register(EndpointId(1)).unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"hello")
            .unwrap();
        assert!(rx.try_recv().is_err(), "nothing delivered before a flush");
        assert_eq!(fabric.posted(), 1);
        assert_eq!(fabric.messages(), 0);
        assert_eq!(fabric.copied_bytes(), 0, "bytes count on delivery only");

        // Under MMS and before WTL: still buffered after a pump.
        fabric.pump(SimTime::ZERO);
        assert!(rx.try_recv().is_err());

        // Past WTL: the timer flushes the batch.
        let delivered = fabric.pump(SimTime::from_millis(1));
        assert_eq!(delivered, 1);
        assert_eq!(rx.recv().unwrap().payload.bytes(), b"hello");
        assert_eq!(fabric.copied_bytes(), 5);
        assert_eq!(fabric.flushed_batches(), 1);
    }

    #[test]
    fn mms_triggers_size_batches() {
        let fabric = RingFabric::new(cfg(1024, 100, 1_000));
        let rx = fabric.register(EndpointId(1)).unwrap();
        for _ in 0..10 {
            fabric
                .send_copied(EndpointId(0), EndpointId(1), &[0u8; 25])
                .unwrap();
        }
        // 10 × 25 B versus MMS 100 B: pumps flush by size alone, no WTL.
        let delivered = fabric.pump(SimTime::ZERO);
        assert_eq!(delivered, 8, "two full batches of four 25 B items");
        assert_eq!(fabric.flushed_batches(), 2);
        assert!((fabric.mean_batch_size() - 4.0).abs() < 1e-12);
        // The remainder needs a forced flush (or a WTL tick).
        assert_eq!(fabric.flush_at(SimTime::ZERO), 2);
        assert_eq!(std::iter::from_fn(|| rx.try_recv().ok()).count(), 10);
    }

    #[test]
    fn full_ring_backpressures_without_deadlock() {
        let fabric = RingFabric::new(cfg(2, 1_000_000, 1));
        let _rx = fabric.register(EndpointId(1)).unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"a")
            .unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"b")
            .unwrap();
        let err = fabric
            .send_copied(EndpointId(0), EndpointId(1), b"c")
            .unwrap_err();
        assert_eq!(err, SendError::Full);
        assert_eq!(fabric.send_errors(), 1);
        // Draining the ring frees capacity.
        fabric.flush_at(SimTime::ZERO);
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"c")
            .unwrap();
    }

    #[test]
    fn unknown_endpoint_and_disconnected_count_errors_not_bytes() {
        let fabric = RingFabric::new(cfg(16, 1_000_000, 1));
        assert_eq!(
            fabric
                .send_copied(EndpointId(0), EndpointId(9), b"x")
                .unwrap_err(),
            SendError::UnknownEndpoint
        );
        let rx = fabric.register(EndpointId(1)).unwrap();
        drop(rx);
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"xx")
            .unwrap();
        fabric.flush_at(SimTime::ZERO);
        assert_eq!(fabric.send_errors(), 2);
        assert_eq!(fabric.copied_bytes(), 0);
        assert_eq!(fabric.messages(), 0);
    }

    #[test]
    fn bounded_inbox_parks_and_retries_in_order() {
        let fabric = RingFabric::new(cfg(16, 1_000_000, 1));
        let rx = fabric.register_bounded(EndpointId(1), 2).unwrap();
        for b in [b"a", b"b", b"c", b"d"] {
            fabric.send_copied(EndpointId(0), EndpointId(1), b).unwrap();
        }
        // Only two fit the inbox; the rest park, nothing is lost.
        assert_eq!(fabric.flush_at(SimTime::ZERO), 2);
        assert_eq!(rx.try_recv().unwrap().payload.bytes(), b"a");
        assert_eq!(rx.try_recv().unwrap().payload.bytes(), b"b");
        assert_eq!(fabric.pump(SimTime::ZERO), 2);
        assert_eq!(rx.try_recv().unwrap().payload.bytes(), b"c");
        assert_eq!(rx.try_recv().unwrap().payload.bytes(), b"d");
        assert_eq!(fabric.send_errors(), 0);
    }

    #[test]
    fn reregister_errors_until_deregistered() {
        let fabric = RingFabric::new(RingConfig::default());
        let _rx = fabric.register(EndpointId(3)).unwrap();
        assert_eq!(
            fabric.register(EndpointId(3)).unwrap_err(),
            RegisterError::AlreadyRegistered(EndpointId(3))
        );
        fabric.deregister(EndpointId(3));
        assert!(fabric.register(EndpointId(3)).is_ok());
    }

    #[test]
    fn next_deadline_reflects_pending_work() {
        let fabric = RingFabric::new(cfg(16, 1_000_000, 2));
        let _rx = fabric.register(EndpointId(1)).unwrap();
        assert_eq!(fabric.next_deadline(), None, "idle fabric has no deadline");
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"x")
            .unwrap();
        assert_eq!(
            fabric.next_deadline(),
            Some(SimTime::ZERO),
            "undrained ring is immediately due"
        );
        fabric.pump(SimTime::from_millis(1));
        assert_eq!(
            fabric.next_deadline(),
            Some(SimTime::from_millis(3)),
            "buffered item is due at offer time + WTL"
        );
        fabric.pump(SimTime::from_millis(3));
        assert_eq!(fabric.next_deadline(), None);
    }

    #[test]
    fn live_flusher_delivers_without_manual_pumps() {
        let fabric = Arc::new(RingFabric::new(cfg(1024, 1_000_000, 1)));
        let flusher = spawn_flusher(Arc::clone(&fabric));
        let rx = fabric.register(EndpointId(1)).unwrap();
        for i in 0..50u8 {
            fabric
                .send_copied(EndpointId(0), EndpointId(1), &[i])
                .unwrap();
        }
        // WTL is 1 ms; the flusher must deliver well within the timeout.
        let got: Vec<u8> = (0..50)
            .map(|_| {
                rx.recv_timeout(Duration::from_secs(5))
                    .expect("flusher delivers")
                    .payload
                    .bytes()[0]
            })
            .collect();
        assert_eq!(got, (0..50).collect::<Vec<u8>>());
        flusher.stop();
    }

    #[test]
    fn a_burst_inside_one_wtl_window_costs_one_wakeup_and_one_batch() {
        const N: u8 = 100;
        // WTL far above the time 100 posts take, MMS out of reach.
        let fabric = Arc::new(RingFabric::new(cfg(1024, 1_000_000, 200)));
        let flusher = spawn_flusher(Arc::clone(&fabric));
        let rx = fabric.register(EndpointId(1)).unwrap();
        let started = Instant::now();
        for i in 0..N {
            fabric
                .send_copied(EndpointId(0), EndpointId(1), &[i])
                .unwrap();
        }
        // The first post found the endpoint idle and rang; the rest ride
        // the deadline it armed.
        assert!(
            fabric.doorbell_rings() <= 2,
            "rings = {}",
            fabric.doorbell_rings()
        );
        let got: Vec<u8> = (0..N)
            .map(|_| {
                rx.recv_timeout(Duration::from_secs(5))
                    .expect("the WTL deadline flushes the burst")
                    .payload
                    .bytes()[0]
            })
            .collect();
        assert_eq!(got, (0..N).collect::<Vec<u8>>(), "FIFO");
        assert!(
            started.elapsed() >= Duration::from_millis(200),
            "held to WTL"
        );
        assert_eq!(fabric.flushed_batches(), 1, "one batch, not one per post");
        assert!(fabric.doorbell_rings() <= 2);
        let mut reg = MetricsRegistry::new();
        fabric.export_metrics(&mut reg, "net.ring");
        assert_eq!(
            reg.counter("net.ring.doorbell_rings"),
            Some(fabric.doorbell_rings())
        );
        assert_eq!(reg.counter("net.ring.posted"), Some(N as u64));
        flusher.stop();
    }

    #[test]
    fn crossing_mms_rings_at_once_and_flushes_before_wtl() {
        // WTL is 10 s: only the size trigger can deliver within the test.
        let fabric = Arc::new(RingFabric::new(cfg(1024, 1_000, 10_000)));
        let flusher = spawn_flusher(Arc::clone(&fabric));
        let rx = fabric.register(EndpointId(1)).unwrap();
        for i in 0..9u8 {
            fabric
                .send_copied(EndpointId(0), EndpointId(1), &[i; 100])
                .unwrap();
        }
        assert!(fabric.doorbell_rings() <= 1, "900 B stay under MMS");
        fabric
            .send_copied(EndpointId(0), EndpointId(1), &[9; 100])
            .unwrap();
        for i in 0..10u8 {
            let msg = rx
                .recv_timeout(Duration::from_secs(5))
                .expect("the post that crossed MMS woke the flusher");
            assert_eq!(msg.payload.bytes()[0], i);
        }
        assert_eq!(fabric.flushed_batches(), 1);
        assert!(fabric.doorbell_rings() <= 2);
        flusher.stop();
    }

    #[test]
    fn live_flusher_drains_a_bounded_inbox_in_order() {
        const N: u8 = 50;
        let fabric = Arc::new(RingFabric::new(cfg(1024, 1_000_000, 1)));
        let flusher = spawn_flusher(Arc::clone(&fabric));
        let rx = fabric.register_bounded(EndpointId(1), 2).unwrap();
        for i in 0..N {
            fabric
                .send_copied(EndpointId(0), EndpointId(1), &[i])
                .unwrap();
        }
        // Two fit the inbox; the rest park in the retry queue, and the
        // flusher keeps retrying on its stall backoff — no post rings for
        // them — as the reader makes room.
        for i in 0..N {
            let msg = rx
                .recv_timeout(Duration::from_secs(5))
                .expect("parked items are retried");
            assert_eq!(msg.payload.bytes()[0], i);
        }
        assert_eq!(fabric.send_errors(), 0);
        flusher.stop();
    }

    /// Senders pause for about a WTL between posts, so posts keep landing
    /// in the flusher's pump → wait gap. The idle heartbeat is set out of
    /// reach: a frame can only arrive in time if no wake-up was lost.
    #[test]
    fn coalesced_doorbells_never_lose_a_wakeup() {
        const SENDERS: u32 = 4;
        const ENDPOINTS: u32 = 6;
        const PER_PAIR: u32 = 40;
        let fabric = Arc::new(RingFabric::new(RingConfig {
            ring_capacity: 4096,
            batch: BatchConfig {
                mms: 4 * 1024,
                wtl: SimDuration::from_millis(1),
            },
            flusher_shards: 2,
            idle_heartbeat: Duration::from_secs(30),
            ..RingConfig::default()
        }));
        let flusher = spawn_flusher(Arc::clone(&fabric));
        let epoch = Instant::now();
        let readers: Vec<_> = (0..ENDPOINTS)
            .map(|d| {
                let rx = fabric.register(EndpointId(d)).unwrap();
                std::thread::spawn(move || {
                    let mut next_seq = vec![0u32; SENDERS as usize];
                    let mut longest = Duration::ZERO;
                    for _ in 0..SENDERS * PER_PAIR {
                        let msg = rx
                            .recv_timeout(Duration::from_secs(10))
                            .expect("a lost wake-up would wait out the heartbeat");
                        let bytes = msg.payload.bytes();
                        let s = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
                        let seq = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
                        let posted_ns = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
                        assert_eq!(seq, next_seq[s as usize], "per-endpoint FIFO");
                        next_seq[s as usize] = seq + 1;
                        longest = longest.max(
                            epoch
                                .elapsed()
                                .saturating_sub(Duration::from_nanos(posted_ns)),
                        );
                    }
                    longest
                })
            })
            .collect();
        let senders: Vec<_> = (0..SENDERS)
            .map(|s| {
                let f = Arc::clone(&fabric);
                std::thread::spawn(move || {
                    let mut rng = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(s as u64 + 1);
                    for seq in 0..PER_PAIR {
                        for d in 0..ENDPOINTS {
                            let now = epoch.elapsed().as_nanos() as u64;
                            let frame =
                                [&s.to_le_bytes()[..], &seq.to_le_bytes(), &now.to_le_bytes()]
                                    .concat();
                            f.send_copied(EndpointId(100 + s), EndpointId(d), &frame)
                                .unwrap();
                            // 0–2 ms around the 1 ms WTL (xorshift).
                            rng ^= rng << 13;
                            rng ^= rng >> 7;
                            rng ^= rng << 17;
                            std::thread::sleep(Duration::from_micros(rng % 2_000));
                        }
                    }
                })
            })
            .collect();
        for s in senders {
            s.join().unwrap();
        }
        for r in readers {
            let longest = r.join().unwrap();
            assert!(
                longest < Duration::from_secs(5),
                "a frame waited {longest:?}: its wake-up was lost"
            );
        }
        assert_eq!(fabric.messages(), (SENDERS * ENDPOINTS * PER_PAIR) as u64);
        assert!(fabric.doorbell_rings() <= fabric.posted());
        flusher.stop();
    }

    #[test]
    fn flusher_stop_flushes_stragglers() {
        let fabric = Arc::new(RingFabric::new(cfg(1024, 1_000_000, 10_000)));
        let flusher = spawn_flusher(Arc::clone(&fabric));
        let rx = fabric.register(EndpointId(1)).unwrap();
        // WTL is 10 s: nothing would flush on its own within the test.
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"tail")
            .unwrap();
        flusher.stop();
        assert_eq!(rx.try_recv().unwrap().payload.bytes(), b"tail");
    }

    #[test]
    fn multi_producer_stress_keeps_per_sender_order() {
        const SENDERS: u32 = 8;
        const PER_SENDER: u32 = 2_000;
        let fabric = Arc::new(RingFabric::new(cfg(
            (SENDERS * PER_SENDER) as usize,
            4 * 1024,
            1,
        )));
        let flusher = spawn_flusher(Arc::clone(&fabric));
        let rx = fabric.register(EndpointId(0)).unwrap();

        let producers: Vec<_> = (1..=SENDERS)
            .map(|s| {
                let f = Arc::clone(&fabric);
                std::thread::spawn(move || {
                    for seq in 0..PER_SENDER {
                        let frame = [s.to_le_bytes(), seq.to_le_bytes()].concat();
                        // The ring is sized to hold everything, so Full
                        // can only mean lost capacity accounting.
                        f.send_copied(EndpointId(s), EndpointId(0), &frame)
                            .unwrap();
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }

        let mut next_seq = vec![0u32; SENDERS as usize + 1];
        for _ in 0..SENDERS * PER_SENDER {
            let msg = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("no descriptor lost");
            let bytes = msg.payload.bytes();
            let s = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
            let seq = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
            assert_eq!(msg.from, EndpointId(s));
            assert_eq!(seq, next_seq[s as usize], "per-sender FIFO order");
            next_seq[s as usize] = seq + 1;
        }
        assert!(rx.try_recv().is_err(), "no duplicated descriptors");
        assert_eq!(fabric.messages(), (SENDERS * PER_SENDER) as u64);
        assert_eq!(fabric.send_errors(), 0);
        assert!(fabric.mean_batch_size() >= 1.0);
        flusher.stop();
    }

    #[test]
    fn stress_with_tiny_ring_backpressures_cleanly() {
        const SENDERS: u32 = 4;
        const PER_SENDER: u32 = 500;
        let fabric = Arc::new(RingFabric::new(cfg(8, 64, 1)));
        let flusher = spawn_flusher(Arc::clone(&fabric));
        let rx = fabric.register(EndpointId(0)).unwrap();

        let producers: Vec<_> = (1..=SENDERS)
            .map(|s| {
                let f = Arc::clone(&fabric);
                std::thread::spawn(move || {
                    let mut retries = 0u64;
                    for seq in 0..PER_SENDER {
                        let frame = [s.to_le_bytes(), seq.to_le_bytes()].concat();
                        // Backpressure shows up as Full, never a deadlock:
                        // retry until the flusher frees ring capacity.
                        loop {
                            match f.send_copied(EndpointId(s), EndpointId(0), &frame) {
                                Ok(()) => break,
                                Err(SendError::Full) => {
                                    retries += 1;
                                    std::thread::yield_now();
                                }
                                Err(e) => panic!("unexpected send error: {e}"),
                            }
                        }
                    }
                    retries
                })
            })
            .collect();
        let _retries: u64 = producers.into_iter().map(|p| p.join().unwrap()).sum();

        let mut next_seq = vec![0u32; SENDERS as usize + 1];
        for _ in 0..SENDERS * PER_SENDER {
            let msg = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("every accepted post is delivered");
            let bytes = msg.payload.bytes();
            let s = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
            let seq = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
            assert_eq!(seq, next_seq[s as usize], "per-sender FIFO order");
            next_seq[s as usize] = seq + 1;
        }
        assert!(rx.try_recv().is_err());
        assert_eq!(fabric.messages(), (SENDERS * PER_SENDER) as u64);
        flusher.stop();
    }

    #[test]
    fn fabric_kind_builds_interchangeable_paths() {
        for kind in [
            FabricKind::PerSend,
            FabricKind::Ring(RingConfig::default()),
            FabricKind::OneSided(crate::OneSidedConfig::default()),
        ] {
            let mut instance = kind.build();
            let rx = instance.fabric.register(EndpointId(1)).unwrap();
            instance
                .fabric
                .send_copied(EndpointId(0), EndpointId(1), b"hi")
                .unwrap();
            instance.fabric.flush();
            assert_eq!(
                rx.recv_timeout(Duration::from_secs(5))
                    .unwrap()
                    .payload
                    .bytes(),
                b"hi"
            );
            assert_eq!(instance.fabric.messages(), 1);
            instance.shutdown();
        }
    }

    #[test]
    fn config_round_trips_flusher_fields_with_current_defaults() {
        let d = RingConfig::default();
        assert_eq!(d.flusher_shards, 1);
        assert_eq!(d.idle_heartbeat, Duration::from_millis(5));
        assert_eq!(d.stall_backoff, Duration::from_micros(100));

        let custom = RingConfig {
            flusher_shards: 4,
            idle_heartbeat: Duration::from_millis(1),
            stall_backoff: Duration::from_micros(10),
            ..RingConfig::default()
        };
        // The config must survive the fabric and the flusher unchanged.
        let fabric = Arc::new(RingFabric::new(custom));
        assert_eq!(fabric.config(), custom);
        let flusher = spawn_flusher(Arc::clone(&fabric));
        assert_eq!(flusher.shard_count(), 4);
        flusher.stop();
        // Zero shards degrades to one worker, never zero.
        assert_eq!(
            RingConfig {
                flusher_shards: 0,
                ..RingConfig::default()
            }
            .shard_count(),
            1
        );
    }

    #[test]
    fn shard_assignment_is_stable_and_covers_all_shards() {
        let c = RingConfig {
            flusher_shards: 4,
            ..RingConfig::default()
        };
        for id in 0..64u32 {
            let shard = c.shard_of(EndpointId(id));
            assert!(shard < 4);
            assert_eq!(shard, c.shard_of(EndpointId(id)), "assignment is stable");
        }
        let hit: std::collections::HashSet<usize> =
            (0..8u32).map(|id| c.shard_of(EndpointId(id))).collect();
        assert_eq!(hit.len(), 4, "8 consecutive ids cover all 4 shards");
    }

    /// Deterministic-mode regression: the virtual-clock delivery trace
    /// must be identical before and after sharding, because `pump` /
    /// `flush_at` stay single-threaded over every endpoint.
    #[test]
    fn pump_trace_is_identical_across_shard_counts() {
        fn trace(shards: usize) -> Vec<Vec<(u32, u8)>> {
            let fabric = RingFabric::new(RingConfig {
                flusher_shards: shards,
                ring_capacity: 1024,
                batch: BatchConfig {
                    mms: 64,
                    wtl: SimDuration::from_millis(1),
                },
                ..RingConfig::default()
            });
            let rxs: Vec<_> = (0..5u32)
                .map(|d| fabric.register(EndpointId(d)).unwrap())
                .collect();
            let mut now = SimTime::ZERO;
            for seq in 0..40u8 {
                for d in 0..5u32 {
                    fabric
                        .send_copied(EndpointId(100), EndpointId(d), &[seq; 20])
                        .unwrap();
                }
                fabric.pump(now);
                now += SimDuration::from_micros(100);
            }
            fabric.flush_at(now);
            rxs.iter()
                .map(|rx| {
                    std::iter::from_fn(|| rx.try_recv().ok())
                        .map(|m| (m.from.0, m.payload.bytes()[0]))
                        .collect()
                })
                .collect()
        }
        let unsharded = trace(1);
        assert_eq!(unsharded, trace(2));
        assert_eq!(unsharded, trace(4));
        assert!(unsharded.iter().all(|per_ep| per_ep.len() == 40));
    }

    #[test]
    fn multi_shard_stress_keeps_per_endpoint_fifo() {
        const SENDERS: u32 = 4;
        const ENDPOINTS: u32 = 6;
        const PER_PAIR: u32 = 500;
        let fabric = Arc::new(RingFabric::new(RingConfig {
            ring_capacity: (SENDERS * PER_PAIR) as usize,
            batch: BatchConfig {
                mms: 2 * 1024,
                wtl: SimDuration::from_millis(1),
            },
            flusher_shards: 4,
            ..RingConfig::default()
        }));
        let flusher = spawn_flusher(Arc::clone(&fabric));
        assert_eq!(flusher.shard_count(), 4);
        let rxs: Vec<_> = (0..ENDPOINTS)
            .map(|d| fabric.register(EndpointId(d)).unwrap())
            .collect();

        let producers: Vec<_> = (1..=SENDERS)
            .map(|s| {
                let f = Arc::clone(&fabric);
                std::thread::spawn(move || {
                    for seq in 0..PER_PAIR {
                        for d in 0..ENDPOINTS {
                            let frame = [(100 + s).to_le_bytes(), seq.to_le_bytes()].concat();
                            loop {
                                match f.send_copied(EndpointId(100 + s), EndpointId(d), &frame) {
                                    Ok(()) => break,
                                    Err(SendError::Full) => std::thread::yield_now(),
                                    Err(e) => panic!("unexpected send error: {e}"),
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }

        for rx in &rxs {
            let mut next_seq = vec![0u32; SENDERS as usize + 1];
            for _ in 0..SENDERS * PER_PAIR {
                let msg = rx
                    .recv_timeout(Duration::from_secs(10))
                    .expect("every accepted post is delivered");
                let bytes = msg.payload.bytes();
                let s = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) - 100;
                let seq = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
                assert_eq!(
                    seq, next_seq[s as usize],
                    "per-(sender, endpoint) FIFO order under 4 shards"
                );
                next_seq[s as usize] = seq + 1;
            }
            assert!(rx.try_recv().is_err(), "no duplicated descriptors");
        }
        assert_eq!(
            fabric.messages(),
            (SENDERS * ENDPOINTS * PER_PAIR) as u64,
            "lossless across shards"
        );
        flusher.stop();
    }

    #[test]
    fn export_metrics_snapshot() {
        let fabric = RingFabric::new(cfg(16, 64, 1));
        let rx = fabric.register(EndpointId(1)).unwrap();
        for _ in 0..4 {
            fabric
                .send_copied(EndpointId(0), EndpointId(1), &[0u8; 32])
                .unwrap();
        }
        fabric.flush_at(SimTime::ZERO);
        drop(rx);
        let mut reg = MetricsRegistry::new();
        fabric.export_metrics(&mut reg, "ring");
        assert_eq!(reg.counter("ring.posted"), Some(4));
        assert_eq!(reg.counter("ring.messages"), Some(4));
        assert_eq!(reg.counter("ring.copied_bytes"), Some(128));
        assert_eq!(reg.counter("ring.flushed_batches"), Some(2));
        assert!(reg.gauge("ring.mean_batch_size").unwrap() > 1.0);
    }

    #[test]
    fn a_second_link_tracker_install_keeps_the_first() {
        use crate::topology::{ClusterSpec, MachineId};
        for kind in [
            FabricKind::PerSend,
            FabricKind::Ring(RingConfig::default()),
            FabricKind::OneSided(crate::OneSidedConfig::default()),
        ] {
            let mut instance = kind.build();
            let tracker = || {
                let t = Arc::new(LinkTracker::new(ClusterSpec::new(2, 1, 1)));
                t.map_endpoint(EndpointId(0), MachineId(0));
                t.map_endpoint(EndpointId(1), MachineId(1));
                t
            };
            let (first, second) = (tracker(), tracker());
            instance.fabric.install_link_tracker(Arc::clone(&first));
            instance.fabric.install_link_tracker(Arc::clone(&second));
            let rx = instance.fabric.register(EndpointId(1)).unwrap();
            let sent = instance
                .fabric
                .send_copied(EndpointId(0), EndpointId(1), b"12345");
            assert_eq!(sent, Ok(()), "{kind:?}");
            instance.shutdown();
            assert_eq!(rx.try_recv().unwrap().payload.bytes(), b"12345");
            assert_eq!(first.total_bytes(), 5, "{kind:?}");
            assert_eq!(second.total_bytes(), 0, "{kind:?}");
        }
    }
}
