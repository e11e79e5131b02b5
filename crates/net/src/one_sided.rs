//! `OneSidedFabric`: the remote-fetch live transport (§4's one-sided
//! READ paradigm).
//!
//! Where [`crate::LiveFabric`] pushes into destination inboxes and
//! [`crate::RingFabric`] batches pushes through a flusher, this transport
//! inverts the data movement: each (sender, destination) link owns a
//! [`RingRegion`]-backed outbox registered once, the sender *publishes*
//! frames into it (server-bypass: no destination code runs on the send
//! path), and the receive side *fetches* — a modeled `RDMA READ` of the
//! tail slot, addressed purely by sequence number via
//! [`RingRegion::peek_at`], costed with [`Verb::Read`] through the
//! [`QueuePair`] cost model. A doorbell wakes the background fetcher
//! ([`spawn_fetcher`]) exactly like the ring flusher; deterministic
//! callers drive [`OneSidedFabric::fetch_all`] themselves.
//!
//! Semantics shared with the other transports:
//!
//! - a publish into a full outbox ring fails with [`SendError::Full`] —
//!   the bounded transfer queue of the M/D/1 model, surfaced as
//!   backpressure the `SendPolicy` retries;
//! - only bytes that actually reach an inbox count toward the byte
//!   totals; failed publishes and dead destinations increment
//!   `send_errors`;
//! - per-link FIFO order holds end to end: the ring is consumed strictly
//!   in sequence order, and a frame the (bounded) inbox cannot yet accept
//!   stays staged at the front of its link.

use crate::fabric::{
    EndpointId, FabricPath, IdHashMap, LiveMessage, Payload, RegisterError, SendError,
};
use crate::log::{LogConfig, PartitionLog};
use crate::memory::{MemoryRegistry, RingRegion};
use crate::ring_fabric::Doorbell;
use crate::topology::{LinkTracker, MachineId};
use crate::verbs::{QpId, QueuePair, WorkRequest, WrId};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;
use whale_sim::{CostModel, MetricsRegistry, Transport, Verb};

/// Configuration of the one-sided (remote-fetch) transport.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OneSidedConfig {
    /// Per-link outbox capacity in slots: the maximum number of published
    /// but not yet fetched frames between one sender and one destination.
    /// Publishes beyond it fail with [`SendError::Full`].
    pub ring_slots: usize,
    /// Per-slot registration accounting (bytes of registered memory each
    /// slot reserves).
    pub slot_bytes: usize,
    /// Rack distance assumed for the modeled READ round trip.
    pub rack_hops: u32,
    /// Idle heartbeat of the fetcher: the longest a lost doorbell wakeup
    /// can stall a fully idle fabric.
    pub idle_heartbeat: Duration,
    /// Backoff while a bounded inbox stays full and a fetch pass makes no
    /// delivery progress.
    pub stall_backoff: Duration,
    /// When set, every publish also writes through a per-link
    /// [`PartitionLog`] before the frame reaches the outbox ring, making
    /// published history re-readable via [`OneSidedFabric::backfill`]
    /// after the ring slot is long recycled.
    pub log: Option<LogConfig>,
}

impl Default for OneSidedConfig {
    fn default() -> Self {
        OneSidedConfig {
            ring_slots: 16 * 1024,
            slot_bytes: 2 * 1024,
            rack_hops: 0,
            idle_heartbeat: Duration::from_millis(5),
            stall_backoff: Duration::from_micros(100),
            log: None,
        }
    }
}

/// One (sender → destination) link: the registered outbox ring, the frame
/// a full inbox bounced back (kept at the logical front so FIFO holds),
/// and the queue pair whose posts price the fetches.
struct LinkOutbox {
    ring: RingRegion<LiveMessage>,
    staged: Option<LiveMessage>,
    qp: QueuePair,
    /// Durable history of every frame published on this link, present
    /// when [`OneSidedConfig::log`] is set.
    log: Option<PartitionLog>,
}

impl LinkOutbox {
    fn pending(&self) -> usize {
        self.ring.len() + usize::from(self.staged.is_some())
    }
}

/// Link key: (destination, sender).
type LinkKey = (EndpointId, EndpointId);

/// Shared handle to one link's outbox state.
type LinkHandle = Arc<Mutex<LinkOutbox>>;

/// The link table plus the (destination, sender)-sorted order every fetch
/// pass walks. A link's first use or its destination's deregistration only
/// clears `sorted`; the next fetch pass rebuilds it once, however many
/// links changed meanwhile, and every later pass clones one `Arc` — it
/// never collects or sorts.
#[derive(Default)]
struct Links {
    by_key: IdHashMap<LinkKey, LinkHandle>,
    /// `None` while stale.
    sorted: Option<Arc<[(EndpointId, LinkHandle)]>>,
}

impl Links {
    fn sorted(&mut self) -> Arc<[(EndpointId, LinkHandle)]> {
        let by_key = &self.by_key;
        Arc::clone(self.sorted.get_or_insert_with(|| {
            let mut keys: Vec<LinkKey> = by_key.keys().copied().collect();
            keys.sort_unstable();
            keys.iter()
                .map(|key| (key.0, Arc::clone(&by_key[key])))
                .collect()
        }))
    }
}

/// The remote-fetch transport. See the module docs for semantics.
pub struct OneSidedFabric {
    config: OneSidedConfig,
    cost: CostModel,
    inboxes: RwLock<IdHashMap<EndpointId, Sender<LiveMessage>>>,
    /// Keyed (destination, sender) so fetch passes group a destination's
    /// links together in the deterministic iteration order.
    links: RwLock<Links>,
    /// Registration ledger: one registration per link, paid lazily on the
    /// first publish, refunded on deregistration.
    registry: Mutex<MemoryRegistry>,
    doorbell: Doorbell,
    next_qp: AtomicU64,
    copied_bytes: AtomicU64,
    shared_bytes: AtomicU64,
    messages: AtomicU64,
    send_errors: AtomicU64,
    /// Frames published into outbox rings.
    posted: AtomicU64,
    /// Modeled `RDMA READ`s posted by the fetch side.
    reads_posted: AtomicU64,
    read_bytes: AtomicU64,
    /// Modeled sender-side publish CPU (`ring_publish` per fetched frame).
    publish_cpu_ns: AtomicU64,
    /// Modeled fetch-side CPU (`rdma_post_read` per fetched frame).
    fetch_cpu_ns: AtomicU64,
    /// Modeled wire occupancy plus the READ's request/response round trip.
    fetch_wire_ns: AtomicU64,
    stopping: AtomicBool,
    /// Optional per-link attribution: publishes raise a link's queue
    /// gauge, fetches settle it and count the bytes.
    tracker: OnceLock<Arc<LinkTracker>>,
}

impl Default for OneSidedFabric {
    fn default() -> Self {
        Self::new(OneSidedConfig::default())
    }
}

impl OneSidedFabric {
    /// New fabric with no endpoints. Pair with [`spawn_fetcher`] for live
    /// use, or drive [`OneSidedFabric::fetch_all`] manually for
    /// deterministic runs.
    pub fn new(config: OneSidedConfig) -> Self {
        assert!(config.ring_slots > 0, "outbox needs at least one slot");
        OneSidedFabric {
            config,
            cost: CostModel::default(),
            inboxes: RwLock::default(),
            links: RwLock::new(Links::default()),
            registry: Mutex::new(MemoryRegistry::new()),
            doorbell: Doorbell::new(),
            next_qp: AtomicU64::new(0),
            copied_bytes: AtomicU64::new(0),
            shared_bytes: AtomicU64::new(0),
            messages: AtomicU64::new(0),
            send_errors: AtomicU64::new(0),
            posted: AtomicU64::new(0),
            reads_posted: AtomicU64::new(0),
            read_bytes: AtomicU64::new(0),
            publish_cpu_ns: AtomicU64::new(0),
            fetch_cpu_ns: AtomicU64::new(0),
            fetch_wire_ns: AtomicU64::new(0),
            stopping: AtomicBool::new(false),
            tracker: OnceLock::new(),
        }
    }

    /// Attribute subsequent publishes and fetches to physical links
    /// through `tracker`. Install once, before traffic: a second install
    /// keeps the first.
    pub fn install_link_tracker(&self, tracker: Arc<LinkTracker>) {
        let _ = self.tracker.set(tracker);
    }

    /// The active configuration.
    pub fn config(&self) -> OneSidedConfig {
        self.config
    }

    fn install(&self, id: EndpointId, tx: Sender<LiveMessage>) -> Result<(), RegisterError> {
        let mut map = self.inboxes.write();
        if map.contains_key(&id) {
            return Err(RegisterError::AlreadyRegistered(id));
        }
        map.insert(id, tx);
        Ok(())
    }

    /// Register an endpoint with an unbounded inbox; returns its receiver.
    pub fn register(&self, id: EndpointId) -> Result<Receiver<LiveMessage>, RegisterError> {
        let (tx, rx) = unbounded();
        self.install(id, tx)?;
        Ok(rx)
    }

    /// Register an endpoint whose inbox holds at most `capacity` fetched
    /// frames; full inboxes leave frames in the outbox ring (backpressure)
    /// rather than dropping them.
    pub fn register_bounded(
        &self,
        id: EndpointId,
        capacity: usize,
    ) -> Result<Receiver<LiveMessage>, RegisterError> {
        let (tx, rx) = bounded(capacity);
        self.install(id, tx)?;
        Ok(rx)
    }

    /// Remove an endpoint: subsequent sends fail, its outbox rings are
    /// deregistered, and unfetched frames addressed to it are dropped.
    pub fn deregister(&self, id: EndpointId) {
        self.inboxes.write().remove(&id);
        let mut links = self.links.write();
        let dead: Vec<(EndpointId, EndpointId)> = links
            .by_key
            .keys()
            .filter(|(to, _)| *to == id)
            .copied()
            .collect();
        if dead.is_empty() {
            return;
        }
        let mut registry = self.registry.lock();
        for key in dead {
            if let Some(slot) = links.by_key.remove(&key) {
                registry.deregister(slot.lock().ring.region());
            }
        }
        links.sorted = None;
    }

    /// See [`FabricPath::wake`].
    pub fn wake(&self, id: EndpointId) {
        if let Some(tx) = self.inboxes.read().get(&id) {
            let _ = tx.try_send(LiveMessage::wake(id));
        }
    }

    /// The outbox ring for `from → to`, registered lazily on first use so
    /// registration is paid once per link, never per message.
    fn link(&self, from: EndpointId, to: EndpointId) -> Arc<Mutex<LinkOutbox>> {
        if let Some(slot) = self.links.read().by_key.get(&(to, from)) {
            return Arc::clone(slot);
        }
        let mut links = self.links.write();
        if let Some(slot) = links.by_key.get(&(to, from)) {
            return Arc::clone(slot);
        }
        let slot = {
            let ring = RingRegion::new(
                self.config.ring_slots,
                self.config.slot_bytes,
                &mut self.registry.lock(),
            );
            let qp = QueuePair::new(
                QpId(self.next_qp.fetch_add(1, Ordering::Relaxed)),
                MachineId(from.0),
                MachineId(to.0),
                Transport::Rdma,
            );
            let log = self.config.log.map(|cfg| {
                PartitionLog::for_link(
                    cfg,
                    QpId(self.next_qp.fetch_add(1, Ordering::Relaxed)),
                    MachineId(from.0),
                    MachineId(to.0),
                )
            });
            Arc::new(Mutex::new(LinkOutbox {
                ring,
                staged: None,
                qp,
                log,
            }))
        };
        links.by_key.insert((to, from), Arc::clone(&slot));
        links.sorted = None;
        slot
    }

    /// Publish a frame into the `from → to` outbox and ring the doorbell.
    fn post(&self, from: EndpointId, to: EndpointId, msg: LiveMessage) -> Result<(), SendError> {
        if !self.inboxes.read().contains_key(&to) {
            self.send_errors.fetch_add(1, Ordering::Relaxed);
            return Err(SendError::UnknownEndpoint);
        }
        let slot = self.link(from, to);
        let published_bytes = msg.payload.len();
        {
            let mut link = slot.lock();
            // Write-through: the durable copy is taken as part of the
            // publish, so every frame the ring ever held is in the log.
            let logged = link.log.is_some().then(|| msg.payload.bytes().to_vec());
            if link.ring.produce(msg).is_err() {
                drop(link);
                self.send_errors.fetch_add(1, Ordering::Relaxed);
                return Err(SendError::Full);
            }
            if let (Some(log), Some(bytes)) = (link.log.as_mut(), logged) {
                log.append(&bytes);
            }
        }
        if let Some(tracker) = self.tracker.get() {
            // Published into the outbox: the frame occupies its link's
            // queue until the fetcher pulls it across.
            tracker.on_send(from, to, published_bytes);
        }
        self.posted.fetch_add(1, Ordering::Relaxed);
        self.doorbell.ring();
        Ok(())
    }

    /// Late-subscriber backfill: replay the `from → to` link's logged
    /// history starting at sequence `seq` into `reader`'s inbox, as
    /// modeled one-sided READs against the sender's log — the sender's
    /// publish CPU counters never move. Returns the number of frames
    /// delivered. Fails with [`SendError::UnknownEndpoint`] if the
    /// reader is not registered, the link has never carried a frame, or
    /// the fabric runs without a log.
    pub fn backfill(
        &self,
        from: EndpointId,
        to: EndpointId,
        reader: EndpointId,
        seq: u64,
    ) -> Result<u64, SendError> {
        let Some(tx) = self.inboxes.read().get(&reader).cloned() else {
            return Err(SendError::UnknownEndpoint);
        };
        let Some(slot) = self.links.read().by_key.get(&(to, from)).map(Arc::clone) else {
            return Err(SendError::UnknownEndpoint);
        };
        let mut link = slot.lock();
        let Some(log) = link.log.as_mut() else {
            return Err(SendError::UnknownEndpoint);
        };
        let read = log.read_from(seq);
        drop(link);
        let mut delivered = 0;
        for (_seq, bytes) in read.records {
            let len = bytes.len() as u64;
            let msg = LiveMessage {
                from,
                payload: Payload::Copied(bytes),
            };
            match tx.try_send(msg) {
                Ok(()) => {
                    self.messages.fetch_add(1, Ordering::Relaxed);
                    self.copied_bytes.fetch_add(len, Ordering::Relaxed);
                    if let Some(tracker) = self.tracker.get() {
                        // Backfill READs land synchronously in the
                        // reader's inbox.
                        tracker.on_send(from, reader, len as usize);
                        tracker.on_delivered(from, reader, len as usize);
                    }
                    delivered += 1;
                }
                Err(TrySendError::Full(_)) => {
                    self.send_errors.fetch_add(1, Ordering::Relaxed);
                    return Err(SendError::Full);
                }
                Err(TrySendError::Disconnected(_)) => {
                    self.send_errors.fetch_add(1, Ordering::Relaxed);
                    return Err(SendError::Disconnected);
                }
            }
        }
        Ok(delivered)
    }

    /// Fold `f` over every link's partition log (no-op without a log).
    fn fold_logs(&self, f: impl Fn(&PartitionLog) -> u64) -> u64 {
        self.link_snapshot()
            .iter()
            .map(|(_, slot)| slot.lock().log.as_ref().map_or(0, &f))
            .sum()
    }

    /// Records appended across every link's partition log.
    pub fn log_appended(&self) -> u64 {
        self.fold_logs(|l| l.appended_records())
    }

    /// Payload bytes appended across every link's partition log.
    pub fn log_appended_bytes(&self) -> u64 {
        self.fold_logs(|l| l.appended_bytes())
    }

    /// Modeled sender-side CPU spent writing the logs. Backfills never
    /// move this — that is the acceptance criterion E26 checks.
    pub fn log_sender_cpu_ns(&self) -> u64 {
        self.fold_logs(|l| l.sender_cpu_ns())
    }

    /// One-sided READs posted by log backfills.
    pub fn log_reads_posted(&self) -> u64 {
        self.fold_logs(|l| l.reads_posted())
    }

    /// Bytes moved by log backfill READs.
    pub fn log_read_bytes(&self) -> u64 {
        self.fold_logs(|l| l.read_bytes())
    }

    /// Bytes currently retained across every link's partition log.
    pub fn log_retained_bytes(&self) -> u64 {
        self.fold_logs(|l| l.retained_bytes())
    }

    /// TCP-semantics publish: the bytes are copied into the outbox slot,
    /// counted on delivery.
    pub fn send_copied(
        &self,
        from: EndpointId,
        to: EndpointId,
        bytes: &[u8],
    ) -> Result<(), SendError> {
        self.post(
            from,
            to,
            LiveMessage {
                from,
                payload: Payload::Copied(bytes.to_vec()),
            },
        )
    }

    /// RDMA-semantics publish: the shared buffer rides the slot by
    /// reference (one serialization, n slot pointers), counted on delivery.
    pub fn send_shared(
        &self,
        from: EndpointId,
        to: EndpointId,
        buf: Arc<[u8]>,
    ) -> Result<(), SendError> {
        self.post(
            from,
            to,
            LiveMessage {
                from,
                payload: Payload::Shared(buf),
            },
        )
    }

    /// Links in (destination, sender) order so fetch passes are
    /// deterministic.
    fn link_snapshot(&self) -> Arc<[(EndpointId, LinkHandle)]> {
        if let Some(sorted) = &self.links.read().sorted {
            return Arc::clone(sorted);
        }
        self.links.write().sorted()
    }

    /// One fetch pass over every link: model the `RDMA READ` of each tail
    /// slot (addressed by seq), consume it, and hand the frame to the
    /// destination inbox. Stops at a full bounded inbox — the frame stays
    /// staged, the ring backs up, and publishes eventually see
    /// [`SendError::Full`]. Returns the number of frames delivered.
    pub fn fetch_all(&self) -> u64 {
        let mut delivered = 0;
        for &(to, ref slot) in self.link_snapshot().iter() {
            let tx = self.inboxes.read().get(&to).cloned();
            let mut link = slot.lock();
            loop {
                if link.staged.is_none() {
                    // The remote reader locates the next frame by sequence
                    // number alone — no control message (§4).
                    let seq = link.ring.tail_seq();
                    let Some(frame) = link.ring.peek_at(seq) else {
                        break;
                    };
                    let bytes = frame.payload.len();
                    let wr = WorkRequest {
                        wr_id: WrId(seq),
                        verb: Verb::Read,
                        bytes,
                    };
                    let costs = link.qp.post(&wr, &self.cost, self.config.rack_hops);
                    self.reads_posted.fetch_add(1, Ordering::Relaxed);
                    self.read_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
                    self.publish_cpu_ns
                        .fetch_add(costs.post_cpu.as_nanos(), Ordering::Relaxed);
                    self.fetch_cpu_ns
                        .fetch_add(costs.remote_cpu.as_nanos(), Ordering::Relaxed);
                    // A READ is a request/response round trip: two
                    // propagation legs plus the wire serialization.
                    self.fetch_wire_ns.fetch_add(
                        costs.wire.as_nanos() + 2 * costs.latency.as_nanos(),
                        Ordering::Relaxed,
                    );
                    let (addr, msg) = link.ring.consume().expect("peeked tail slot");
                    debug_assert_eq!(addr.seq, seq);
                    link.staged = Some(msg);
                }
                let Some(tx) = tx.as_ref() else {
                    // Destination deregistered with frames still published.
                    if let Some(dead) = link.staged.take() {
                        if let Some(tracker) = self.tracker.get() {
                            tracker.on_dropped(dead.from, to, dead.payload.len());
                        }
                    }
                    self.send_errors.fetch_add(1, Ordering::Relaxed);
                    continue;
                };
                let msg = link.staged.take().expect("staged frame");
                let len = msg.payload.len() as u64;
                let from = msg.from;
                let bytes_ctr = if matches!(msg.payload, Payload::Shared(_)) {
                    &self.shared_bytes
                } else {
                    &self.copied_bytes
                };
                // Count before the hand-off (same rule as the ring
                // transport); failed hand-offs undo the increment.
                self.messages.fetch_add(1, Ordering::Relaxed);
                bytes_ctr.fetch_add(len, Ordering::Relaxed);
                match tx.try_send(msg) {
                    Ok(()) => {
                        delivered += 1;
                        if let Some(tracker) = self.tracker.get() {
                            tracker.on_delivered(from, to, len as usize);
                        }
                    }
                    Err(TrySendError::Full(msg)) => {
                        self.messages.fetch_sub(1, Ordering::Relaxed);
                        bytes_ctr.fetch_sub(len, Ordering::Relaxed);
                        link.staged = Some(msg);
                        break;
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        self.messages.fetch_sub(1, Ordering::Relaxed);
                        bytes_ctr.fetch_sub(len, Ordering::Relaxed);
                        self.send_errors.fetch_add(1, Ordering::Relaxed);
                        if let Some(tracker) = self.tracker.get() {
                            tracker.on_dropped(from, to, len as usize);
                        }
                    }
                }
            }
        }
        delivered
    }

    /// Frames published but not yet fetched into an inbox — real ring
    /// occupancy across every link, the λ-pressure signal the adaptive
    /// controller samples.
    pub fn queue_depth(&self) -> u64 {
        self.link_snapshot()
            .iter()
            .map(|(_, slot)| slot.lock().pending() as u64)
            .sum()
    }

    /// Doorbell rings that woke (or would have woken) the fetcher: one per
    /// idle→pending transition, not one per publish.
    pub fn doorbell_rings(&self) -> u64 {
        self.doorbell.rings()
    }

    /// Frames published into outbox rings so far.
    pub fn posted(&self) -> u64 {
        self.posted.load(Ordering::Relaxed)
    }

    /// Modeled `RDMA READ`s the fetch side has posted so far.
    pub fn reads_posted(&self) -> u64 {
        self.reads_posted.load(Ordering::Relaxed)
    }

    /// Bytes moved by modeled READs so far.
    pub fn read_bytes(&self) -> u64 {
        self.read_bytes.load(Ordering::Relaxed)
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

    /// Failed publishes plus dead-destination drops so far.
    pub fn send_errors(&self) -> u64 {
        self.send_errors.load(Ordering::Relaxed)
    }

    /// Registered endpoint count.
    pub fn endpoint_count(&self) -> usize {
        self.inboxes.read().len()
    }

    /// Live (sender, destination) link count.
    pub fn link_count(&self) -> usize {
        self.links.read().by_key.len()
    }

    /// Export delivery, fetch, and registration counters into `reg` under
    /// `prefix.*`.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        reg.set_counter(&format!("{prefix}.posted"), self.posted());
        reg.set_counter(&format!("{prefix}.doorbell_rings"), self.doorbell_rings());
        reg.set_counter(&format!("{prefix}.messages"), self.messages());
        reg.set_counter(&format!("{prefix}.copied_bytes"), self.copied_bytes());
        reg.set_counter(&format!("{prefix}.shared_bytes"), self.shared_bytes());
        reg.set_counter(&format!("{prefix}.send_errors"), self.send_errors());
        reg.set_counter(&format!("{prefix}.reads_posted"), self.reads_posted());
        reg.set_counter(&format!("{prefix}.read_bytes"), self.read_bytes());
        reg.set_counter(
            &format!("{prefix}.publish_cpu_ns"),
            self.publish_cpu_ns.load(Ordering::Relaxed),
        );
        reg.set_counter(
            &format!("{prefix}.fetch_cpu_ns"),
            self.fetch_cpu_ns.load(Ordering::Relaxed),
        );
        reg.set_counter(
            &format!("{prefix}.fetch_wire_ns"),
            self.fetch_wire_ns.load(Ordering::Relaxed),
        );
        reg.set_gauge(&format!("{prefix}.endpoints"), self.endpoint_count() as f64);
        reg.set_gauge(&format!("{prefix}.links"), self.link_count() as f64);
        reg.set_gauge(&format!("{prefix}.queue_depth"), self.queue_depth() as f64);
        if self.config.log.is_some() {
            reg.set_counter(&format!("{prefix}.log.appended_records"), self.log_appended());
            reg.set_counter(
                &format!("{prefix}.log.appended_bytes"),
                self.log_appended_bytes(),
            );
            reg.set_counter(
                &format!("{prefix}.log.sender_cpu_ns"),
                self.log_sender_cpu_ns(),
            );
            reg.set_counter(&format!("{prefix}.log.reads_posted"), self.log_reads_posted());
            reg.set_counter(&format!("{prefix}.log.read_bytes"), self.log_read_bytes());
            reg.set_gauge(
                &format!("{prefix}.log.retained_bytes"),
                self.log_retained_bytes() as f64,
            );
        }
        self.registry.lock().export_metrics(reg, prefix);
    }
}

impl FabricPath for OneSidedFabric {
    fn register(&self, id: EndpointId) -> Result<Receiver<LiveMessage>, RegisterError> {
        OneSidedFabric::register(self, id)
    }

    fn register_bounded(
        &self,
        id: EndpointId,
        capacity: usize,
    ) -> Result<Receiver<LiveMessage>, RegisterError> {
        OneSidedFabric::register_bounded(self, id, capacity)
    }

    fn deregister(&self, id: EndpointId) {
        OneSidedFabric::deregister(self, id);
    }

    fn send_copied(
        &self,
        from: EndpointId,
        to: EndpointId,
        bytes: &[u8],
    ) -> Result<(), SendError> {
        OneSidedFabric::send_copied(self, from, to, bytes)
    }

    fn send_shared(
        &self,
        from: EndpointId,
        to: EndpointId,
        buf: Arc<[u8]>,
    ) -> Result<(), SendError> {
        OneSidedFabric::send_shared(self, from, to, buf)
    }

    fn flush(&self) {
        self.fetch_all();
    }

    fn wake(&self, id: EndpointId) {
        OneSidedFabric::wake(self, id);
    }

    fn messages(&self) -> u64 {
        OneSidedFabric::messages(self)
    }

    fn copied_bytes(&self) -> u64 {
        OneSidedFabric::copied_bytes(self)
    }

    fn shared_bytes(&self) -> u64 {
        OneSidedFabric::shared_bytes(self)
    }

    fn send_errors(&self) -> u64 {
        OneSidedFabric::send_errors(self)
    }

    fn queue_depth(&self) -> u64 {
        OneSidedFabric::queue_depth(self)
    }

    fn endpoint_count(&self) -> usize {
        OneSidedFabric::endpoint_count(self)
    }

    fn install_link_tracker(&self, tracker: Arc<LinkTracker>) {
        OneSidedFabric::install_link_tracker(self, tracker);
    }

    fn export_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        OneSidedFabric::export_metrics(self, reg, prefix);
    }
}

/// Handle to the background fetcher. Stop it (or drop it) to force a
/// final fetch pass and join the poll thread.
pub struct OneSidedFetcher {
    fabric: Arc<OneSidedFabric>,
    handle: Option<JoinHandle<()>>,
}

impl OneSidedFetcher {
    /// Signal the fetcher to drain everything it can and exit, then join.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.fabric.stopping.store(true, Ordering::SeqCst);
        self.fabric.doorbell.ring();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for OneSidedFetcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Spawn the background fetcher: the receive side's poll loop, woken by
/// the publish doorbell, backing off while a bounded inbox stalls, and
/// running a final fetch pass on stop.
pub fn spawn_fetcher(fabric: Arc<OneSidedFabric>) -> OneSidedFetcher {
    let worker = Arc::clone(&fabric);
    let handle = std::thread::Builder::new()
        .name("one-sided-fetcher".into())
        .spawn(move || fetcher_loop(&worker))
        .expect("spawn one-sided fetcher");
    OneSidedFetcher {
        fabric,
        handle: Some(handle),
    }
}

fn fetcher_loop(fabric: &OneSidedFabric) {
    let idle = fabric.config.idle_heartbeat;
    let stalled = fabric.config.stall_backoff;
    loop {
        let delivered = fabric.fetch_all();
        if fabric.stopping.load(Ordering::SeqCst) {
            fabric.fetch_all();
            return;
        }
        let mut backlog = fabric.queue_depth() > 0;
        if !backlog {
            // Out of frames: hand the CPU to the publishers once and look
            // again before blocking, so a busy sender is met by one batched
            // fetch pass instead of a futex wake-up per frame.
            std::thread::yield_now();
            backlog = fabric.queue_depth() > 0;
        }
        let wait = if backlog {
            if delivered == 0 {
                stalled
            } else {
                // More frames are already published; fetch again now.
                continue;
            }
        } else {
            idle
        };
        fabric.doorbell.wait(wait);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(ring_slots: usize) -> OneSidedConfig {
        OneSidedConfig {
            ring_slots,
            ..OneSidedConfig::default()
        }
    }

    #[test]
    fn frames_sit_in_outbox_until_fetched() {
        let fabric = OneSidedFabric::new(cfg(16));
        let rx = fabric.register(EndpointId(1)).unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"hello")
            .unwrap();
        assert!(rx.try_recv().is_err(), "nothing delivered before a fetch");
        assert_eq!(fabric.posted(), 1);
        assert_eq!(fabric.messages(), 0);
        assert_eq!(fabric.queue_depth(), 1);
        assert_eq!(fabric.fetch_all(), 1);
        assert_eq!(rx.recv().unwrap().payload.bytes(), b"hello");
        assert_eq!(fabric.copied_bytes(), 5);
        assert_eq!(fabric.queue_depth(), 0);
    }

    #[test]
    fn fetches_are_priced_as_reads() {
        let fabric = OneSidedFabric::new(cfg(16));
        let _rx = fabric.register(EndpointId(1)).unwrap();
        for _ in 0..3 {
            fabric
                .send_copied(EndpointId(0), EndpointId(1), &[0u8; 100])
                .unwrap();
        }
        fabric.fetch_all();
        assert_eq!(fabric.reads_posted(), 3);
        assert_eq!(fabric.read_bytes(), 300);
        let mut reg = MetricsRegistry::new();
        fabric.export_metrics(&mut reg, "os");
        let cost = CostModel::default();
        assert_eq!(
            reg.counter("os.publish_cpu_ns"),
            Some(3 * cost.send_cpu(Transport::Rdma, Verb::Read, 100).as_nanos())
        );
        assert_eq!(
            reg.counter("os.fetch_cpu_ns"),
            Some(3 * cost.recv_cpu(Transport::Rdma, Verb::Read).as_nanos())
        );
        assert!(reg.counter("os.fetch_wire_ns").unwrap() > 0);
    }

    #[test]
    fn registration_paid_once_per_link() {
        let fabric = OneSidedFabric::new(cfg(8));
        let _rx1 = fabric.register(EndpointId(1)).unwrap();
        let _rx2 = fabric.register(EndpointId(2)).unwrap();
        for _ in 0..5 {
            fabric
                .send_copied(EndpointId(0), EndpointId(1), b"x")
                .unwrap();
            fabric
                .send_copied(EndpointId(0), EndpointId(2), b"x")
                .unwrap();
        }
        fabric.fetch_all();
        let mut reg = MetricsRegistry::new();
        fabric.export_metrics(&mut reg, "os");
        assert_eq!(reg.counter("os.registrations"), Some(2), "one per link");
        assert_eq!(fabric.link_count(), 2);
    }

    #[test]
    fn shared_fanout_is_zero_copy() {
        let fabric = OneSidedFabric::new(cfg(8));
        let rx1 = fabric.register(EndpointId(1)).unwrap();
        let rx2 = fabric.register(EndpointId(2)).unwrap();
        let buf: Arc<[u8]> = Arc::from(&b"payload"[..]);
        fabric
            .send_shared(EndpointId(0), EndpointId(1), Arc::clone(&buf))
            .unwrap();
        fabric
            .send_shared(EndpointId(0), EndpointId(2), Arc::clone(&buf))
            .unwrap();
        fabric.fetch_all();
        match (&rx1.recv().unwrap().payload, &rx2.recv().unwrap().payload) {
            (Payload::Shared(a), Payload::Shared(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => panic!("expected shared payloads"),
        }
        assert_eq!(fabric.shared_bytes(), 14);
    }

    #[test]
    fn full_outbox_backpressures_without_deadlock() {
        let fabric = OneSidedFabric::new(cfg(2));
        let _rx = fabric.register(EndpointId(1)).unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"a")
            .unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"b")
            .unwrap();
        assert_eq!(
            fabric
                .send_copied(EndpointId(0), EndpointId(1), b"c")
                .unwrap_err(),
            SendError::Full
        );
        assert_eq!(fabric.send_errors(), 1);
        // Fetching frees ring capacity.
        fabric.fetch_all();
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"c")
            .unwrap();
    }

    #[test]
    fn bounded_inbox_stalls_fetch_and_retries_in_order() {
        let fabric = OneSidedFabric::new(cfg(16));
        let rx = fabric.register_bounded(EndpointId(1), 2).unwrap();
        for b in [b"a", b"b", b"c", b"d"] {
            fabric.send_copied(EndpointId(0), EndpointId(1), b).unwrap();
        }
        assert_eq!(fabric.fetch_all(), 2, "inbox capacity bounds the pass");
        assert_eq!(fabric.queue_depth(), 2, "rest stays published");
        assert_eq!(rx.try_recv().unwrap().payload.bytes(), b"a");
        assert_eq!(rx.try_recv().unwrap().payload.bytes(), b"b");
        assert_eq!(fabric.fetch_all(), 2);
        assert_eq!(rx.try_recv().unwrap().payload.bytes(), b"c");
        assert_eq!(rx.try_recv().unwrap().payload.bytes(), b"d");
        assert_eq!(fabric.send_errors(), 0);
        assert_eq!(fabric.messages(), 4);
    }

    #[test]
    fn unknown_endpoint_and_dropped_receiver_count_errors_not_bytes() {
        let fabric = OneSidedFabric::new(cfg(8));
        assert_eq!(
            fabric
                .send_copied(EndpointId(0), EndpointId(9), b"x")
                .unwrap_err(),
            SendError::UnknownEndpoint
        );
        let rx = fabric.register(EndpointId(1)).unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"xx")
            .unwrap();
        drop(rx);
        fabric.fetch_all();
        assert_eq!(fabric.send_errors(), 2);
        assert_eq!(fabric.copied_bytes(), 0);
        assert_eq!(fabric.messages(), 0);
    }

    #[test]
    fn deregister_refunds_registrations_and_drops_frames() {
        let fabric = OneSidedFabric::new(cfg(8));
        let _rx = fabric.register(EndpointId(1)).unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"stranded")
            .unwrap();
        fabric.deregister(EndpointId(1));
        assert_eq!(fabric.link_count(), 0);
        assert_eq!(fabric.queue_depth(), 0);
        assert_eq!(
            fabric
                .send_copied(EndpointId(0), EndpointId(1), b"x")
                .unwrap_err(),
            SendError::UnknownEndpoint
        );
        let mut reg = MetricsRegistry::new();
        fabric.export_metrics(&mut reg, "os");
        assert_eq!(reg.counter("os.deregistrations"), Some(1));
    }

    #[test]
    fn per_link_fifo_holds_across_wraparound() {
        let fabric = OneSidedFabric::new(cfg(4));
        let rx = fabric.register(EndpointId(1)).unwrap();
        let mut expected = Vec::new();
        for round in 0..10u8 {
            for i in 0..3u8 {
                let v = round * 3 + i;
                fabric
                    .send_copied(EndpointId(0), EndpointId(1), &[v])
                    .unwrap();
                expected.push(v);
            }
            fabric.fetch_all();
        }
        let got: Vec<u8> = std::iter::from_fn(|| rx.try_recv().ok())
            .map(|m| m.payload.bytes()[0])
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn live_fetcher_delivers_without_manual_passes() {
        let fabric = Arc::new(OneSidedFabric::new(cfg(1024)));
        let fetcher = spawn_fetcher(Arc::clone(&fabric));
        let rx = fabric.register(EndpointId(1)).unwrap();
        for i in 0..50u8 {
            fabric
                .send_copied(EndpointId(0), EndpointId(1), &[i])
                .unwrap();
        }
        let got: Vec<u8> = (0..50)
            .map(|_| {
                rx.recv_timeout(Duration::from_secs(5))
                    .expect("fetcher delivers")
                    .payload
                    .bytes()[0]
            })
            .collect();
        assert_eq!(got, (0..50).collect::<Vec<u8>>());
        fetcher.stop();
        assert_eq!(fabric.reads_posted(), 50);
        // Only idle→pending transitions of the bell count, never more than
        // one per publish (plus the stop ring).
        let rings = fabric.doorbell_rings();
        assert!((1..=51).contains(&rings), "rings = {rings}");
        let mut reg = MetricsRegistry::new();
        fabric.export_metrics(&mut reg, "net.one_sided");
        assert_eq!(reg.counter("net.one_sided.doorbell_rings"), Some(rings));
    }

    #[test]
    fn fetcher_stop_drains_stragglers() {
        let fabric = Arc::new(OneSidedFabric::new(cfg(1024)));
        let fetcher = spawn_fetcher(Arc::clone(&fabric));
        let rx = fabric.register(EndpointId(1)).unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"tail")
            .unwrap();
        fetcher.stop();
        assert_eq!(rx.try_recv().unwrap().payload.bytes(), b"tail");
    }

    #[test]
    fn multi_producer_stress_keeps_per_sender_order() {
        const SENDERS: u32 = 8;
        const PER_SENDER: u32 = 2_000;
        let fabric = Arc::new(OneSidedFabric::new(cfg(64)));
        let fetcher = spawn_fetcher(Arc::clone(&fabric));
        let rx = fabric.register(EndpointId(0)).unwrap();

        let producers: Vec<_> = (1..=SENDERS)
            .map(|s| {
                let f = Arc::clone(&fabric);
                std::thread::spawn(move || {
                    for seq in 0..PER_SENDER {
                        let frame = [s.to_le_bytes(), seq.to_le_bytes()].concat();
                        loop {
                            match f.send_copied(EndpointId(s), EndpointId(0), &frame) {
                                Ok(()) => break,
                                Err(SendError::Full) => std::thread::yield_now(),
                                Err(e) => panic!("unexpected send error: {e}"),
                            }
                        }
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
                .expect("no frame lost");
            let bytes = msg.payload.bytes();
            let s = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
            let seq = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
            assert_eq!(msg.from, EndpointId(s));
            assert_eq!(seq, next_seq[s as usize], "per-sender FIFO order");
            next_seq[s as usize] = seq + 1;
        }
        assert!(rx.try_recv().is_err(), "no duplicated frames");
        assert_eq!(fabric.messages(), (SENDERS * PER_SENDER) as u64);
        // Every accepted publish was delivered; send_errors only counts
        // the Full rejections the producers retried (backpressure, not
        // loss).
        assert_eq!(fabric.posted(), fabric.messages());
        fetcher.stop();
    }

    fn drain(rx: &Receiver<LiveMessage>) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while let Ok(msg) = rx.try_recv() {
            out.push(msg.payload.bytes().to_vec());
        }
        out
    }

    fn logged_config() -> OneSidedConfig {
        OneSidedConfig {
            ring_slots: 64,
            log: Some(LogConfig {
                segment_bytes: 256,
                max_segments: 1024,
                rack_hops: 0,
            }),
            ..OneSidedConfig::default()
        }
    }

    #[test]
    fn publishes_write_through_the_link_log() {
        let fabric = OneSidedFabric::new(logged_config());
        let _rx = fabric.register(EndpointId(1)).unwrap();
        for i in 0..10u64 {
            fabric
                .send_copied(EndpointId(0), EndpointId(1), &i.to_le_bytes())
                .unwrap();
        }
        fabric.fetch_all();
        // The ring slots are consumed, but the log kept everything.
        assert_eq!(fabric.log_appended(), 10);
        assert_eq!(fabric.log_appended_bytes(), 80);
        assert!(fabric.log_retained_bytes() > 0);
    }

    #[test]
    fn backfill_replays_history_into_a_late_reader_with_zero_sender_cpu() {
        let fabric = OneSidedFabric::new(logged_config());
        let rx = fabric.register(EndpointId(1)).unwrap();
        for i in 0..20u64 {
            fabric
                .send_copied(EndpointId(0), EndpointId(1), &i.to_le_bytes())
                .unwrap();
        }
        // The live consumer drains everything; the ring is empty now.
        fabric.fetch_all();
        assert_eq!(drain(&rx).len(), 20);

        // A late subscriber attaches mid-run and backfills from seq 5.
        let late = fabric.register(EndpointId(9)).unwrap();
        let sender_cpu_before = fabric.log_sender_cpu_ns();
        let reads_before = fabric.log_reads_posted();
        let delivered = fabric
            .backfill(EndpointId(0), EndpointId(1), EndpointId(9), 5)
            .unwrap();
        assert_eq!(delivered, 15);
        let got = drain(&late);
        assert_eq!(got.len(), 15);
        assert_eq!(got[0], 5u64.to_le_bytes().to_vec());
        assert_eq!(got[14], 19u64.to_le_bytes().to_vec());
        // Server bypass: the backfill posted READs and moved zero
        // sender-side CPU.
        assert!(fabric.log_reads_posted() > reads_before);
        assert_eq!(fabric.log_sender_cpu_ns(), sender_cpu_before);
    }

    #[test]
    fn backfill_without_a_log_or_link_is_an_unknown_endpoint() {
        let plain = OneSidedFabric::new(OneSidedConfig {
            ring_slots: 64,
            ..OneSidedConfig::default()
        });
        let _rx = plain.register(EndpointId(1)).unwrap();
        plain
            .send_copied(EndpointId(0), EndpointId(1), b"x")
            .unwrap();
        assert_eq!(
            plain.backfill(EndpointId(0), EndpointId(1), EndpointId(1), 0),
            Err(SendError::UnknownEndpoint)
        );
        let logged = OneSidedFabric::new(logged_config());
        let _rx = logged.register(EndpointId(1)).unwrap();
        assert_eq!(
            logged.backfill(EndpointId(0), EndpointId(1), EndpointId(1), 0),
            Err(SendError::UnknownEndpoint)
        );
    }

    #[test]
    fn log_metrics_export_under_the_log_prefix() {
        let fabric = OneSidedFabric::new(logged_config());
        let _rx = fabric.register(EndpointId(1)).unwrap();
        for i in 0..5u64 {
            fabric
                .send_copied(EndpointId(0), EndpointId(1), &i.to_le_bytes())
                .unwrap();
        }
        let mut reg = MetricsRegistry::new();
        fabric.export_metrics(&mut reg, "os");
        assert_eq!(reg.counter("os.log.appended_records"), Some(5));
        assert_eq!(reg.counter("os.log.appended_bytes"), Some(40));
        assert!(reg.counter("os.log.sender_cpu_ns").unwrap() > 0);
        assert_eq!(reg.counter("os.log.reads_posted"), Some(0));
        assert!(reg.gauge("os.log.retained_bytes").unwrap() > 0.0);
    }
}
