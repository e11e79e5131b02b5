//! The live in-process fabric: real threads, real bytes.
//!
//! The discrete-event simulator reproduces the *cluster-scale* numbers;
//! this fabric lets the examples and the live runtime actually move data
//! between worker threads on one host, preserving the semantic difference
//! the paper exploits:
//!
//! - the **TCP path** copies serialized bytes into every message (one copy
//!   per destination — the instance-oriented tax), and
//! - the **RDMA path** shares one immutable buffer by reference
//!   (`Arc<[u8]>`), the in-process analogue of zero-copy: `n` destinations
//!   cost one serialization and `n` pointer bumps.
//!
//! Two transports implement the common [`FabricPath`] trait:
//! [`LiveFabric`] (synchronous per-send delivery) and
//! [`crate::RingFabric`] (descriptors posted to per-endpoint rings,
//! drained in MMS/WTL batches by a flusher — the paper's stream slicing
//! on the live path).

use crate::topology::LinkTracker;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Identifier of a fabric endpoint (a worker process in the live runtime).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct EndpointId(pub u32);

/// Hasher for tables keyed by the runtime's own small dense ids
/// (endpoints, tasks, pairs of them), which sit on every post and every
/// delivery: a rotate, an xor and a multiply per word instead of SipHash.
/// The program assigns these ids itself — none arrives from outside — so
/// there is no crafted-collision attack for SipHash to defend against.
#[derive(Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed by [`IdHasher`].
pub type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` hashed by [`IdHasher`].
pub type IdHashSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// Message payload: copied (TCP semantics) or shared (RDMA semantics).
#[derive(Clone, Debug)]
pub enum Payload {
    /// An owned copy of the serialized bytes (each destination pays a copy).
    Copied(Vec<u8>),
    /// A shared reference to one serialized buffer (zero-copy fan-out).
    Shared(Arc<[u8]>),
}

impl Payload {
    /// Access the bytes regardless of representation.
    pub fn bytes(&self) -> &[u8] {
        match self {
            Payload::Copied(v) => v,
            Payload::Shared(a) => a,
        }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.bytes().is_empty()
    }
}

/// A message delivered through the live fabric.
#[derive(Clone, Debug)]
pub struct LiveMessage {
    /// Sending endpoint.
    pub from: EndpointId,
    /// Bytes, copied or shared.
    pub payload: Payload,
}

impl LiveMessage {
    /// The empty frame [`FabricPath::wake`] delivers (allocates nothing).
    pub(crate) fn wake(id: EndpointId) -> Self {
        LiveMessage {
            from: id,
            payload: Payload::Copied(Vec::new()),
        }
    }
}

/// Errors from live sends.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SendError {
    /// Destination endpoint is not registered.
    UnknownEndpoint,
    /// Destination queue is full (bounded endpoint or full ring,
    /// backpressure).
    Full,
    /// Destination was dropped.
    Disconnected,
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::UnknownEndpoint => write!(f, "destination endpoint is not registered"),
            SendError::Full => write!(f, "destination queue is full"),
            SendError::Disconnected => write!(f, "destination was dropped"),
        }
    }
}

impl std::error::Error for SendError {}

/// Errors from endpoint registration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RegisterError {
    /// The id already has a live inbox; replacing it would orphan any
    /// queued messages. Call `deregister` first to reuse an id.
    AlreadyRegistered(EndpointId),
}

impl std::fmt::Display for RegisterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegisterError::AlreadyRegistered(id) => {
                write!(f, "endpoint {} is already registered", id.0)
            }
        }
    }
}

impl std::error::Error for RegisterError {}

/// Common interface of the live transports, so callers can swap the
/// synchronous per-send path and the batched ring path freely.
pub trait FabricPath: Send + Sync {
    /// Register an endpoint with an unbounded inbox; returns its receiver.
    fn register(&self, id: EndpointId) -> Result<Receiver<LiveMessage>, RegisterError>;

    /// Register an endpoint with a bounded inbox of `capacity` (models the
    /// destination's transfer queue; deliveries fail with
    /// [`SendError::Full`]).
    fn register_bounded(
        &self,
        id: EndpointId,
        capacity: usize,
    ) -> Result<Receiver<LiveMessage>, RegisterError>;

    /// Remove an endpoint; subsequent sends fail.
    fn deregister(&self, id: EndpointId);

    /// TCP-semantics send: the bytes are copied into the message.
    fn send_copied(&self, from: EndpointId, to: EndpointId, bytes: &[u8])
        -> Result<(), SendError>;

    /// RDMA-semantics send: the shared buffer is passed by reference.
    fn send_shared(&self, from: EndpointId, to: EndpointId, buf: Arc<[u8]>)
        -> Result<(), SendError>;

    /// Force out anything the transport has buffered (no-op when the
    /// transport delivers synchronously).
    fn flush(&self);

    /// Wake the reader of `id`'s inbox: drop an empty frame straight into
    /// it, past any ring, outbox or fault plan, outside the message, byte
    /// and per-link counts. For a reader that blocks on its inbox but also
    /// takes work from elsewhere; empty frames carry nothing and readers
    /// skip them. Best effort — a full or missing inbox needs no wake-up.
    /// Until the woken reader takes it the frame does sit in the inbox, so
    /// [`LiveFabric::queue_depth`], which reports inbox lengths, sees it.
    fn wake(&self, id: EndpointId);

    /// Messages delivered so far.
    fn messages(&self) -> u64;

    /// Bytes delivered through the TCP (copied) path so far.
    fn copied_bytes(&self) -> u64;

    /// Bytes delivered through the RDMA (shared) path so far.
    fn shared_bytes(&self) -> u64;

    /// Sends that failed (unknown endpoint, backpressure, or a dropped
    /// receiver). Failed sends never count toward the byte totals.
    fn send_errors(&self) -> u64;

    /// Batches flushed so far (0 for unbatched transports).
    fn flushed_batches(&self) -> u64 {
        0
    }

    /// Messages delivered through flushed batches (0 for unbatched
    /// transports).
    fn flushed_items(&self) -> u64 {
        0
    }

    /// Frames accepted but not yet delivered to (or drained from) a
    /// destination inbox — the transfer-queue length of the paper's M/D/1
    /// model, sampled live by the adaptive multicast controller. Every
    /// transport must report a real estimate; a silent 0 here starves the
    /// controller's λ-pressure signal and understates d*.
    fn queue_depth(&self) -> u64;

    /// Registered endpoint count.
    fn endpoint_count(&self) -> usize;

    /// Install a [`LinkTracker`] so sends are attributed to physical
    /// links via the cluster placement map. Transports that support
    /// per-link accounting override this; the default ignores the
    /// tracker (no per-link visibility). Install on the *outermost*
    /// fabric only — a decorator that both tracked itself and delegated
    /// to a tracked inner transport would double-count every frame. A
    /// second install on the same transport keeps the first tracker.
    fn install_link_tracker(&self, _tracker: Arc<LinkTracker>) {}

    /// Export delivery counters into `reg` under `prefix.*`.
    fn export_metrics(&self, reg: &mut whale_sim::MetricsRegistry, prefix: &str);
}

struct EndpointSlot {
    tx: Sender<LiveMessage>,
}

/// An in-process message fabric connecting registered endpoints, with
/// synchronous per-send delivery.
pub struct LiveFabric {
    endpoints: RwLock<IdHashMap<EndpointId, EndpointSlot>>,
    /// Total bytes physically copied (TCP semantics accounting).
    copied_bytes: AtomicU64,
    /// Total bytes shared by reference (RDMA semantics accounting).
    shared_bytes: AtomicU64,
    messages: AtomicU64,
    send_errors: AtomicU64,
    /// Optional per-link attribution; delivery is synchronous here, so a
    /// successful send is charged to its link immediately.
    tracker: OnceLock<Arc<LinkTracker>>,
}

impl Default for LiveFabric {
    fn default() -> Self {
        Self::new()
    }
}

impl LiveFabric {
    /// New fabric with no endpoints.
    pub fn new() -> Self {
        LiveFabric {
            endpoints: RwLock::default(),
            copied_bytes: AtomicU64::new(0),
            shared_bytes: AtomicU64::new(0),
            messages: AtomicU64::new(0),
            send_errors: AtomicU64::new(0),
            tracker: OnceLock::new(),
        }
    }

    /// Attribute subsequent sends to physical links through `tracker`.
    /// Install once, before traffic: a second install keeps the first.
    pub fn install_link_tracker(&self, tracker: Arc<LinkTracker>) {
        let _ = self.tracker.set(tracker);
    }

    /// Register an endpoint with an unbounded inbox; returns its receiver.
    pub fn register(&self, id: EndpointId) -> Result<Receiver<LiveMessage>, RegisterError> {
        let (tx, rx) = unbounded();
        self.install(id, tx)?;
        Ok(rx)
    }

    /// Register an endpoint with a bounded inbox of `capacity` (models the
    /// destination's transfer queue; sends fail with [`SendError::Full`]).
    pub fn register_bounded(
        &self,
        id: EndpointId,
        capacity: usize,
    ) -> Result<Receiver<LiveMessage>, RegisterError> {
        let (tx, rx) = bounded(capacity);
        self.install(id, tx)?;
        Ok(rx)
    }

    fn install(&self, id: EndpointId, tx: Sender<LiveMessage>) -> Result<(), RegisterError> {
        let mut map = self.endpoints.write();
        if map.contains_key(&id) {
            return Err(RegisterError::AlreadyRegistered(id));
        }
        map.insert(id, EndpointSlot { tx });
        Ok(())
    }

    /// Remove an endpoint; subsequent sends fail.
    pub fn deregister(&self, id: EndpointId) {
        self.endpoints.write().remove(&id);
    }

    /// See [`FabricPath::wake`].
    pub fn wake(&self, id: EndpointId) {
        if let Some(slot) = self.endpoints.read().get(&id) {
            let _ = slot.tx.try_send(LiveMessage::wake(id));
        }
    }

    fn send(&self, to: EndpointId, msg: LiveMessage) -> Result<(), SendError> {
        let from = msg.from;
        let len = msg.payload.len();
        let result = {
            let map = self.endpoints.read();
            match map.get(&to) {
                None => Err(SendError::UnknownEndpoint),
                Some(slot) => match slot.tx.try_send(msg) {
                    Ok(()) => Ok(()),
                    Err(TrySendError::Full(_)) => Err(SendError::Full),
                    Err(TrySendError::Disconnected(_)) => Err(SendError::Disconnected),
                },
            }
        };
        match result {
            Ok(()) => {
                self.messages.fetch_add(1, Ordering::Relaxed);
                if let Some(tracker) = self.tracker.get() {
                    // Synchronous delivery: the frame is in the
                    // destination inbox, so charge the link directly.
                    tracker.on_send(from, to, len);
                    tracker.on_delivered(from, to, len);
                }
                Ok(())
            }
            Err(e) => {
                self.send_errors.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// TCP-semantics send: the bytes are copied into the message. Bytes
    /// count toward `copied_bytes` only when delivery succeeds.
    pub fn send_copied(
        &self,
        from: EndpointId,
        to: EndpointId,
        bytes: &[u8],
    ) -> Result<(), SendError> {
        let len = bytes.len() as u64;
        self.send(
            to,
            LiveMessage {
                from,
                payload: Payload::Copied(bytes.to_vec()),
            },
        )?;
        self.copied_bytes.fetch_add(len, Ordering::Relaxed);
        Ok(())
    }

    /// RDMA-semantics send: the shared buffer is passed by reference.
    /// Bytes count toward `shared_bytes` only when delivery succeeds.
    pub fn send_shared(
        &self,
        from: EndpointId,
        to: EndpointId,
        buf: Arc<[u8]>,
    ) -> Result<(), SendError> {
        let len = buf.len() as u64;
        self.send(
            to,
            LiveMessage {
                from,
                payload: Payload::Shared(buf),
            },
        )?;
        self.shared_bytes.fetch_add(len, Ordering::Relaxed);
        Ok(())
    }

    /// Bytes copied through the TCP path so far.
    pub fn copied_bytes(&self) -> u64 {
        self.copied_bytes.load(Ordering::Relaxed)
    }

    /// Bytes shared through the RDMA path so far.
    pub fn shared_bytes(&self) -> u64 {
        self.shared_bytes.load(Ordering::Relaxed)
    }

    /// Messages delivered so far.
    pub fn messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Sends that failed so far.
    pub fn send_errors(&self) -> u64 {
        self.send_errors.load(Ordering::Relaxed)
    }

    /// Export delivery counters into `reg` under `prefix.*`.
    pub fn export_metrics(&self, reg: &mut whale_sim::MetricsRegistry, prefix: &str) {
        reg.set_counter(&format!("{prefix}.messages"), self.messages());
        reg.set_counter(&format!("{prefix}.copied_bytes"), self.copied_bytes());
        reg.set_counter(&format!("{prefix}.shared_bytes"), self.shared_bytes());
        reg.set_counter(&format!("{prefix}.send_errors"), self.send_errors());
        reg.set_gauge(
            &format!("{prefix}.endpoints"),
            self.endpoints.read().len() as f64,
        );
        reg.set_gauge(&format!("{prefix}.queue_depth"), self.queue_depth() as f64);
    }

    /// Registered endpoint count.
    pub fn endpoint_count(&self) -> usize {
        self.endpoints.read().len()
    }

    /// Messages accepted into endpoint inboxes but not yet received by
    /// their workers. The per-send path delivers synchronously into the
    /// destination channel, so the channel lengths *are* the transfer
    /// queue the adaptive controller samples.
    pub fn queue_depth(&self) -> u64 {
        self.endpoints
            .read()
            .values()
            .map(|slot| slot.tx.len() as u64)
            .sum()
    }
}

impl FabricPath for LiveFabric {
    fn register(&self, id: EndpointId) -> Result<Receiver<LiveMessage>, RegisterError> {
        LiveFabric::register(self, id)
    }

    fn register_bounded(
        &self,
        id: EndpointId,
        capacity: usize,
    ) -> Result<Receiver<LiveMessage>, RegisterError> {
        LiveFabric::register_bounded(self, id, capacity)
    }

    fn deregister(&self, id: EndpointId) {
        LiveFabric::deregister(self, id);
    }

    fn send_copied(
        &self,
        from: EndpointId,
        to: EndpointId,
        bytes: &[u8],
    ) -> Result<(), SendError> {
        LiveFabric::send_copied(self, from, to, bytes)
    }

    fn send_shared(
        &self,
        from: EndpointId,
        to: EndpointId,
        buf: Arc<[u8]>,
    ) -> Result<(), SendError> {
        LiveFabric::send_shared(self, from, to, buf)
    }

    fn flush(&self) {}

    fn wake(&self, id: EndpointId) {
        LiveFabric::wake(self, id);
    }

    fn messages(&self) -> u64 {
        LiveFabric::messages(self)
    }

    fn copied_bytes(&self) -> u64 {
        LiveFabric::copied_bytes(self)
    }

    fn shared_bytes(&self) -> u64 {
        LiveFabric::shared_bytes(self)
    }

    fn send_errors(&self) -> u64 {
        LiveFabric::send_errors(self)
    }

    fn queue_depth(&self) -> u64 {
        LiveFabric::queue_depth(self)
    }

    fn endpoint_count(&self) -> usize {
        LiveFabric::endpoint_count(self)
    }

    fn install_link_tracker(&self, tracker: Arc<LinkTracker>) {
        LiveFabric::install_link_tracker(self, tracker);
    }

    fn export_metrics(&self, reg: &mut whale_sim::MetricsRegistry, prefix: &str) {
        LiveFabric::export_metrics(self, reg, prefix);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copied_send_roundtrip() {
        let fabric = LiveFabric::new();
        let rx = fabric.register(EndpointId(1)).unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"hello")
            .unwrap();
        let msg = rx.recv().unwrap();
        assert_eq!(msg.from, EndpointId(0));
        assert_eq!(msg.payload.bytes(), b"hello");
        assert_eq!(fabric.copied_bytes(), 5);
    }

    #[test]
    fn shared_send_is_zero_copy() {
        let fabric = LiveFabric::new();
        let rx1 = fabric.register(EndpointId(1)).unwrap();
        let rx2 = fabric.register(EndpointId(2)).unwrap();
        let buf: Arc<[u8]> = Arc::from(&b"payload"[..]);
        fabric
            .send_shared(EndpointId(0), EndpointId(1), buf.clone())
            .unwrap();
        fabric
            .send_shared(EndpointId(0), EndpointId(2), buf.clone())
            .unwrap();
        let m1 = rx1.recv().unwrap();
        let m2 = rx2.recv().unwrap();
        // Both receivers observe the same physical buffer.
        match (&m1.payload, &m2.payload) {
            (Payload::Shared(a), Payload::Shared(b)) => {
                assert!(Arc::ptr_eq(a, b));
            }
            _ => panic!("expected shared payloads"),
        }
        assert_eq!(fabric.messages(), 2);
    }

    #[test]
    fn unknown_endpoint_errors() {
        let fabric = LiveFabric::new();
        let err = fabric
            .send_copied(EndpointId(0), EndpointId(9), b"x")
            .unwrap_err();
        assert_eq!(err, SendError::UnknownEndpoint);
    }

    #[test]
    fn bounded_endpoint_backpressures() {
        let fabric = LiveFabric::new();
        let _rx = fabric.register_bounded(EndpointId(1), 2).unwrap();
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
    }

    #[test]
    fn deregister_disconnects() {
        let fabric = LiveFabric::new();
        let _rx = fabric.register(EndpointId(1)).unwrap();
        fabric.deregister(EndpointId(1));
        let err = fabric
            .send_copied(EndpointId(0), EndpointId(1), b"x")
            .unwrap_err();
        assert_eq!(err, SendError::UnknownEndpoint);
        assert_eq!(fabric.endpoint_count(), 0);
    }

    #[test]
    fn dropped_receiver_reports_disconnected() {
        let fabric = LiveFabric::new();
        let rx = fabric.register(EndpointId(1)).unwrap();
        drop(rx);
        let err = fabric
            .send_copied(EndpointId(0), EndpointId(1), b"x")
            .unwrap_err();
        assert_eq!(err, SendError::Disconnected);
    }

    #[test]
    fn failed_sends_do_not_count_bytes() {
        let fabric = LiveFabric::new();

        // Unknown endpoint.
        assert!(fabric
            .send_copied(EndpointId(0), EndpointId(9), b"xxxx")
            .is_err());
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
        assert_eq!(fabric.copied_bytes(), 1);
        assert_eq!(fabric.shared_bytes(), 0);
        assert_eq!(fabric.messages(), 1);
        assert_eq!(fabric.send_errors(), 4);
    }

    #[test]
    fn reregister_errors_and_preserves_original_inbox() {
        let fabric = LiveFabric::new();
        let rx = fabric.register(EndpointId(1)).unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"queued")
            .unwrap();

        // Re-registration must not displace the live inbox.
        assert_eq!(
            fabric.register(EndpointId(1)).unwrap_err(),
            RegisterError::AlreadyRegistered(EndpointId(1))
        );
        assert_eq!(
            fabric.register_bounded(EndpointId(1), 4).unwrap_err(),
            RegisterError::AlreadyRegistered(EndpointId(1))
        );

        // The queued message is still there and new sends still land.
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"after")
            .unwrap();
        assert_eq!(rx.recv().unwrap().payload.bytes(), b"queued");
        assert_eq!(rx.recv().unwrap().payload.bytes(), b"after");

        // Deregister frees the id for reuse.
        fabric.deregister(EndpointId(1));
        let _rx2 = fabric.register(EndpointId(1)).unwrap();
    }

    #[test]
    fn queue_depth_tracks_undrained_inboxes() {
        let fabric = LiveFabric::new();
        let rx1 = fabric.register(EndpointId(1)).unwrap();
        let _rx2 = fabric.register(EndpointId(2)).unwrap();
        assert_eq!(FabricPath::queue_depth(&fabric), 0);
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"a")
            .unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"b")
            .unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(2), b"c")
            .unwrap();
        assert_eq!(FabricPath::queue_depth(&fabric), 3);
        rx1.recv().unwrap();
        assert_eq!(FabricPath::queue_depth(&fabric), 2);
        rx1.recv().unwrap();
        assert_eq!(FabricPath::queue_depth(&fabric), 1);
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
            let depth = FabricPath::queue_depth(&*fabric);
            assert!(depth <= SENDS, "depth wrapped: {depth}");
        }
        sender.join().unwrap();
        receiver.join().unwrap();
        assert_eq!(FabricPath::queue_depth(&*fabric), 0);
    }

    #[test]
    fn export_metrics_includes_send_errors() {
        let fabric = LiveFabric::new();
        let _ = fabric.send_copied(EndpointId(0), EndpointId(9), b"x");
        let mut reg = whale_sim::MetricsRegistry::new();
        fabric.export_metrics(&mut reg, "fabric");
        assert_eq!(reg.counter("fabric.send_errors"), Some(1));
        assert_eq!(reg.counter("fabric.messages"), Some(0));
    }

    #[test]
    fn link_tracker_attributes_per_send_traffic() {
        use crate::topology::{ClusterSpec, MachineId};
        let fabric = LiveFabric::new();
        let tracker = Arc::new(LinkTracker::new(ClusterSpec::with_rack_map(
            4,
            2,
            1,
            vec![0, 0, 1, 1],
        )));
        for m in 0..4u32 {
            tracker.map_endpoint(EndpointId(m), MachineId(m));
        }
        FabricPath::install_link_tracker(&fabric, tracker.clone());
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
        assert_eq!(tracker.total_bytes(), fabric.copied_bytes());
    }

    #[test]
    fn cross_thread_delivery() {
        let fabric = Arc::new(LiveFabric::new());
        let rx = fabric.register(EndpointId(1)).unwrap();
        let f2 = fabric.clone();
        let handle = std::thread::spawn(move || {
            for i in 0..100u8 {
                f2.send_copied(EndpointId(0), EndpointId(1), &[i]).unwrap();
            }
        });
        handle.join().unwrap();
        let got: Vec<u8> = (0..100)
            .map(|_| rx.recv().unwrap().payload.bytes()[0])
            .collect();
        assert_eq!(got, (0..100).collect::<Vec<u8>>());
    }
}
