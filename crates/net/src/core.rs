//! The transport core: everything about a live transport that is not
//! *who moves the bytes and when*.
//!
//! [`Transport`] owns, once, the endpoint table (inbox sender beside the
//! policy's per-endpoint state and the counts its reader shares with its
//! posts, duplicate-id rejection), the counter block behind
//! [`FabricStats`], the [`LinkTracker`] slot and the hand-off into an
//! inbox (`Transport::deliver` for one frame, `Transport::deliver_slice`
//! for a flushed ring slice: the only places a delivered or lost frame is
//! counted). A [`Policy`] supplies the rest:
//!
//! - [`PerSend`] ([`LiveFabric`]): the sender delivers now;
//! - [`crate::ring_fabric::Ring`] ([`crate::RingFabric`]): the sender
//!   posts to the endpoint's ring, a pass batches at MMS/WTL and hands
//!   what it flushed over as one slice;
//! - [`crate::one_sided::OneSided`] ([`crate::OneSidedFabric`]): the
//!   sender publishes to the link's outbox, a pass reads each frame
//!   across and delivers.
//!
//! A buffered frame moves only in a pass over its endpoint, and a pass
//! runs in three places: on the endpoint's reader, before its [`Inbox`]
//! reads; on a sender whose post found the buffer full, before it reports
//! [`SendError::Full`]; and over every endpoint in id order in the
//! deterministic drivers and [`FabricPath::flush`]. A transport runs no
//! thread of its own.
//!
//! [`FabricPath`] is implemented here for every policy at once.

use crate::fabric::{
    EndpointId, FabricPath, FabricStats, IdHashMap, LiveMessage, Payload, RegisterError, SendError,
};
use crate::inbox::{Inbox, Parcel, Port, Reader};
use crate::one_sided::{OneSidedConfig, OneSidedFabric};
use crate::ring_fabric::{RingConfig, RingFabric};
use crate::topology::LinkTracker;
use crossbeam::channel::{bounded, unbounded, Sender, TrySendError};
use parking_lot::{RwLock, RwLockReadGuard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A registered endpoint: its inbox, the counts its reader shares with its
/// posts and, beside them, the policy's state, so reaching the inbox never
/// takes a policy lock.
pub struct Entry<S> {
    /// Unbounded on a buffered endpoint, whose `port` keeps its room.
    pub(crate) tx: Sender<Parcel>,
    pub(crate) port: Arc<Port>,
    pub(crate) state: S,
}

/// A delivery policy: who moves a frame from the sender to the
/// destination inbox, and when. Everything else is [`Transport`]'s.
pub trait Policy: Send + Sync + Sized + 'static {
    /// State kept per registered endpoint, beside its inbox.
    type Endpoint: Send + Sync;

    /// Sends buffer frames for a pass, which the endpoint's [`Inbox`] runs
    /// before it reads. `false`: sends deliver directly and nothing is
    /// ever buffered.
    const BUFFERED: bool;

    /// State of a newly registered endpoint.
    fn open(&self, id: EndpointId) -> Self::Endpoint;

    /// The endpoint was deregistered: release what `state` held and pass
    /// every frame still buffered to `dropped`.
    fn close(&self, _state: Self::Endpoint, _dropped: &mut dyn FnMut(LiveMessage)) {}

    /// Accept `msg` for `to`: deliver it, or buffer it for a pass.
    fn send(t: &Transport<Self>, to: EndpointId, msg: LiveMessage) -> Result<(), SendError>;

    /// [`FabricPath::send_lent`]: by default one shared buffer per frame.
    fn send_lent(
        t: &Transport<Self>,
        from: EndpointId,
        to: EndpointId,
        bytes: &[u8],
    ) -> Result<(), SendError> {
        let payload = Payload::Shared(Arc::from(bytes));
        Self::send(t, to, LiveMessage { from, payload })
    }

    /// One pass over `to`'s buffered frames at `now` (time since the
    /// transport was created, or a deterministic caller's own clock);
    /// `force` also pushes out what the policy would still hold back.
    /// Returns the frames delivered and when the endpoint next needs a
    /// pass: `Duration::ZERO` if work is already waiting, `None` when only
    /// a post can make some.
    fn pass(
        _t: &Transport<Self>,
        _to: EndpointId,
        _entry: &Entry<Self::Endpoint>,
        _now: Duration,
        _force: bool,
    ) -> (u64, Option<Duration>) {
        (0, None)
    }
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

#[derive(Default)]
struct Counters {
    messages: AtomicU64,
    copied_bytes: AtomicU64,
    shared_bytes: AtomicU64,
    send_errors: AtomicU64,
    posted: AtomicU64,
    doorbell_rings: AtomicU64,
    flushed_batches: AtomicU64,
    flushed_items: AtomicU64,
}

/// What a [`Transport`] handle and the inboxes of its buffered endpoints
/// share.
struct Core<P: Policy> {
    policy: P,
    table: RwLock<IdHashMap<EndpointId, Entry<P::Endpoint>>>,
    counters: Counters,
    /// Optional per-link attribution: accepting a frame raises its link's
    /// queue gauge, [`Transport::deliver`] settles it.
    tracker: OnceLock<Arc<LinkTracker>>,
    /// Origin of the live clock ([`Transport::wall_now`]).
    epoch: Instant,
}

/// A live transport: the shared core around one delivery [`Policy`].
pub struct Transport<P: Policy> {
    core: Arc<Core<P>>,
}

impl<P: Policy> Transport<P> {
    pub(crate) fn with_policy(policy: P) -> Self {
        Transport {
            core: Arc::new(Core {
                policy,
                table: RwLock::new(IdHashMap::default()),
                counters: Counters::default(),
                tracker: OnceLock::new(),
                epoch: Instant::now(),
            }),
        }
    }

    /// The delivery policy.
    pub(crate) fn policy(&self) -> &P {
        &self.core.policy
    }

    /// [`FabricPath::register`], for callers without the trait in scope.
    pub fn register(&self, id: EndpointId) -> Result<Inbox, RegisterError> {
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

    /// Wall time since this transport was created (what a reader's pass
    /// runs at; deterministic callers pass their own clock).
    pub fn wall_now(&self) -> Duration {
        self.core.epoch.elapsed()
    }

    /// Install `id` with an inbox of `capacity` frames (`None`:
    /// unbounded). A per-send inbox is a channel of that bound; a buffered
    /// policy's inbox gets the endpoint's port, which keeps the room, and
    /// pass.
    fn open(&self, id: EndpointId, capacity: Option<usize>) -> Result<Inbox, RegisterError> {
        let mut table = self.core.table.write();
        if table.contains_key(&id) {
            return Err(RegisterError::AlreadyRegistered(id));
        }
        let (tx, rx) = match capacity {
            Some(capacity) if !P::BUFFERED => bounded(capacity),
            _ => unbounded(),
        };
        let port = Arc::new(Port::new(capacity));
        let state = self.core.policy.open(id);
        let reader = P::BUFFERED.then(|| {
            let transport = Transport {
                core: Arc::clone(&self.core),
            };
            Reader {
                port: Arc::clone(&port),
                pass: Box::new(move || transport.read_pass(id)),
            }
        });
        table.insert(id, Entry { tx, port, state });
        Ok(Inbox::new(rx, reader))
    }

    /// `id`'s own pass at wall time, as its inbox runs it before reading:
    /// how long until the endpoint next needs one.
    fn read_pass(&self, id: EndpointId) -> Option<Duration> {
        let now = self.wall_now();
        let (_, due) = self.with_entry(id, |entry| P::pass(self, id, entry, now, false))?;
        Some(due?.saturating_sub(now))
    }

    /// The endpoint table under its read lock. A pass holds it throughout,
    /// so `deregister` never runs under one.
    pub(crate) fn entries(&self) -> RwLockReadGuard<'_, IdHashMap<EndpointId, Entry<P::Endpoint>>> {
        self.core.table.read()
    }

    /// Run `f` on `id`'s entry under the table's read lock.
    pub(crate) fn with_entry<R>(
        &self,
        id: EndpointId,
        f: impl FnOnce(&Entry<P::Endpoint>) -> R,
    ) -> Option<R> {
        self.entries().get(&id).map(f)
    }

    /// Change `id`'s entry under the table's write lock, so it cannot race
    /// `deregister`.
    pub(crate) fn with_entry_mut<R>(
        &self,
        id: EndpointId,
        f: impl FnOnce(&mut Entry<P::Endpoint>) -> R,
    ) -> Option<R> {
        self.core.table.write().get_mut(&id).map(f)
    }

    /// Every endpoint's pass at `now`, in id order (the deterministic
    /// drivers and [`FabricPath::flush`]). Returns the frames delivered.
    pub(crate) fn drain(&self, now: Duration, force: bool) -> u64 {
        let table = self.entries();
        let mut ids: Vec<EndpointId> = table.keys().copied().collect();
        ids.sort_unstable();
        ids.iter()
            .map(|id| P::pass(self, *id, &table[id], now, force).0)
            .sum()
    }

    /// Accept `msg` for `to` through `post`, which hands the frame back
    /// when the buffer is full. Then `to`'s pass runs here and the post is
    /// tried once more: a reader that is slow — or is this very thread —
    /// cannot wedge its senders, and an unbounded inbox absorbs the
    /// backlog.
    pub(crate) fn post_or_pass<M>(
        &self,
        to: EndpointId,
        entry: &Entry<P::Endpoint>,
        msg: M,
        post: impl Fn(M) -> Result<(), M>,
    ) -> Result<(), SendError> {
        post(msg).or_else(|msg| {
            P::pass(self, to, entry, self.wall_now(), false);
            post(msg).map_err(|_| SendError::Full)
        })
    }

    /// Count a send the transport refused.
    pub(crate) fn reject(&self, err: SendError) -> SendError {
        self.core
            .counters
            .send_errors
            .fetch_add(1, Ordering::Relaxed);
        err
    }

    /// A frame was buffered for `from → to`: it occupies its link's queue
    /// until [`Transport::deliver`] settles it.
    pub(crate) fn note_queued(&self, from: EndpointId, to: EndpointId, bytes: usize) {
        if let Some(tracker) = self.core.tracker.get() {
            tracker.on_send(from, to, bytes);
        }
    }

    /// Count a frame accepted into a ring or outbox.
    pub(crate) fn note_posted(&self) {
        self.core.counters.posted.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one flushed batch of `n_items`.
    pub(crate) fn note_batch(&self, n_items: usize) {
        let c = &self.core.counters;
        c.flushed_batches.fetch_add(1, Ordering::Relaxed);
        c.flushed_items.fetch_add(n_items as u64, Ordering::Relaxed);
    }

    /// A post just accepted into `entry`'s buffer leaves its reader
    /// something to do now: wake the reader if it is blocked on its inbox.
    /// Call after releasing the buffer's lock: a reader woken under it
    /// would preempt its waker on a shared core only to block on that
    /// lock.
    pub(crate) fn wake_reader(&self, entry: &Entry<P::Endpoint>) {
        if entry.port.claim_wake() {
            self.core
                .counters
                .doorbell_rings
                .fetch_add(1, Ordering::Relaxed);
            let _ = entry.tx.try_send(Parcel::Wake);
        }
    }

    /// Hand `msg` to `to`'s inbox, `entry`'s — with
    /// [`Transport::deliver_slice`], the one place a frame leaves the
    /// transport's books, delivered or lost. `entry` is `None` when the
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
        entry: Option<&Entry<P::Endpoint>>,
        to: EndpointId,
        msg: LiveMessage,
        queued: bool,
    ) -> Handoff {
        let (from, len) = (msg.from, msg.payload.len());
        let counters = &self.core.counters;
        let tracker = self.core.tracker.get();
        let lost = || {
            counters.send_errors.fetch_add(1, Ordering::Relaxed);
            if let (Some(tracker), true) = (tracker, queued) {
                tracker.on_dropped(from, to, len);
            }
            Handoff::Disconnected
        };
        let Some(entry) = entry else {
            return lost();
        };
        if P::BUFFERED && entry.port.reserve(1) == 0 {
            return Handoff::Full(msg);
        }
        let bytes_ctr = match msg.payload {
            Payload::Copied(_) => &counters.copied_bytes,
            Payload::Shared(_) | Payload::Slice(..) => &counters.shared_bytes,
        };
        counters.messages.fetch_add(1, Ordering::Relaxed);
        bytes_ctr.fetch_add(len as u64, Ordering::Relaxed);
        let failed = match entry.tx.try_send(Parcel::Frame(msg)) {
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
        counters.messages.fetch_sub(1, Ordering::Relaxed);
        bytes_ctr.fetch_sub(len as u64, Ordering::Relaxed);
        if P::BUFFERED {
            entry.port.release(1);
        }
        match failed {
            TrySendError::Full(Parcel::Frame(msg)) => Handoff::Full(msg),
            TrySendError::Full(_) => unreachable!("a frame went in"),
            TrySendError::Disconnected(_) => lost(),
        }
    }

    /// Hand `frames`, everything one pass flushed for `to`, to `entry`'s
    /// inbox as one slice, for which the caller reserved room
    /// ([`Port::reserve`]). Counted as [`Transport::deliver`] counts, but
    /// once for the slice; each frame still counts as one message.
    /// Returns the frames delivered: all of them, or none when the reader
    /// is gone (then each is counted lost).
    pub(crate) fn deliver_slice(
        &self,
        entry: &Entry<P::Endpoint>,
        to: EndpointId,
        frames: Vec<LiveMessage>,
    ) -> u64 {
        let n = frames.len() as u64;
        if n == 0 {
            return 0;
        }
        let (mut copied, mut shared) = (0, 0);
        for msg in &frames {
            match msg.payload {
                Payload::Copied(_) => copied += msg.payload.len() as u64,
                Payload::Shared(_) | Payload::Slice(..) => shared += msg.payload.len() as u64,
            }
        }
        let counters = &self.core.counters;
        let tallies = [
            (&counters.messages, n),
            (&counters.copied_bytes, copied),
            (&counters.shared_bytes, shared),
        ];
        let count = |undo: bool| {
            for (counter, v) in tallies.iter().filter(|(_, v)| *v > 0) {
                if undo {
                    counter.fetch_sub(*v, Ordering::Relaxed);
                } else {
                    counter.fetch_add(*v, Ordering::Relaxed);
                }
            }
        };
        count(false);
        // Per link, only when a tracker is installed: the frames move.
        let tracker = self.core.tracker.get();
        let links: Vec<(EndpointId, usize)> = tracker.map_or_else(Vec::new, |_| {
            let link = |msg: &LiveMessage| (msg.from, msg.payload.len());
            frames.iter().map(link).collect()
        });
        let delivered = entry.tx.try_send(Parcel::Slice(frames)).is_ok();
        if let Some(tracker) = tracker {
            for &(from, len) in &links {
                if delivered {
                    tracker.on_delivered(from, to, len);
                } else {
                    tracker.on_dropped(from, to, len);
                }
            }
        }
        if delivered {
            return n;
        }
        count(true);
        counters.send_errors.fetch_add(n, Ordering::Relaxed);
        entry.port.release(n);
        0
    }
}

impl<P: Policy> FabricPath for Transport<P> {
    fn register(&self, id: EndpointId) -> Result<Inbox, RegisterError> {
        self.open(id, None)
    }

    fn register_bounded(&self, id: EndpointId, capacity: usize) -> Result<Inbox, RegisterError> {
        self.open(id, Some(capacity))
    }

    fn deregister(&self, id: EndpointId) {
        let removed = self.core.table.write().remove(&id);
        if let Some(entry) = removed {
            let mut dropped = 0;
            self.core.policy.close(entry.state, &mut |msg| {
                dropped += 1;
                self.deliver(None, id, msg, true);
            });
            entry.port.settle(dropped);
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

    fn send_lent(&self, from: EndpointId, to: EndpointId, bytes: &[u8]) -> Result<(), SendError> {
        P::send_lent(self, from, to, bytes)
    }

    fn flush(&self) {
        self.drain(self.wall_now(), true);
    }

    fn wake(&self, id: EndpointId) {
        self.with_entry(id, |entry| {
            if P::BUFFERED && entry.port.reserve(1) == 0 {
                return;
            }
            let sent = entry.tx.try_send(Parcel::Frame(LiveMessage::wake(id)));
            if P::BUFFERED && sent.is_err() {
                entry.port.release(1);
            }
        });
    }

    fn stats(&self) -> FabricStats {
        let get = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let c = &self.core.counters;
        let table = self.entries();
        FabricStats {
            messages: get(&c.messages),
            copied_bytes: get(&c.copied_bytes),
            shared_bytes: get(&c.shared_bytes),
            send_errors: get(&c.send_errors),
            posted: get(&c.posted),
            doorbell_rings: get(&c.doorbell_rings),
            flushed_batches: get(&c.flushed_batches),
            flushed_items: get(&c.flushed_items),
            // The per-endpoint counts, summed: no buffer is locked.
            queue_depth: table
                .values()
                .map(|entry| {
                    if P::BUFFERED {
                        entry.port.pending()
                    } else {
                        entry.tx.len() as u64
                    }
                })
                .sum(),
            endpoints: table.len(),
        }
    }

    fn install_link_tracker(&self, tracker: Arc<LinkTracker>) {
        let _ = self.core.tracker.set(tracker);
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
    const BUFFERED: bool = false;

    fn open(&self, _id: EndpointId) {}

    fn send(t: &LiveFabric, to: EndpointId, msg: LiveMessage) -> Result<(), SendError> {
        // Not `with_entry`: moving the frame into a closure and its
        // `Handoff` back out measured ≈ 8 ns of a ≈ 100 ns send + receive.
        let table = t.entries();
        let Some(entry) = table.get(&to) else {
            drop(table);
            return Err(t.reject(SendError::UnknownEndpoint));
        };
        let handoff = t.deliver(Some(entry), to, msg, false);
        drop(table);
        match handoff {
            Handoff::Delivered => Ok(()),
            Handoff::Full(_) => Err(t.reject(SendError::Full)),
            Handoff::Disconnected => Err(SendError::Disconnected),
        }
    }
}

/// Which live transport a runtime should instantiate.
#[derive(Clone, Copy, Debug, Default)]
pub enum FabricKind {
    /// Synchronous per-send delivery ([`LiveFabric`]).
    #[default]
    PerSend,
    /// The batched ring-buffer path ([`RingFabric`]): each reader batches
    /// its own endpoint's ring at MMS/WTL.
    Ring(RingConfig),
    /// The remote-fetch path ([`OneSidedFabric`]): senders publish into
    /// per-link ring regions, each reader pulls its inbound links by
    /// sequence number.
    OneSided(OneSidedConfig),
}

impl FabricKind {
    /// Instantiate the transport. Flush it ([`FabricPath::flush`]) after
    /// every sender has finished and before deregistering the receivers.
    pub fn build(self) -> Arc<dyn FabricPath> {
        match self {
            FabricKind::PerSend => Arc::new(LiveFabric::new()),
            FabricKind::Ring(config) => Arc::new(RingFabric::new(config)),
            FabricKind::OneSided(config) => Arc::new(OneSidedFabric::new(config)),
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
