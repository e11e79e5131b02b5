//! The transport core: everything about a live transport that is not
//! *who moves the bytes and when*.
//!
//! [`Transport`] owns, once, the endpoint table (each endpoint's
//! queue beside the policy's per-endpoint state, duplicate-id
//! rejection), the counter totals behind [`FabricStats`], the
//! [`LinkTracker`] slot and the hand-off into a queue
//! (`Transport::deliver`: the one place a delivered or lost frame is
//! counted). A [`Policy`] supplies the rest:
//!
//! - [`PerSend`] ([`LiveFabric`]): the sender delivers now, through a
//!   handle on the destination's queue it resolved once;
//! - [`crate::slice::Slice`] ([`crate::RingFabric`],
//!   [`crate::OneSidedFabric`]): the sender posts to an outbox — its
//!   destination's one (the ring) or its link's (one-sided) — and a pass
//!   hands each outbox's ready run over in one push: what MMS/WTL flushed
//!   (the ring) or everything published (one-sided).
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
use crate::inbox::{Inbox, Queue, Shut, Tally};
use crate::one_sided::{OneSidedConfig, OneSidedFabric};
use crate::ring_fabric::{RingConfig, RingFabric};
use crate::topology::LinkTracker;
use parking_lot::{RwLock, RwLockReadGuard};
use std::cell::RefCell;
use std::collections::hash_map;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

/// A registered endpoint: its queue and, beside it, the policy's state,
/// so reaching the queue never takes a policy lock.
pub struct Entry<S> {
    pub(crate) queue: Arc<Queue>,
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

    /// [`FabricPath::send_lent`]: by default one shared buffer per frame;
    /// the buffered policies lend the bytes into a stream slice.
    fn send_lent(
        t: &Transport<Self>,
        from: EndpointId,
        to: EndpointId,
        bytes: &[u8],
    ) -> Result<(), SendError> {
        let payload = Payload::Shared(Arc::from(bytes));
        Self::send(t, to, LiveMessage { from, payload })
    }

    /// What `state` has counted: frames accepted into its buffers, and
    /// the batches and frames it flushed — each written under the lock
    /// that guards the frames it counts, so with plain stores.
    fn posts(_state: &Self::Endpoint) -> [u64; 3] {
        [0; 3]
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

/// Outcome of a hand-off into a queue ([`Transport::deliver`]).
pub(crate) enum Handoff {
    /// This many frames are in the queue and counted: all that were
    /// ready, or what a bounded queue had room for (and the hand-off
    /// took).
    Delivered(u64),
    /// The queue's entry left the table; nothing was taken.
    Closed,
    /// The reader is gone; every frame that was ready is lost and counted
    /// as an error.
    Disconnected,
}

/// The transport's own counters, and the totals of the endpoints that
/// have left its table.
#[derive(Default)]
struct Counters {
    retired: Tally,
    /// [`Policy::posts`] of the endpoints that have left the table.
    retired_posts: [AtomicU64; 3],
    send_errors: AtomicU64,
}

/// What a [`Transport`] handle, the passes of its buffered endpoints and
/// the per-send handle caches share.
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

impl<P: Policy> Drop for Core<P> {
    /// A dropped transport disconnects its readers, whoever still holds
    /// their queues.
    fn drop(&mut self) {
        for entry in self.table.get_mut().values() {
            entry.queue.close();
        }
    }
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

    /// Install `id` with a queue of `capacity` frames (`None`:
    /// unbounded). A buffered policy's inbox also gets the endpoint's
    /// pass, which runs while the transport lives.
    fn open(&self, id: EndpointId, capacity: Option<usize>) -> Result<Inbox, RegisterError> {
        let mut table = self.core.table.write();
        if table.contains_key(&id) {
            return Err(RegisterError::AlreadyRegistered(id));
        }
        let queue = Arc::new(Queue::new(capacity));
        let state = self.core.policy.open(id);
        let pass = P::BUFFERED.then(|| {
            let core = Arc::downgrade(&self.core);
            let pass = move || {
                let core = core.upgrade()?;
                Transport { core }.read_pass(id)
            };
            Box::new(pass) as Box<dyn Fn() -> Option<Duration> + Send>
        });
        let entry = Entry {
            queue: Arc::clone(&queue),
            state,
        };
        table.insert(id, entry);
        Ok(Inbox::new(queue, pass))
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

    /// `msg`, for `to`, is lost: count it as an error and, if the policy
    /// buffered it, take it off its link's queue gauge.
    fn lose(&self, to: EndpointId, msg: &LiveMessage) {
        let counters = &self.core.counters;
        counters.send_errors.fetch_add(1, Ordering::Relaxed);
        if let (Some(tracker), true) = (self.core.tracker.get(), P::BUFFERED) {
            tracker.on_dropped(msg.from, to, msg.payload.len());
        }
    }

    /// Hand `queue`, `to`'s, up to `ready` frames under its one lock:
    /// `take(n)` gives the oldest `n` of them, `n` being what the queue
    /// has room for. The one place a frame leaves the transport's books,
    /// delivered or lost (with `deregister`'s drops). A buffered policy's
    /// frames were counted onto their link's queue when they were posted
    /// ([`Transport::note_queued`]); a direct send's arrive straight from
    /// their sender.
    ///
    /// Counted under the lock, before the reader can take a frame, so a
    /// reader that has seen a delivery also sees it counted. A full queue
    /// is the caller's to interpret — an error for a direct send, a retry
    /// for a buffered one — so it is not counted here.
    #[inline]
    pub(crate) fn deliver<I: IntoIterator<Item = LiveMessage>>(
        &self,
        queue: &Queue,
        to: EndpointId,
        ready: usize,
        take: impl FnOnce(usize) -> I,
    ) -> Handoff {
        let mut inflow = match queue.inflow() {
            Ok(inflow) => inflow,
            Err(Shut::Closed) => return Handoff::Closed,
            Err(Shut::Gone) => {
                for msg in take(ready) {
                    self.lose(to, &msg);
                }
                return Handoff::Disconnected;
            }
        };
        let n = inflow.room().min(ready as u64) as usize;
        let tracker = self.core.tracker.get();
        let mut pushed = 0;
        for msg in take(n) {
            if let Some(tracker) = tracker {
                let (from, len) = (msg.from, msg.payload.len());
                if !P::BUFFERED {
                    tracker.on_send(from, to, len);
                }
                tracker.on_delivered(from, to, len);
            }
            inflow.push(msg);
            pushed += 1;
        }
        inflow.finish();
        Handoff::Delivered(pushed)
    }
}

impl<P: Policy> FabricPath for Transport<P> {
    fn register(&self, id: EndpointId) -> Result<Inbox, RegisterError> {
        self.open(id, None)
    }

    fn register_bounded(&self, id: EndpointId, capacity: usize) -> Result<Inbox, RegisterError> {
        self.open(id, Some(capacity))
    }

    /// Close the queue and fold its counts into the totals under the
    /// table's write lock, so [`Self::stats`] sees them once: in the table
    /// or in the totals.
    fn deregister(&self, id: EndpointId) {
        let mut table = self.core.table.write();
        let Some(entry) = table.remove(&id) else {
            return;
        };
        entry.queue.close();
        let counters = &self.core.counters;
        for (total, count) in counters
            .retired
            .counts()
            .into_iter()
            .zip(entry.queue.tally.counts())
        {
            total.fetch_add(count.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        for (total, count) in counters.retired_posts.iter().zip(P::posts(&entry.state)) {
            total.fetch_add(count, Ordering::Relaxed);
        }
        drop(table);
        let mut dropped = 0;
        self.core.policy.close(entry.state, &mut |msg| {
            dropped += 1;
            self.lose(id, &msg);
        });
        entry.queue.port.settle(dropped);
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
            if let Ok(mut inflow) = entry.queue.inflow() {
                if inflow.room() > 0 {
                    inflow.push_uncounted(LiveMessage::wake(id));
                }
                inflow.finish();
            }
        });
    }

    fn stats(&self) -> FabricStats {
        let get = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let c = &self.core.counters;
        // First the table: a deregistration folds its endpoint's counts
        // into the totals under the write lock.
        let table = self.entries();
        let mut tally = c.retired.counts().map(get);
        let mut posts = c.retired_posts.each_ref().map(get);
        let mut queue_depth = 0;
        for entry in table.values() {
            let queue = &entry.queue;
            for (sum, count) in tally.iter_mut().zip(queue.tally.counts()) {
                *sum += get(count);
            }
            for (sum, count) in posts.iter_mut().zip(P::posts(&entry.state)) {
                *sum += count;
            }
            queue_depth += if P::BUFFERED {
                queue.port.pending()
            } else {
                queue.depth()
            };
        }
        let [messages, copied_bytes, shared_bytes, sliced_frames, doorbell_rings] = tally;
        let [posted, flushed_batches, flushed_items] = posts;
        FabricStats {
            messages,
            copied_bytes,
            shared_bytes,
            sliced_frames,
            send_errors: get(&c.send_errors),
            posted,
            doorbell_rings,
            flushed_batches,
            flushed_items,
            queue_depth,
            endpoints: table.len(),
        }
    }

    fn install_link_tracker(&self, tracker: Arc<LinkTracker>) {
        let _ = self.core.tracker.set(tracker);
    }
}

/// The per-send policy: the sender pushes the frame into the destination
/// queue itself. Nothing is ever buffered, so the inbox lengths *are* the
/// transfer queue.
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

/// One thread's handles on the queues it sends to, for one transport.
#[derive(Default)]
struct Handles {
    /// The transport they belong to. A weak reference keeps the core's
    /// allocation, so a dropped transport's address never matches a new
    /// one.
    core: Weak<Core<PerSend>>,
    queues: IdHashMap<EndpointId, Arc<Queue>>,
}

impl Handles {
    /// Send `msg` through the handle on `to`'s queue, resolving it first
    /// if this thread holds none (handles for another transport are let
    /// go), and again if the queue closed under it.
    #[inline]
    fn send(
        &mut self,
        t: &LiveFabric,
        to: EndpointId,
        msg: &mut Option<LiveMessage>,
    ) -> Result<(), SendError> {
        if !std::ptr::eq(self.core.as_ptr(), Arc::as_ptr(&t.core)) {
            self.core = Arc::downgrade(&t.core);
            self.queues.clear();
        }
        loop {
            let queue = match self.queues.entry(to) {
                hash_map::Entry::Occupied(held) => held.into_mut(),
                hash_map::Entry::Vacant(slot) => {
                    match t.with_entry(to, |entry| Arc::clone(&entry.queue)) {
                        Some(queue) => slot.insert(queue),
                        None => return Err(t.reject(SendError::UnknownEndpoint)),
                    }
                }
            };
            match t.deliver(queue, to, 1, |n| msg.take().filter(|_| n == 1)) {
                Handoff::Delivered(1) => return Ok(()),
                Handoff::Delivered(_) => return Err(t.reject(SendError::Full)),
                Handoff::Disconnected => return Err(SendError::Disconnected),
                Handoff::Closed => self.queues.remove(&to),
            };
        }
    }
}

thread_local! {
    static HANDLES: RefCell<Handles> = const {
        RefCell::new(Handles {
            core: Weak::new(),
            queues: IdHashMap::with_hasher(BuildHasherDefault::new()),
        })
    };
}

impl Policy for PerSend {
    type Endpoint = ();
    const BUFFERED: bool = false;

    fn open(&self, _id: EndpointId) {}

    /// Through this thread's handle on `to`'s queue: the table's lock is
    /// taken only to resolve it, once per (thread, transport,
    /// destination), and again after the queue closed under it — when
    /// `to` is gone, the send fails as `UnknownEndpoint`; re-registered,
    /// it lands in the new queue. A thread whose locals are being torn
    /// down resolves on every send.
    #[inline]
    fn send(t: &LiveFabric, to: EndpointId, msg: LiveMessage) -> Result<(), SendError> {
        let mut msg = Some(msg);
        let sent = HANDLES.try_with(|handles| handles.borrow_mut().send(t, to, &mut msg));
        sent.unwrap_or_else(|_| Handles::default().send(t, to, &mut msg))
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

    #[test]
    fn a_blocked_reader_is_woken_once_however_many_frames_follow() {
        // The send that finds the reader waiting clears the flag it
        // notifies on: the frames sent while the woken reader waits for
        // the CPU ring nothing.
        const FRAMES: u64 = 10_000;
        let fabric = LiveFabric::new();
        let rx = fabric.register(EndpointId(1)).unwrap();
        let queue = fabric.with_entry(EndpointId(1), |e| Arc::clone(&e.queue));
        let queue = queue.unwrap();
        let reader = std::thread::spawn(move || {
            let first = rx.recv_timeout(Duration::from_secs(30));
            (first.expect("a send wakes the reader").payload.len(), rx)
        });
        while !queue.reader_waits() {
            std::thread::yield_now();
        }
        for _ in 0..FRAMES {
            fabric
                .send_copied(EndpointId(0), EndpointId(1), b"x")
                .unwrap();
        }
        let (first, rx) = reader.join().unwrap();
        assert_eq!(first, 1);
        let rest = std::iter::from_fn(|| rx.try_recv().ok()).count() as u64;
        assert_eq!(rest, FRAMES - 1);
        assert_eq!(fabric.stats().doorbell_rings, 1);
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
