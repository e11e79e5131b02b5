//! `OneSidedFabric`: the remote-fetch live transport (§4's one-sided
//! READ paradigm).
//!
//! Where [`crate::LiveFabric`] pushes into destination inboxes and
//! [`crate::RingFabric`] batches pushes through a pass, this transport
//! inverts the data movement: each (sender, destination) link owns a
//! [`RingRegion`]-backed outbox registered once, the sender *publishes*
//! frames into it (server-bypass: no destination code runs on the send
//! path), and the receive side *fetches* — the in-process stand-in for an
//! `RDMA READ` of the tail slot, addressed purely by sequence number
//! ([`RingRegion::tail_seq`]). The fetcher is the destination's own
//! reader: before its [`crate::Inbox`] reads, it fetches its inbound
//! links, and a publish wakes it if it is blocked. Deterministic callers
//! drive [`OneSidedFabric::fetch_all`] themselves.
//!
//! Semantics shared with the other transports:
//!
//! - a publish into a full outbox ring runs the destination's fetch pass
//!   itself and tries again; only if the ring is still full does it fail
//!   with [`SendError::Full`] — the bounded transfer queue of the M/D/1
//!   model, surfaced as backpressure the `SendPolicy` retries;
//! - only bytes that actually reach an inbox count toward the byte
//!   totals; failed publishes and dead destinations increment
//!   `send_errors`;
//! - per-link FIFO order holds end to end: the ring is consumed strictly
//!   in sequence order, and a frame the (bounded) inbox cannot yet accept
//!   stays at the front of its link's ring;
//! - a frame sent with [`FabricPath::send_lent`](crate::FabricPath::send_lent)
//!   has no buffer of its own: the outbox slot holds its descriptor, its
//!   bytes are appended to the link's slice buffer under the link's lock,
//!   and a fetch pass freezes the lent bytes of the link's run into one
//!   shared buffer, of which each such frame arrives as a
//!   [`Payload::Slice`](crate::Payload::Slice) — the whole run as one
//!   `RDMA READ` (§4).
//!
//! Only the policy lives here — what a publish and a fetch pass do. The
//! endpoint table (a destination's links hang off its entry, so they go
//! when it goes), counters, link attribution and the reader's side are
//! [`crate::core`]'s.

use crate::core::{Entry, Handoff, Policy, Transport};
use crate::fabric::{EndpointId, IdHashMap, LiveMessage, SendError};
use crate::memory::{MemoryRegistry, RingRegion};
use crate::slice::{Lent, Posted};
use parking_lot::Mutex;
use std::time::Duration;

/// Per-slot registration accounting: bytes of registered memory each
/// outbox slot reserves.
const SLOT_BYTES: usize = 2 * 1024;

/// Configuration of the one-sided (remote-fetch) transport.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OneSidedConfig {
    /// Per-link outbox capacity in slots: the maximum number of published
    /// but not yet fetched frames between one sender and one destination.
    /// Publishes beyond it fail with [`SendError::Full`].
    pub ring_slots: usize,
}

impl Default for OneSidedConfig {
    fn default() -> Self {
        OneSidedConfig {
            ring_slots: 16 * 1024,
        }
    }
}

/// One (sender → destination) link: the registered outbox ring of
/// descriptors, and the bytes its lent frames lent.
pub struct LinkOutbox {
    ring: RingRegion<Posted>,
    lent: Lent,
}

impl LinkOutbox {
    /// The ring's `n` oldest frames, consumed ([`Lent::take`]).
    fn fetch(&mut self, n: usize) -> impl Iterator<Item = LiveMessage> + '_ {
        let lent = Posted::lent_in(self.ring.iter().take(n));
        self.lent.take(lent, self.ring.drain(n))
    }
}

/// A destination's inbound links, by sender.
type Inbound = IdHashMap<EndpointId, Mutex<LinkOutbox>>;

/// The remote-fetch policy: a send publishes to the link's outbox; a pass
/// reads each frame across and delivers.
pub struct OneSided {
    config: OneSidedConfig,
    /// Registration ledger: one registration per link, paid lazily on the
    /// first publish, refunded on deregistration.
    registry: Mutex<MemoryRegistry>,
}

/// The remote-fetch transport. See the module docs for semantics.
pub type OneSidedFabric = Transport<OneSided>;

impl OneSided {
    /// A fresh outbox for `from → to`: registration is paid here, once per
    /// link, never per message.
    fn new_link(&self) -> Mutex<LinkOutbox> {
        let ring = RingRegion::new(
            self.config.ring_slots,
            SLOT_BYTES,
            &mut self.registry.lock(),
        );
        Mutex::new(LinkOutbox {
            ring,
            lent: Lent::default(),
        })
    }

    /// Publish `posted` into `link`, `entry`'s outbox from its sender —
    /// `lent` holds a lent descriptor's bytes — and wake the reader; hand
    /// the descriptor back if the outbox is full.
    fn publish(
        t: &OneSidedFabric,
        to: EndpointId,
        entry: &Entry<Inbound>,
        link: &Mutex<LinkOutbox>,
        posted: Posted,
        lent: &[u8],
    ) -> Result<(), Posted> {
        let (from, bytes) = (posted.from(), posted.len());
        let mut guard = link.lock();
        let link = &mut *guard;
        if link.ring.is_full() {
            return Err(posted);
        }
        link.lent.push(lent);
        link.ring.produce(posted).expect("checked for a free slot");
        // Published into the outbox: the frame occupies its link's queue
        // until a fetch pass pulls it across.
        t.note_queued(from, to, bytes);
        entry.queue.port.accept();
        drop(guard);
        entry.queue.wake_reader();
        Ok(())
    }

    /// Publish `posted` into its sender's outbox to `to`. A link's first
    /// frame creates it under the table's write lock, so a `deregister`
    /// racing the publish either still sees the destination or took it
    /// with it.
    fn publish_to(
        t: &OneSidedFabric,
        to: EndpointId,
        posted: Posted,
        lent: &[u8],
    ) -> Result<(), SendError> {
        let from = posted.from();
        let publish = |entry: &Entry<Inbound>, link: &Mutex<LinkOutbox>, posted| {
            t.post_or_pass(to, entry, posted, |posted| {
                Self::publish(t, to, entry, link, posted, lent)
            })
        };
        let published = t.with_entry(to, |entry| match entry.state.get(&from) {
            Some(link) => Ok(publish(entry, link, posted)),
            None => Err(posted),
        });
        let sent = match published {
            Some(Ok(sent)) => Some(sent),
            Some(Err(posted)) => t.with_entry_mut(to, |entry| {
                let fresh = || t.policy().new_link();
                entry.state.entry(from).or_insert_with(fresh);
                let entry = &*entry;
                publish(entry, &entry.state[&from], posted)
            }),
            None => None,
        };
        sent.unwrap_or(Err(SendError::UnknownEndpoint))
            .map_err(|err| t.reject(err))
    }
}

impl Policy for OneSided {
    type Endpoint = Inbound;
    const BUFFERED: bool = true;

    fn open(&self, _id: EndpointId) -> Inbound {
        Inbound::default()
    }

    /// The destination is gone: refund its links' registrations and drop
    /// the frames still published to it.
    fn close(&self, links: Inbound, dropped: &mut dyn FnMut(LiveMessage)) {
        for link in links.into_values() {
            let mut link = link.into_inner();
            self.registry.lock().deregister(link.ring.region());
            link.fetch(link.ring.len()).for_each(&mut *dropped);
        }
    }

    fn send(t: &OneSidedFabric, to: EndpointId, msg: LiveMessage) -> Result<(), SendError> {
        Self::publish_to(t, to, Posted::Own(msg), &[])
    }

    /// The bytes go into the link's slice buffer under the link's lock:
    /// no buffer of their own.
    fn send_lent(
        t: &OneSidedFabric,
        from: EndpointId,
        to: EndpointId,
        bytes: &[u8],
    ) -> Result<(), SendError> {
        let len = bytes.len();
        Self::publish_to(t, to, Posted::Lent { from, len }, bytes)
    }

    /// Frames published on each link, which its ring numbers.
    fn posts(links: &Inbound) -> [u64; 3] {
        let posted = links.values().map(|link| link.lock().ring.next_seq());
        [posted.sum(), 0, 0]
    }

    /// Fetch every inbound link of `to`: read its run from the tail slot
    /// (addressed by seq) on, consume it, and hand it to the inbox in one
    /// push. A full bounded inbox stops a link — its frames stay in the ring,
    /// the ring backs up, and publishes eventually see
    /// [`SendError::Full`].
    fn pass(
        t: &OneSidedFabric,
        to: EndpointId,
        entry: &Entry<Inbound>,
        _now: Duration,
        _force: bool,
    ) -> (u64, Option<Duration>) {
        let (mut delivered, mut settled) = (0, 0);
        for link in entry.state.values() {
            let mut link = link.lock();
            let ready = link.ring.len();
            if ready == 0 {
                continue;
            }
            // The remote reader locates the next frame by sequence number
            // alone — no control message (§4): the tail slot holds
            // `tail_seq`.
            match t.deliver(&entry.queue, to, ready, |n| link.fetch(n)) {
                Handoff::Delivered(n) => (delivered, settled) = (delivered + n, settled + n),
                Handoff::Disconnected => settled += ready as u64,
                Handoff::Closed => {}
            }
        }
        entry.queue.port.settle(settled);
        (delivered, None)
    }
}

impl OneSidedFabric {
    /// New fabric with no endpoints. Each destination's reader fetches its
    /// own inbound links; deterministic runs drive
    /// [`OneSidedFabric::fetch_all`] instead.
    pub fn new(config: OneSidedConfig) -> Self {
        assert!(config.ring_slots > 0, "outbox needs at least one slot");
        Transport::with_policy(OneSided {
            config,
            registry: Mutex::new(MemoryRegistry::new()),
        })
    }

    /// Every destination's fetch pass, in id order. Returns the number of
    /// frames delivered.
    pub fn fetch_all(&self) -> u64 {
        self.drain(Duration::ZERO, false)
    }

    /// Live (sender, destination) link count.
    pub fn link_count(&self) -> usize {
        self.entries().values().map(|entry| entry.state.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{FabricPath, Payload};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn cfg(ring_slots: usize) -> OneSidedConfig {
        OneSidedConfig { ring_slots }
    }

    #[test]
    fn frames_sit_in_outbox_until_fetched() {
        let fabric = OneSidedFabric::new(cfg(16));
        let rx = fabric.register(EndpointId(1)).unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"hello")
            .unwrap();
        assert_eq!(fabric.stats().posted, 1);
        assert_eq!(
            fabric.stats().messages,
            0,
            "nothing delivered before a fetch"
        );
        assert_eq!(fabric.stats().queue_depth, 1);
        assert_eq!(fabric.fetch_all(), 1);
        assert_eq!(rx.recv().unwrap().payload.bytes(), b"hello");
        assert_eq!(fabric.stats().copied_bytes, 5);
        assert_eq!(fabric.stats().queue_depth, 0);
    }

    #[test]
    fn the_readers_receive_fetches() {
        let fabric = OneSidedFabric::new(cfg(16));
        let rx = fabric.register(EndpointId(1)).unwrap();
        for b in [b"a", b"b"] {
            fabric.send_copied(EndpointId(0), EndpointId(1), b).unwrap();
        }
        assert_eq!(rx.try_recv().unwrap().payload.bytes(), b"a");
        assert_eq!(fabric.stats().queue_depth, 0, "one pass fetched both");
        assert_eq!(rx.try_recv().unwrap().payload.bytes(), b"b");
        assert!(rx.try_recv().is_err());
        assert_eq!(fabric.stats().messages, 2);
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
        let registrations = fabric.policy().registry.lock().registrations();
        assert_eq!(registrations, 2, "one per link");
        assert_eq!(fabric.link_count(), 2);
    }

    #[test]
    fn full_outbox_backpressures_without_deadlock() {
        let fabric = OneSidedFabric::new(cfg(2));
        // A one-frame inbox: once it is full, the publisher's own fetch
        // pass frees no slot.
        let rx = fabric.register_bounded(EndpointId(1), 1).unwrap();
        for b in [b"a", b"b", b"c"] {
            fabric.send_copied(EndpointId(0), EndpointId(1), b).unwrap();
        }
        assert_eq!(
            fabric
                .send_copied(EndpointId(0), EndpointId(1), b"d")
                .unwrap_err(),
            SendError::Full
        );
        assert_eq!(fabric.stats().send_errors, 1);
        // Reading and fetching free ring capacity.
        assert_eq!(rx.try_recv().unwrap().payload.bytes(), b"a");
        fabric.fetch_all();
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"e")
            .unwrap();
    }

    /// The destination's reader never runs: a publisher that finds the
    /// outbox full fetches it into the unbounded inbox itself.
    #[test]
    fn a_full_outbox_is_fetched_by_its_publisher() {
        let fabric = OneSidedFabric::new(cfg(2));
        let rx = fabric.register(EndpointId(1)).unwrap();
        for i in 0..10u8 {
            fabric
                .send_copied(EndpointId(0), EndpointId(1), &[i])
                .unwrap();
        }
        assert_eq!(fabric.stats().send_errors, 0);
        let got: Vec<u8> = std::iter::from_fn(|| rx.try_recv().ok())
            .map(|m| m.payload.bytes()[0])
            .collect();
        assert_eq!(got, (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn bounded_inbox_stalls_fetch_and_retries_in_order() {
        let fabric = OneSidedFabric::new(cfg(16));
        let rx = fabric.register_bounded(EndpointId(1), 2).unwrap();
        for b in [b"a", b"b", b"c", b"d"] {
            fabric.send_copied(EndpointId(0), EndpointId(1), b).unwrap();
        }
        assert_eq!(fabric.fetch_all(), 2, "inbox capacity bounds the pass");
        assert_eq!(fabric.stats().queue_depth, 2, "rest stays published");
        assert_eq!(rx.try_recv().unwrap().payload.bytes(), b"a");
        assert_eq!(rx.try_recv().unwrap().payload.bytes(), b"b");
        assert_eq!(fabric.fetch_all(), 2);
        assert_eq!(rx.try_recv().unwrap().payload.bytes(), b"c");
        assert_eq!(rx.try_recv().unwrap().payload.bytes(), b"d");
        assert_eq!(fabric.stats().send_errors, 0);
        assert_eq!(fabric.stats().messages, 4);
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
        assert_eq!(fabric.stats().queue_depth, 0);
        assert_eq!(
            fabric
                .send_copied(EndpointId(0), EndpointId(1), b"x")
                .unwrap_err(),
            SendError::UnknownEndpoint
        );
        assert_eq!(fabric.policy().registry.lock().deregistrations(), 1);
        assert_eq!(live_registrations(&fabric), 0);
    }

    /// Registrations not yet refunded (the registry's byte total is
    /// cumulative, so live registrations are what a leak shows up in).
    fn live_registrations(fabric: &OneSidedFabric) -> u64 {
        let registry = fabric.policy().registry.lock();
        registry.registrations() - registry.deregistrations()
    }

    #[test]
    fn a_publish_after_deregister_does_not_resurrect_the_link() {
        let fabric = OneSidedFabric::new(cfg(8));
        let _rx = fabric.register(EndpointId(1)).unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"x")
            .unwrap();
        assert_eq!(fabric.link_count(), 1);
        fabric.deregister(EndpointId(1));
        assert_eq!(
            fabric.send_copied(EndpointId(0), EndpointId(1), b"y"),
            Err(SendError::UnknownEndpoint)
        );
        assert_eq!(fabric.link_count(), 0);
        assert_eq!(live_registrations(&fabric), 0);
    }

    /// A publisher racing register/deregister of its destination: whatever
    /// the interleaving, once the destination is gone so are its links and
    /// their registrations, and every accepted frame is accounted for.
    #[test]
    fn publishes_racing_deregister_leave_no_link_behind() {
        const ROUNDS: u32 = 1_000;
        let fabric = Arc::new(OneSidedFabric::new(cfg(4)));
        let done = Arc::new(AtomicBool::new(false));
        let publisher = {
            let (fabric, done) = (Arc::clone(&fabric), Arc::clone(&done));
            std::thread::spawn(move || {
                while !done.load(Ordering::SeqCst) {
                    match fabric.send_copied(EndpointId(0), EndpointId(1), b"frame") {
                        Ok(()) | Err(SendError::UnknownEndpoint | SendError::Full) => {}
                        Err(e) => panic!("unexpected send error: {e}"),
                    }
                }
            })
        };
        for _ in 0..ROUNDS {
            let _rx = fabric.register(EndpointId(1)).unwrap();
            std::thread::yield_now();
            fabric.deregister(EndpointId(1));
            assert_eq!(fabric.link_count(), 0);
            assert_eq!(live_registrations(&fabric), 0);
        }
        done.store(true, Ordering::SeqCst);
        publisher.join().unwrap();
        assert_eq!(fabric.link_count(), 0);
        assert_eq!(live_registrations(&fabric), 0);
        let stats = fabric.stats();
        assert_eq!(stats.queue_depth, 0);
        // Every accepted frame was fetched by a publish that found its
        // outbox full, or dropped with its destination (the rest of
        // `send_errors` are refusals).
        assert!(stats.posted <= stats.messages + stats.send_errors);
    }

    /// As above, with lent frames: bytes lent into a link's slice buffer
    /// go with the link, as dropped frames, whatever the interleaving.
    #[test]
    fn lent_publishes_racing_deregister_leave_no_bytes_behind() {
        let fabric = Arc::new(OneSidedFabric::new(cfg(4)));
        let done = Arc::new(AtomicBool::new(false));
        let publisher = {
            let (fabric, done) = (Arc::clone(&fabric), Arc::clone(&done));
            std::thread::spawn(move || {
                while !done.load(Ordering::SeqCst) {
                    match fabric.send_lent(EndpointId(0), EndpointId(1), b"lent frame") {
                        Ok(()) | Err(SendError::UnknownEndpoint | SendError::Full) => {}
                        Err(e) => panic!("unexpected send error: {e}"),
                    }
                }
            })
        };
        for _ in 0..1_000 {
            let rx = fabric.register(EndpointId(1)).unwrap();
            std::thread::yield_now();
            while let Ok(msg) = rx.try_recv() {
                assert_eq!(msg.payload.bytes(), b"lent frame");
            }
            fabric.deregister(EndpointId(1));
            assert_eq!((fabric.link_count(), live_registrations(&fabric)), (0, 0));
        }
        done.store(true, Ordering::SeqCst);
        publisher.join().unwrap();
        let stats = fabric.stats();
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.shared_bytes, stats.messages * 10);
        assert!(stats.posted <= stats.messages + stats.send_errors);
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
    fn a_publish_wakes_a_blocked_reader() {
        let fabric = OneSidedFabric::new(cfg(1024));
        let rx = fabric.register(EndpointId(1)).unwrap();
        let reader = std::thread::spawn(move || {
            (0..50)
                .map(|_| {
                    rx.recv_timeout(Duration::from_secs(15))
                        .expect("a publish wakes the reader")
                        .payload
                        .bytes()[0]
                })
                .collect::<Vec<u8>>()
        });
        for i in 0..50u8 {
            fabric
                .send_copied(EndpointId(0), EndpointId(1), &[i])
                .unwrap();
        }
        assert_eq!(reader.join().unwrap(), (0..50).collect::<Vec<u8>>());
        // At most one wake-up per publish, and only to a blocked reader.
        let rings = fabric.stats().doorbell_rings;
        assert!(rings <= 50, "rings = {rings}");
        assert_eq!(fabric.stats().messages, 50);
    }

    #[test]
    fn lent_frames_of_a_fetched_run_share_one_buffer() {
        let fabric = OneSidedFabric::new(cfg(16));
        let rx = fabric.register(EndpointId(1)).unwrap();
        let shared: Arc<[u8]> = Arc::from(&b"shared"[..]);
        fabric
            .send_lent(EndpointId(0), EndpointId(1), b"one")
            .unwrap();
        fabric
            .send_shared(EndpointId(0), EndpointId(1), Arc::clone(&shared))
            .unwrap();
        fabric
            .send_lent(EndpointId(0), EndpointId(1), b"three")
            .unwrap();
        fabric
            .send_lent(EndpointId(2), EndpointId(1), b"other link")
            .unwrap();
        assert_eq!(fabric.fetch_all(), 4);
        let got: Vec<LiveMessage> = std::iter::from_fn(|| rx.try_recv().ok()).collect();
        let mut bufs = Vec::new();
        for msg in &got {
            match &msg.payload {
                Payload::Slice(slice) => bufs.push((msg.from, slice.buffer().clone())),
                Payload::Shared(buf) => assert!(Arc::ptr_eq(buf, &shared)),
                Payload::Copied(_) => panic!("a lent frame was copied"),
            }
        }
        let [(a, one), (b, three), (c, other)] = &bufs[..] else {
            panic!("{got:?}");
        };
        assert_eq!((*a, *b, *c), (EndpointId(0), EndpointId(0), EndpointId(2)));
        assert!(Arc::ptr_eq(one, three), "one buffer per link's run");
        assert_eq!(
            (&one[..], &other[..]),
            (&b"onethree"[..], &b"other link"[..])
        );
        let stats = fabric.stats();
        assert_eq!((stats.posted, stats.messages), (4, 4));
        assert_eq!(stats.shared_bytes, 3 + 6 + 5 + 10);
    }
}
