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
//!   stays at the front of its link's ring.
//!
//! Only the policy lives here — what a publish and a fetch pass do. The
//! endpoint table (a destination's links hang off its entry, so they go
//! when it goes), counters, link attribution and the reader's side are
//! [`crate::core`]'s.

use crate::core::{Entry, Handoff, Policy, Transport};
use crate::fabric::{EndpointId, IdHashMap, LiveMessage, Payload, SendError};
use crate::log::{LogConfig, PartitionLog};
use crate::memory::{MemoryRegistry, RingRegion};
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
            log: None,
        }
    }
}

/// One (sender → destination) link: the registered outbox ring.
pub struct LinkOutbox {
    ring: RingRegion<LiveMessage>,
    /// Durable history of every frame published on this link, present
    /// when [`OneSidedConfig::log`] is set.
    log: Option<PartitionLog>,
}

/// A destination's inbound links, by sender.
type Inbound = IdHashMap<EndpointId, Mutex<LinkOutbox>>;

/// The remote-fetch policy: a send publishes to the link's outbox (and
/// write-through log); a pass reads each frame across and delivers.
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
        let log = self.config.log.map(PartitionLog::new);
        Mutex::new(LinkOutbox { ring, log })
    }

    /// Publish `msg` into `link`, `entry`'s outbox from its sender, and
    /// wake the reader; hand the frame back if the outbox is full.
    fn publish(
        t: &OneSidedFabric,
        to: EndpointId,
        entry: &Entry<Inbound>,
        link: &Mutex<LinkOutbox>,
        msg: LiveMessage,
    ) -> Result<(), LiveMessage> {
        let (from, bytes) = (msg.from, msg.payload.len());
        let mut guard = link.lock();
        let link = &mut *guard;
        if link.ring.is_full() {
            return Err(msg);
        }
        // Write-through: the durable copy is taken as part of the
        // publish, so every frame the ring ever held is in the log.
        if let Some(log) = link.log.as_mut() {
            log.append(msg.payload.bytes());
        }
        link.ring.produce(msg).expect("checked for a free slot");
        // Published into the outbox: the frame occupies its link's queue
        // until a fetch pass pulls it across.
        t.note_queued(from, to, bytes);
        entry.queue.port.accept();
        drop(guard);
        entry.queue.wake_reader();
        t.note_posted();
        Ok(())
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
            while let Some((_, msg)) = link.ring.consume() {
                dropped(msg);
            }
        }
    }

    /// Publish a frame into the `from → to` outbox. A link's first frame
    /// creates it under the table's write lock, so a `deregister` racing
    /// the publish either still sees the destination or took it with it.
    fn send(t: &OneSidedFabric, to: EndpointId, msg: LiveMessage) -> Result<(), SendError> {
        let from = msg.from;
        let publish = |entry: &Entry<Inbound>, link: &Mutex<LinkOutbox>, msg| {
            t.post_or_pass(to, entry, msg, |msg| Self::publish(t, to, entry, link, msg))
        };
        let published = t.with_entry(to, |entry| match entry.state.get(&from) {
            Some(link) => Ok(publish(entry, link, msg)),
            None => Err(msg),
        });
        let sent = match published {
            Some(Ok(sent)) => Some(sent),
            Some(Err(msg)) => t.with_entry_mut(to, |entry| {
                let fresh = || t.policy().new_link();
                entry.state.entry(from).or_insert_with(fresh);
                let entry = &*entry;
                publish(entry, &entry.state[&from], msg)
            }),
            None => None,
        };
        sent.unwrap_or(Err(SendError::UnknownEndpoint))
            .map_err(|err| t.reject(err))
    }

    /// Fetch every inbound link of `to`: read each tail slot (addressed by
    /// seq), consume it, and hand the link's run to the inbox in one push.
    /// A full bounded inbox stops a link — its frames stay in the ring,
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
            let ring = &mut link.ring;
            let fetch = move |n| (0..n).map_while(move |_| ring.consume().map(|(_, msg)| msg));
            match t.deliver(&entry.queue, to, ready, true, fetch) {
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

    /// Late-subscriber backfill: replay the `from → to` link's logged
    /// history starting at sequence `seq` into `reader`'s inbox, as
    /// one-sided reads of the sender's log: the reads are counted on the
    /// log ([`PartitionLog::reads_posted`]), and nothing is appended or
    /// published on the sender's side. Returns the number of frames
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
        let read = self.with_entry(to, |entry| {
            let link = entry.state.get(&from)?;
            link.lock().log.as_mut().map(|log| log.read_from(seq))
        });
        let Some(Some(read)) = read else {
            return Err(SendError::UnknownEndpoint);
        };
        let backfilled = self.with_entry(reader, |entry| {
            // Backfill READs land synchronously in the reader's inbox, as
            // one run.
            let ready = read.records.len();
            let frames = |n| {
                let records = read.records.into_iter().take(n);
                records.map(|(_seq, bytes)| LiveMessage {
                    from,
                    payload: Payload::Copied(bytes),
                })
            };
            match self.deliver(&entry.queue, reader, ready, false, frames) {
                Handoff::Delivered(n) if n == ready as u64 => Ok(n),
                Handoff::Delivered(_) => Err(self.reject(SendError::Full)),
                Handoff::Disconnected => Err(SendError::Disconnected),
                Handoff::Closed => Err(SendError::UnknownEndpoint),
            }
        });
        backfilled.unwrap_or(Err(SendError::UnknownEndpoint))
    }

    /// Sum `f` over every link's partition log (0 without a log), e.g.
    /// `log_sum(PartitionLog::appended_records)` — the sender-side log
    /// writes, which backfills never move (the acceptance criterion E26
    /// checks).
    pub fn log_sum(&self, f: impl Fn(&PartitionLog) -> u64) -> u64 {
        self.entries()
            .values()
            .flat_map(|entry| entry.state.values())
            .map(|link| link.lock().log.as_ref().map_or(0, &f))
            .sum()
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
    use crate::fabric::FabricPath;
    use crate::Inbox;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

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

    fn drain(rx: &Inbox) -> Vec<Vec<u8>> {
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
            }),
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
        // The ring slots are consumed, but the log kept everything; the
        // live fetches read the ring, never the log.
        assert_eq!(fabric.log_sum(PartitionLog::appended_records), 10);
        assert_eq!(fabric.log_sum(PartitionLog::appended_bytes), 80);
        assert!(fabric.log_sum(PartitionLog::retained_bytes) > 0);
        assert_eq!(fabric.log_sum(PartitionLog::reads_posted), 0);
    }

    #[test]
    fn backfill_replays_history_into_a_late_reader_without_sender_work() {
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
        let appended_before = fabric.log_sum(PartitionLog::appended_records);
        let reads_before = fabric.log_sum(PartitionLog::reads_posted);
        let delivered = fabric
            .backfill(EndpointId(0), EndpointId(1), EndpointId(9), 5)
            .unwrap();
        assert_eq!(delivered, 15);
        let got = drain(&late);
        assert_eq!(got.len(), 15);
        assert_eq!(got[0], 5u64.to_le_bytes().to_vec());
        assert_eq!(got[14], 19u64.to_le_bytes().to_vec());
        // Server bypass: the backfill is one read per record and moves
        // no sender-side work — nothing is appended or published.
        assert_eq!(
            fabric.log_sum(PartitionLog::reads_posted) - reads_before,
            15
        );
        assert_eq!(
            fabric.log_sum(PartitionLog::appended_records),
            appended_before
        );
        assert_eq!(fabric.stats().posted, 20);
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
}
