//! `RingFabric`: a bounded ring-buffer live transport with verbs-style
//! doorbell semantics.
//!
//! Sends *post a descriptor* into a fixed-capacity per-endpoint ring and
//! ring a doorbell — they never touch the destination inbox directly. A
//! drain pass (the background thread of [`crate::spawn_drain`] in live
//! mode, or the caller via [`RingFabric::pump`] in deterministic mode)
//! empties each ring into the stream-slicing [`Batcher`] and delivers
//! whole MMS/WTL batches, so the live path exercises the same batching
//! policy the simulator models (§4, Figs 11–12):
//!
//! - a post that would exceed the ring capacity fails with
//!   [`SendError::Full`] — the bounded transfer queue of the paper's M/D/1
//!   model, surfaced as backpressure instead of a deadlock;
//! - batches flush when buffered bytes reach MMS or the oldest descriptor
//!   has waited WTL (the drain thread's wait is bounded by
//!   [`Batcher::deadline`]);
//! - per-sender FIFO order is preserved end to end: posts enter the ring
//!   in order, batches drain in order, deliveries retry in order when the
//!   destination inbox is bounded and momentarily full.
//!
//! Only the policy lives here — what a post and a drain pass do. The
//! endpoint table, counters, link attribution and the drain thread are
//! [`crate::core`]'s.

use crate::batch::{BatchConfig, Batcher};
use crate::core::{Entry, Handoff, Policy, Transport};
use crate::fabric::{EndpointId, FabricStats, LiveMessage, SendError};
use crossbeam::channel::Sender;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;
use whale_sim::{MetricsRegistry, SimTime};

/// Configuration of the ring transport.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RingConfig {
    /// Per-endpoint descriptor-ring capacity: the maximum number of posted
    /// but not yet delivered descriptors. Posts beyond it fail with
    /// [`SendError::Full`].
    pub ring_capacity: usize,
    /// The MMS/WTL stream-slicing policy the drain pass applies.
    pub batch: BatchConfig,
    /// Live drain workers. Endpoints map to shards by
    /// `EndpointId % flusher_shards`, so an endpoint's ring is always
    /// drained by the same worker and per-endpoint FIFO order holds.
    /// Deterministic [`RingFabric::pump`]/[`RingFabric::flush_at`] ignore
    /// sharding and stay single-threaded. `0` is treated as `1`.
    pub flusher_shards: usize,
    /// Idle heartbeat of each drain shard: the longest a lost doorbell
    /// wakeup can stall a fully idle fabric.
    pub idle_heartbeat: Duration,
}

impl Default for RingConfig {
    fn default() -> Self {
        RingConfig {
            ring_capacity: 64 * 1024,
            batch: BatchConfig::default(),
            flusher_shards: 1,
            idle_heartbeat: crate::core::IDLE_HEARTBEAT,
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

/// One endpoint's send state: the descriptor ring and the transfer buffer
/// it drains into.
pub struct EndpointRing {
    /// The destination endpoint this ring feeds (for link attribution).
    id: EndpointId,
    /// Set by deregistration: a post through a slot resolved earlier must
    /// not strand a frame in a ring nothing drains.
    closed: bool,
    /// Posted, not yet drained descriptors (the send ring proper).
    ring: VecDeque<LiveMessage>,
    /// Payload bytes sitting in `ring` (posted since the last pump).
    ring_bytes: usize,
    /// The MMS/WTL transfer buffer the drain pass empties the ring into.
    batcher: Batcher<LiveMessage>,
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

/// Shared handle to one endpoint's send state.
type Slot = Arc<Mutex<EndpointRing>>;

/// One stop of a drain pass: an endpoint's inbox and its ring.
type Visit = (Sender<LiveMessage>, Slot);

/// The id-sorted visit orders every pump walks.
pub struct VisitOrders {
    /// Every endpoint in id order (the deterministic pump's visit order).
    all: Vec<Visit>,
    /// The same order, split by drain shard.
    by_shard: Vec<Vec<Visit>>,
}

impl VisitOrders {
    fn pick(&self, shard: Option<usize>) -> &[Visit] {
        match shard {
            None => &self.all,
            Some(s) => self.by_shard.get(s).map_or(&[], Vec::as_slice),
        }
    }
}

/// The batched-ring policy: a send posts to the endpoint's ring; a drain
/// pass batches at MMS/WTL and delivers.
pub struct Ring {
    config: RingConfig,
}

/// The batched ring-buffer transport. See the module docs for semantics.
pub type RingFabric = Transport<Ring>;

impl Policy for Ring {
    type Endpoint = Slot;
    type Snapshot = VisitOrders;

    fn shards(&self) -> usize {
        self.config.shard_count()
    }

    fn idle_heartbeat(&self) -> Duration {
        self.config.idle_heartbeat
    }

    fn open(&self, id: EndpointId) -> Slot {
        Arc::new(Mutex::new(EndpointRing {
            id,
            closed: false,
            ring: VecDeque::new(),
            ring_bytes: 0,
            batcher: Batcher::new(self.config.batch),
            undelivered: VecDeque::new(),
        }))
    }

    fn close(&self, slot: Slot, dropped: &mut dyn FnMut(LiveMessage)) {
        let mut guard = slot.lock();
        let ep = &mut *guard;
        ep.closed = true;
        let batched = ep
            .batcher
            .flush()
            .map_or_else(Vec::new, |batch| batch.items);
        ep.undelivered
            .drain(..)
            .chain(batched)
            .chain(ep.ring.drain(..))
            .for_each(dropped);
    }

    fn snapshot(&self, entries: &[(EndpointId, &Entry<Slot>)]) -> VisitOrders {
        let pick = |shard: Option<usize>| -> Vec<Visit> {
            entries
                .iter()
                .filter(|(id, _)| shard.is_none_or(|s| self.config.shard_of(*id) == s))
                .map(|(_, entry)| (entry.tx.clone(), Arc::clone(&entry.state)))
                .collect()
        };
        VisitOrders {
            all: pick(None),
            by_shard: (0..self.config.shard_count())
                .map(|s| pick(Some(s)))
                .collect(),
        }
    }

    /// Post a descriptor to `to`'s ring. The doorbell rings only when the
    /// drain thread could otherwise sleep past this descriptor: the
    /// endpoint was idle (nothing pending, so no WTL deadline is armed for
    /// it), or this post carries the bytes buffered since the last flush
    /// across MMS. Every other post rides the deadline its predecessors
    /// armed — the drain thread wakes for it anyway and pumps whatever was
    /// posted meanwhile, which is what makes a stream slice cost one
    /// wake-up, not one per message.
    fn send(t: &RingFabric, to: EndpointId, msg: LiveMessage) -> Result<(), SendError> {
        let config = &t.policy.config;
        let Some(slot) = t.with_entry(to, |entry| Arc::clone(&entry.state)) else {
            return Err(t.reject(SendError::UnknownEndpoint));
        };
        let wake = {
            let mut ep = slot.lock();
            if ep.closed {
                drop(ep);
                return Err(t.reject(SendError::UnknownEndpoint));
            }
            let pending = ep.pending();
            if pending >= config.ring_capacity {
                drop(ep);
                return Err(t.reject(SendError::Full));
            }
            let bytes = msg.payload.len();
            // Accepted into the ring: the frame now occupies its link's
            // queue until a drain pass delivers (or drops) it.
            t.note_queued(msg.from, to, bytes);
            let buffered = ep.batcher.buffered_bytes() + ep.ring_bytes;
            ep.ring_bytes += bytes;
            ep.ring.push_back(msg);
            let mms = config.batch.mms;
            pending == 0 || (buffered < mms && buffered + bytes >= mms)
        };
        t.note_posted();
        if wake {
            t.ring_doorbell(config.shard_of(to));
        }
        Ok(())
    }

    fn drain(
        t: &RingFabric,
        shard: Option<usize>,
        now: SimTime,
        force: bool,
    ) -> (u64, Option<SimTime>) {
        let orders = t.snapshot();
        let visits = orders.pick(shard);
        let (mut delivered, next) = t.pump_visits(visits, now);
        if force {
            for (tx, slot) in visits {
                let mut ep = slot.lock();
                if let Some(batch) = ep.batcher.flush() {
                    t.note_batch(batch.items.len());
                    ep.undelivered.extend(batch.items);
                }
                delivered += t.drain_undelivered(tx, &mut ep);
            }
        }
        (delivered, next)
    }

    /// Descriptors currently sitting in rings awaiting a drain pass — the
    /// live transfer-queue length across every endpoint.
    fn queue_depth(t: &RingFabric) -> u64 {
        let orders = t.snapshot();
        orders
            .all
            .iter()
            .map(|(_, slot)| slot.lock().pending() as u64)
            .sum()
    }

    fn export_metrics(
        t: &RingFabric,
        stats: &FabricStats,
        reg: &mut MetricsRegistry,
        prefix: &str,
    ) {
        reg.set_counter(&format!("{prefix}.posted"), stats.posted);
        reg.set_counter(&format!("{prefix}.doorbell_rings"), stats.doorbell_rings);
        reg.set_counter(&format!("{prefix}.flushed_batches"), stats.flushed_batches);
        reg.set_counter(&format!("{prefix}.flushed_items"), stats.flushed_items);
        reg.set_gauge(
            &format!("{prefix}.mean_batch_size"),
            stats.mean_batch_size(),
        );
        reg.set_gauge(
            &format!("{prefix}.flusher_shards"),
            t.policy.config.shard_count() as f64,
        );
    }
}

impl RingFabric {
    /// New ring fabric with no endpoints. Pair with [`crate::spawn_drain`]
    /// for live use, or drive [`RingFabric::pump`] manually with a virtual
    /// clock for deterministic benchmarks.
    pub fn new(config: RingConfig) -> Self {
        assert!(config.ring_capacity > 0, "ring capacity must be positive");
        Transport::with_policy(Ring { config })
    }

    /// The active configuration.
    pub fn config(&self) -> RingConfig {
        self.policy.config
    }

    /// Hand parked batch items to the inbox, preserving order. Stops at a
    /// full bounded inbox (retried next pump); a disconnected one drops
    /// and counts errors.
    fn drain_undelivered(&self, tx: &Sender<LiveMessage>, ep: &mut EndpointRing) -> u64 {
        let mut delivered = 0;
        while let Some(msg) = ep.undelivered.pop_front() {
            match self.deliver(Some(tx), ep.id, msg, true) {
                Handoff::Delivered => delivered += 1,
                Handoff::Full(msg) => {
                    ep.undelivered.push_front(msg);
                    break;
                }
                Handoff::Disconnected => {}
            }
        }
        delivered
    }

    /// One drain pass at time `now`: empty every ring into its batcher
    /// (size-triggered batches flush immediately), fire expired WTL timers,
    /// and deliver flushed items. Returns the number delivered.
    ///
    /// Deterministic mode: single-threaded, visits every endpoint in id
    /// order regardless of `flusher_shards`, so virtual-clock delivery
    /// traces are identical across shard counts.
    pub fn pump(&self, now: SimTime) -> u64 {
        Ring::drain(self, None, now, false).0
    }

    /// [`RingFabric::pump`] restricted to the endpoints of one drain
    /// shard — what the live drain workers run, so two shards never
    /// contend on the same endpoint ring.
    pub fn pump_shard(&self, shard: usize, now: SimTime) -> u64 {
        Ring::drain(self, Some(shard), now, false).0
    }

    /// Returns the number delivered and, taken under the same endpoint
    /// locks, when these endpoints next need a pump (see
    /// [`RingFabric::next_deadline`]).
    fn pump_visits(&self, visits: &[Visit], now: SimTime) -> (u64, Option<SimTime>) {
        let mut delivered = 0;
        let mut next: Option<SimTime> = None;
        for (tx, slot) in visits {
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
            delivered += self.drain_undelivered(tx, &mut ep);
            next = next.into_iter().chain(ep.next_due()).min();
        }
        (delivered, next)
    }

    /// Force everything out at time `now`: pump, then force-flush every
    /// batcher regardless of MMS/WTL and deliver (shutdown / end of a
    /// deterministic run). Returns the number delivered.
    pub fn flush_at(&self, now: SimTime) -> u64 {
        Ring::drain(self, None, now, true).0
    }

    /// [`RingFabric::flush_at`] restricted to one drain shard's
    /// endpoints.
    pub fn flush_shard_at(&self, shard: usize, now: SimTime) -> u64 {
        Ring::drain(self, Some(shard), now, true).0
    }

    /// Earliest WTL deadline across endpoints; `SimTime::ZERO` if any ring
    /// or retry queue already holds work. `None` when fully idle.
    pub fn next_deadline(&self) -> Option<SimTime> {
        let orders = self.snapshot();
        orders
            .all
            .iter()
            .filter_map(|(_, slot)| slot.lock().next_due())
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::spawn_drain;
    use crate::fabric::FabricPath;
    use std::time::Instant;
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
        assert_eq!(fabric.stats().posted, 1);
        assert_eq!(fabric.stats().messages, 0);
        assert_eq!(
            fabric.stats().copied_bytes,
            0,
            "bytes count on delivery only"
        );

        // Under MMS and before WTL: still buffered after a pump.
        fabric.pump(SimTime::ZERO);
        assert!(rx.try_recv().is_err());

        // Past WTL: the timer flushes the batch.
        let delivered = fabric.pump(SimTime::from_millis(1));
        assert_eq!(delivered, 1);
        assert_eq!(rx.recv().unwrap().payload.bytes(), b"hello");
        assert_eq!(fabric.stats().copied_bytes, 5);
        assert_eq!(fabric.stats().flushed_batches, 1);
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
        assert_eq!(fabric.stats().flushed_batches, 2);
        assert!((fabric.stats().mean_batch_size() - 4.0).abs() < 1e-12);
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
        assert_eq!(fabric.stats().send_errors, 1);
        // Draining the ring frees capacity.
        fabric.flush_at(SimTime::ZERO);
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"c")
            .unwrap();
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
        assert_eq!(fabric.stats().send_errors, 0);
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
        let flusher = spawn_drain(Arc::clone(&fabric));
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
        let flusher = spawn_drain(Arc::clone(&fabric));
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
            fabric.stats().doorbell_rings <= 2,
            "rings = {}",
            fabric.stats().doorbell_rings
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
        assert_eq!(
            fabric.stats().flushed_batches,
            1,
            "one batch, not one per post"
        );
        assert!(fabric.stats().doorbell_rings <= 2);
        let mut reg = MetricsRegistry::new();
        fabric.export_metrics(&mut reg, "net.ring");
        assert_eq!(
            reg.counter("net.ring.doorbell_rings"),
            Some(fabric.stats().doorbell_rings)
        );
        assert_eq!(reg.counter("net.ring.posted"), Some(N as u64));
        flusher.stop();
    }

    #[test]
    fn crossing_mms_rings_at_once_and_flushes_before_wtl() {
        // WTL is 10 s: only the size trigger can deliver within the test.
        let fabric = Arc::new(RingFabric::new(cfg(1024, 1_000, 10_000)));
        let flusher = spawn_drain(Arc::clone(&fabric));
        let rx = fabric.register(EndpointId(1)).unwrap();
        for i in 0..9u8 {
            fabric
                .send_copied(EndpointId(0), EndpointId(1), &[i; 100])
                .unwrap();
        }
        assert!(fabric.stats().doorbell_rings <= 1, "900 B stay under MMS");
        fabric
            .send_copied(EndpointId(0), EndpointId(1), &[9; 100])
            .unwrap();
        for i in 0..10u8 {
            let msg = rx
                .recv_timeout(Duration::from_secs(5))
                .expect("the post that crossed MMS woke the flusher");
            assert_eq!(msg.payload.bytes()[0], i);
        }
        assert_eq!(fabric.stats().flushed_batches, 1);
        assert!(fabric.stats().doorbell_rings <= 2);
        flusher.stop();
    }

    #[test]
    fn live_flusher_drains_a_bounded_inbox_in_order() {
        const N: u8 = 50;
        let fabric = Arc::new(RingFabric::new(cfg(1024, 1_000_000, 1)));
        let flusher = spawn_drain(Arc::clone(&fabric));
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
        assert_eq!(fabric.stats().send_errors, 0);
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
        }));
        let flusher = spawn_drain(Arc::clone(&fabric));
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
        assert_eq!(
            fabric.stats().messages,
            (SENDERS * ENDPOINTS * PER_PAIR) as u64
        );
        assert!(fabric.stats().doorbell_rings <= fabric.stats().posted);
        flusher.stop();
    }

    #[test]
    fn stress_with_tiny_ring_backpressures_cleanly() {
        const SENDERS: u32 = 4;
        const PER_SENDER: u32 = 500;
        let fabric = Arc::new(RingFabric::new(cfg(8, 64, 1)));
        let flusher = spawn_drain(Arc::clone(&fabric));
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
        assert_eq!(fabric.stats().messages, (SENDERS * PER_SENDER) as u64);
        flusher.stop();
    }

    #[test]
    fn config_round_trips_flusher_fields_with_current_defaults() {
        let d = RingConfig::default();
        assert_eq!(d.flusher_shards, 1);
        assert_eq!(d.idle_heartbeat, Duration::from_millis(5));

        let custom = RingConfig {
            flusher_shards: 4,
            idle_heartbeat: Duration::from_millis(1),
            ..RingConfig::default()
        };
        // The config must survive the fabric and the flusher unchanged.
        let fabric = Arc::new(RingFabric::new(custom));
        assert_eq!(fabric.config(), custom);
        let flusher = spawn_drain(Arc::clone(&fabric));
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
        let flusher = spawn_drain(Arc::clone(&fabric));
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
            fabric.stats().messages,
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
}
