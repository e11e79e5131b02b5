//! `RingFabric`: the batched ring transport — [`Slice`] on the push
//! rules: one outbox per destination, which a pass cuts into MMS/WTL
//! stream slices, so the live path exercises the batching policy the
//! simulator models (§4, Figs 11–12). Only the configuration lives here;
//! what a post and a pass do is [`crate::slice`]'s.

use crate::batch::BatchConfig;
use crate::core::Transport;
use crate::slice::Slice;

/// Configuration of the ring transport.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RingConfig {
    /// Per-endpoint descriptor-ring capacity: the maximum number of posted
    /// but not yet delivered descriptors. Posts beyond it fail with
    /// [`SendError::Full`](crate::SendError::Full).
    pub ring_capacity: usize,
    /// The MMS/WTL stream-slicing policy the pass applies.
    pub batch: BatchConfig,
}

impl Default for RingConfig {
    fn default() -> Self {
        RingConfig {
            ring_capacity: 64 * 1024,
            batch: BatchConfig::default(),
        }
    }
}

/// The batched ring-buffer transport: [`Slice`] built from a
/// [`RingConfig`]. See the module docs for semantics.
pub type RingFabric = Transport<Slice>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{EndpointId, FabricPath, LiveMessage, Payload, SendError};
    use crate::{OneSidedConfig, OneSidedFabric};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn cfg(ring_capacity: usize, mms: usize, wtl_ms: u64) -> RingConfig {
        RingConfig {
            ring_capacity,
            batch: BatchConfig {
                mms,
                wtl: Duration::from_millis(wtl_ms),
            },
        }
    }

    #[test]
    fn posts_sit_in_ring_until_pumped() {
        let fabric = RingFabric::new(cfg(16, 1_000_000, 1));
        let rx = fabric.register(EndpointId(1)).unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"hello")
            .unwrap();
        let stats = fabric.stats();
        assert_eq!((stats.posted, stats.queue_depth), (1, 1));
        assert_eq!(stats.messages, 0, "nothing delivered before a pass");
        assert_eq!(stats.copied_bytes, 0, "bytes count on delivery only");

        // Under MMS and before WTL: still buffered after a pump.
        assert_eq!(fabric.pump(Duration::ZERO), 0);
        assert_eq!(fabric.stats().queue_depth, 1);

        // Past WTL: the timer flushes the batch.
        let delivered = fabric.pump(Duration::from_millis(1));
        assert_eq!(delivered, 1);
        assert_eq!(rx.recv().unwrap().payload.bytes(), b"hello");
        assert_eq!(fabric.stats().copied_bytes, 5);
        assert_eq!(fabric.stats().flushed_batches, 1);
        assert_eq!(fabric.stats().queue_depth, 0);
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
        let delivered = fabric.pump(Duration::ZERO);
        assert_eq!(delivered, 8, "two full batches of four 25 B items");
        assert_eq!(fabric.stats().flushed_batches, 2);
        assert!((fabric.stats().mean_batch_size() - 4.0).abs() < 1e-12);
        // The remainder needs a forced flush (or a WTL tick).
        assert_eq!(fabric.flush_at(Duration::ZERO), 2);
        assert_eq!(std::iter::from_fn(|| rx.try_recv().ok()).count(), 10);
    }

    #[test]
    fn full_ring_backpressures_without_deadlock() {
        let fabric = RingFabric::new(cfg(2, 1_000_000, 1_000));
        let _rx = fabric.register(EndpointId(1)).unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"a")
            .unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"b")
            .unwrap();
        // The sender's own pass cannot free the ring before WTL.
        let err = fabric
            .send_copied(EndpointId(0), EndpointId(1), b"c")
            .unwrap_err();
        assert_eq!(err, SendError::Full);
        assert_eq!(fabric.stats().send_errors, 1);
        // Draining the ring frees capacity.
        fabric.flush_at(Duration::ZERO);
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
        assert_eq!(fabric.flush_at(Duration::ZERO), 2);
        assert_eq!(rx.try_recv().unwrap().payload.bytes(), b"a");
        assert_eq!(rx.try_recv().unwrap().payload.bytes(), b"b");
        assert_eq!(fabric.pump(Duration::ZERO), 2);
        assert_eq!(rx.try_recv().unwrap().payload.bytes(), b"c");
        assert_eq!(rx.try_recv().unwrap().payload.bytes(), b"d");
        assert_eq!(fabric.stats().send_errors, 0);
    }

    #[test]
    fn a_pass_hands_over_one_slice_whose_lent_frames_share_one_buffer() {
        let fabric = RingFabric::new(cfg(16, 1_000_000, 1));
        let rx = fabric.register(EndpointId(1)).unwrap();
        let shared: Arc<[u8]> = Arc::from(&b"shared"[..]);
        fabric
            .send_lent(EndpointId(0), EndpointId(1), b"one")
            .unwrap();
        fabric
            .send_shared(EndpointId(2), EndpointId(1), Arc::clone(&shared))
            .unwrap();
        fabric
            .send_lent(EndpointId(2), EndpointId(1), b"three")
            .unwrap();
        assert_eq!(fabric.flush_at(Duration::ZERO), 3);
        assert_eq!(rx.len(), 3, "the slice counts its frames");
        let got: Vec<LiveMessage> = std::iter::from_fn(|| rx.try_recv().ok()).collect();
        let bytes: Vec<&[u8]> = got.iter().map(|m| m.payload.bytes()).collect();
        assert_eq!(bytes, [&b"one"[..], b"shared", b"three"]);
        match [&got[0].payload, &got[1].payload, &got[2].payload] {
            [Payload::Slice(first), Payload::Shared(b), Payload::Slice(last)] => {
                let (a, c) = (first.buffer(), last.buffer());
                assert!(Arc::ptr_eq(a, c), "one buffer per slice");
                let ranges = (first.range(), last.range());
                assert_eq!((&a[..], ranges), (&b"onethree"[..], (0..3, 3..8)));
                assert!(Arc::ptr_eq(b, &shared), "a shared frame keeps its buffer");
            }
            other => panic!("{other:?}"),
        }
        let stats = fabric.stats();
        assert_eq!((stats.messages, stats.shared_bytes), (3, 14));
        assert_eq!((stats.flushed_batches, stats.queue_depth), (1, 0));
    }

    #[test]
    fn frames_flushed_to_a_dropped_reader_leave_the_queue_depth() {
        let fabric = RingFabric::new(cfg(16, 1_000_000, 1));
        drop(fabric.register(EndpointId(1)).unwrap());
        for frame in [&b"a"[..], b"bb", b"ccc"] {
            fabric
                .send_copied(EndpointId(0), EndpointId(1), frame)
                .unwrap();
        }
        assert_eq!(fabric.stats().queue_depth, 3);
        fabric.flush_at(Duration::ZERO);
        let stats = fabric.stats();
        assert_eq!((stats.send_errors, stats.messages), (3, 0));
        assert_eq!((stats.queue_depth, stats.endpoints), (0, 1));
    }

    #[test]
    fn lent_frames_dropped_with_their_endpoint_count_as_errors() {
        let fabric = RingFabric::new(cfg(16, 1_000_000, 1));
        let _rx = fabric.register(EndpointId(1)).unwrap();
        for frame in [&b"a"[..], b"bb", b"ccc"] {
            fabric
                .send_lent(EndpointId(0), EndpointId(1), frame)
                .unwrap();
        }
        fabric.deregister(EndpointId(1));
        let stats = fabric.stats();
        assert_eq!((stats.send_errors, stats.messages), (3, 0));
        assert_eq!((stats.shared_bytes, stats.queue_depth), (0, 0));
    }

    #[test]
    fn the_reader_delivers_without_manual_pumps() {
        let fabric = RingFabric::new(cfg(1024, 1_000_000, 1));
        let rx = fabric.register(EndpointId(1)).unwrap();
        for i in 0..50u8 {
            fabric
                .send_copied(EndpointId(0), EndpointId(1), &[i])
                .unwrap();
        }
        // WTL is 1 ms; the reader's own pass must deliver well within the
        // timeout.
        let got: Vec<u8> = (0..50)
            .map(|_| {
                rx.recv_timeout(Duration::from_secs(5))
                    .expect("the reader drains its ring")
                    .payload
                    .bytes()[0]
            })
            .collect();
        assert_eq!(got, (0..50).collect::<Vec<u8>>());
    }

    /// Receive `n` frames on a reader thread, returning their first bytes.
    fn read_on_a_thread(rx: crate::Inbox, n: u8) -> std::thread::JoinHandle<Vec<u8>> {
        std::thread::spawn(move || {
            (0..n)
                .map(|_| {
                    rx.recv_timeout(Duration::from_secs(15))
                        .expect("a post wakes the reader or its WTL deadline does")
                        .payload
                        .bytes()[0]
                })
                .collect()
        })
    }

    #[test]
    fn a_burst_inside_one_wtl_window_costs_one_wakeup_and_one_batch() {
        const N: u8 = 100;
        // WTL far above the time 100 posts take, MMS out of reach.
        let fabric = RingFabric::new(cfg(1024, 1_000_000, 200));
        let reader = read_on_a_thread(fabric.register(EndpointId(1)).unwrap(), N);
        let started = Instant::now();
        for i in 0..N {
            fabric
                .send_copied(EndpointId(0), EndpointId(1), &[i])
                .unwrap();
        }
        // The first post found the endpoint idle and woke the reader (if
        // it was blocked yet); the rest ride the deadline its pass armed.
        assert!(
            fabric.stats().doorbell_rings <= 1,
            "rings = {}",
            fabric.stats().doorbell_rings
        );
        let got = reader.join().unwrap();
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
        assert!(fabric.stats().doorbell_rings <= 1);
        assert_eq!(fabric.stats().posted, N as u64);
    }

    #[test]
    fn crossing_mms_wakes_the_reader_and_flushes_before_wtl() {
        // WTL is 10 s: only the size trigger can deliver within the test.
        let fabric = RingFabric::new(cfg(1024, 1_000, 10_000));
        let reader = read_on_a_thread(fabric.register(EndpointId(1)).unwrap(), 10);
        for i in 0..9u8 {
            fabric
                .send_copied(EndpointId(0), EndpointId(1), &[i; 100])
                .unwrap();
        }
        assert!(fabric.stats().doorbell_rings <= 1, "900 B stay under MMS");
        fabric
            .send_copied(EndpointId(0), EndpointId(1), &[9; 100])
            .unwrap();
        let started = Instant::now();
        assert_eq!(reader.join().unwrap(), (0..10).collect::<Vec<u8>>());
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "not held to WTL"
        );
        assert_eq!(fabric.stats().flushed_batches, 1);
        assert!(fabric.stats().doorbell_rings <= 2);
    }

    #[test]
    fn the_reader_drains_a_bounded_inbox_in_order() {
        const N: u8 = 50;
        let fabric = RingFabric::new(cfg(1024, 1_000_000, 1));
        let rx = fabric.register_bounded(EndpointId(1), 2).unwrap();
        for i in 0..N {
            fabric
                .send_copied(EndpointId(0), EndpointId(1), &[i])
                .unwrap();
        }
        // Two fit the inbox; the rest park in the retry queue, and every
        // receive that empties the inbox passes again.
        for i in 0..N {
            let msg = rx
                .recv_timeout(Duration::from_secs(5))
                .expect("parked items are retried");
            assert_eq!(msg.payload.bytes()[0], i);
        }
        assert_eq!(fabric.stats().send_errors, 0);
    }

    /// Senders pause for about a WTL between posts, so posts keep landing
    /// between a reader's pass and its block. No heartbeat exists: a
    /// frame can only arrive in time if no wake-up was lost — under the
    /// batch rule's wakes (idle → pending, an MMS crossing) and the fetch
    /// rule's (every publish).
    #[test]
    fn post_wake_ups_are_never_lost() {
        let ring = RingFabric::new(cfg(4096, 4 * 1024, 1));
        let one_sided = OneSidedFabric::new(OneSidedConfig { ring_slots: 4096 });
        for fabric in [ring, one_sided] {
            wake_ups_are_never_lost(Arc::new(fabric));
        }
    }

    fn wake_ups_are_never_lost(fabric: Arc<RingFabric>) {
        const SENDERS: u32 = 4;
        const ENDPOINTS: u32 = 6;
        const PER_PAIR: u32 = 40;
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
                            .expect("a lost wake-up would wait out the receive");
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
    }

    /// No reader runs while the producers post: a producer that finds the
    /// ring full runs the endpoint's pass itself, and the unbounded inbox
    /// takes the backlog.
    #[test]
    fn stress_with_tiny_ring_backpressures_cleanly() {
        const SENDERS: u32 = 4;
        const PER_SENDER: u32 = 500;
        let fabric = Arc::new(RingFabric::new(cfg(8, 64, 1)));
        let rx = fabric.register(EndpointId(0)).unwrap();

        let producers: Vec<_> = (1..=SENDERS)
            .map(|s| {
                let f = Arc::clone(&fabric);
                std::thread::spawn(move || {
                    let mut retries = 0u64;
                    for seq in 0..PER_SENDER {
                        let frame = [s.to_le_bytes(), seq.to_le_bytes()].concat();
                        // Backpressure shows up as Full, never a deadlock.
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
    }

    #[test]
    fn config_round_trips_with_current_defaults() {
        let d = RingConfig::default();
        assert_eq!(d.ring_capacity, 64 * 1024);
        assert_eq!(d.batch, BatchConfig::default());
    }

    #[test]
    fn multi_endpoint_stress_keeps_per_endpoint_fifo() {
        const SENDERS: u32 = 4;
        const ENDPOINTS: u32 = 6;
        const PER_PAIR: u32 = 500;
        let fabric = Arc::new(RingFabric::new(cfg(
            (SENDERS * PER_PAIR) as usize,
            2 * 1024,
            1,
        )));
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
                    "per-(sender, endpoint) FIFO order"
                );
                next_seq[s as usize] = seq + 1;
            }
            assert!(rx.try_recv().is_err(), "no duplicated descriptors");
        }
        assert_eq!(
            fabric.stats().messages,
            (SENDERS * ENDPOINTS * PER_PAIR) as u64,
            "lossless"
        );
    }

    #[test]
    fn stats_snapshot_after_a_forced_flush() {
        let fabric = RingFabric::new(cfg(16, 64, 1));
        let rx = fabric.register(EndpointId(1)).unwrap();
        for _ in 0..4 {
            fabric
                .send_copied(EndpointId(0), EndpointId(1), &[0u8; 32])
                .unwrap();
        }
        fabric.flush_at(Duration::ZERO);
        drop(rx);
        let stats = fabric.stats();
        assert_eq!((stats.posted, stats.messages), (4, 4));
        assert_eq!(stats.copied_bytes, 128);
        assert_eq!(stats.flushed_batches, 2);
        assert_eq!(stats.queue_depth, 0);
        assert!(stats.mean_batch_size() > 1.0);
    }
}
