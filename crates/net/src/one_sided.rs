//! `OneSidedFabric`: the remote-fetch transport (§4's one-sided READ
//! paradigm) — [`Slice`] on the fetch rules: one outbox per (sender,
//! destination) link, registered on its first frame, from which the
//! destination's reader fetches everything published. Only the
//! configuration lives here; what a publish and a fetch do is
//! [`crate::slice`]'s.

use crate::core::Transport;
use crate::slice::Slice;

/// Configuration of the one-sided (remote-fetch) transport.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OneSidedConfig {
    /// Per-link outbox capacity in slots: the maximum number of published
    /// but not yet fetched frames between one sender and one destination.
    /// Publishes beyond it fail with [`SendError::Full`](crate::SendError::Full).
    pub ring_slots: usize,
}

impl Default for OneSidedConfig {
    fn default() -> Self {
        OneSidedConfig {
            ring_slots: 16 * 1024,
        }
    }
}

/// The remote-fetch transport: [`Slice`] built from a
/// [`OneSidedConfig`]. See the module docs for semantics.
pub type OneSidedFabric = Transport<Slice>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{EndpointId, FabricPath, LiveMessage, Payload, SendError};
    use crate::{RingConfig, RingFabric};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

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

    /// The ring at the same capacity, for the accounting both keep.
    fn ring(ring_capacity: usize) -> RingFabric {
        RingFabric::new(RingConfig {
            ring_capacity,
            ..RingConfig::default()
        })
    }

    /// One registration per outbox, whatever the traffic: per (sender,
    /// destination) link here, per destination on the ring.
    #[test]
    fn registration_paid_once_per_link() {
        for (fabric, outboxes) in [(OneSidedFabric::new(cfg(16)), 4), (ring(16), 2)] {
            let _rx1 = fabric.register(EndpointId(1)).unwrap();
            let _rx2 = fabric.register(EndpointId(2)).unwrap();
            for _ in 0..5 {
                for (from, to) in [(0, 1), (0, 2), (3, 1), (3, 2)] {
                    fabric
                        .send_copied(EndpointId(from), EndpointId(to), b"x")
                        .unwrap();
                }
            }
            fabric.flush_at(Duration::ZERO);
            let registrations = fabric.policy().registry.lock().registrations();
            assert_eq!(registrations, outboxes, "one per outbox");
            assert_eq!(fabric.link_count(), outboxes as usize);
            assert_eq!(fabric.stats().messages, 20);
        }
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
        for fabric in [OneSidedFabric::new(cfg(8)), ring(8)] {
            let _rx = fabric.register(EndpointId(1)).unwrap();
            fabric
                .send_copied(EndpointId(0), EndpointId(1), b"stranded")
                .unwrap();
            fabric.deregister(EndpointId(1));
            assert_eq!(fabric.link_count(), 0);
            let stats = fabric.stats();
            assert_eq!((stats.queue_depth, stats.send_errors), (0, 1));
            assert_eq!(
                fabric
                    .send_copied(EndpointId(0), EndpointId(1), b"x")
                    .unwrap_err(),
                SendError::UnknownEndpoint
            );
            assert_eq!(fabric.policy().registry.lock().deregistrations(), 1);
            assert_eq!(live_registrations(&fabric), 0);
        }
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
