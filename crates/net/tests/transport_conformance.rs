//! One conformance suite over every live transport.
//!
//! What a caller of [`FabricPath`] may rely on whichever delivery policy
//! is behind it: each test below is one row, run for the per-send, ring
//! and one-sided transports and for each of them again under a
//! [`FaultFabric`] whose plan injects nothing. Policy-specific behaviour
//! (MMS/WTL triggers, wake-up coalescing, registration per link) is
//! tested beside its policy.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use whale_net::{
    BatchConfig, ClusterSpec, EndpointId, FabricKind, FabricPath, FaultFabric, FaultPlan,
    LinkTracker, MachineId, OneSidedConfig, Payload, RecvTimeoutError, RegisterError, RingConfig,
    SendError, TryRecvError,
};

/// Every transport variant under test, by name: the three kinds, then
/// each again behind a zero-fault decorator.
fn variants_with(ring: RingConfig, one_sided: OneSidedConfig) -> Vec<(String, FabricKind, bool)> {
    let kinds = [
        ("per_send", FabricKind::PerSend),
        ("ring", FabricKind::Ring(ring)),
        ("one_sided", FabricKind::OneSided(one_sided)),
    ];
    let mut out = Vec::new();
    for faulted in [false, true] {
        for (name, kind) in kinds {
            let name = if faulted {
                format!("{name}+fault")
            } else {
                name.to_string()
            };
            out.push((name, kind, faulted));
        }
    }
    out
}

fn variants() -> Vec<(String, FabricKind, bool)> {
    variants_with(RingConfig::default(), OneSidedConfig::default())
}

/// The transport as the runtime builds it, bare or behind the zero-fault
/// decorator. Only `flush()` and its readers' receives move a buffered
/// frame: no thread runs behind it.
fn built(kind: FabricKind, faulted: bool) -> Arc<dyn FabricPath> {
    let inner = kind.build();
    if faulted {
        Arc::new(FaultFabric::new(inner, FaultPlan::default()))
    } else {
        inner
    }
}

/// Four machines in two racks, endpoint `i` on machine `i`.
fn tracker() -> Arc<LinkTracker> {
    let tracker = Arc::new(LinkTracker::new(ClusterSpec::with_rack_map(
        4,
        2,
        1,
        vec![0, 0, 1, 1],
    )));
    for m in 0..4 {
        tracker.map_endpoint(EndpointId(m), MachineId(m));
    }
    tracker
}

#[test]
fn duplicate_id_is_refused_and_the_first_inbox_keeps_its_frames() {
    for (name, kind, faulted) in variants() {
        let fabric = built(kind, faulted);
        let id = EndpointId(1);
        let rx = fabric.register(id).unwrap();
        fabric.send_copied(EndpointId(0), id, b"queued").unwrap();
        fabric.flush();

        // Re-registration must not displace the live inbox.
        let refused = RegisterError::AlreadyRegistered(id);
        assert_eq!(fabric.register(id).unwrap_err(), refused, "{name}");
        assert_eq!(
            fabric.register_bounded(id, 4).unwrap_err(),
            refused,
            "{name}"
        );

        // The queued frame is still there and new sends still land.
        fabric.send_copied(EndpointId(0), id, b"after").unwrap();
        fabric.flush();
        assert_eq!(rx.try_recv().unwrap().payload.bytes(), b"queued", "{name}");
        assert_eq!(rx.try_recv().unwrap().payload.bytes(), b"after", "{name}");
        assert_eq!(fabric.stats().endpoints, 1, "{name}");

        // Deregister frees the id for reuse.
        fabric.deregister(id);
        assert!(fabric.register(id).is_ok(), "{name}");
    }
}

#[test]
fn unknown_and_dropped_receivers_count_errors_and_no_bytes() {
    for (name, kind, faulted) in variants() {
        let fabric = built(kind, faulted);
        let unknown = fabric.send_copied(EndpointId(0), EndpointId(9), b"x");
        assert_eq!(unknown, Err(SendError::UnknownEndpoint), "{name}");
        assert_eq!(fabric.stats().send_errors, 1, "{name}");

        // A dropped receiver: refused at the send (per-send) or lost by
        // the drain pass (buffered) — an error either way.
        let id = EndpointId(1);
        drop(fabric.register(id).unwrap());
        let buf: Arc<[u8]> = Arc::from(&b"yy"[..]);
        match fabric.send_shared(EndpointId(0), id, buf) {
            Ok(()) | Err(SendError::Disconnected) => {}
            Err(e) => panic!("{name}: {e}"),
        }
        fabric.flush();
        assert_eq!(fabric.stats().send_errors, 2, "{name}");

        fabric.deregister(id);
        let gone = fabric.send_copied(EndpointId(0), id, b"z");
        assert_eq!(gone, Err(SendError::UnknownEndpoint), "{name}");

        let stats = fabric.stats();
        assert_eq!(stats.send_errors, 3, "{name}");
        assert_eq!(stats.messages, 0, "{name}");
        assert_eq!(stats.copied_bytes + stats.shared_bytes, 0, "{name}");
        assert_eq!((stats.endpoints, stats.queue_depth), (0, 0), "{name}");
    }
}

#[test]
fn a_full_bounded_inbox_loses_nothing_and_keeps_per_link_fifo() {
    const SENDERS: u32 = 2;
    const PER_SENDER: u8 = 40;
    for (name, kind, faulted) in variants() {
        let fabric = built(kind, faulted);
        let to = EndpointId(1);
        let rx = fabric.register_bounded(to, 2).unwrap();
        let mut got: Vec<Vec<u8>> = vec![Vec::new(); SENDERS as usize];
        let take = |got: &mut Vec<Vec<u8>>| {
            fabric.flush();
            while let Ok(msg) = rx.try_recv() {
                got[(msg.from.0 - 10) as usize].push(msg.payload.bytes()[0]);
            }
        };
        for seq in 0..PER_SENDER {
            for s in 0..SENDERS {
                // A per-send delivery into the full inbox comes back
                // `Full`; make room and retry. The buffered paths accept
                // the post and park it behind the inbox.
                while let Err(e) = fabric.send_copied(EndpointId(10 + s), to, &[seq]) {
                    assert_eq!(e, SendError::Full, "{name}");
                    take(&mut got);
                }
            }
        }
        for _ in 0..=SENDERS * PER_SENDER as u32 {
            take(&mut got);
        }
        let in_order: Vec<u8> = (0..PER_SENDER).collect();
        for per_link in &got {
            assert_eq!(per_link, &in_order, "{name}");
        }
        let stats = fabric.stats();
        assert_eq!(
            stats.messages,
            (SENDERS * PER_SENDER as u32) as u64,
            "{name}"
        );
        assert_eq!(stats.queue_depth, 0, "{name}");
        if stats.posted > 0 {
            assert_eq!(stats.send_errors, 0, "{name}: parked, never refused");
        }
    }
}

#[test]
fn send_shared_delivers_the_same_allocation() {
    for (name, kind, faulted) in variants() {
        let fabric = built(kind, faulted);
        let rx1 = fabric.register(EndpointId(1)).unwrap();
        let rx2 = fabric.register(EndpointId(2)).unwrap();
        let buf: Arc<[u8]> = Arc::from(&b"payload"[..]);
        for to in [1, 2] {
            fabric
                .send_shared(EndpointId(0), EndpointId(to), Arc::clone(&buf))
                .unwrap();
        }
        fabric.flush();
        for rx in [&rx1, &rx2] {
            let msg = rx.try_recv().unwrap();
            assert_eq!(msg.from, EndpointId(0), "{name}");
            match &msg.payload {
                Payload::Shared(got) => assert!(Arc::ptr_eq(got, &buf), "{name}"),
                Payload::Copied(_) => panic!("{name}: a shared send was copied"),
                Payload::Slice(..) => panic!("{name}: a shared send was sliced"),
            }
        }
        let stats = fabric.stats();
        assert_eq!((stats.messages, stats.shared_bytes), (2, 14), "{name}");
        assert_eq!(stats.copied_bytes, 0, "{name}");
    }
}

#[test]
fn a_second_link_tracker_install_keeps_the_first() {
    for (name, kind, faulted) in variants() {
        let fabric = built(kind, faulted);
        let (first, second) = (tracker(), tracker());
        fabric.install_link_tracker(Arc::clone(&first));
        fabric.install_link_tracker(Arc::clone(&second));
        let rx = fabric.register(EndpointId(1)).unwrap();
        let sent = fabric.send_copied(EndpointId(0), EndpointId(1), b"12345");
        assert_eq!(sent, Ok(()), "{name}");
        fabric.flush();
        assert_eq!(rx.try_recv().unwrap().payload.bytes(), b"12345", "{name}");
        assert_eq!(first.total_bytes(), 5, "{name}");
        assert_eq!(second.total_bytes(), 0, "{name}");
    }
}

#[test]
fn per_link_byte_sums_equal_the_delivered_byte_totals() {
    for (name, kind, faulted) in variants() {
        let fabric = built(kind, faulted);
        let tracker = tracker();
        fabric.install_link_tracker(Arc::clone(&tracker));
        let _inboxes: Vec<_> = (0..4)
            .map(|id| fabric.register(EndpointId(id)).unwrap())
            .collect();
        let (mut copied, mut shared, mut frames) = (0u64, 0u64, 0u64);
        // Every ordered pair, loopback included, so all three link
        // classes carry traffic; sizes differ per pair.
        for from in 0..4u32 {
            for to in 0..4u32 {
                let len = (1 + from * 4 + to) as usize;
                let (from, to) = (EndpointId(from), EndpointId(to));
                fabric.send_copied(from, to, &vec![7; len]).unwrap();
                fabric
                    .send_shared(from, to, vec![9; 2 * len].into())
                    .unwrap();
                copied += len as u64;
                shared += 2 * len as u64;
                frames += 2;
            }
        }
        // Failed sends never reach a link.
        let _ = fabric.send_copied(EndpointId(0), EndpointId(9), b"lost");
        fabric.flush();

        let stats = fabric.stats();
        assert_eq!(
            (stats.copied_bytes, stats.shared_bytes),
            (copied, shared),
            "{name}"
        );
        assert_eq!(stats.messages, frames, "{name}");
        let loads = tracker.snapshot();
        let link_bytes: u64 = loads.iter().map(|load| load.bytes).sum();
        let link_frames: u64 = loads.iter().map(|load| load.frames).sum();
        assert_eq!(
            link_bytes,
            stats.copied_bytes + stats.shared_bytes,
            "{name}"
        );
        assert_eq!(link_frames, stats.messages, "{name}");
        assert_eq!(tracker.total_bytes(), link_bytes, "{name}");
        assert!(tracker.uplink_bytes() > 0, "{name}");
        for load in loads {
            assert_eq!((load.queued_frames, load.queued_bytes), (0, 0), "{name}");
        }
    }
}

#[test]
fn flush_delivers_stragglers() {
    // MMS and a 10 s WTL out of reach: only the flush can deliver from the
    // ring in time.
    let held_back = RingConfig {
        batch: BatchConfig {
            mms: 1_000_000,
            wtl: Duration::from_millis(10_000),
        },
        ..RingConfig::default()
    };
    for (name, kind, faulted) in variants_with(held_back, OneSidedConfig::default()) {
        let fabric = built(kind, faulted);
        let rx = fabric.register(EndpointId(1)).unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"tail")
            .unwrap();
        fabric.flush();
        assert_eq!(rx.try_recv().unwrap().payload.bytes(), b"tail", "{name}");
        assert_eq!(fabric.stats().messages, 1, "{name}");
    }
}

#[test]
fn four_producer_stress_keeps_per_sender_order() {
    const SENDERS: u32 = 4;
    const PER_SENDER: u32 = 2_000;
    // 64-slot rings: the producers run into backpressure.
    let ring = RingConfig {
        ring_capacity: 64,
        ..RingConfig::default()
    };
    let one_sided = OneSidedConfig { ring_slots: 64 };
    for (name, kind, faulted) in variants_with(ring, one_sided) {
        let fabric = built(kind, faulted);
        let rx = fabric.register(EndpointId(0)).unwrap();
        let producers: Vec<_> = (1..=SENDERS)
            .map(|s| {
                let fabric = Arc::clone(&fabric);
                std::thread::spawn(move || {
                    for seq in 0..PER_SENDER {
                        let frame = [s.to_le_bytes(), seq.to_le_bytes()].concat();
                        // Backpressure shows up as `Full`, never a
                        // deadlock or a loss: retry until a pass frees
                        // ring capacity.
                        loop {
                            match fabric.send_copied(EndpointId(s), EndpointId(0), &frame) {
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
                .unwrap_or_else(|_| panic!("{name}: a frame was lost"));
            let bytes = msg.payload.bytes();
            let s = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
            let seq = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
            assert_eq!(msg.from, EndpointId(s), "{name}");
            assert_eq!(seq, next_seq[s as usize], "{name}: per-sender FIFO order");
            next_seq[s as usize] = seq + 1;
        }
        assert!(rx.try_recv().is_err(), "{name}: a frame was duplicated");
        let stats = fabric.stats();
        assert_eq!(stats.messages, (SENDERS * PER_SENDER) as u64, "{name}");
        // Every accepted frame was delivered; `send_errors` holds only the
        // refusals the producers retried.
        if stats.posted > 0 {
            assert_eq!(stats.posted, stats.messages, "{name}");
        }
    }
}

#[test]
fn a_blocked_reader_receives_each_post_within_wtl() {
    const FRAMES: u32 = 1_000;
    let wtl = BatchConfig::default().wtl;
    let bound = wtl + Duration::from_millis(100);
    for (name, kind, faulted) in variants() {
        let fabric = built(kind, faulted);
        let rx = fabric.register(EndpointId(1)).unwrap();
        let epoch = Instant::now();
        let reader = std::thread::spawn(move || {
            let mut longest = Duration::ZERO;
            for seq in 0..FRAMES {
                let msg = rx
                    .recv_timeout(Duration::from_secs(30))
                    .expect("a post wakes its reader, or the reader's WTL deadline does");
                // A reader may take an empty frame for a signal of its
                // own: a post's wake-up must never surface.
                let bytes = msg.payload.bytes();
                assert_eq!(bytes.len(), 12, "a wake-up reached the reader");
                assert_eq!(u32::from_le_bytes(bytes[..4].try_into().unwrap()), seq);
                let posted = u64::from_le_bytes(bytes[4..].try_into().unwrap());
                longest = longest.max(epoch.elapsed() - Duration::from_nanos(posted));
            }
            longest
        });
        for seq in 0..FRAMES {
            let posted = epoch.elapsed().as_nanos() as u64;
            let frame = [&seq.to_le_bytes()[..], &posted.to_le_bytes()].concat();
            fabric
                .send_copied(EndpointId(0), EndpointId(1), &frame)
                .unwrap();
            // Gaps of 0–400 µs: the reader blocks between many posts, on
            // an idle endpoint and on one with a batch waiting out its WTL.
            std::thread::sleep(Duration::from_micros(u64::from(seq % 5) * 100));
        }
        let longest = reader.join().unwrap();
        assert!(longest <= bound, "{name}: a frame waited {longest:?}");
    }
}

/// Frame `seq` of sender `s`: its ids, then a filler whose length walks
/// from well under to well over [`SLICED`]'s MMS.
fn numbered(s: u32, seq: u32) -> Vec<u8> {
    let len = 8 + ((seq * 37 + s * 11) % 600) as usize;
    let mut frame = [s.to_le_bytes(), seq.to_le_bytes()].concat();
    frame.extend((0..len - 8).map(|i| (i as u32 ^ seq ^ s) as u8));
    frame
}

/// A ring whose 256 B MMS the frames of [`numbered`] straddle.
const SLICED: RingConfig = RingConfig {
    ring_capacity: 64 * 1024,
    batch: BatchConfig {
        mms: 256,
        wtl: Duration::from_millis(1),
    },
};

/// Sender of a received [`numbered`] frame.
fn sender_of(bytes: &[u8]) -> usize {
    u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize
}

#[test]
fn lent_and_shared_frames_arrive_intact_in_order_and_counted_once() {
    const SENDERS: u32 = 3;
    const PER_SENDER: u32 = 200;
    for (name, kind, faulted) in variants_with(SLICED, OneSidedConfig::default()) {
        let fabric = built(kind, faulted);
        let to = EndpointId(1);
        let rx = fabric.register(to).unwrap();
        let mut sent: Vec<Vec<Vec<u8>>> = vec![Vec::new(); SENDERS as usize];
        let mut got: Vec<Vec<Vec<u8>>> = vec![Vec::new(); SENDERS as usize];
        // Returns how many of the frames it took arrived as slices.
        let take = |got: &mut Vec<Vec<Vec<u8>>>| {
            let mut sliced = 0;
            while let Ok(msg) = rx.try_recv() {
                let bytes = msg.payload.bytes();
                assert_eq!(msg.from, EndpointId(10 + sender_of(bytes) as u32), "{name}");
                // Both kinds travel with RDMA semantics.
                assert!(!matches!(msg.payload, Payload::Copied(_)), "{name}");
                sliced += matches!(msg.payload, Payload::Slice(..)) as u64;
                got[sender_of(bytes)].push(bytes.to_vec());
            }
            sliced
        };
        let (mut frames, mut bytes, mut sliced) = (0u64, 0u64, 0u64);
        for seq in 0..PER_SENDER {
            for s in 0..SENDERS {
                let frame = numbered(s, seq);
                let from = EndpointId(10 + s);
                // Even frames lent, odd ones shared: one stream of each
                // kind per sender, interleaved.
                if seq % 2 == 0 {
                    fabric.send_lent(from, to, &frame).unwrap();
                } else {
                    fabric.send_shared(from, to, frame.clone().into()).unwrap();
                }
                frames += 1;
                bytes += frame.len() as u64;
                sent[s as usize].push(frame);
            }
            if seq % 7 == 0 {
                sliced += take(&mut got);
            }
        }
        fabric.flush();
        sliced += take(&mut got);
        for (s, (got, sent)) in got.iter().zip(&sent).enumerate() {
            assert_eq!(got.len(), sent.len(), "{name}: sender {s}");
            assert!(got == sent, "{name}: sender {s}: bytes or order differ");
        }
        let stats = fabric.stats();
        assert_eq!(
            (stats.messages, stats.shared_bytes),
            (frames, bytes),
            "{name}"
        );
        assert_eq!(stats.sliced_frames, sliced, "{name}");
        assert_eq!((stats.copied_bytes, stats.send_errors), (0, 0), "{name}");
        assert_eq!(stats.queue_depth, 0, "{name}");
        if stats.posted > 0 {
            assert_eq!(stats.posted, frames, "{name}");
        }
    }
}

#[test]
fn a_bounded_inbox_fed_by_slices_holds_at_most_its_capacity_in_frames() {
    const CAPACITY: usize = 3;
    const SENDERS: u32 = 2;
    const PER_SENDER: u32 = 60;
    for (name, kind, faulted) in variants_with(SLICED, OneSidedConfig::default()) {
        let fabric = built(kind, faulted);
        let to = EndpointId(1);
        let rx = fabric.register_bounded(to, CAPACITY).unwrap();
        let mut got: Vec<Vec<Vec<u8>>> = vec![Vec::new(); SENDERS as usize];
        let take = |got: &mut Vec<Vec<Vec<u8>>>| {
            fabric.flush();
            loop {
                let held = rx.len();
                assert!(held <= CAPACITY, "{name}: {held} frames in the inbox");
                let Ok(msg) = rx.try_recv() else { break };
                let bytes = msg.payload.bytes();
                got[sender_of(bytes)].push(bytes.to_vec());
            }
        };
        let mut sent: Vec<Vec<Vec<u8>>> = vec![Vec::new(); SENDERS as usize];
        for seq in 0..PER_SENDER {
            for s in 0..SENDERS {
                let frame = numbered(s, seq);
                // A per-send delivery into the full inbox comes back
                // `Full`; make room and retry. The ring takes the post
                // and holds what the inbox has no room for.
                while let Err(e) = fabric.send_lent(EndpointId(10 + s), to, &frame) {
                    assert_eq!(e, SendError::Full, "{name}");
                    take(&mut got);
                }
                sent[s as usize].push(frame);
            }
        }
        for _ in 0..=SENDERS * PER_SENDER {
            take(&mut got);
        }
        assert!(got == sent, "{name}: bytes or per-sender order differ");
        let stats = fabric.stats();
        assert_eq!(stats.messages, (SENDERS * PER_SENDER) as u64, "{name}");
        assert_eq!(stats.queue_depth, 0, "{name}");
        if stats.posted > 0 {
            assert_eq!(stats.send_errors, 0, "{name}: held, never refused");
        }
    }
}

const SLOTS: usize = 4;
const SENDERS: u32 = 2;
const PER_ROUND: u32 = 3;
const ROUNDS: u32 = 10;

/// Lent frames from [`SENDERS`] senders through `fabric`, whose outboxes
/// hold [`SLOTS`] frames, [`PER_ROUND`] a link per round: every round but
/// the first wraps around some link's ring. Each link's frames arrive
/// intact, in order and in the round that sent them; a slicing transport
/// hands a link's run of one round over in one buffer, and on the
/// one-sided transport that buffer is the run. When `lossless`, each
/// round delivers every frame it sent, so the run is the round's whole
/// run. Returns `(frames, bytes)` received.
fn lent_runs_through(name: &str, fabric: &dyn FabricPath, lossless: bool) -> (u64, u64) {
    let to = EndpointId(1);
    let rx = fabric.register(to).unwrap();
    let (mut frames, mut bytes) = (0u64, 0u64);
    let mut next = [0u32; SENDERS as usize];
    for round in 0..ROUNDS {
        let seqs = round * PER_ROUND..(round + 1) * PER_ROUND;
        let mut sent: Vec<Vec<Vec<u8>>> = vec![Vec::new(); SENDERS as usize];
        for seq in seqs.clone() {
            for s in 0..SENDERS {
                let frame = numbered(s, seq);
                fabric.send_lent(EndpointId(10 + s), to, &frame).unwrap();
                sent[s as usize].push(frame);
            }
        }
        fabric.flush();
        let mut got: Vec<Vec<Vec<u8>>> = vec![Vec::new(); SENDERS as usize];
        let mut buffers: Vec<Vec<Arc<[u8]>>> = vec![Vec::new(); SENDERS as usize];
        while let Ok(msg) = rx.try_recv() {
            let frame = msg.payload.bytes();
            let s = sender_of(frame);
            let seq = u32::from_le_bytes(frame[4..8].try_into().unwrap());
            assert!(seq >= next[s], "{name}: link {s} out of order");
            assert!(seqs.contains(&seq), "{name}: seq {seq} outside round {round}");
            assert_eq!(frame, numbered(s as u32, seq), "{name}: bytes differ");
            next[s] = seq + 1;
            (frames, bytes) = (frames + 1, bytes + frame.len() as u64);
            got[s].push(frame.to_vec());
            match &msg.payload {
                Payload::Slice(slice) => buffers[s].push(Arc::clone(slice.buffer())),
                // Lent frames a transport does not slice (per-send) get a
                // buffer each.
                Payload::Shared(_) => assert!(!name.starts_with("one_sided"), "{name}: not sliced"),
                Payload::Copied(_) => panic!("{name}: a lent frame was copied"),
            }
        }
        if lossless {
            assert_eq!(got, sent, "{name}: round {round} arrives whole");
        }
        for (s, bufs) in buffers.iter().enumerate() {
            if let Some(first) = bufs.first() {
                assert_eq!(bufs.len(), got[s].len(), "{name}: round {round}");
                assert!(
                    bufs.iter().all(|b| Arc::ptr_eq(b, first)),
                    "{name}: link {s}'s run in one buffer"
                );
                if name.starts_with("one_sided") {
                    let run = got[s].concat();
                    assert_eq!(&first[..], &run[..], "{name}: the buffer is the run");
                }
            }
        }
    }
    (frames, bytes)
}

/// Every frame sent, what [`lent_runs_through`] sends.
fn lent_runs_sent() -> (u64, u64) {
    let seqs = (0..ROUNDS * PER_ROUND).flat_map(|seq| (0..SENDERS).map(move |s| (s, seq)));
    seqs.fold((0, 0), |(n, b), (s, seq)| {
        (n + 1, b + numbered(s, seq).len() as u64)
    })
}

fn lent_runs_variants() -> Vec<(String, FabricKind, bool)> {
    let ring = RingConfig {
        ring_capacity: SLOTS * SENDERS as usize,
        ..RingConfig::default()
    };
    variants_with(ring, OneSidedConfig { ring_slots: SLOTS })
}

#[test]
fn lent_frames_of_one_fetched_run_share_one_buffer_in_link_order_across_wraparound() {
    for (name, kind, faulted) in lent_runs_variants() {
        let fabric = built(kind, faulted);
        let received = lent_runs_through(&name, &*fabric, true);
        assert_eq!(received, lent_runs_sent(), "{name}: every frame arrives");
        let stats = fabric.stats();
        assert_eq!((stats.messages, stats.shared_bytes), received, "{name}");
        assert_eq!((stats.send_errors, stats.queue_depth), (0, 0), "{name}");
    }
}

/// The decorator decides a lent frame's fate, not its delivery: under a
/// plan that drops a quarter of them, each frame it keeps reaches the
/// inner transport as a lent frame and is sliced there like any other.
#[test]
fn lent_frames_a_dropping_decorator_keeps_are_sliced_by_its_inner_transport() {
    for (name, kind, faulted) in lent_runs_variants() {
        if !faulted {
            continue;
        }
        let fabric = FaultFabric::new(kind.build(), FaultPlan::uniform_drops(41, 0.25));
        let (frames, bytes) = lent_runs_through(&name, &fabric, false);
        let (sent, _) = lent_runs_sent();
        assert!(fabric.drops() > 0, "{name}: the plan dropped nothing");
        assert_eq!(frames + fabric.drops(), sent, "{name}");
        let stats = fabric.stats();
        assert_eq!(
            (stats.messages, stats.shared_bytes),
            (frames, bytes),
            "{name}"
        );
        assert_eq!((stats.send_errors, stats.queue_depth), (0, 0), "{name}");
    }
}

#[test]
fn a_sender_holding_a_handle_sees_deregister_and_the_new_inbox() {
    for (name, kind, faulted) in variants() {
        let fabric = built(kind, faulted);
        let to = EndpointId(1);
        let old = fabric.register(to).unwrap();
        // One sender thread for the whole row, so that a per-send handle
        // it resolved on its first frame is still its own on the next.
        let (go, steps) = mpsc::channel::<&'static [u8]>();
        let (done, results) = mpsc::channel();
        let sender = {
            let fabric = Arc::clone(&fabric);
            std::thread::spawn(move || {
                for frame in steps {
                    done.send(fabric.send_copied(EndpointId(0), to, frame))
                        .unwrap();
                }
            })
        };
        let send = |frame| {
            go.send(frame).unwrap();
            let sent = results.recv().unwrap();
            fabric.flush();
            sent
        };
        assert_eq!(send(b"first"), Ok(()), "{name}");
        assert_eq!(old.try_recv().unwrap().payload.bytes(), b"first", "{name}");

        fabric.deregister(to);
        assert_eq!(send(b"lost"), Err(SendError::UnknownEndpoint), "{name}");
        assert_eq!(fabric.stats().send_errors, 1, "{name}: counted once");
        assert_eq!(
            old.try_recv().unwrap_err(),
            TryRecvError::Disconnected,
            "{name}"
        );

        let new = fabric.register(to).unwrap();
        assert_eq!(send(b"again"), Ok(()), "{name}");
        assert_eq!(new.try_recv().unwrap().payload.bytes(), b"again", "{name}");
        drop(go);
        sender.join().unwrap();
        let stats = fabric.stats();
        assert_eq!((stats.messages, stats.send_errors), (2, 1), "{name}");
    }
}

#[test]
fn dropping_the_fabric_disconnects_a_blocked_reader_whose_sender_holds_a_handle() {
    for (name, kind, faulted) in variants() {
        let fabric = built(kind, faulted);
        let rx = fabric.register(EndpointId(1)).unwrap();
        // The sender thread stays alive, its per-send handle with it,
        // until the reader has seen the end.
        let (sent_tx, sent) = mpsc::channel();
        let (release, hold) = mpsc::channel::<()>();
        let sender = {
            let fabric = Arc::clone(&fabric);
            std::thread::spawn(move || {
                sent_tx
                    .send(fabric.send_copied(EndpointId(0), EndpointId(1), b"x"))
                    .unwrap();
                drop(fabric);
                let _ = hold.recv();
            })
        };
        assert_eq!(sent.recv().unwrap(), Ok(()), "{name}");
        fabric.flush();
        let reader = std::thread::spawn(move || {
            let first = rx.recv_timeout(Duration::from_secs(30)).map(|m| m.payload);
            let started = Instant::now();
            let then = rx.recv_timeout(Duration::from_secs(30));
            (
                first.map(|p| p.bytes().to_vec()),
                then.map(|_| ()),
                started.elapsed(),
            )
        });
        // Let the reader block on its empty queue.
        std::thread::sleep(Duration::from_millis(50));
        drop(fabric);
        let (first, then, waited) = reader.join().unwrap();
        assert_eq!(first, Ok(b"x".to_vec()), "{name}");
        assert_eq!(then, Err(RecvTimeoutError::Disconnected), "{name}");
        assert!(
            waited < Duration::from_secs(10),
            "{name}: waited {waited:?}"
        );
        release.send(()).unwrap();
        sender.join().unwrap();
    }
}
