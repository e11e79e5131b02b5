//! Deterministic fault injection over any [`FabricPath`].
//!
//! [`FaultFabric`] decorates an inner fabric and perturbs its delivery
//! according to a seeded [`FaultPlan`]: per-link frame drops, duplicates
//! and delays, transient [`SendError::Full`] bursts, endpoint
//! crash-at-frame-N, and link partitions over a frame-count window.
//! Every decision is a pure hash of `(seed, from, to, link-attempt-index,
//! fault-kind)`, so the *set* of faults a link experiences is identical
//! across runs and thread interleavings — chaos tests replay exactly.
//!
//! Faults are injected on the send side:
//!
//! - **drop** / **partition**: the send returns `Ok` but the frame never
//!   reaches the inner fabric (silent loss, as a lossy wire would show),
//! - **duplicate**: the frame is delivered twice,
//! - **delay**: the frame is parked on its link and released after
//!   `delay_frames` further sends on that link (or on [`flush`]);
//!   frames behind a parked frame queue behind it, so per-link FIFO is
//!   preserved for every frame that survives,
//! - **full burst**: the send fails [`SendError::Full`] for the next
//!   `full_burst_len` attempts (models a stalled transfer queue),
//! - **crash**: after `at_frame` sends have been addressed to an
//!   endpoint, every later send to it fails [`SendError::Disconnected`] —
//!   unless a matching [`EndpointRestart`] reopens it: once the endpoint
//!   has been addressed `EndpointRestart::at_frame` times in total, sends
//!   succeed again (deterministic crash-then-rejoin; the addressed
//!   counter keeps advancing through the outage so the restart point is
//!   always reached).
//!
//! A frame the plan leaves unchanged goes on by the call it came in by: a
//! lent frame stays lent, so a slicing transport slices it, and a copied
//! one is copied once. A parked or duplicated frame takes its own payload.
//!
//! Injected faults are counted by the wrapper's own accessors
//! ([`FaultFabric::drops`], [`FaultFabric::parked_split`], ...); its
//! [`FabricPath::stats`] adds the refused sends and the deliverable parked
//! frames to the inner fabric's snapshot.
//!
//! [`flush`]: FabricPath::flush

use crate::fabric::{EndpointId, FabricPath, FabricStats, Payload, RegisterError, SendError};
use crate::inbox::{Inbox, Waker};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Per-link fault probabilities and shapes. All probabilities are in
/// `[0, 1]`; the zero default injects nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LinkFaults {
    /// Probability a frame is silently dropped.
    pub drop: f64,
    /// Probability a frame is delivered twice.
    pub duplicate: f64,
    /// Probability a frame is parked for `delay_frames` link sends.
    pub delay: f64,
    /// How many further sends on the link release a parked frame.
    pub delay_frames: u32,
    /// Probability a send starts a transient backpressure burst.
    pub full_burst: f64,
    /// How many consecutive sends a burst rejects with `Full`.
    pub full_burst_len: u32,
}

impl LinkFaults {
    /// Faults that only drop frames, at probability `p`.
    pub fn drops(p: f64) -> Self {
        LinkFaults {
            drop: p,
            ..LinkFaults::default()
        }
    }
}

/// Crash an endpoint after it has been addressed `at_frame` times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EndpointCrash {
    /// The endpoint that dies.
    pub endpoint: EndpointId,
    /// Sends addressed to it before the crash takes effect.
    pub at_frame: u64,
}

/// Restart a crashed endpoint once it has been addressed `at_frame`
/// times in total (counting the sends rejected during the outage). Only
/// meaningful paired with an [`EndpointCrash`] for the same endpoint and
/// an `at_frame` past the crash point; the crash window is then
/// `[crash.at_frame, restart.at_frame)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EndpointRestart {
    /// The endpoint that comes back.
    pub endpoint: EndpointId,
    /// Total sends addressed to it before it accepts traffic again.
    pub at_frame: u64,
}

/// Sever a link (both directions) for a window of link-attempt indices.
/// Frames sent inside the window are silently lost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Partition {
    /// One side of the severed link.
    pub a: EndpointId,
    /// The other side.
    pub b: EndpointId,
    /// First link-attempt index the partition covers.
    pub from_frame: u64,
    /// First link-attempt index past the partition (heal point).
    pub until_frame: u64,
}

/// A seeded, deterministic description of every fault to inject.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Seed for the per-frame fault rolls.
    pub seed: u64,
    /// Faults applied to links without an explicit entry in `links`.
    pub default_link: LinkFaults,
    /// Per-link overrides, keyed by `(from, to)`.
    pub links: Vec<((EndpointId, EndpointId), LinkFaults)>,
    /// Endpoints that crash after N addressed frames.
    pub crashes: Vec<EndpointCrash>,
    /// Crashed endpoints that rejoin after N total addressed frames.
    pub restarts: Vec<EndpointRestart>,
    /// Link partitions with heal times.
    pub partitions: Vec<Partition>,
}

impl FaultPlan {
    /// A plan that drops every link's frames at probability `p`.
    pub fn uniform_drops(seed: u64, p: f64) -> Self {
        FaultPlan {
            seed,
            default_link: LinkFaults::drops(p),
            ..FaultPlan::default()
        }
    }

    /// The `[crash, restart)` addressed-frame window during which sends
    /// to `endpoint` are rejected, if it has a crash scheduled. Without a
    /// restart (or with one at or before the crash point) the window is
    /// open-ended — the crash is permanent, as before.
    fn crash_window(&self, endpoint: EndpointId) -> Option<(u64, u64)> {
        let crash = self.crashes.iter().find(|c| c.endpoint == endpoint)?;
        let until = self
            .restarts
            .iter()
            .find(|r| r.endpoint == endpoint && r.at_frame > crash.at_frame)
            .map_or(u64::MAX, |r| r.at_frame);
        Some((crash.at_frame, until))
    }

    fn faults_for(&self, from: EndpointId, to: EndpointId) -> LinkFaults {
        self.links
            .iter()
            .find(|(link, _)| *link == (from, to))
            .map(|(_, f)| *f)
            .unwrap_or(self.default_link)
    }
}

/// Fault-decision salts: distinct per fault kind so one frame's rolls
/// are independent.
const SALT_DROP: u64 = 0x1;
const SALT_DUP: u64 = 0x2;
const SALT_DELAY: u64 = 0x3;
const SALT_FULL: u64 = 0x4;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Pure roll in `[0, 1)` for the `k`-th send on link `(from, to)`.
fn roll(seed: u64, from: EndpointId, to: EndpointId, k: u64, salt: u64) -> f64 {
    let link = ((from.0 as u64) << 32) | to.0 as u64;
    let h = splitmix64(seed ^ splitmix64(link) ^ splitmix64(k) ^ splitmix64(salt << 17));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A frame parked on its link, waiting for release.
struct Parked {
    release_at: u64,
    from: EndpointId,
    payload: Payload,
}

/// One send as it reached the decorator, by the call it came in by.
enum Frame<'a> {
    Copied(&'a [u8]),
    Shared(Arc<[u8]>),
    Lent(&'a [u8]),
}

impl Frame<'_> {
    /// The payload this frame is kept as when parked or duplicated: the
    /// borrowed bytes last only the call, so they are copied now.
    fn into_payload(self) -> Payload {
        match self {
            Frame::Copied(bytes) => Payload::Copied(bytes.to_vec()),
            Frame::Shared(buf) => Payload::Shared(buf),
            Frame::Lent(bytes) => Payload::Shared(Arc::from(bytes)),
        }
    }
}

#[derive(Default)]
struct LinkState {
    /// Sends attempted on this link so far (the fault-roll index).
    attempts: u64,
    /// Remaining sends the active `Full` burst rejects.
    burst_left: u32,
    /// Frames parked by delay faults, FIFO.
    parked: VecDeque<Parked>,
}

#[derive(Default)]
struct FaultCounters {
    drops: AtomicU64,
    duplicates: AtomicU64,
    delayed: AtomicU64,
    full_injected: AtomicU64,
    partition_drops: AtomicU64,
    crashed_sends: AtomicU64,
}

/// A [`FabricPath`] decorator that injects the faults of a [`FaultPlan`]
/// into every send crossing it. See the module docs for the fault
/// semantics and determinism guarantees.
pub struct FaultFabric {
    inner: Arc<dyn FabricPath>,
    plan: FaultPlan,
    links: Mutex<HashMap<(EndpointId, EndpointId), LinkState>>,
    /// Sends addressed to each endpoint, for crash-at-frame-N.
    addressed: Mutex<HashMap<EndpointId, u64>>,
    counters: FaultCounters,
}

impl FaultFabric {
    /// Wrap `inner` with the faults of `plan`.
    pub fn new(inner: Arc<dyn FabricPath>, plan: FaultPlan) -> Self {
        FaultFabric {
            inner,
            plan,
            links: Mutex::new(HashMap::new()),
            addressed: Mutex::new(HashMap::new()),
            counters: FaultCounters::default(),
        }
    }

    /// Frames silently dropped by drop faults.
    pub fn drops(&self) -> u64 {
        self.counters.drops.load(Ordering::Relaxed)
    }

    /// Frames delivered twice by duplicate faults.
    pub fn duplicates(&self) -> u64 {
        self.counters.duplicates.load(Ordering::Relaxed)
    }

    /// Frames parked by delay faults.
    pub fn delayed(&self) -> u64 {
        self.counters.delayed.load(Ordering::Relaxed)
    }

    /// Sends rejected by injected `Full` bursts.
    pub fn full_injected(&self) -> u64 {
        self.counters.full_injected.load(Ordering::Relaxed)
    }

    /// Frames lost inside partition windows.
    pub fn partition_drops(&self) -> u64 {
        self.counters.partition_drops.load(Ordering::Relaxed)
    }

    /// Sends rejected because the destination crashed.
    pub fn crashed_sends(&self) -> u64 {
        self.counters.crashed_sends.load(Ordering::Relaxed)
    }

    /// True while `to` sits inside its crash window — frames still
    /// parked for it will be released into a dead destination. An
    /// endpoint past its restart point is alive again.
    fn destination_crashed(&self, to: EndpointId) -> bool {
        let Some((from_frame, until_frame)) = self.plan.crash_window(to) else {
            return false;
        };
        let addressed = self
            .addressed
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let count = addressed.get(&to).copied().unwrap_or(0);
        (from_frame..until_frame).contains(&count)
    }

    /// True once `to` has crossed its scheduled restart point (it
    /// crashed and came back). The recovery layer polls this to know
    /// when log replay toward `to` can begin.
    pub fn restarted(&self, to: EndpointId) -> bool {
        let Some((_, until_frame)) = self.plan.crash_window(to) else {
            return false;
        };
        if until_frame == u64::MAX {
            return false;
        }
        let addressed = self
            .addressed
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        addressed.get(&to).copied().unwrap_or(0) >= until_frame
    }

    /// Parked frames split by destination liveness: `(deliverable,
    /// doomed)`. Doomed frames are parked for an endpoint already past
    /// its crash point — they will never be usefully delivered, so they
    /// must not inflate the sampled λ-pressure: only the deliverable ones
    /// contribute to [`FabricStats::queue_depth`].
    pub fn parked_split(&self) -> (u64, u64) {
        // Snapshot under the links lock, classify outside it: the crash
        // check takes the addressed lock and must not nest inside.
        let per_dest: Vec<(EndpointId, u64)> = {
            let links = self.links.lock().unwrap_or_else(PoisonError::into_inner);
            links
                .iter()
                .filter(|(_, s)| !s.parked.is_empty())
                .map(|((_, to), s)| (*to, s.parked.len() as u64))
                .collect()
        };
        let mut deliverable = 0;
        let mut doomed = 0;
        for (to, n) in per_dest {
            if self.destination_crashed(to) {
                doomed += n;
            } else {
                deliverable += n;
            }
        }
        (deliverable, doomed)
    }

    fn deliver(
        &self,
        from: EndpointId,
        to: EndpointId,
        payload: &Payload,
    ) -> Result<(), SendError> {
        match payload {
            Payload::Copied(bytes) => self.inner.send_copied(from, to, bytes),
            Payload::Shared(buf) => self.inner.send_shared(from, to, Arc::clone(buf)),
            Payload::Slice(..) => self.inner.send_lent(from, to, payload.bytes()),
        }
    }

    /// Release every parked frame on `state` whose release point has
    /// passed. Delivery failures of parked frames are absorbed (the
    /// original send already reported `Ok`).
    fn release_due(&self, to: EndpointId, state: &mut LinkState, now: u64) {
        while state.parked.front().is_some_and(|p| p.release_at <= now) {
            let p = state.parked.pop_front().expect("checked front");
            let _ = self.deliver(p.from, to, &p.payload);
        }
    }

    fn send(&self, from: EndpointId, to: EndpointId, frame: Frame) -> Result<(), SendError> {
        let plan = &self.plan;
        let faults = plan.faults_for(from, to);

        // Crash check: is this destination inside its crash window? The
        // addressed counter advances on every send — including rejected
        // ones — so a scheduled restart point is always reached.
        if let Some((from_frame, until_frame)) = plan.crash_window(to) {
            let mut addressed = self
                .addressed
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let count = addressed.entry(to).or_insert(0);
            let k = *count;
            *count += 1;
            if (from_frame..until_frame).contains(&k) {
                self.counters.crashed_sends.fetch_add(1, Ordering::Relaxed);
                return Err(SendError::Disconnected);
            }
        }

        let mut links = self.links.lock().unwrap_or_else(PoisonError::into_inner);
        let state = links.entry((from, to)).or_default();
        let k = state.attempts;
        state.attempts += 1;
        self.release_due(to, state, k);

        // Partition window on this link (either direction)?
        let partitioned = plan.partitions.iter().any(|p| {
            ((p.a, p.b) == (from, to) || (p.b, p.a) == (from, to))
                && (p.from_frame..p.until_frame).contains(&k)
        });
        if partitioned {
            self.counters
                .partition_drops
                .fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }

        // Transient backpressure burst.
        if state.burst_left > 0 {
            state.burst_left -= 1;
            self.counters.full_injected.fetch_add(1, Ordering::Relaxed);
            return Err(SendError::Full);
        }
        if faults.full_burst > 0.0
            && faults.full_burst_len > 0
            && roll(plan.seed, from, to, k, SALT_FULL) < faults.full_burst
        {
            state.burst_left = faults.full_burst_len - 1;
            self.counters.full_injected.fetch_add(1, Ordering::Relaxed);
            return Err(SendError::Full);
        }

        // Silent drop.
        if faults.drop > 0.0 && roll(plan.seed, from, to, k, SALT_DROP) < faults.drop {
            self.counters.drops.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }

        let duplicate =
            faults.duplicate > 0.0 && roll(plan.seed, from, to, k, SALT_DUP) < faults.duplicate;
        if duplicate {
            self.counters.duplicates.fetch_add(1, Ordering::Relaxed);
        }
        let copies = if duplicate { 2 } else { 1 };

        // Delay: park this frame; later frames queue behind a parked one
        // so per-link FIFO holds for everything that survives.
        let delay_hit = faults.delay > 0.0
            && faults.delay_frames > 0
            && roll(plan.seed, from, to, k, SALT_DELAY) < faults.delay;
        if delay_hit || !state.parked.is_empty() {
            if delay_hit {
                self.counters.delayed.fetch_add(1, Ordering::Relaxed);
            }
            let release_at = if delay_hit {
                k + faults.delay_frames as u64
            } else {
                k
            };
            let release_at = state
                .parked
                .back()
                .map_or(release_at, |b| b.release_at.max(release_at));
            let payload = frame.into_payload();
            for _ in 0..copies {
                state.parked.push_back(Parked {
                    release_at,
                    from,
                    payload: payload.clone(),
                });
            }
            return Ok(());
        }

        if !duplicate {
            // Sent once, unchanged: by the call it came in by.
            return match frame {
                Frame::Copied(bytes) => self.inner.send_copied(from, to, bytes),
                Frame::Shared(buf) => self.inner.send_shared(from, to, buf),
                Frame::Lent(bytes) => self.inner.send_lent(from, to, bytes),
            };
        }
        let payload = frame.into_payload();
        let result = self.deliver(from, to, &payload);
        // The duplicate is best-effort, like a parked release: the
        // first copy already decided this send's outcome, and the
        // receiver may legitimately vanish between the two copies.
        let _ = self.deliver(from, to, &payload);
        result
    }

    /// Release every parked frame regardless of its release point.
    fn release_all(&self) {
        let mut links = self.links.lock().unwrap_or_else(PoisonError::into_inner);
        for ((_, to), state) in links.iter_mut() {
            self.release_due(*to, state, u64::MAX);
        }
    }
}

impl FabricPath for FaultFabric {
    fn register_woken(&self, id: EndpointId, waker: Arc<Waker>) -> Result<Inbox, RegisterError> {
        self.inner.register_woken(id, waker)
    }

    fn register_bounded(&self, id: EndpointId, capacity: usize) -> Result<Inbox, RegisterError> {
        self.inner.register_bounded(id, capacity)
    }

    fn deregister(&self, id: EndpointId) {
        self.inner.deregister(id);
    }

    fn send_copied(&self, from: EndpointId, to: EndpointId, bytes: &[u8]) -> Result<(), SendError> {
        self.send(from, to, Frame::Copied(bytes))
    }

    fn send_shared(
        &self,
        from: EndpointId,
        to: EndpointId,
        buf: Arc<[u8]>,
    ) -> Result<(), SendError> {
        self.send(from, to, Frame::Shared(buf))
    }

    fn send_lent(&self, from: EndpointId, to: EndpointId, bytes: &[u8]) -> Result<(), SendError> {
        self.send(from, to, Frame::Lent(bytes))
    }

    fn flush(&self) {
        self.release_all();
        self.inner.flush();
    }

    fn stats(&self) -> FabricStats {
        let mut stats = self.inner.stats();
        stats.send_errors += self.full_injected() + self.crashed_sends();
        // Delayed frames parked inside the wrapper are also "in the
        // queue" from the sender's point of view — but only the ones a
        // live destination will eventually accept. Counting frames doomed
        // to a crashed endpoint would inflate the sampled λ-pressure and
        // skew the adaptive controller's d* upward.
        stats.queue_depth += self.parked_split().0;
        stats
    }

    fn install_link_tracker(&self, tracker: Arc<crate::topology::LinkTracker>) {
        // The wrapper injects faults *before* the wire: frames it drops
        // never occupy a link, so attribution belongs to the inner
        // transport, which charges links only for frames that actually
        // travel. Installing here as well would double-count.
        self.inner.install_link_tracker(tracker);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::LiveFabric;
    use crate::one_sided::{OneSidedConfig, OneSidedFabric};

    fn drain(rx: &Inbox) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while let Ok(m) = rx.try_recv() {
            out.push(m.payload.bytes().to_vec());
        }
        out
    }

    fn faulty(plan: FaultPlan) -> (Arc<FaultFabric>, Arc<LiveFabric>) {
        let inner = Arc::new(LiveFabric::new());
        let fabric = Arc::new(FaultFabric::new(
            Arc::clone(&inner) as Arc<dyn FabricPath>,
            plan,
        ));
        (fabric, inner)
    }

    #[test]
    fn certain_drop_loses_every_frame_silently() {
        let (fabric, _) = faulty(FaultPlan::uniform_drops(7, 1.0));
        let rx = fabric.register(EndpointId(1)).unwrap();
        for _ in 0..10 {
            fabric
                .send_copied(EndpointId(0), EndpointId(1), b"x")
                .unwrap();
        }
        assert!(rx.try_recv().is_err());
        assert_eq!(fabric.drops(), 10);
        assert_eq!(fabric.stats().messages, 0);
        // Silent loss is not a send error.
        assert_eq!(fabric.stats().send_errors, 0);
    }

    #[test]
    fn certain_duplicate_delivers_twice() {
        let plan = FaultPlan {
            seed: 3,
            default_link: LinkFaults {
                duplicate: 1.0,
                ..LinkFaults::default()
            },
            ..FaultPlan::default()
        };
        let (fabric, _) = faulty(plan);
        let rx = fabric.register(EndpointId(1)).unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"d")
            .unwrap();
        assert_eq!(rx.recv().unwrap().payload.bytes(), b"d");
        assert_eq!(rx.recv().unwrap().payload.bytes(), b"d");
        assert_eq!(fabric.duplicates(), 1);
    }

    /// `n` one-byte lent frames on one link, through `faults` and a
    /// transport that slices lent frames: each frame that arrives, and
    /// whether it came lent through (sliced) or as a snapshot of its own.
    fn lent_through(faults: LinkFaults, n: u8) -> (FaultFabric, Vec<(u8, bool)>) {
        let plan = FaultPlan {
            seed: 6,
            default_link: faults,
            ..FaultPlan::default()
        };
        let inner = OneSidedFabric::new(OneSidedConfig { ring_slots: 64 });
        let fabric = FaultFabric::new(Arc::new(inner), plan);
        let rx = fabric.register(EndpointId(1)).unwrap();
        for b in 0..n {
            fabric
                .send_lent(EndpointId(0), EndpointId(1), &[b])
                .unwrap();
        }
        fabric.flush();
        let got = std::iter::from_fn(|| rx.try_recv().ok())
            .map(|m| match &m.payload {
                Payload::Slice(_) => (m.payload.bytes()[0], true),
                Payload::Shared(_) => (m.payload.bytes()[0], false),
                Payload::Copied(_) => panic!("a lent frame was copied"),
            })
            .collect();
        (fabric, got)
    }

    #[test]
    fn a_duplicated_lent_frame_arrives_twice_as_a_snapshot() {
        let dup = LinkFaults {
            duplicate: 1.0,
            ..LinkFaults::default()
        };
        let (fabric, got) = lent_through(dup, 4);
        let want: Vec<_> = (0..4).flat_map(|b| [(b, false); 2]).collect();
        assert_eq!(got, want);
        assert_eq!(fabric.duplicates(), 4);
        assert_eq!(fabric.stats().messages, 8);
    }

    #[test]
    fn parked_lent_frames_keep_link_fifo_with_the_lent_frames_around_them() {
        // Every frame parked: each is a snapshot, released in order.
        let every = LinkFaults {
            delay: 1.0,
            delay_frames: 2,
            ..LinkFaults::default()
        };
        let (fabric, got) = lent_through(every, 5);
        assert_eq!(got, (0..5).map(|b| (b, false)).collect::<Vec<_>>());
        assert_eq!((fabric.delayed(), fabric.stats().messages), (5, 5));
        // Some parked: the frames that skip the park stay lent and are
        // sliced, and arrive in link order among the snapshots.
        let some = LinkFaults {
            delay: 0.3,
            delay_frames: 2,
            ..LinkFaults::default()
        };
        let (fabric, got) = lent_through(some, 40);
        let order: Vec<u8> = got.iter().map(|&(b, _)| b).collect();
        assert_eq!(order, (0..40).collect::<Vec<_>>());
        let sliced = got.iter().filter(|&&(_, sliced)| sliced).count();
        assert!(fabric.delayed() > 0, "the plan parked nothing");
        assert!((1..40).contains(&sliced), "{sliced} of 40 sliced");
        assert_eq!(fabric.parked_split(), (0, 0));
    }

    #[test]
    fn full_burst_rejects_then_heals() {
        let plan = FaultPlan {
            seed: 11,
            default_link: LinkFaults {
                full_burst: 1.0,
                full_burst_len: 3,
                ..LinkFaults::default()
            },
            ..FaultPlan::default()
        };
        let (fabric, _) = faulty(plan);
        let _rx = fabric.register(EndpointId(1)).unwrap();
        // full_burst = 1.0 re-arms a burst on every non-burst send, so
        // every attempt is rejected — but each failure is *bounded*
        // injected backpressure, not a hang.
        for _ in 0..4 {
            assert_eq!(
                fabric.send_copied(EndpointId(0), EndpointId(1), b"x"),
                Err(SendError::Full)
            );
        }
        assert_eq!(fabric.full_injected(), 4);
        assert_eq!(fabric.stats().send_errors, 4);
    }

    #[test]
    fn crash_at_frame_cuts_off_an_endpoint() {
        let plan = FaultPlan {
            seed: 5,
            crashes: vec![EndpointCrash {
                endpoint: EndpointId(1),
                at_frame: 2,
            }],
            ..FaultPlan::default()
        };
        let (fabric, _) = faulty(plan);
        let rx = fabric.register(EndpointId(1)).unwrap();
        let rx2 = fabric.register(EndpointId(2)).unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"a")
            .unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"b")
            .unwrap();
        assert_eq!(
            fabric.send_copied(EndpointId(0), EndpointId(1), b"c"),
            Err(SendError::Disconnected)
        );
        // Other endpoints are unaffected.
        fabric
            .send_copied(EndpointId(0), EndpointId(2), b"ok")
            .unwrap();
        assert_eq!(fabric.crashed_sends(), 1);
        assert_eq!(drain(&rx).len(), 2);
        assert_eq!(drain(&rx2).len(), 1);
    }

    #[test]
    fn restart_heals_a_crashed_endpoint() {
        let plan = FaultPlan {
            seed: 5,
            crashes: vec![EndpointCrash {
                endpoint: EndpointId(1),
                at_frame: 2,
            }],
            restarts: vec![EndpointRestart {
                endpoint: EndpointId(1),
                at_frame: 4,
            }],
            ..FaultPlan::default()
        };
        let (fabric, _) = faulty(plan);
        let rx = fabric.register(EndpointId(1)).unwrap();
        // Frames 0 and 1 land before the crash...
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"a")
            .unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"b")
            .unwrap();
        assert!(!fabric.restarted(EndpointId(1)));
        // ...frames 2 and 3 hit the crash window...
        for _ in 0..2 {
            assert_eq!(
                fabric.send_copied(EndpointId(0), EndpointId(1), b"x"),
                Err(SendError::Disconnected)
            );
        }
        // ...and the endpoint is back for frame 4.
        assert!(fabric.restarted(EndpointId(1)));
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"c")
            .unwrap();
        assert_eq!(fabric.crashed_sends(), 2);
        assert_eq!(
            drain(&rx),
            vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]
        );
    }

    #[test]
    fn parked_doomed_reclassifies_to_deliverable_after_restart() {
        let plan = FaultPlan {
            seed: 8,
            default_link: LinkFaults {
                delay: 1.0,
                delay_frames: 100,
                ..LinkFaults::default()
            },
            crashes: vec![EndpointCrash {
                endpoint: EndpointId(1),
                at_frame: 2,
            }],
            restarts: vec![EndpointRestart {
                endpoint: EndpointId(1),
                at_frame: 4,
            }],
            ..FaultPlan::default()
        };
        let (fabric, _) = faulty(plan);
        let _rx = fabric.register(EndpointId(1)).unwrap();
        // Two frames park before the crash point.
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"a")
            .unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"b")
            .unwrap();
        // Frame 2 hits the crash window: parked frames are doomed while
        // the endpoint is down...
        assert_eq!(
            fabric.send_copied(EndpointId(0), EndpointId(1), b"x"),
            Err(SendError::Disconnected)
        );
        assert_eq!(fabric.parked_split(), (0, 2));
        // ...and frame 3, the last of the window, crosses the restart
        // point: the same parked frames reclassify to deliverable.
        assert_eq!(
            fabric.send_copied(EndpointId(0), EndpointId(1), b"x"),
            Err(SendError::Disconnected)
        );
        assert!(fabric.restarted(EndpointId(1)));
        assert_eq!(fabric.parked_split(), (2, 0));
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"c")
            .unwrap();
        assert_eq!(fabric.parked_split(), (3, 0));
    }

    #[test]
    fn partition_window_loses_frames_then_heals() {
        let plan = FaultPlan {
            seed: 9,
            partitions: vec![Partition {
                a: EndpointId(0),
                b: EndpointId(1),
                from_frame: 1,
                until_frame: 3,
            }],
            ..FaultPlan::default()
        };
        let (fabric, _) = faulty(plan);
        let rx = fabric.register(EndpointId(1)).unwrap();
        for b in [b"0", b"1", b"2", b"3"] {
            fabric.send_copied(EndpointId(0), EndpointId(1), b).unwrap();
        }
        let got = drain(&rx);
        assert_eq!(got, vec![b"0".to_vec(), b"3".to_vec()]);
        assert_eq!(fabric.partition_drops(), 2);
    }

    #[test]
    fn delay_parks_frames_and_preserves_link_fifo() {
        let plan = FaultPlan {
            seed: 2,
            default_link: LinkFaults {
                delay: 1.0,
                delay_frames: 2,
                ..LinkFaults::default()
            },
            ..FaultPlan::default()
        };
        let (fabric, _) = faulty(plan);
        let rx = fabric.register(EndpointId(1)).unwrap();
        for b in [b"0", b"1", b"2", b"3", b"4"] {
            fabric.send_copied(EndpointId(0), EndpointId(1), b).unwrap();
        }
        fabric.flush();
        let got = drain(&rx);
        // All delivered, in order — delayed, never reordered or lost.
        assert_eq!(
            got,
            vec![
                b"0".to_vec(),
                b"1".to_vec(),
                b"2".to_vec(),
                b"3".to_vec(),
                b"4".to_vec()
            ]
        );
        assert!(fabric.delayed() > 0);
    }

    #[test]
    fn queue_depth_excludes_frames_doomed_by_a_crash() {
        let plan = FaultPlan {
            seed: 8,
            default_link: LinkFaults {
                delay: 1.0,
                delay_frames: 100,
                ..LinkFaults::default()
            },
            crashes: vec![EndpointCrash {
                endpoint: EndpointId(1),
                at_frame: 2,
            }],
            ..FaultPlan::default()
        };
        let (fabric, _) = faulty(plan);
        let _rx1 = fabric.register(EndpointId(1)).unwrap();
        let _rx2 = fabric.register(EndpointId(2)).unwrap();

        // Two frames park on the doomed link before the crash point...
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"a")
            .unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"b")
            .unwrap();
        // ...and the crash takes effect.
        assert_eq!(
            fabric.send_copied(EndpointId(0), EndpointId(1), b"c"),
            Err(SendError::Disconnected)
        );
        // A healthy destination parks one deliverable frame.
        fabric
            .send_copied(EndpointId(0), EndpointId(2), b"d")
            .unwrap();

        assert_eq!(fabric.parked_split(), (1, 2));
        // Only the deliverable frame is λ-pressure.
        assert_eq!(fabric.stats().queue_depth, 1);
    }

    #[test]
    fn same_seed_same_faults() {
        let counts = |seed: u64| {
            let (fabric, _) = faulty(FaultPlan::uniform_drops(seed, 0.35));
            let _rx = fabric.register(EndpointId(1)).unwrap();
            for _ in 0..200 {
                fabric
                    .send_copied(EndpointId(0), EndpointId(1), b"x")
                    .unwrap();
            }
            fabric.drops()
        };
        let a = counts(42);
        assert_eq!(a, counts(42));
        assert_ne!(a, 0);
        assert_ne!(a, 200);
        // A different seed picks different victims.
        assert_ne!((a, counts(42)), (counts(43), counts(43)));
    }

    #[test]
    fn per_link_overrides_beat_the_default() {
        let plan = FaultPlan {
            seed: 1,
            default_link: LinkFaults::drops(1.0),
            links: vec![((EndpointId(0), EndpointId(2)), LinkFaults::default())],
            ..FaultPlan::default()
        };
        let (fabric, _) = faulty(plan);
        let rx1 = fabric.register(EndpointId(1)).unwrap();
        let rx2 = fabric.register(EndpointId(2)).unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"x")
            .unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(2), b"y")
            .unwrap();
        assert!(rx1.try_recv().is_err());
        assert_eq!(rx2.recv().unwrap().payload.bytes(), b"y");
    }

    #[test]
    fn fault_counters_sit_on_top_of_the_inner_stats() {
        let (fabric, inner) = faulty(FaultPlan::uniform_drops(4, 1.0));
        let _rx = fabric.register(EndpointId(1)).unwrap();
        fabric
            .send_copied(EndpointId(0), EndpointId(1), b"x")
            .unwrap();
        assert_eq!((fabric.drops(), fabric.duplicates()), (1, 0));
        // A dropped frame never reaches the inner fabric.
        assert_eq!(fabric.stats().messages, 0);
        assert_eq!(fabric.stats(), inner.stats());
    }
}
