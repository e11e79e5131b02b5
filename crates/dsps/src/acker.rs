//! Storm's acker: XOR-ledger tuple tracking for at-least-once semantics.
//!
//! Every tuple emitted by a spout gets a random 64-bit anchor id. Each
//! downstream emit anchors a new random id; each completed execution acks
//! the ids it consumed and produced. The acker XORs everything per tuple
//! tree: since `x ^ x = 0`, the ledger reaches zero exactly when every
//! tuple in the tree has been both anchored and acked — regardless of
//! order — at O(1) memory per tree. A timeout marks trees as failed for
//! replay.
//!
//! Whale changes the messaging layer, not the reliability layer, so the
//! substrate carries Storm's design unchanged.

use crate::tuple::Tuple;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use whale_sim::{SimDuration, SimTime};

/// A tracked id packs a replay attempt above [`ROOT_BITS`] bits of root
/// id (`attempt << ROOT_BITS | root`): every replay registers under a
/// fresh ledger key while executors dedup on the stable root.
pub const ROOT_BITS: u32 = 48;
const ROOT_MASK: u64 = (1 << ROOT_BITS) - 1;

/// The root a tracked id belongs to (stable across replays).
pub fn root_of(tracked: u64) -> u64 {
    tracked & ROOT_MASK
}

/// The replay attempt a tracked id was emitted under (0 = the original).
pub fn attempt_of(tracked: u64) -> u32 {
    (tracked >> ROOT_BITS) as u32
}

/// The tracked id of `root`'s `attempt`.
pub fn tracked_id(root: u64, attempt: u32) -> u64 {
    ((attempt as u64) << ROOT_BITS) | root
}

/// Completion state of one spout tuple tree.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TreeState {
    /// XOR ledger non-zero: executions outstanding.
    Pending,
    /// Ledger hit zero: fully processed.
    Acked,
    /// Timed out before the ledger zeroed: replay needed.
    Failed,
}

/// What the ledger publishes for readers that must not take its lock.
/// Each is one number acted on by itself (stored under the ledger's lock,
/// read `Relaxed`): a stale read only delays what the reader does with
/// it, and a frame naming a root reaches its reader through a channel or
/// a lock that orders the root's registration before it.
#[derive(Debug, Default)]
pub struct LedgerGauges {
    /// Every root below this is resolved — acked, given up on, or never
    /// opened — and will never be tracked again. Never decreases.
    pub resolved_below: AtomicU64,
    /// Every root the ledger has opened is below this.
    pub opened_below: AtomicU64,
    /// Trees pending right now ([`Acker::pending`]).
    pub pending: AtomicU64,
}

impl LedgerGauges {
    /// `[resolved_below, opened_below)`: the roots that can still be
    /// pending. A frame naming any other root is a duplicate of a
    /// resolved tree, or names a tree that never was.
    pub fn live_roots(&self) -> std::ops::Range<u64> {
        let below = self.resolved_below.load(Ordering::Relaxed);
        below..self.opened_below.load(Ordering::Relaxed)
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    /// Ledger non-zero (or not yet armed): executions outstanding.
    Pending,
    /// The current attempt timed out; its owner has yet to replay the
    /// root or give up on it. Late acks are rejected.
    Expired,
    /// Acked, given up on, or skipped over: nothing waits for it.
    Resolved,
}

/// One root of the window.
#[derive(Debug)]
struct Slot {
    ledger: u64,
    started: SimTime,
    attempt: u32,
    owner: u32,
    phase: Phase,
    /// What a replay re-emits: the tuple the spout handed to the routing
    /// layer, shared with it rather than cloned.
    replay: Option<Arc<Tuple>>,
}

/// Owner of a root opened through [`Acker::init`], which names none.
const NO_OWNER: u32 = u32::MAX;

/// One timed-out attempt handed back to its owner by
/// [`Acker::expire_owned`]: replay the root under the next attempt
/// ([`Acker::replay`]) or give up on it ([`Acker::give_up`]).
#[derive(Debug)]
pub struct Expired {
    /// The root whose attempt timed out.
    pub root: u64,
    /// The attempt that timed out (0 = the original emission).
    pub attempt: u32,
    /// The tuple to re-emit.
    pub tuple: Arc<Tuple>,
}

/// The acker task: tracks every in-flight spout tuple by root id, in a
/// **root-indexed window** — roots are handed out densely
/// ([`Acker::track`]), so the tree of root `r` lives in slot `r − base`
/// of a deque and no operation hashes anything. A slot that resolves at
/// the front advances `base` over the resolved prefix and publishes it as
/// [`LedgerGauges::resolved_below`], the watermark the partition logs and
/// the executors' dedup windows trim themselves to.
///
/// The window is as long as the distance from the oldest unresolved root
/// to the newest: while every tree resolves within the timeout that is at
/// most `timeout × emission rate` slots, and one root that never resolves
/// holds it open until its owner expires it and gives up
/// ([`Acker::window_peak`] is the longest it has been).
///
/// Roots open in ascending order. Opening one beyond the newest skips the
/// ones between (they count as resolved); a root below the window is
/// resolved by definition and cannot be opened again.
#[derive(Debug)]
pub struct Acker {
    /// Slot `i` tracks root `base + i`; the front slot is never resolved.
    slots: VecDeque<Slot>,
    base: u64,
    timeout: SimDuration,
    /// Slots in [`Phase::Pending`].
    pending: usize,
    acked: u64,
    failed: u64,
    window_peak: usize,
    gauges: Arc<LedgerGauges>,
}

impl Acker {
    /// Create with the tree-completion `timeout` (Storm's
    /// `topology.message.timeout.secs`).
    pub fn new(timeout: SimDuration) -> Self {
        assert!(!timeout.is_zero());
        Acker {
            slots: VecDeque::new(),
            base: 0,
            timeout,
            pending: 0,
            acked: 0,
            failed: 0,
            window_peak: 0,
            gauges: Arc::default(),
        }
    }

    /// The gauges this ledger keeps current.
    pub fn gauges(&self) -> Arc<LedgerGauges> {
        Arc::clone(&self.gauges)
    }

    /// Track a fresh root for spout task `owner`: the next root id (never
    /// 0, which the wire reads as "untracked"), its ledger at zero until
    /// the routing layer arms it. `tuple` is what a replay re-emits.
    /// Returns the tracked id (attempt 0).
    pub fn track(&mut self, owner: u32, tuple: Arc<Tuple>, now: SimTime) -> u64 {
        let root = (self.base + self.slots.len() as u64).max(1);
        debug_assert!(root <= ROOT_MASK, "root ids stay below 2^ROOT_BITS");
        let slot = Slot {
            ledger: 0,
            started: now,
            attempt: 0,
            owner,
            phase: Phase::Pending,
            replay: Some(tuple),
        };
        self.open(root, slot);
        root
    }

    /// A spout emitted root tuple `tracked` (a root id, with the replay
    /// attempt above [`ROOT_BITS`]) with initial anchor `anchor_id` at
    /// time `now`. A newer attempt supersedes the root's current one.
    pub fn init(&mut self, tracked: u64, anchor_id: u64, now: SimTime) {
        let slot = Slot {
            ledger: anchor_id,
            started: now,
            attempt: attempt_of(tracked),
            owner: NO_OWNER,
            phase: Phase::Pending,
            replay: None,
        };
        self.open(root_of(tracked), slot);
    }

    /// Make `slot` the slot of `root`, growing the window up to it. A
    /// resolved root stays resolved.
    fn open(&mut self, root: u64, slot: Slot) {
        if self.slots.is_empty() && root >= self.base {
            self.base = root;
        }
        let Some(idx) = root.checked_sub(self.base).map(|i| i as usize) else {
            return;
        };
        let newest = idx >= self.slots.len();
        while self.slots.len() <= idx {
            // Skipped-over roots: nothing will ever wait for them.
            self.slots.push_back(Slot {
                phase: Phase::Resolved,
                replay: None,
                ..slot
            });
        }
        let current = &mut self.slots[idx];
        if current.phase == Phase::Resolved && !newest {
            return;
        }
        self.pending += (current.phase != Phase::Pending) as usize;
        *current = slot;
        self.window_peak = self.window_peak.max(self.slots.len());
        self.publish();
    }

    /// Store the gauges (the caller holds whatever lock guards `self`).
    fn publish(&self) {
        let g = &self.gauges;
        g.resolved_below.store(self.base, Ordering::Relaxed);
        let opened = self.base + self.slots.len() as u64;
        g.opened_below.store(opened, Ordering::Relaxed);
        g.pending.store(self.pending as u64, Ordering::Relaxed);
    }

    /// Where `root`'s slot is, if the window holds it.
    fn index_of(&self, root: u64) -> Option<usize> {
        let idx = root.checked_sub(self.base)? as usize;
        (idx < self.slots.len()).then_some(idx)
    }

    /// The slot `tracked` names, if it is pending and still on the
    /// attempt `tracked` was emitted under.
    fn live(&self, tracked: u64) -> Option<usize> {
        let idx = self.index_of(root_of(tracked))?;
        let slot = &self.slots[idx];
        let live = slot.phase == Phase::Pending && slot.attempt == attempt_of(tracked);
        live.then_some(idx)
    }

    /// Mark slot `idx` resolved, let go of its tuple and advance the
    /// window over the resolved prefix.
    fn resolve(&mut self, idx: usize) {
        let slot = &mut self.slots[idx];
        self.pending -= (slot.phase == Phase::Pending) as usize;
        slot.phase = Phase::Resolved;
        slot.replay = None;
        while (self.slots.front()).is_some_and(|s| s.phase == Phase::Resolved) {
            self.slots.pop_front();
            self.base += 1;
        }
        self.publish();
    }

    /// An executor processed a tuple of tree `tracked`: XOR in the
    /// consumed anchor and every newly emitted anchor. Returns the tree
    /// state after the update.
    pub fn ack(&mut self, tracked: u64, xor_of_anchors: u64) -> TreeState {
        let Some(idx) = self.live(tracked) else {
            // Already acked/failed (e.g. late ack after timeout), or an
            // attempt a replay has superseded.
            return TreeState::Failed;
        };
        let slot = &mut self.slots[idx];
        slot.ledger ^= xor_of_anchors;
        if slot.ledger != 0 {
            return TreeState::Pending;
        }
        self.acked += 1;
        self.resolve(idx);
        TreeState::Acked
    }

    /// Time out every pending tree `due` accepts that is older than the
    /// timeout at `now`, handing each to `each` as `(root, slot)`.
    fn expire_where(
        &mut self,
        now: SimTime,
        due: impl Fn(u64, &Slot) -> bool,
        mut each: impl FnMut(u64, &Slot),
    ) {
        let (timeout, base) = (self.timeout, self.base);
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let root = base + i as u64;
            let overdue = slot.phase == Phase::Pending && now.since(slot.started) > timeout;
            if overdue && due(root, slot) {
                slot.phase = Phase::Expired;
                self.pending -= 1;
                self.failed += 1;
                each(root, slot);
            }
        }
        self.publish();
    }

    /// Expire trees older than the timeout at `now`; returns the failed
    /// tracked ids (for spout replay), oldest root first. An expired root
    /// holds the window open until it is opened under a newer attempt
    /// ([`Acker::init`], [`Acker::replay`]) or given up on
    /// ([`Acker::give_up`]).
    pub fn expire(&mut self, now: SimTime) -> Vec<u64> {
        self.expire_matching(now, |_| true)
    }

    /// Like [`Acker::expire`], but only fails trees whose tracked id
    /// satisfies `matches` — lets each spout of a shared acker expire
    /// its own tuples without failing a sibling's.
    pub fn expire_matching(&mut self, now: SimTime, matches: impl Fn(u64) -> bool) -> Vec<u64> {
        let mut expired = Vec::new();
        self.expire_where(
            now,
            |root, slot| matches(tracked_id(root, slot.attempt)),
            |root, slot| expired.push(tracked_id(root, slot.attempt)),
        );
        expired
    }

    /// Expire `owner`'s trees older than the timeout at `now` into `out`
    /// (the trees of [`Acker::track`]; another owner's are not touched).
    /// Returns how many of `owner`'s roots are unresolved, the ones
    /// handed back included.
    pub fn expire_owned(&mut self, owner: u32, now: SimTime, out: &mut Vec<Expired>) -> usize {
        self.expire_where(
            now,
            |_, slot| slot.owner == owner,
            |root, slot| {
                out.extend(slot.replay.clone().map(|tuple| Expired {
                    root,
                    attempt: slot.attempt,
                    tuple,
                }))
            },
        );
        let unresolved = |s: &&Slot| s.owner == owner && s.phase != Phase::Resolved;
        self.slots.iter().filter(unresolved).count()
    }

    /// Re-arm an expired root under its next attempt, ledger at zero.
    /// Returns the tracked id to re-emit under, or `None` if `root` is
    /// not waiting for a replay.
    pub fn replay(&mut self, root: u64, now: SimTime) -> Option<u64> {
        let idx = self.index_of(root)?;
        let slot = &mut self.slots[idx];
        if slot.phase != Phase::Expired {
            return None;
        }
        slot.phase = Phase::Pending;
        slot.attempt += 1;
        slot.ledger = 0;
        slot.started = now;
        let tracked = tracked_id(root, slot.attempt);
        self.pending += 1;
        self.publish();
        Some(tracked)
    }

    /// Resolve `root` without an ack: its replay budget is spent. Late
    /// acks are rejected from here on.
    pub fn give_up(&mut self, root: u64) {
        if let Some(idx) = self.index_of(root) {
            self.resolve(idx);
        }
    }

    /// Give up on every unresolved root of `owner` at once (the drain
    /// deadline); returns how many that was.
    pub fn fail_owned(&mut self, owner: u32) -> u64 {
        let mut given_up = 0;
        for idx in (0..self.slots.len()).rev() {
            let slot = &self.slots[idx];
            if slot.owner == owner && slot.phase != Phase::Resolved {
                self.failed += (slot.phase == Phase::Pending) as u64;
                given_up += 1;
                // Back to front: only the last call can move the front.
                self.resolve(idx);
            }
        }
        given_up
    }

    /// True while `tracked` is still tracked (neither acked nor failed).
    pub fn contains(&self, tracked: u64) -> bool {
        self.live(tracked).is_some()
    }

    /// Trees still pending.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Fully acked trees.
    pub fn acked(&self) -> u64 {
        self.acked
    }

    /// Timed-out trees (attempts, not roots: each replay can time out).
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// What `tracked`'s tree is still owed, while it is pending.
    #[cfg(test)]
    pub(crate) fn ledger_of(&self, tracked: u64) -> Option<u64> {
        self.live(tracked).map(|idx| self.slots[idx].ledger)
    }

    /// The most slots the window has held at once.
    pub fn window_peak(&self) -> usize {
        self.window_peak
    }
}

/// The ledger this module used to be — a map from tracked id to tree —
/// kept as what the window is checked against.
#[cfg(test)]
mod reference {
    use super::TreeState;
    use std::collections::HashMap;
    use whale_sim::{SimDuration, SimTime};

    #[derive(Clone, Copy, Debug)]
    struct Entry {
        ledger: u64,
        started: SimTime,
    }

    #[derive(Debug)]
    pub struct MapAcker {
        entries: HashMap<u64, Entry>,
        timeout: SimDuration,
        acked: u64,
        failed: u64,
    }

    impl MapAcker {
        pub fn new(timeout: SimDuration) -> Self {
            MapAcker {
                entries: HashMap::new(),
                timeout,
                acked: 0,
                failed: 0,
            }
        }

        pub fn init(&mut self, root_id: u64, anchor_id: u64, now: SimTime) {
            let (ledger, started) = (anchor_id, now);
            self.entries.insert(root_id, Entry { ledger, started });
        }

        pub fn ack(&mut self, root_id: u64, xor_of_anchors: u64) -> TreeState {
            let Some(entry) = self.entries.get_mut(&root_id) else {
                return TreeState::Failed;
            };
            entry.ledger ^= xor_of_anchors;
            if entry.ledger == 0 {
                self.entries.remove(&root_id);
                self.acked += 1;
                TreeState::Acked
            } else {
                TreeState::Pending
            }
        }

        pub fn expire_matching(&mut self, now: SimTime, matches: impl Fn(u64) -> bool) -> Vec<u64> {
            let timeout = self.timeout;
            let mut expired: Vec<u64> = self
                .entries
                .iter()
                .filter(|(&id, e)| matches(id) && now.since(e.started) > timeout)
                .map(|(&id, _)| id)
                .collect();
            for id in &expired {
                self.entries.remove(id);
                self.failed += 1;
            }
            expired.sort_unstable();
            expired
        }

        pub fn contains(&self, root_id: u64) -> bool {
            self.entries.contains_key(&root_id)
        }

        pub fn pending(&self) -> usize {
            self.entries.len()
        }

        pub fn acked(&self) -> u64 {
            self.acked
        }

        pub fn failed(&self) -> u64 {
            self.failed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::MapAcker;
    use super::*;
    use crate::tuple::Value;
    use proptest::prelude::*;
    use whale_sim::SimRng;

    fn acker() -> Acker {
        Acker::new(SimDuration::from_secs(30))
    }

    fn tuple(n: u64) -> Arc<Tuple> {
        Arc::new(Tuple::with_id(n, vec![Value::I64(n as i64)]))
    }

    #[test]
    fn linear_chain_completes() {
        // spout → A → B (leaf).
        let mut a = acker();
        let root = 7;
        let anchor0 = 0xDEAD;
        a.init(root, anchor0, SimTime::ZERO);

        // A consumes anchor0 and emits one tuple with a fresh anchor1: it
        // reports the consumed anchor XOR every emitted one.
        let anchor1 = SimRng::new(1).next_u64().max(1);
        assert_eq!(a.ack(root, anchor0 ^ anchor1), TreeState::Pending);

        // B consumes anchor1, emits nothing.
        assert_eq!(a.ack(root, anchor1), TreeState::Acked);
        assert_eq!(a.acked(), 1);
        assert_eq!(a.pending(), 0);
    }

    #[test]
    fn fanout_tree_completes_in_any_order() {
        // spout tuple broadcast to 8 instances, each a leaf.
        let mut a = acker();
        let root = 1;
        let mut rng = SimRng::new(9);
        // The spout anchors one id per downstream branch: ledger starts as
        // the XOR of all branch anchors.
        let anchors: Vec<u64> = (0..8).map(|_| rng.next_u64().max(1)).collect();
        let init: u64 = anchors.iter().fold(0, |x, &a| x ^ a);
        a.init(root, init, SimTime::ZERO);
        // Leaves ack in a scrambled order.
        let mut order = anchors.clone();
        rng.shuffle(&mut order);
        for (i, &anchor) in order.iter().enumerate() {
            let state = a.ack(root, anchor);
            if i + 1 == order.len() {
                assert_eq!(state, TreeState::Acked);
            } else {
                assert_eq!(state, TreeState::Pending, "i={i}");
            }
        }
    }

    #[test]
    fn relay_armed_tree_survives_stragglers_after_completion() {
        // The relay path arms every destination's anchor *before* the
        // frame departs, so acks crossing several relay hops land on a
        // fully-armed ledger in whatever order the tree delivers them —
        // here deepest subtree first. A straggling duplicate ack (a
        // replayed frame whose executor-side dedup raced completion)
        // reports `Failed` harmlessly instead of reviving the tree.
        let mut a = acker();
        let anchors = [3u64, 5, 9, 17];
        let armed = anchors.iter().fold(0u64, |x, &v| x ^ v);
        a.init(1, armed, SimTime::ZERO);
        for (i, &anchor) in anchors.iter().enumerate().rev() {
            let state = a.ack(1, anchor);
            if i == 0 {
                assert_eq!(state, TreeState::Acked);
            } else {
                assert_eq!(state, TreeState::Pending, "i={i}");
            }
        }
        assert_eq!(a.acked(), 1);
        assert_eq!(a.ack(1, anchors[2]), TreeState::Failed);
        assert_eq!(a.pending(), 0, "late ack must not re-create the tree");
        assert_eq!(a.acked(), 1);
    }

    #[test]
    fn deep_tree_with_intermediate_emits() {
        let mut a = acker();
        let root = 2;
        let spout_anchor = 0x1234_5678;
        a.init(root, spout_anchor, SimTime::ZERO);
        // Stage 1 consumes the spout anchor and emits 3 tuples.
        let mut rng = SimRng::new(5);
        let children: Vec<u64> = (0..3).map(|_| rng.next_u64().max(1)).collect();
        let s1 = children.iter().fold(spout_anchor, |x, &c| x ^ c);
        assert_eq!(a.ack(root, s1), TreeState::Pending);
        // Stage 2: each child is a leaf, reporting only what it consumed.
        for (i, &c) in children.iter().enumerate() {
            let state = a.ack(root, c);
            if i == 2 {
                assert_eq!(state, TreeState::Acked);
            } else {
                assert_eq!(state, TreeState::Pending);
            }
        }
    }

    #[test]
    fn timeout_fails_stragglers() {
        let mut a = Acker::new(SimDuration::from_millis(100));
        a.init(1, 0xAA, SimTime::ZERO);
        a.init(2, 0xBB, SimTime::from_millis(90));
        let failed = a.expire(SimTime::from_millis(150));
        assert_eq!(failed, vec![1]);
        assert_eq!(a.failed(), 1);
        assert_eq!(a.pending(), 1);
        // The late ack for the failed tree is rejected.
        assert_eq!(a.ack(1, 0xAA), TreeState::Failed);
        // Tree 2 can still complete.
        assert_eq!(a.ack(2, 0xBB), TreeState::Acked);
    }

    #[test]
    fn expire_matching_spares_other_owners() {
        let mut a = Acker::new(SimDuration::from_millis(100));
        a.init(1, 0xAA, SimTime::ZERO);
        a.init(2, 0xBB, SimTime::ZERO);
        let failed = a.expire_matching(SimTime::from_millis(500), |id| id == 1);
        assert_eq!(failed, vec![1]);
        assert!(!a.contains(1));
        assert!(a.contains(2));
        assert_eq!(a.failed(), 1);
        // The unmatched tree is still live and completable.
        assert_eq!(a.ack(2, 0xBB), TreeState::Acked);
        assert!(!a.contains(2));
    }

    #[test]
    fn partial_tree_stays_pending() {
        let mut a = acker();
        a.init(1, 0xF0F0, SimTime::ZERO);
        assert_eq!(a.ack(1, 0x0F0F), TreeState::Pending);
        assert_eq!(a.pending(), 1);
        assert_eq!(a.ack(1, 0xFFFF), TreeState::Acked);
    }

    #[test]
    fn tracked_roots_are_dense_from_one_and_the_watermark_follows_the_oldest() {
        let mut a = acker();
        let g = a.gauges();
        assert_eq!(g.live_roots(), 0..0);
        let ids: Vec<u64> = (0..4)
            .map(|n| a.track(7, tuple(n), SimTime::ZERO))
            .collect();
        assert_eq!(ids, [1, 2, 3, 4], "0 reads as untracked on the wire");
        assert_eq!(g.live_roots(), 1..5);
        for &id in &ids {
            assert_eq!(a.ack(id, 0xA0 + id), TreeState::Pending, "armed");
        }
        // Out of order: 2 and 3 resolve behind the unresolved 1.
        assert_eq!(a.ack(3, 0xA3), TreeState::Acked);
        assert_eq!(a.ack(2, 0xA2), TreeState::Acked);
        assert_eq!(g.live_roots(), 1..5);
        assert_eq!(g.pending.load(Ordering::Relaxed), 2);
        // 1 resolves: the window advances over the whole resolved prefix.
        assert_eq!(a.ack(1, 0xA1), TreeState::Acked);
        assert_eq!(g.live_roots(), 4..5);
        assert_eq!(a.ack(2, 0xA2), TreeState::Failed, "below the window");
        assert_eq!(a.ack(4, 0xA4), TreeState::Acked);
        assert_eq!(g.live_roots(), 5..5);
        assert_eq!((a.acked(), a.pending(), a.window_peak()), (4, 0, 4));
        // An empty window starts again where it stopped.
        assert_eq!(a.track(7, tuple(9), SimTime::ZERO), 5);
    }

    #[test]
    fn an_expired_root_holds_the_window_until_replayed_or_given_up() {
        let mut a = Acker::new(SimDuration::from_millis(100));
        let g = a.gauges();
        let (mine, theirs) = (3, 4);
        let first = a.track(mine, tuple(10), SimTime::ZERO);
        let other = a.track(theirs, tuple(11), SimTime::ZERO);
        let second = a.track(mine, tuple(12), SimTime::from_millis(90));
        let mut out = Vec::new();
        let unresolved = a.expire_owned(mine, SimTime::from_millis(150), &mut out);
        // Only the owner's overdue root; the sibling's is not touched.
        assert_eq!(unresolved, 2);
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].root, out[0].attempt), (first, 0));
        assert_eq!(out[0].tuple.id, 10, "the tuple the spout handed over");
        assert!(!a.contains(first) && a.contains(other) && a.contains(second));
        assert_eq!(
            a.ack(first, 0),
            TreeState::Failed,
            "late ack of the expired attempt"
        );
        assert_eq!(g.live_roots(), 1..4, "expired is not resolved");
        // Replay: a fresh ledger key on the same slot.
        let replay = a.replay(first, SimTime::from_millis(150)).unwrap();
        assert_eq!(replay, tracked_id(first, 1));
        assert_eq!(a.replay(first, SimTime::from_millis(150)), None, "once");
        assert_eq!(a.ack(replay, 0x5), TreeState::Pending);
        assert_eq!(a.ack(first, 0x5), TreeState::Failed, "superseded");
        // It times out again and its owner gives up.
        out.clear();
        a.expire_owned(mine, SimTime::from_millis(300), &mut out);
        let expired: Vec<_> = out.iter().map(|e| (e.root, e.attempt)).collect();
        assert_eq!(expired, [(first, 1), (second, 0)]);
        a.give_up(first);
        assert_eq!(g.live_roots(), 2..4);
        assert_eq!(a.ack(replay, 0x5), TreeState::Failed);
        // The drain deadline: everything the owner still has, at once.
        assert_eq!(a.fail_owned(mine), 1);
        assert_eq!(a.fail_owned(mine), 0);
        assert_eq!(g.live_roots(), 2..4, "the sibling's root is still live");
        assert_eq!(a.ack(other, 0), TreeState::Acked);
        assert_eq!(g.live_roots(), 4..4);
        assert_eq!((a.acked(), a.failed(), a.pending()), (1, 3, 0));
    }

    #[test]
    fn roots_open_in_ascending_order_and_resolve_once() {
        let mut a = acker();
        a.init(7, 0xA, SimTime::ZERO);
        assert_eq!(
            a.gauges().live_roots(),
            7..8,
            "an empty window starts anywhere"
        );
        // Skipping ahead resolves what is skipped.
        a.init(10, 0xB, SimTime::ZERO);
        assert_eq!(a.pending(), 2);
        a.init(8, 0xC, SimTime::ZERO);
        assert!(!a.contains(8), "skipped over");
        a.init(3, 0xD, SimTime::ZERO);
        assert!(!a.contains(3), "below the window");
        assert_eq!(a.ack(10, 0xB), TreeState::Acked);
        a.init(10, 0xB, SimTime::ZERO);
        assert!(!a.contains(10), "a root resolves once");
        assert_eq!(a.ack(7, 0xA), TreeState::Acked);
        assert_eq!(a.gauges().live_roots(), 11..11);
        assert_eq!((a.acked(), a.pending()), (2, 0));
    }

    /// What the driver below knows of one root it opened.
    struct Known {
        owner: u32,
        attempt: u32,
        /// The id of the tuple handed over with the root.
        tuple: u64,
        anchors: [u64; 3],
        /// Expired and waiting for its owner's decision.
        awaiting: bool,
        resolved: bool,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random interleavings of everything the live runtime does to
        /// its ledger, by two owners: the window and the map return the
        /// same state from every call and agree on every counter, on
        /// membership of every id ever issued and on every expired set;
        /// the published watermark is the oldest unresolved root.
        #[test]
        fn windowed_ledger_equals_map_ledger(
            script in proptest::collection::vec((0u8..9, any::<u64>()), 0..160),
        ) {
            let timeout = SimDuration::from_nanos(100);
            let (mut window, mut map) = (Acker::new(timeout), MapAcker::new(timeout));
            let gauges = window.gauges();
            let mut now = 0u64;
            // Root r is `known[r - 1]`.
            let mut known: Vec<Known> = Vec::new();
            let owner_of = |known: &[Known], id: u64| known[root_of(id) as usize - 1].owner;
            let mut issued: Vec<u64> = Vec::new();
            for (op, arg) in script {
                let at = SimTime::from_nanos(now);
                let pick = (!known.is_empty()).then(|| (arg >> 8) as usize % known.len().max(1));
                match (op, pick) {
                    // A spout emits: register, then arm.
                    (0, _) => {
                        let owner = (arg % 2) as u32;
                        let id = window.track(owner, tuple(arg), at);
                        prop_assert_eq!(id, known.len() as u64 + 1);
                        map.init(id, 0, at);
                        let mut rng = SimRng::new(arg);
                        let anchors = [(); 3].map(|()| rng.next_u64() | 1);
                        let arm = anchors[0] ^ anchors[1] ^ anchors[2];
                        prop_assert_eq!(window.ack(id, arm), map.ack(id, arm));
                        known.push(Known {
                            owner,
                            attempt: 0,
                            tuple: arg,
                            anchors,
                            awaiting: false,
                            resolved: false,
                        });
                        issued.push(id);
                    }
                    // An executor acks one anchor of the current attempt
                    // (possibly one it acked before: XOR puts it back).
                    (1..=3, Some(i)) => {
                        let k = &known[i];
                        let id = tracked_id(i as u64 + 1, k.attempt);
                        let anchor = k.anchors[arg as usize % 3];
                        let state = window.ack(id, anchor);
                        prop_assert_eq!(state, map.ack(id, anchor));
                        if state == TreeState::Acked {
                            known[i].resolved = true;
                        }
                    }
                    // A late ack of an attempt that is not current.
                    (4, Some(i)) => {
                        let stale = tracked_id(i as u64 + 1, known[i].attempt + 1 + (arg % 2) as u32);
                        prop_assert_eq!(window.ack(stale, 1), TreeState::Failed);
                        prop_assert_eq!(map.ack(stale, 1), TreeState::Failed);
                        if known[i].attempt > 0 {
                            let old = tracked_id(i as u64 + 1, known[i].attempt - 1);
                            prop_assert_eq!(window.ack(old, 1), map.ack(old, 1));
                        }
                    }
                    // Time passes and one owner expires its own trees.
                    (5, _) => {
                        now += arg % 120;
                        let at = SimTime::from_nanos(now);
                        let owner = ((arg >> 8) % 2) as u32;
                        let mut out = Vec::new();
                        let unresolved = window.expire_owned(owner, at, &mut out);
                        let mine = |id| owner_of(&known, id) == owner;
                        let expected = map.expire_matching(at, mine);
                        let ids = out.iter().map(|e| tracked_id(e.root, e.attempt));
                        let mut got: Vec<u64> = ids.collect();
                        got.sort_unstable();
                        prop_assert_eq!(&got, &expected);
                        for e in &out {
                            let k = &mut known[e.root as usize - 1];
                            prop_assert_eq!(e.tuple.id, k.tuple, "the replay handle");
                            k.awaiting = true;
                        }
                        let open = known.iter().filter(|k| k.owner == owner && !k.resolved).count();
                        prop_assert_eq!(unresolved, open);
                    }
                    // Time passes and everything overdue expires.
                    (6, _) => {
                        now += arg % 120;
                        let at = SimTime::from_nanos(now);
                        let mut got = window.expire(at);
                        got.sort_unstable();
                        prop_assert_eq!(&got, &map.expire_matching(at, |_| true));
                        for id in got {
                            known[root_of(id) as usize - 1].awaiting = true;
                        }
                    }
                    // An expired root is replayed under a fresh attempt,
                    // or given up on.
                    (7, Some(i)) if known[i].awaiting => {
                        let root = i as u64 + 1;
                        known[i].awaiting = false;
                        if arg % 4 == 0 {
                            window.give_up(root);
                            known[i].resolved = true;
                            continue;
                        }
                        let id = window.replay(root, at);
                        known[i].attempt += 1;
                        prop_assert_eq!(id, Some(tracked_id(root, known[i].attempt)));
                        let id = id.unwrap();
                        map.init(id, 0, at);
                        let a = known[i].anchors;
                        let arm = a[0] ^ a[1] ^ a[2];
                        prop_assert_eq!(window.ack(id, arm), map.ack(id, arm));
                        issued.push(id);
                    }
                    // The drain deadline of one owner.
                    (8, _) if arg % 8 == 0 => {
                        let owner = ((arg >> 8) % 2) as u32;
                        let mine = |id| owner_of(&known, id) == owner;
                        let pending = map.expire_matching(SimTime::MAX, mine).len();
                        let waiting = known.iter().filter(|k| k.owner == owner && k.awaiting).count();
                        prop_assert_eq!(window.fail_owned(owner), (pending + waiting) as u64);
                        for k in known.iter_mut().filter(|k| k.owner == owner) {
                            k.resolved = true;
                            k.awaiting = false;
                        }
                    }
                    _ => {}
                }
                prop_assert_eq!(window.acked(), map.acked());
                prop_assert_eq!(window.failed(), map.failed());
                prop_assert_eq!(window.pending(), map.pending());
                for &id in &issued {
                    prop_assert_eq!(window.contains(id), map.contains(id), "{:#x}", id);
                }
                let oldest = known.iter().position(|k| !k.resolved).unwrap_or(known.len());
                let live = gauges.live_roots();
                if !known.is_empty() {
                    prop_assert_eq!(live, oldest as u64 + 1..known.len() as u64 + 1);
                }
                prop_assert_eq!(gauges.pending.load(Ordering::Relaxed), map.pending() as u64);
            }
        }
    }
}
