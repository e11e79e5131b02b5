//! The receive side of a registered endpoint, and the queue that feeds it.
//!
//! Every endpoint owns one queue: a `VecDeque` of frames behind one
//! mutex, with a condvar its reader blocks on. Every hand-off — a per-send
//! frame, a ring pass's flushed slice, a one-sided fetch's run of one link
//! — pushes under that one lock and counts what it delivered
//! there, with plain stores: the lock already orders the writers, so the
//! counts take no read-modify-write of their own. A bounded endpoint's
//! capacity is checked under the same lock.
//!
//! [`Inbox`] is the reader's side. A receive that has nothing left of its
//! last take swaps everything queued into that local remainder in one
//! lock, and gives frames out of it with none. `len` is exact: frames
//! pushed (written under the lock) less frames given out (written by the
//! reader alone). On the buffered transports (ring, one-sided) the reader
//! is also its endpoint's drainer: a receive that finds the queue empty
//! first runs the endpoint's own pass on the caller's thread — the ring's
//! frames that MMS/WTL flushed, or a fetch of the destination's inbound
//! links by sequence number — and a blocking receive bounds its wait by
//! the pass's next WTL deadline.
//!
//! A reader with nothing to read sets `waiting` under the lock and waits
//! on the condvar. A hand-off that finds `waiting` set clears it and
//! notifies, after releasing the lock: once per wait, however many frames
//! follow before the reader runs. A buffered post wakes a blocked reader
//! only when the reader could otherwise sleep past it (the policy decides
//! when: an idle ring turning pending or an MMS crossing; any one-sided
//! publish). The two sides meet Dekker-style on the endpoint's `Port`:
//! the reader sets `parked`, fences and reads `pending` before it blocks;
//! a post raises `pending`, fences and reads `parked` — one of the two
//! always sees the other. The elected post sets `woken` under the queue
//! lock, which sends the reader back to its pass. No frame carries a
//! wake-up, while [`FabricPath::wake`](crate::FabricPath::wake)'s empty
//! frame stays a frame.

use crate::fabric::{LiveMessage, Payload};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// [`Inbox::try_recv`] found no frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TryRecvError {
    /// Nothing is queued now.
    Empty,
    /// The endpoint was deregistered, or its transport dropped, and
    /// everything queued before has been received.
    Disconnected,
}

/// [`Inbox::recv_timeout`] found no frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecvTimeoutError {
    /// The timeout elapsed.
    Timeout,
    /// As [`TryRecvError::Disconnected`].
    Disconnected,
}

/// [`Inbox::recv`]: the endpoint is gone and its queue drained.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RecvError;

/// Bump `counter`, which only holders of one lock write: a plain load and
/// store.
#[inline]
fn bump(counter: &AtomicU64, by: u64) {
    counter.store(counter.load(Ordering::Relaxed) + by, Ordering::Relaxed);
}

/// What a buffered endpoint's posts and its reader share outside any lock.
#[derive(Default)]
pub(crate) struct Port {
    /// Frames accepted for the endpoint and not yet handed to its queue
    /// (or dropped) — raised and lowered under the lock of the buffer that
    /// holds the frame, so it is exact there.
    pending: AtomicU64,
    /// Set while the reader is about to block, or blocked, on its queue.
    parked: AtomicBool,
}

impl Port {
    /// Frames buffered for the endpoint.
    pub(crate) fn pending(&self) -> u64 {
        self.pending.load(Ordering::SeqCst)
    }

    /// Count a frame just put in the buffer (under the buffer's lock, so
    /// a pass that reads the count finds the frame once it takes the
    /// lock).
    pub(crate) fn accept(&self) {
        self.pending.fetch_add(1, Ordering::SeqCst);
    }

    /// `n` frames left the buffer, delivered or dropped.
    pub(crate) fn settle(&self, n: u64) {
        if n > 0 {
            self.pending.fetch_sub(n, Ordering::SeqCst);
        }
    }

    /// For a post that has just been [`accept`](Self::accept)ed and leaves
    /// the reader something to do now: true when the reader is blocked (or
    /// about to block) and this post is the one elected to wake it.
    fn claim_wake(&self) -> bool {
        fence(Ordering::SeqCst);
        self.parked.load(Ordering::SeqCst) && self.parked.swap(false, Ordering::SeqCst)
    }
}

/// What a queue has delivered: the per-endpoint share of
/// [`FabricStats`](crate::FabricStats)'s counts. A queue's are written
/// under its lock; the transport's totals, which deregistered endpoints
/// fold into, with read-modify-writes.
#[derive(Default)]
pub(crate) struct Tally {
    pub(crate) messages: AtomicU64,
    pub(crate) copied_bytes: AtomicU64,
    pub(crate) shared_bytes: AtomicU64,
    /// Frames handed over as a [`Payload::Slice`].
    pub(crate) sliced_frames: AtomicU64,
    /// Hand-offs and posts that woke the reader.
    pub(crate) doorbell_rings: AtomicU64,
}

impl Tally {
    /// The five counts, in field order.
    pub(crate) fn counts(&self) -> [&AtomicU64; 5] {
        [
            &self.messages,
            &self.copied_bytes,
            &self.shared_bytes,
            &self.sliced_frames,
            &self.doorbell_rings,
        ]
    }
}

/// Why a queue takes no frame.
pub(crate) enum Shut {
    /// Its entry left the endpoint table (deregistered, or the transport
    /// dropped): a sender holding the queue resolves the endpoint again.
    Closed,
    /// Its reader dropped the inbox: frames for it are lost.
    Gone,
}

/// What the queue's lock guards.
#[derive(Default)]
struct Held {
    frames: VecDeque<LiveMessage>,
    closed: bool,
    gone: bool,
    /// The reader waits on the condvar: the next hand-off notifies it.
    waiting: bool,
    /// A buffered post asked the reader to pass again.
    woken: bool,
}

/// An endpoint's queue. See the module docs.
pub(crate) struct Queue {
    held: Mutex<Held>,
    ready: Condvar,
    /// Frames ever pushed: written under the lock.
    pushed: AtomicU64,
    /// Frames the reader has given out: written by the reader alone.
    taken: AtomicU64,
    /// Most frames pushed and not yet given out (`u64::MAX`: unbounded):
    /// what [`FabricPath::register_bounded`](crate::FabricPath::register_bounded)
    /// asked for, however they were handed over.
    capacity: u64,
    pub(crate) tally: Tally,
    pub(crate) port: Port,
}

impl Queue {
    /// The queue of an endpoint whose inbox holds at most `capacity`
    /// frames (`None`: unbounded).
    pub(crate) fn new(capacity: Option<usize>) -> Self {
        Queue {
            held: Mutex::default(),
            ready: Condvar::new(),
            pushed: AtomicU64::new(0),
            taken: AtomicU64::new(0),
            capacity: capacity.map_or(u64::MAX, |c| c as u64),
            tally: Tally::default(),
            port: Port::default(),
        }
    }

    #[inline]
    fn lock(&self) -> MutexGuard<'_, Held> {
        self.held.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The reader waits on the condvar now.
    #[cfg(test)]
    pub(crate) fn reader_waits(&self) -> bool {
        self.lock().waiting
    }

    /// Frames pushed and not yet given out.
    pub(crate) fn depth(&self) -> u64 {
        let taken = self.taken.load(Ordering::Acquire);
        self.pushed.load(Ordering::Acquire) - taken
    }

    /// Open the queue for a hand-off: its lock, until
    /// [`Inflow::finish`].
    #[inline]
    pub(crate) fn inflow(&self) -> Result<Inflow<'_>, Shut> {
        let held = self.lock();
        if held.closed {
            return Err(Shut::Closed);
        }
        if held.gone {
            return Err(Shut::Gone);
        }
        let pushed = self.pushed.load(Ordering::Relaxed);
        let room = if self.capacity == u64::MAX {
            u64::MAX
        } else {
            // Stale only towards full: the reader gives frames out after
            // it took them under this lock.
            let held_now = pushed - self.taken.load(Ordering::Acquire);
            self.capacity.saturating_sub(held_now)
        };
        Ok(Inflow {
            queue: self,
            held,
            room,
            pushed,
            frames: 0,
            counts: [0; 4],
        })
    }

    /// The entry left the endpoint table: refuse every later hand-off and
    /// let the reader see `Disconnected` once it has taken what is queued.
    pub(crate) fn close(&self) {
        let mut held = self.lock();
        held.closed = true;
        self.release(held);
    }

    /// A buffered post just [`accept`](Port::accept)ed leaves the reader
    /// something to do now: send it back to its pass if it is blocked, or
    /// about to block. Call after releasing the buffer's lock: a reader
    /// woken under it would preempt its waker on a shared core only to
    /// block on that lock.
    pub(crate) fn wake_reader(&self) {
        if !self.port.claim_wake() {
            return;
        }
        let mut held = self.lock();
        held.woken = true;
        bump(&self.tally.doorbell_rings, 1);
        self.release(held);
    }

    /// Release the lock, and wake the reader if it waits: once per wait,
    /// since the flag is cleared here.
    fn release(&self, mut held: MutexGuard<'_, Held>) {
        let notify = std::mem::take(&mut held.waiting);
        drop(held);
        if notify {
            self.ready.notify_one();
        }
    }
}

/// A hand-off in progress: the queue's lock, the room left and what has
/// been pushed so far.
pub(crate) struct Inflow<'a> {
    queue: &'a Queue,
    held: MutexGuard<'a, Held>,
    room: u64,
    /// `queue.pushed` as the hand-off found it.
    pushed: u64,
    /// Frames pushed so far, counted or not.
    frames: u64,
    /// Messages, copied bytes, shared bytes and sliced frames pushed so
    /// far.
    counts: [u64; 4],
}

impl Inflow<'_> {
    /// Frames the queue has room for now.
    pub(crate) fn room(&self) -> u64 {
        self.room
    }

    /// Push a frame the transport counts. The caller checked the room.
    #[inline]
    pub(crate) fn push(&mut self, msg: LiveMessage) {
        let bytes = msg.payload.len() as u64;
        match msg.payload {
            Payload::Copied(_) => self.counts[1] += bytes,
            Payload::Shared(_) => self.counts[2] += bytes,
            Payload::Slice(..) => {
                self.counts[2] += bytes;
                self.counts[3] += 1;
            }
        }
        self.counts[0] += 1;
        self.push_uncounted(msg);
    }

    /// Push a frame outside every count
    /// ([`FabricPath::wake`](crate::FabricPath::wake)'s).
    #[inline]
    pub(crate) fn push_uncounted(&mut self, msg: LiveMessage) {
        debug_assert!(self.room > 0, "a hand-off checks the room first");
        self.held.frames.push_back(msg);
        self.room -= 1;
        self.frames += 1;
    }

    /// Settle the counts, release the lock and wake a waiting reader.
    #[inline]
    pub(crate) fn finish(self) {
        let Inflow {
            queue,
            held,
            pushed,
            frames,
            counts,
            ..
        } = self;
        if frames == 0 {
            return;
        }
        queue.pushed.store(pushed + frames, Ordering::Release);
        let tally = queue.tally.counts();
        for (counter, by) in tally.into_iter().zip(counts) {
            if by > 0 {
                bump(counter, by);
            }
        }
        if held.waiting {
            bump(&queue.tally.doorbell_rings, 1);
        }
        queue.release(held);
    }
}

/// Why a blocking receive stopped waiting without a frame.
enum Woke {
    /// The buffered endpoint's pass is due, or a post asked for one.
    Pass,
    Timeout,
    Disconnected,
}

/// A registered endpoint's receive side. See the module docs.
///
/// A buffered endpoint's receives run passes on the wall clock while its
/// transport lives: a deterministic caller driving a virtual clock
/// (`pump`, `flush_at`, `fetch_all`) receives after its own pass.
pub struct Inbox {
    queue: Arc<Queue>,
    /// A buffered endpoint's pass, run now: how long until it next needs
    /// one (`None` on the per-send transport, which buffers nothing, and
    /// once the transport is gone).
    pass: Option<Box<dyn Fn() -> Option<Duration> + Send>>,
    /// What is left of the last take, oldest first.
    rest: RefCell<VecDeque<LiveMessage>>,
    /// Frames given out so far; `queue.taken` mirrors it.
    taken: Cell<u64>,
}

// `try_recv` and `len` are `#[inline]`: a pipeline calls both on every
// scheduling pass, and the call across the crate boundary measured ≈ 7 ns
// of a ≈ 100 ns per-send send + receive.
impl Inbox {
    pub(crate) fn new(
        queue: Arc<Queue>,
        pass: Option<Box<dyn Fn() -> Option<Duration> + Send>>,
    ) -> Self {
        Inbox {
            queue,
            pass,
            rest: RefCell::default(),
            taken: Cell::new(0),
        }
    }

    /// Run the endpoint's pass if anything is buffered for it — one atomic
    /// load when nothing is — and return how long until it next needs one.
    fn refill(&self) -> Option<Duration> {
        let pass = self.pass.as_ref()?;
        if self.queue.port.pending() == 0 {
            return None;
        }
        pass()
    }

    /// The next frame of the last take, if any is left.
    #[inline]
    fn next_of_rest(&self) -> Option<LiveMessage> {
        let msg = self.rest.borrow_mut().pop_front()?;
        let taken = self.taken.get() + 1;
        self.taken.set(taken);
        self.queue.taken.store(taken, Ordering::Release);
        Some(msg)
    }

    /// Everything queued, swapped into the (empty) remainder under one
    /// lock.
    fn take(&self) -> Result<(), TryRecvError> {
        let mut held = self.queue.lock();
        if held.frames.is_empty() {
            return Err(if held.closed {
                TryRecvError::Disconnected
            } else {
                TryRecvError::Empty
            });
        }
        std::mem::swap(&mut held.frames, &mut *self.rest.borrow_mut());
        Ok(())
    }

    /// Take a frame without blocking: the queue's next, or, when it is
    /// empty, the next the endpoint's pass puts there.
    #[inline]
    pub fn try_recv(&self) -> Result<LiveMessage, TryRecvError> {
        if let Some(msg) = self.next_of_rest() {
            return Ok(msg);
        }
        let mut taken = self.take();
        if taken == Err(TryRecvError::Empty) && self.pass.is_some() {
            self.refill();
            taken = self.take();
        }
        taken?;
        self.next_of_rest().ok_or(TryRecvError::Empty)
    }

    /// Block until a frame arrives or the endpoint is deregistered.
    pub fn recv(&self) -> Result<LiveMessage, RecvError> {
        self.recv_until(None).map_err(|_| RecvError)
    }

    /// Block until a frame arrives, `timeout` elapses or the endpoint is
    /// deregistered.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<LiveMessage, RecvTimeoutError> {
        self.recv_until(Instant::now().checked_add(timeout))
    }

    /// Frames a receive can take now; runs the endpoint's pass first.
    #[inline]
    pub fn len(&self) -> usize {
        if self.pass.is_some() {
            self.refill();
        }
        (self.queue.pushed.load(Ordering::Acquire) - self.taken.get()) as usize
    }

    /// True if [`len`](Self::len) is 0.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The blocking receive until `deadline` (`None`: forever). A
    /// buffered endpoint passes and reads; with nothing to read, it blocks
    /// until a hand-off or a post wakes the reader, the pass's next
    /// deadline falls due, or `deadline`.
    fn recv_until(&self, deadline: Option<Instant>) -> Result<LiveMessage, RecvTimeoutError> {
        let port = &self.queue.port;
        loop {
            if let Some(msg) = self.next_of_rest() {
                return Ok(msg);
            }
            let mut pass_at = None;
            if self.pass.is_some() {
                // `parked` is visible before the pass reads `pending`: a
                // post either lands in this pass or sees the flag and
                // wakes us.
                port.parked.store(true, Ordering::SeqCst);
                fence(Ordering::SeqCst);
                pass_at = self.refill().map(|due| Instant::now() + due);
            }
            let woke = self.wait(deadline, pass_at);
            if self.pass.is_some() {
                port.parked.store(false, Ordering::SeqCst);
            }
            match woke {
                None | Some(Woke::Pass) => {}
                Some(Woke::Timeout) => return Err(RecvTimeoutError::Timeout),
                Some(Woke::Disconnected) => return Err(RecvTimeoutError::Disconnected),
            }
        }
    }

    /// Wait under the queue's lock until something is queued (`None`: it
    /// is in the remainder now), the queue closes, a post asks for a
    /// pass, `pass_at` or `deadline`.
    fn wait(&self, deadline: Option<Instant>, pass_at: Option<Instant>) -> Option<Woke> {
        let mut held = self.queue.lock();
        loop {
            if !held.frames.is_empty() {
                std::mem::swap(&mut held.frames, &mut *self.rest.borrow_mut());
                return None;
            }
            if held.closed {
                return Some(Woke::Disconnected);
            }
            if std::mem::take(&mut held.woken) {
                return Some(Woke::Pass);
            }
            let now = Instant::now();
            if deadline.is_some_and(|at| now >= at) {
                return Some(Woke::Timeout);
            }
            if pass_at.is_some_and(|at| now >= at) {
                return Some(Woke::Pass);
            }
            held.waiting = true;
            held = match deadline.into_iter().chain(pass_at).min() {
                Some(at) => {
                    let waited = self.queue.ready.wait_timeout(held, at - now);
                    waited.unwrap_or_else(PoisonError::into_inner).0
                }
                None => {
                    let waited = self.queue.ready.wait(held);
                    waited.unwrap_or_else(PoisonError::into_inner)
                }
            };
            held.waiting = false;
        }
    }
}

impl Drop for Inbox {
    /// Later hand-offs find the reader gone; what is queued is dropped
    /// and leaves the depth.
    fn drop(&mut self) {
        let mut held = self.queue.lock();
        held.gone = true;
        let frames = std::mem::take(&mut held.frames);
        let pushed = self.queue.pushed.load(Ordering::Relaxed);
        self.queue.taken.store(pushed, Ordering::Release);
        drop(held);
        drop(frames);
    }
}

impl std::fmt::Debug for Inbox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inbox")
            .field("buffered", &self.pass.is_some())
            .finish_non_exhaustive()
    }
}
