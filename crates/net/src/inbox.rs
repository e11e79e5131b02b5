//! The receive side of a registered endpoint, the queue that feeds it,
//! and the [`Waker`] its reader blocks on.
//!
//! Every endpoint owns one queue: a `VecDeque` of frames behind one
//! mutex. Every hand-off — a per-send
//! frame, or one outbox's ready run in a buffered pass (a ring's flushed
//! slice, a one-sided link's fetched run) — pushes under that one lock and counts what it delivered
//! there, with plain stores: the lock already orders the writers, so the
//! counts take no read-modify-write of their own. A bounded endpoint's
//! capacity is checked under the same lock.
//!
//! [`Inbox`] is the reader's side. A receive that has nothing left of its
//! last take swaps everything queued into that local remainder in one
//! lock, and gives frames out of it with none. `len` is exact: frames
//! pushed (written under the lock) less frames given out (written by the
//! reader alone). On the buffered transports (the one
//! [`Slice`](crate::slice::Slice) policy, on its ring or one-sided rules)
//! the reader is also its endpoint's drainer: a receive that finds the
//! queue empty first runs the endpoint's own pass on the caller's thread —
//! what MMS/WTL flushed from the ring's outbox, or everything published to
//! the destination's link outboxes — and a blocking receive bounds its
//! wait by the pass's next WTL deadline.
//!
//! A reader with nothing to read blocks on its queue's [`Waker`]: the
//! endpoint's own, or one it shares with every other endpoint its reader
//! reads ([`FabricPath::register_woken`](crate::FabricPath::register_woken)).
//! A hand-off wakes it after releasing the queue's lock, and so does a
//! buffered post when the reader could otherwise sleep past it (the flush
//! rule decides when: an idle ring outbox turning pending or an MMS
//! crossing; any one-sided publish) and the queue's close. The two sides
//! meet Dekker-style on the waker's `parked` flag: the reader sets it,
//! fences and looks at everything it reads before it blocks; a hand-off
//! makes its frame visible (a post raises the port's `pending`), fences
//! and reads the flag — one of the two always sees the other. The hand-off
//! that swaps the flag back is the only one to notify: once per wait,
//! however many frames follow before the reader runs. A hand-off made by
//! the waker's own reader, which is running, notifies nothing.

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
}

thread_local! {
    /// The waker whose reader this thread is ([`Waker::own`]).
    static OWNED: Cell<*const Waker> = const { Cell::new(std::ptr::null()) };
}

/// What a reader blocks on when nothing it reads has work: one endpoint's
/// own, or one shared by every endpoint of one reader — an executor
/// stepping many pipelines. See the module docs for the protocol.
///
/// The reader calls [`Self::prepare`], looks at everything it reads once
/// more, then [`Self::park`]s if that found nothing (or [`Self::cancel`]s
/// if it did). A producer makes its work visible, then calls
/// [`Self::wake`].
#[derive(Default)]
pub struct Waker {
    /// Set from the reader's `prepare` until a wake or the end of its
    /// park.
    parked: AtomicBool,
    /// A wake was sent to this park.
    notified: Mutex<bool>,
    ready: Condvar,
    /// Wake-ups sent so far.
    sent: AtomicU64,
}

/// The calling thread is a [`Waker`]'s reader until this drops.
pub struct Owned {
    previous: *const Waker,
}

impl Drop for Owned {
    fn drop(&mut self) {
        OWNED.with(|owned| owned.set(self.previous));
    }
}

impl Waker {
    /// Make the calling thread this waker's reader until the guard drops:
    /// its own hand-offs then wake nothing (it is running, and looks at
    /// its work again before it parks).
    pub fn own(self: &Arc<Self>) -> Owned {
        let previous = OWNED.with(|owned| owned.replace(Arc::as_ptr(self)));
        Owned { previous }
    }

    /// Whether the calling thread is this waker's reader ([`Self::own`]).
    #[inline]
    pub fn is_owned(&self) -> bool {
        std::ptr::eq(OWNED.with(Cell::get), self)
    }

    /// Work for the reader was just made visible: wake it if it is parked,
    /// or about to park. Returns whether this call sent the wake-up. From
    /// the reader's own thread it only keeps a park about to start from
    /// blocking.
    #[inline]
    pub fn wake(&self) -> bool {
        if self.is_owned() {
            if self.parked.load(Ordering::Relaxed) {
                self.parked.store(false, Ordering::Relaxed);
            }
            return false;
        }
        fence(Ordering::SeqCst);
        if !(self.parked.load(Ordering::Relaxed) && self.parked.swap(false, Ordering::SeqCst)) {
            return false;
        }
        *lock(&self.notified) = true;
        self.ready.notify_one();
        self.sent.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Wake-ups [`Self::wake`] has sent so far.
    pub fn wakes_sent(&self) -> u64 {
        self.sent.load(Ordering::Relaxed)
    }

    /// The reader is about to park: every hand-off from here on either is
    /// seen by the reader's next look at its work or wakes the park.
    pub fn prepare(&self) {
        *lock(&self.notified) = false;
        self.parked.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
    }

    /// The reader's last look found work: it will not park.
    pub fn cancel(&self) {
        self.parked.store(false, Ordering::Relaxed);
    }

    /// Whether the reader is parked, or about to park.
    pub fn is_parked(&self) -> bool {
        self.parked.load(Ordering::SeqCst)
    }

    /// Block, after [`Self::prepare`], until a wake or `deadline` (`None`:
    /// no deadline). Returns whether a wake ended it.
    pub fn park(&self, deadline: Option<Instant>) -> bool {
        let mut notified = lock(&self.notified);
        let woken = loop {
            if std::mem::take(&mut *notified) || !self.parked.load(Ordering::SeqCst) {
                break true;
            }
            notified = match deadline {
                Some(at) => {
                    let now = Instant::now();
                    if now >= at {
                        break false;
                    }
                    let waited = self.ready.wait_timeout(notified, at - now);
                    waited.unwrap_or_else(PoisonError::into_inner).0
                }
                None => {
                    let waited = self.ready.wait(notified);
                    waited.unwrap_or_else(PoisonError::into_inner)
                }
            };
        };
        self.parked.store(false, Ordering::Relaxed);
        woken
    }
}

/// `mutex`'s guard, poisoned or not.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
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
    /// Hand-offs and posts that woke the reader (counted outside the
    /// lock, with a read-modify-write).
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
}

/// An endpoint's queue. See the module docs.
pub(crate) struct Queue {
    held: Mutex<Held>,
    /// What the reader blocks on.
    waker: Arc<Waker>,
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
    /// frames (`None`: unbounded) and whose reader blocks on `waker`.
    pub(crate) fn new(capacity: Option<usize>, waker: Arc<Waker>) -> Self {
        Queue {
            held: Mutex::default(),
            waker,
            pushed: AtomicU64::new(0),
            taken: AtomicU64::new(0),
            capacity: capacity.map_or(u64::MAX, |c| c as u64),
            tally: Tally::default(),
            port: Port::default(),
        }
    }

    #[inline]
    fn lock(&self) -> MutexGuard<'_, Held> {
        lock(&self.held)
    }

    /// The reader is parked, or about to park.
    #[cfg(test)]
    pub(crate) fn reader_waits(&self) -> bool {
        self.waker.is_parked()
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
        self.lock().closed = true;
        self.waker.wake();
    }

    /// Work for the reader is visible (a frame pushed, or a buffered post
    /// just [`accept`](Port::accept)ed that leaves its pass something to
    /// do now): wake it if it parks. Call after releasing the lock that
    /// guards that work: a reader woken under it would preempt its waker
    /// on a shared core only to block on that lock.
    pub(crate) fn wake_reader(&self) {
        if self.waker.wake() {
            self.tally.doorbell_rings.fetch_add(1, Ordering::Relaxed);
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
        debug_assert!(self.room > 0, "a hand-off checks the room first");
        self.held.frames.push_back(msg);
        self.room -= 1;
        self.frames += 1;
    }

    /// Settle the counts, release the lock and wake a parked reader.
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
        drop(held);
        queue.wake_reader();
    }
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
    /// load when nothing is — and return how long until it next needs one
    /// (`None`: only a post can make it need one, which wakes the reader;
    /// always `None` on the per-send transport). A reader that parks on a
    /// shared [`Waker`] bounds its park by this.
    pub fn next_pass(&self) -> Option<Duration> {
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
            self.next_pass();
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
            self.next_pass();
        }
        (self.queue.pushed.load(Ordering::Acquire) - self.taken.get()) as usize
    }

    /// True if [`len`](Self::len) is 0.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The blocking receive until `deadline` (`None`: forever). A
    /// buffered endpoint passes and reads; with nothing to read, it parks
    /// on the queue's waker until a hand-off or a post wakes it, the
    /// pass's next deadline falls due, or `deadline`.
    fn recv_until(&self, deadline: Option<Instant>) -> Result<LiveMessage, RecvTimeoutError> {
        let waker = &self.queue.waker;
        loop {
            match self.try_recv() {
                Ok(msg) => return Ok(msg),
                Err(TryRecvError::Disconnected) => return Err(RecvTimeoutError::Disconnected),
                Err(TryRecvError::Empty) => {}
            }
            waker.prepare();
            // The last look: a pass that runs now, or a frame pushed
            // before the flag was up.
            let pass_at = self.next_pass().map(|due| Instant::now() + due);
            let held = self.queue.lock();
            let ready = !held.frames.is_empty() || held.closed;
            drop(held);
            if ready {
                waker.cancel();
                continue;
            }
            let woken = waker.park(deadline.into_iter().chain(pass_at).min());
            if !woken && deadline.is_some_and(|at| Instant::now() >= at) {
                return Err(RecvTimeoutError::Timeout);
            }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wake_from_the_reader_itself_sends_nothing_but_keeps_it_from_blocking() {
        let waker = Arc::new(Waker::default());
        let _owner = waker.own();
        waker.prepare();
        assert!(!waker.wake(), "the reader is running: nothing to notify");
        let at = Instant::now() + Duration::from_secs(10);
        assert!(
            waker.park(Some(at)),
            "a park after its own hand-off returns at once"
        );
        // Once the guard is gone the thread is a stranger to it.
        drop(_owner);
        waker.prepare();
        assert!(waker.wake(), "a stranger's wake is sent");
        assert!(waker.park(Some(at)));
    }

    #[test]
    fn a_wake_between_prepare_and_park_is_not_lost_and_a_quiet_park_times_out() {
        let waker = Arc::new(Waker::default());
        waker.prepare();
        let at = Instant::now() + Duration::from_millis(5);
        assert!(!waker.park(Some(at)), "nothing woke it");
        assert!(Instant::now() >= at);
        waker.prepare();
        let other = {
            let waker = Arc::clone(&waker);
            std::thread::spawn(move || waker.wake())
        };
        assert!(
            other.join().unwrap(),
            "the flag was up: this wake is the one"
        );
        let far = Instant::now() + Duration::from_secs(30);
        assert!(waker.park(Some(far)), "sent before the park, seen by it");
        assert!(!waker.wake(), "no park: nothing to wake");
    }

    #[test]
    fn one_waker_wakes_its_reader_for_a_frame_on_any_of_its_endpoints() {
        let fabric = crate::LiveFabric::new();
        let waker = Arc::new(Waker::default());
        let inboxes: Vec<Inbox> = (0..3)
            .map(|i| {
                let id = crate::EndpointId(i);
                crate::FabricPath::register_woken(&fabric, id, Arc::clone(&waker)).unwrap()
            })
            .collect();
        waker.prepare();
        assert!(inboxes.iter().all(|rx| rx.is_empty()));
        let sender = std::thread::spawn(move || {
            let (from, to) = (crate::EndpointId(9), crate::EndpointId(2));
            crate::FabricPath::send_copied(&fabric, from, to, b"x").unwrap();
            fabric
        });
        assert!(waker.park(Some(Instant::now() + Duration::from_secs(30))));
        assert_eq!(inboxes[2].len(), 1);
        let fabric = sender.join().unwrap();
        assert_eq!(crate::FabricPath::stats(&fabric).doorbell_rings, 1);
    }
}
