//! The receive side of a registered endpoint.
//!
//! [`Inbox`] is what [`FabricPath::register`](crate::FabricPath::register)
//! hands back: the endpoint's channel, read through crossbeam's method
//! names and error types. On the per-send transport that is all it is. On
//! the buffered ones (ring, one-sided) the reader is also its endpoint's
//! drainer: a receive that finds the channel empty first runs the
//! endpoint's own pass on the caller's thread — the ring's frames that
//! MMS/WTL flushed, handed over as one slice, or a fetch of the
//! destination's inbound links by sequence number — and a blocking receive
//! bounds its wait by the pass's next WTL deadline. A slice is one item in
//! the channel; the reader gives its frames out one by one, and counts
//! them all back into the inbox's room once it has given out the last.
//!
//! A post wakes a blocked reader only when the reader could otherwise
//! sleep past it (the policy decides when: an idle ring turning pending or
//! an MMS crossing; any one-sided publish). The two sides meet Dekker-style
//! on the endpoint's `Port`: the reader sets `parked`, fences and reads
//! `pending` before it blocks; a post raises `pending`, fences and reads
//! `parked` — one of the two always sees the other. The wake-up is a
//! `Parcel::Wake` in the channel, which every receive swallows: readers
//! never see it, while [`FabricPath::wake`](crate::FabricPath::wake)'s
//! empty frame stays a frame.

use crate::fabric::LiveMessage;
use crossbeam::channel::{Receiver, RecvError, RecvTimeoutError, TryRecvError};
use std::cell::RefCell;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What travels an inbox's channel.
pub(crate) enum Parcel {
    /// A post's wake-up: every receive swallows it.
    Wake,
    /// One frame.
    Frame(LiveMessage),
    /// Every frame one ring pass flushed for the endpoint, oldest first
    /// (never empty): one hand-off, however many frames.
    Slice(Vec<LiveMessage>),
}

/// What a buffered endpoint's posts and its reader share outside any lock.
pub(crate) struct Port {
    /// Frames accepted for the endpoint and not yet handed to its inbox
    /// (or dropped) — raised and lowered under the lock of the buffer that
    /// holds the frame, so it is exact there.
    pending: AtomicU64,
    /// Set while the reader is about to block, or blocked, on its inbox.
    parked: AtomicBool,
    /// Frames handed to the inbox and not yet given out by its reader; a
    /// slice counts whole until its last frame is given out.
    inboxed: AtomicU64,
    /// Most frames `inboxed` may reach (`u64::MAX`: unbounded): what
    /// [`FabricPath::register_bounded`](crate::FabricPath::register_bounded)
    /// asked for, in frames, however they are parcelled.
    capacity: u64,
}

impl Port {
    /// The port of an endpoint whose inbox takes at most `capacity`
    /// frames (`None`: unbounded).
    pub(crate) fn new(capacity: Option<usize>) -> Self {
        Port {
            pending: AtomicU64::new(0),
            parked: AtomicBool::new(false),
            inboxed: AtomicU64::new(0),
            capacity: capacity.map_or(u64::MAX, |c| c as u64),
        }
    }

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

    /// Room in the inbox for up to `want` more frames: how many it took.
    /// Unbounded, one add.
    pub(crate) fn reserve(&self, want: u64) -> u64 {
        if self.capacity == u64::MAX {
            self.inboxed.fetch_add(want, Ordering::Relaxed);
            return want;
        }
        let mut granted = 0;
        let _ = self
            .inboxed
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |held| {
                granted = want.min(self.capacity.saturating_sub(held));
                Some(held + granted)
            });
        granted
    }

    /// Hand back room for `n` frames: reserved and never handed over, or
    /// given out by the reader.
    pub(crate) fn release(&self, n: u64) {
        self.inboxed.fetch_sub(n, Ordering::Relaxed);
    }

    /// For a post that has just been [`accept`](Self::accept)ed and leaves
    /// the reader something to do now: true when the reader is blocked (or
    /// about to block) and this post is the one elected to wake it.
    pub(crate) fn claim_wake(&self) -> bool {
        fence(Ordering::SeqCst);
        self.parked.load(Ordering::SeqCst) && self.parked.swap(false, Ordering::SeqCst)
    }
}

/// A buffered endpoint's side of the drain.
pub(crate) struct Reader {
    pub(crate) port: Arc<Port>,
    /// Run the endpoint's pass now; how long until it next needs one.
    pub(crate) pass: Box<dyn Fn() -> Option<Duration> + Send>,
}

/// A per-send endpoint's channel carries frames only.
fn frame(parcel: Parcel) -> LiveMessage {
    match parcel {
        Parcel::Frame(msg) => msg,
        _ => unreachable!("only a buffered endpoint's passes send wake-ups and slices"),
    }
}

/// The slice a buffered reader is giving out.
struct Rest {
    frames: std::vec::IntoIter<LiveMessage>,
    /// Frames the slice came with, its room in the inbox (0 once that is
    /// freed).
    len: u64,
}

/// A registered endpoint's receive side. See the module docs.
///
/// A buffered endpoint's inbox keeps its transport alive, and its receives
/// run passes on the wall clock: a deterministic caller driving a virtual
/// clock (`pump`, `flush_at`, `fetch_all`) receives after its own pass.
pub struct Inbox {
    rx: Receiver<Parcel>,
    /// `None` on the per-send transport: nothing is ever buffered, and
    /// every parcel is one frame.
    reader: Option<Reader>,
    /// What is left of the last slice taken off the channel.
    rest: RefCell<Rest>,
}

// `try_recv` and `len` are `#[inline]`: a pipeline calls both on every
// scheduling pass, and the call across the crate boundary measured ≈ 7 ns
// of a ≈ 100 ns per-send send + receive.
impl Inbox {
    pub(crate) fn new(rx: Receiver<Parcel>, reader: Option<Reader>) -> Self {
        let rest = Rest {
            frames: Vec::new().into_iter(),
            len: 0,
        };
        Inbox {
            rx,
            reader,
            rest: RefCell::new(rest),
        }
    }

    /// Run the endpoint's pass if anything is buffered for it — one atomic
    /// load when nothing is — and return how long until it next needs one.
    fn refill(&self) -> Option<Duration> {
        let reader = self.reader.as_ref()?;
        if reader.port.pending() == 0 {
            return None;
        }
        (reader.pass)()
    }

    /// The next frame of the slice being given out. Giving out its last
    /// frame frees the slice's room in the inbox.
    fn next_of_rest(&self) -> Option<LiveMessage> {
        let mut rest = self.rest.borrow_mut();
        let msg = rest.frames.next()?;
        if rest.frames.len() == 0 {
            self.given_out(std::mem::take(&mut rest.len));
        }
        Some(msg)
    }

    /// `n` frames the inbox held are the reader's now.
    fn given_out(&self, n: u64) {
        if let Some(reader) = &self.reader {
            reader.port.release(n);
        }
    }

    /// Unpack a parcel taken off the channel: its first frame, if any.
    fn open(&self, parcel: Parcel) -> Option<LiveMessage> {
        match parcel {
            Parcel::Wake => None,
            Parcel::Frame(msg) => {
                self.given_out(1);
                Some(msg)
            }
            Parcel::Slice(frames) => {
                let len = frames.len() as u64;
                *self.rest.borrow_mut() = Rest {
                    frames: frames.into_iter(),
                    len,
                };
                self.next_of_rest()
            }
        }
    }

    /// Take a frame without blocking: the inbox's next, or, when it is
    /// empty, the next the endpoint's pass puts there.
    #[inline]
    pub fn try_recv(&self) -> Result<LiveMessage, TryRecvError> {
        if self.reader.is_none() {
            return self.rx.try_recv().map(frame);
        }
        if let Some(msg) = self.next_of_rest() {
            return Ok(msg);
        }
        let mut refilled = false;
        loop {
            match self.rx.try_recv() {
                Ok(parcel) => {
                    if let Some(msg) = self.open(parcel) {
                        return Ok(msg);
                    }
                }
                Err(TryRecvError::Empty) if !refilled => {
                    refilled = true;
                    self.refill();
                }
                Err(err) => return Err(err),
            }
        }
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

    /// Frames a receive can take now; runs the endpoint's pass first. A
    /// post's wake-up may be counted too (a receive skips it).
    #[inline]
    pub fn len(&self) -> usize {
        let Some(reader) = &self.reader else {
            return self.rx.len();
        };
        self.refill();
        let rest = self.rest.borrow();
        let given = rest.len - rest.frames.len() as u64;
        (reader.port.inboxed.load(Ordering::Relaxed) - given) as usize
    }

    /// True if [`len`](Self::len) is 0.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The blocking receive until `deadline` (`None`: forever). A
    /// buffered endpoint passes and reads; with nothing to read, it blocks
    /// until a post wakes the reader, the pass's next deadline falls due,
    /// or `deadline`.
    fn recv_until(&self, deadline: Option<Instant>) -> Result<LiveMessage, RecvTimeoutError> {
        let Some(reader) = &self.reader else {
            let got = match deadline {
                Some(at) => self
                    .rx
                    .recv_timeout(at.saturating_duration_since(Instant::now())),
                None => self.rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            };
            return got.map(frame);
        };
        loop {
            if let Some(msg) = self.next_of_rest() {
                return Ok(msg);
            }
            // `parked` is visible before the pass reads `pending`: a post
            // either lands in this pass or sees the flag and wakes us.
            reader.port.parked.store(true, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            let due = self.refill();
            let mut expired = false;
            let got = match self.rx.try_recv() {
                Ok(got) => Ok(got),
                Err(TryRecvError::Disconnected) => Err(RecvTimeoutError::Disconnected),
                Err(TryRecvError::Empty) => {
                    let left = deadline.map(|at| at.saturating_duration_since(Instant::now()));
                    expired = left == Some(Duration::ZERO);
                    match left.into_iter().chain(due).min() {
                        Some(wait) => self.rx.recv_timeout(wait),
                        None => self.rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                    }
                }
            };
            reader.port.parked.store(false, Ordering::SeqCst);
            match got {
                Ok(parcel) => {
                    if let Some(msg) = self.open(parcel) {
                        return Ok(msg);
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return Err(RecvTimeoutError::Disconnected),
                Err(RecvTimeoutError::Timeout) if expired => return Err(RecvTimeoutError::Timeout),
                // The pass's own deadline: pass again.
                Err(RecvTimeoutError::Timeout) => {}
            }
        }
    }
}

impl std::fmt::Debug for Inbox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inbox")
            .field("buffered", &self.reader.is_some())
            .finish_non_exhaustive()
    }
}
