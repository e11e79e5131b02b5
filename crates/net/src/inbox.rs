//! The receive side of a registered endpoint.
//!
//! [`Inbox`] is what [`FabricPath::register`](crate::FabricPath::register)
//! hands back: the endpoint's channel, read through crossbeam's method
//! names and error types. On the per-send transport that is all it is. On
//! the buffered ones (ring, one-sided) the reader is also its endpoint's
//! drainer: a receive that finds the channel empty first runs the
//! endpoint's own pass on the caller's thread — ring → `Batcher` at
//! MMS/WTL → inbox, or a fetch of the destination's inbound links by
//! sequence number — and a blocking receive bounds its wait by the pass's
//! next WTL deadline.
//!
//! A post wakes a blocked reader only when the reader could otherwise
//! sleep past it (the policy decides when: an idle ring turning pending or
//! an MMS crossing; any one-sided publish). The two sides meet Dekker-style
//! on the endpoint's `Port`: the reader sets `parked`, fences and reads
//! `pending` before it blocks; a post raises `pending`, fences and reads
//! `parked` — one of the two always sees the other. The wake-up is a `None`
//! in the channel, which every receive swallows: readers never see it,
//! while [`FabricPath::wake`](crate::FabricPath::wake)'s empty frame stays
//! a frame.

use crate::fabric::LiveMessage;
use crossbeam::channel::{Receiver, RecvError, RecvTimeoutError, TryRecvError};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a buffered endpoint's posts and its reader share outside any lock.
#[derive(Default)]
pub(crate) struct Port {
    /// Frames accepted for the endpoint and not yet handed to its inbox
    /// (or dropped) — raised and lowered under the lock of the buffer that
    /// holds the frame, so it is exact there.
    pending: AtomicU64,
    /// Set while the reader is about to block, or blocked, on its inbox.
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

/// A registered endpoint's receive side. See the module docs.
///
/// A buffered endpoint's inbox keeps its transport alive, and its receives
/// run passes on the wall clock: a deterministic caller driving a virtual
/// clock (`pump`, `flush_at`, `fetch_all`) receives after its own pass.
pub struct Inbox {
    /// `None` is a post's wake-up.
    rx: Receiver<Option<LiveMessage>>,
    /// `None` on the per-send transport: nothing is ever buffered.
    reader: Option<Reader>,
}

/// A per-send endpoint's channel carries frames only.
fn frame(got: Option<LiveMessage>) -> LiveMessage {
    got.expect("only a buffered endpoint's posts send wake-ups")
}

// `try_recv` and `len` are `#[inline]`: a pipeline calls both on every
// scheduling pass, and the call across the crate boundary measured ≈ 7 ns
// of a ≈ 100 ns per-send send + receive.
impl Inbox {
    pub(crate) fn new(rx: Receiver<Option<LiveMessage>>, reader: Option<Reader>) -> Self {
        Inbox { rx, reader }
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

    /// Take a frame without blocking: the inbox's next, or, when it is
    /// empty, the next the endpoint's pass puts there.
    #[inline]
    pub fn try_recv(&self) -> Result<LiveMessage, TryRecvError> {
        if self.reader.is_none() {
            return self.rx.try_recv().map(frame);
        }
        let mut refilled = false;
        loop {
            match self.rx.try_recv() {
                Ok(Some(msg)) => return Ok(msg),
                Ok(None) => {}
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
        match &self.reader {
            None => self.rx.recv().map(frame),
            Some(reader) => self.recv_buffered(reader, None).map_err(|_| RecvError),
        }
    }

    /// Block until a frame arrives, `timeout` elapses or the endpoint is
    /// deregistered.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<LiveMessage, RecvTimeoutError> {
        match &self.reader {
            None => self.rx.recv_timeout(timeout).map(frame),
            Some(reader) => self.recv_buffered(reader, Instant::now().checked_add(timeout)),
        }
    }

    /// Frames a receive can take now; runs the endpoint's pass first. A
    /// post's wake-up may be counted too (a receive skips it).
    #[inline]
    pub fn len(&self) -> usize {
        self.refill();
        self.rx.len()
    }

    /// True if [`len`](Self::len) is 0.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A buffered endpoint's blocking receive until `deadline` (`None`:
    /// forever): pass and read; with nothing to read, block until a post
    /// wakes the reader, the pass's next deadline falls due, or `deadline`.
    fn recv_buffered(
        &self,
        reader: &Reader,
        deadline: Option<Instant>,
    ) -> Result<LiveMessage, RecvTimeoutError> {
        loop {
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
                Ok(Some(msg)) => return Ok(msg),
                Err(RecvTimeoutError::Disconnected) => return Err(RecvTimeoutError::Disconnected),
                Err(RecvTimeoutError::Timeout) if expired => return Err(RecvTimeoutError::Timeout),
                // A post's wake-up, or the pass's own deadline: pass again.
                Ok(None) | Err(RecvTimeoutError::Timeout) => {}
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
