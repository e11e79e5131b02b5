//! The buffered transfer path of §4: a registered ring memory region of
//! frame descriptors, cut into stream slices and handed over by a pass —
//! the one [`Policy`] behind both buffered fabrics, [`crate::RingFabric`]
//! and [`crate::OneSidedFabric`].
//!
//! A send posts a descriptor into an [`Outbox`]: no destination code runs
//! on the send path. A pass over the destination — its reader's, before
//! its [`crate::Inbox`] reads, or the caller's through
//! [`Transport::pump`] / [`Transport::flush_at`] /
//! [`Transport::fetch_all`] — hands each outbox's ready run to the inbox
//! in one push. The two fabrics differ in two rules only:
//!
//! - **keying**: the ring keeps one outbox per destination, shared by its
//!   senders and opened with it; one-sided keeps one per (sender,
//!   destination) link, opened by the link's first frame;
//! - **flush**: the ring offers what was posted to a [`Batcher`] and hands
//!   over what MMS/WTL flushed (a blocked reader's wait is bounded by
//!   [`Batcher::deadline`]); one-sided fetches everything published — the
//!   in-process stand-in for an `RDMA READ` of the tail slot, addressed
//!   by sequence number alone ([`RingRegion::tail_seq`]).
//!
//! What both keep:
//!
//! - each outbox is a [`RingRegion`] registered once, when it opens, and
//!   refunded when its destination leaves;
//! - a post into a full outbox runs the destination's pass itself and
//!   tries again; only if the outbox is still full does it fail with
//!   [`SendError::Full`] — the bounded transfer queue of the paper's M/D/1
//!   model, surfaced as backpressure the `SendPolicy` retries;
//! - per-link FIFO order holds end to end: an outbox is consumed strictly
//!   in order, and frames a bounded, momentarily full inbox cannot take
//!   stay at its front;
//! - a frame sent with [`FabricPath::send_lent`](crate::FabricPath::send_lent)
//!   has no buffer of its own: its bytes are appended to the outbox's
//!   lent bytes under the outbox's lock, and the pass freezes the lent
//!   bytes of a run into one shared buffer, of which each lent frame gets
//!   its range ([`Payload::Slice`]) — the slice as one work request.
//!
//! The endpoint table, counters, link attribution and the reader's side
//! are [`crate::core`]'s.

use crate::batch::{BatchConfig, Batcher};
use crate::core::{Entry, Handoff, Policy, Transport};
use crate::fabric::{EndpointId, IdHashMap, LiveMessage, Payload, SendError, SliceRef};
use crate::memory::{MemoryRegistry, RingRegion};
use crate::one_sided::OneSidedConfig;
use crate::ring_fabric::RingConfig;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// Per-slot registration accounting: bytes of registered memory each
/// outbox slot reserves.
const SLOT_BYTES: usize = 2 * 1024;

/// A buffered frame: one that brought its own payload, or one whose
/// sender lent its `len` bytes into the outbox's [`Lent`] bytes.
enum Posted {
    Own(LiveMessage),
    Lent { from: EndpointId, len: usize },
}

impl Posted {
    /// The frame's sender and payload length.
    fn link(&self) -> (EndpointId, usize) {
        match self {
            Posted::Own(msg) => (msg.from, msg.payload.len()),
            Posted::Lent { from, len } => (*from, *len),
        }
    }

    /// Bytes `run`'s descriptors hold in the lent bytes.
    fn lent_in<'a>(run: impl Iterator<Item = &'a Posted>) -> usize {
        run.map(|posted| match posted {
            Posted::Own(_) => 0,
            Posted::Lent { len, .. } => *len,
        })
        .sum()
    }
}

/// The bytes lent by one outbox's descriptors, in outbox order.
#[derive(Default)]
struct Lent(Vec<u8>);

impl Lent {
    /// Append the bytes of a descriptor just buffered (none for a frame
    /// that brought its own payload).
    fn push(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    /// `run`, the outbox's oldest descriptors, which lent the first
    /// `lent` bytes ([`Posted::lent_in`]), as frames, oldest first: those
    /// bytes are frozen into one buffer, of which each lent frame gets its
    /// range.
    fn take<'a>(
        &'a mut self,
        lent: usize,
        run: impl Iterator<Item = Posted> + 'a,
    ) -> impl Iterator<Item = LiveMessage> + 'a {
        let slice = (lent > 0).then(|| Arc::new(Arc::from(&self.0[..lent])));
        self.0.drain(..lent);
        let mut at = 0;
        run.map(move |posted| match posted {
            Posted::Own(msg) => msg,
            Posted::Lent { from, len } => {
                let buf: &Arc<Arc<[u8]>> = slice.as_ref().expect("lent bytes were frozen");
                at += len;
                let payload = match SliceRef::new(buf, at - len..at) {
                    Some(slice) => Payload::Slice(slice),
                    // Past what a slice handle addresses: a buffer of
                    // its own.
                    None => Payload::Shared(Arc::from(&buf[at - len..at])),
                };
                LiveMessage { from, payload }
            }
        })
    }
}

/// One outbox: its registered ring of descriptors, the bytes its lent
/// frames lent, and how far the flush rule has cut the ring.
pub struct Outbox {
    /// Posted descriptors not yet handed to the inbox, oldest first:
    /// `[..flushed]` are ready (a bounded inbox had no room for them yet),
    /// `[flushed..offered]` make up the open slice, and the rest were
    /// posted since the last pass.
    ring: RingRegion<Posted>,
    lent: Lent,
    flushed: usize,
    offered: usize,
    /// Payload bytes posted since the last pass.
    unoffered_bytes: usize,
    /// MMS/WTL over the open slice, which it counts and times and holds
    /// nothing of; `None`: a pass fetches everything published.
    batcher: Option<Batcher<()>>,
}

impl Outbox {
    /// The ring's first `n` descriptors as frames, oldest first
    /// ([`Lent::take`]).
    fn take(&mut self, n: usize) -> impl Iterator<Item = LiveMessage> + '_ {
        self.flushed -= n;
        self.offered -= n;
        let lent = Posted::lent_in(self.ring.iter().take(n));
        self.lent.take(lent, self.ring.drain(n))
    }

    /// Cut what is ready at `now`: offer what was posted since the last
    /// pass to the batcher (a size-triggered flush closes the slice at
    /// once) and fire an expired WTL timer — or, `force`d, flush
    /// regardless. Without a batcher everything published is ready.
    fn cut(&mut self, now: Duration, force: bool) {
        self.unoffered_bytes = 0;
        let Some(batcher) = &mut self.batcher else {
            (self.flushed, self.offered) = (self.ring.len(), self.ring.len());
            return;
        };
        for posted in self.ring.iter().skip(self.offered) {
            self.offered += 1;
            if batcher.offer(now, (), posted.link().1).is_some() {
                self.flushed = self.offered;
            }
        }
        let due = if force {
            batcher.flush()
        } else {
            batcher.on_timer(now)
        };
        if due.is_some() {
            self.flushed = self.offered;
        }
    }

    /// When this outbox next needs a pass under the batch rule: at once if
    /// it holds descriptors not yet offered or ready ones a bounded inbox
    /// could not take, else at the armed WTL deadline, if any. A fetched
    /// outbox needs one only after a publish.
    fn next_due(&self) -> Option<Duration> {
        let batcher = self.batcher.as_ref()?;
        if self.flushed > 0 || self.offered < self.ring.len() {
            Some(Duration::ZERO)
        } else {
            batcher.deadline()
        }
    }
}

/// A destination's outboxes, by sender (by the destination's own id for
/// its one shared outbox).
type Outboxes = IdHashMap<EndpointId, Mutex<Outbox>>;

/// The buffered policy: a send posts to its outbox; a pass hands each
/// outbox's ready run over in one push. See the module docs.
pub struct Slice {
    /// Slots of one outbox.
    slots: usize,
    /// Flush rule: MMS/WTL, or (`None`) fetch everything published. It
    /// also sets the keying: one outbox per destination under MMS/WTL,
    /// one per (sender, destination) link for a fetch.
    batch: Option<BatchConfig>,
    /// Registration ledger: one registration per outbox, refunded when
    /// its destination leaves.
    pub(crate) registry: Mutex<MemoryRegistry>,
}

impl From<RingConfig> for Slice {
    fn from(config: RingConfig) -> Self {
        Slice::new(config.ring_capacity, Some(config.batch))
    }
}

impl From<OneSidedConfig> for Slice {
    fn from(config: OneSidedConfig) -> Self {
        Slice::new(config.ring_slots, None)
    }
}

impl Slice {
    fn new(slots: usize, batch: Option<BatchConfig>) -> Self {
        assert!(slots > 0, "an outbox needs at least one slot");
        Slice {
            slots,
            batch,
            registry: Mutex::new(MemoryRegistry::new()),
        }
    }

    /// A fresh outbox: registration is paid here, once per outbox, never
    /// per message.
    fn outbox(&self) -> Mutex<Outbox> {
        let ring = RingRegion::new(self.slots, SLOT_BYTES, &mut self.registry.lock());
        Mutex::new(Outbox {
            ring,
            lent: Lent::default(),
            flushed: 0,
            offered: 0,
            unoffered_bytes: 0,
            batcher: self.batch.map(Batcher::new),
        })
    }

    /// Post `posted` into `outbox`, one of `to`'s — `lent` holds a lent
    /// descriptor's bytes — or hand it back if the outbox is full. A fetch
    /// wakes the reader on every publish. A batch wakes it only when it
    /// could otherwise sleep past this descriptor: the outbox was idle (so
    /// no WTL deadline is armed for it), or this post carries the bytes
    /// buffered since the last flush across MMS. Every other post rides
    /// the deadline its predecessors armed, which is what makes a stream
    /// slice cost one wake-up, not one per message.
    fn post(
        t: &Transport<Slice>,
        to: EndpointId,
        entry: &Entry<Outboxes>,
        outbox: &Mutex<Outbox>,
        posted: Posted,
        lent: &[u8],
    ) -> Result<(), Posted> {
        let mut ob = outbox.lock();
        if ob.ring.is_full() {
            return Err(posted);
        }
        let (idle, (from, bytes)) = (ob.ring.is_empty(), posted.link());
        // Accepted: the frame occupies its link's queue until a pass
        // delivers (or drops) it.
        t.note_queued(from, to, bytes);
        let wake = ob.batcher.as_ref().is_none_or(|batcher| {
            let buffered = batcher.buffered_bytes() + ob.unoffered_bytes;
            let mms = batcher.config().mms;
            idle || (buffered < mms && buffered + bytes >= mms)
        });
        ob.unoffered_bytes += bytes;
        ob.lent.push(lent);
        ob.ring.produce(posted).expect("checked for a free slot");
        entry.queue.port.accept();
        drop(ob);
        if wake {
            entry.queue.wake_reader();
        }
        Ok(())
    }

    /// Post `posted` into its outbox to `to`, running `to`'s pass once if
    /// it is full. A link's first frame opens its outbox under the table's
    /// write lock, so a `deregister` racing the post either still sees the
    /// destination or took it with it; a shared outbox opens with its
    /// destination and never takes that path.
    fn post_to(
        t: &Transport<Slice>,
        to: EndpointId,
        posted: Posted,
        lent: &[u8],
    ) -> Result<(), SendError> {
        let key = t.policy().batch.map_or(posted.link().0, |_| to);
        let post = |entry: &Entry<Outboxes>, outbox: &Mutex<Outbox>, posted| {
            t.post_or_pass(to, entry, posted, |posted| {
                Self::post(t, to, entry, outbox, posted, lent)
            })
        };
        let posted = t.with_entry(to, |entry| match entry.state.get(&key) {
            Some(outbox) => Ok(post(entry, outbox, posted)),
            None => Err(posted),
        });
        let sent = match posted {
            Some(Ok(sent)) => Some(sent),
            Some(Err(posted)) => t.with_entry_mut(to, |entry| {
                let fresh = || t.policy().outbox();
                entry.state.entry(key).or_insert_with(fresh);
                let entry = &*entry;
                post(entry, &entry.state[&key], posted)
            }),
            None => None,
        };
        sent.unwrap_or(Err(SendError::UnknownEndpoint))
            .map_err(|err| t.reject(err))
    }
}

impl Policy for Slice {
    type Endpoint = Outboxes;
    const BUFFERED: bool = true;

    fn open(&self, id: EndpointId) -> Outboxes {
        let mut outboxes = Outboxes::default();
        if self.batch.is_some() {
            outboxes.insert(id, self.outbox());
        }
        outboxes
    }

    /// The destination is gone: refund its outboxes' registrations and
    /// drop the frames still posted to it.
    fn close(&self, outboxes: Outboxes, dropped: &mut dyn FnMut(LiveMessage)) {
        for outbox in outboxes.into_values() {
            let mut ob = outbox.into_inner();
            self.registry.lock().deregister(ob.ring.region());
            let all = ob.ring.len();
            (ob.flushed, ob.offered) = (all, all);
            ob.take(all).for_each(&mut *dropped);
        }
    }

    fn send(t: &Transport<Slice>, to: EndpointId, msg: LiveMessage) -> Result<(), SendError> {
        Self::post_to(t, to, Posted::Own(msg), &[])
    }

    /// The bytes go into the outbox's lent bytes under its lock: no buffer
    /// of their own.
    fn send_lent(
        t: &Transport<Slice>,
        from: EndpointId,
        to: EndpointId,
        bytes: &[u8],
    ) -> Result<(), SendError> {
        let len = bytes.len();
        Self::post_to(t, to, Posted::Lent { from, len }, bytes)
    }

    /// Frames posted to each outbox, which its ring numbers, and the
    /// batches and frames its batcher flushed.
    fn posts(outboxes: &Outboxes) -> [u64; 3] {
        let mut posts = [0; 3];
        for ob in outboxes.values().map(Mutex::lock) {
            let batcher = ob.batcher.as_ref();
            posts[0] += ob.ring.next_seq();
            posts[1] += batcher.map_or(0, Batcher::flushed_batches);
            posts[2] += batcher.map_or(0, Batcher::flushed_items);
        }
        posts
    }

    /// Cut each of `to`'s outboxes (`Outbox::cut`) and hand what is
    /// ready to the inbox in one push per outbox. A bounded inbox takes
    /// what it has room for; the rest stays at the front of the outbox for
    /// the next pass, the outbox backs up, and posts eventually see
    /// [`SendError::Full`]. A disconnected inbox drops them as errors.
    fn pass(
        t: &Transport<Slice>,
        to: EndpointId,
        entry: &Entry<Outboxes>,
        now: Duration,
        force: bool,
    ) -> (u64, Option<Duration>) {
        let (mut delivered, mut settled, mut due) = (0, 0, None);
        for outbox in entry.state.values() {
            let mut ob = outbox.lock();
            ob.cut(now, force);
            let ready = ob.flushed;
            if ready > 0 {
                match t.deliver(&entry.queue, to, ready, |n| ob.take(n)) {
                    Handoff::Delivered(n) => (delivered, settled) = (delivered + n, settled + n),
                    Handoff::Disconnected => settled += ready as u64,
                    Handoff::Closed => {}
                }
            }
            due = due.into_iter().chain(ob.next_due()).min();
        }
        entry.queue.port.settle(settled);
        (delivered, due)
    }
}

impl Transport<Slice> {
    /// New buffered fabric with no endpoints, on the ring's
    /// ([`RingConfig`]) or the one-sided ([`OneSidedConfig`]) rules. Each
    /// endpoint's reader passes its own outboxes; deterministic runs drive
    /// [`Self::pump`] or [`Self::fetch_all`] instead.
    pub fn new(config: impl Into<Slice>) -> Self {
        Transport::with_policy(config.into())
    }

    /// Every endpoint's pass at `now` (see [`Policy::pass`]), in id order:
    /// size-triggered slices flush at once, expired WTL timers fire, and
    /// what is ready is delivered. Returns the number delivered.
    pub fn pump(&self, now: Duration) -> u64 {
        self.drain(now, false)
    }

    /// Force everything out at time `now`: pump, then force-flush every
    /// batcher regardless of MMS/WTL and deliver (shutdown / end of a
    /// deterministic run). Returns the number delivered.
    pub fn flush_at(&self, now: Duration) -> u64 {
        self.drain(now, true)
    }

    /// Every destination's fetch pass, in id order. Returns the number of
    /// frames delivered.
    pub fn fetch_all(&self) -> u64 {
        self.drain(Duration::ZERO, false)
    }

    /// Live outbox count: (sender, destination) links on the one-sided
    /// rules, destinations on the ring's.
    pub fn link_count(&self) -> usize {
        self.entries().values().map(|entry| entry.state.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_descriptor_is_no_larger_than_a_frame() {
        assert!(std::mem::size_of::<Posted>() <= std::mem::size_of::<LiveMessage>());
    }

    #[test]
    fn a_partial_take_leaves_the_rest_of_the_lent_bytes_in_order() {
        let mut lent = Lent::default();
        let mut posted = std::collections::VecDeque::new();
        for (from, bytes) in [(1, &b"ab"[..]), (2, b"cde"), (3, b"f")] {
            lent.push(bytes);
            let len = bytes.len();
            posted.push_back(Posted::Lent {
                from: EndpointId(from),
                len,
            });
        }
        let bytes = |frames: Vec<LiveMessage>| -> Vec<Vec<u8>> {
            frames.iter().map(|m| m.payload.bytes().to_vec()).collect()
        };
        let n = Posted::lent_in(posted.iter().take(2));
        let first: Vec<_> = lent.take(n, posted.drain(..2)).collect();
        assert_eq!(bytes(first), [b"ab".to_vec(), b"cde".to_vec()]);
        let n = Posted::lent_in(posted.iter());
        let rest: Vec<_> = lent.take(n, posted.drain(..)).collect();
        assert_eq!(rest[0].from, EndpointId(3));
        assert_eq!(bytes(rest), [b"f".to_vec()]);
    }
}
