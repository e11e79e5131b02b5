//! The live in-process fabric: real threads, real bytes.
//!
//! The discrete-event simulator reproduces the *cluster-scale* numbers;
//! this fabric lets the examples and the live runtime actually move data
//! between worker threads on one host, preserving the semantic difference
//! the paper exploits:
//!
//! - the **TCP path** copies serialized bytes into every message (one copy
//!   per destination — the instance-oriented tax), and
//! - the **RDMA path** shares one immutable buffer by reference
//!   (`Arc<[u8]>`), the in-process analogue of zero-copy: `n` destinations
//!   cost one serialization and `n` pointer bumps.
//!
//! This module holds what every transport shares at the type level: ids,
//! payloads, errors, the [`FabricPath`] trait and its [`FabricStats`]
//! snapshot. [`crate::core`] implements the trait once, for every
//! delivery policy.

use crate::inbox::{Inbox, Waker};
use crate::topology::LinkTracker;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::Arc;

/// Identifier of a fabric endpoint (a worker process in the live runtime).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct EndpointId(pub u32);

/// Hasher for tables keyed by the runtime's own small dense ids
/// (endpoints, tasks, pairs of them), which sit on every post and every
/// delivery: a rotate, an xor and a multiply per word instead of SipHash.
/// The program assigns these ids itself — none arrives from outside — so
/// there is no crafted-collision attack for SipHash to defend against.
#[derive(Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed by [`IdHasher`].
pub type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` hashed by [`IdHasher`].
pub type IdHashSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// Message payload: copied (TCP semantics) or shared (RDMA semantics: a
/// buffer of its own, or its range of a stream slice's buffer).
#[derive(Clone, Debug)]
pub enum Payload {
    /// An owned copy of the serialized bytes (each destination pays a copy).
    Copied(Vec<u8>),
    /// A shared reference to one serialized buffer (zero-copy fan-out).
    Shared(Arc<[u8]>),
    /// A frame lent into a stream slice ([`FabricPath::send_lent`]): its
    /// range of the slice's one buffer, which every frame of the slice
    /// shares. Counted as shared bytes.
    Slice(SliceRef),
}

/// A frame's range of a stream slice's one buffer: a pointer and two
/// 32-bit bounds, 16 bytes, so a [`LiveMessage`] stays 32 bytes whatever
/// its payload.
#[derive(Clone, Debug)]
pub struct SliceRef {
    /// The slice's buffer, behind a thin handle.
    buf: Arc<Arc<[u8]>>,
    start: u32,
    len: u32,
}

impl SliceRef {
    /// `range` of `buf`, if its bounds fit 32 bits.
    pub(crate) fn new(buf: &Arc<Arc<[u8]>>, range: Range<usize>) -> Option<Self> {
        let start = u32::try_from(range.start).ok()?;
        let len = u32::try_from(range.len()).ok()?;
        Some(SliceRef {
            buf: Arc::clone(buf),
            start,
            len,
        })
    }

    /// The slice's whole buffer, which the frame's bytes are part of.
    pub fn buffer(&self) -> &Arc<[u8]> {
        &self.buf
    }

    /// Where the frame's bytes lie in [`Self::buffer`].
    pub fn range(&self) -> Range<usize> {
        let start = self.start as usize;
        start..start + self.len as usize
    }
}

impl Payload {
    /// Access the bytes regardless of representation.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        match self {
            Payload::Copied(v) => v,
            Payload::Shared(a) => a,
            Payload::Slice(slice) => &slice.buf[slice.range()],
        }
    }

    /// Payload length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.bytes().is_empty()
    }
}

/// A message delivered through the live fabric.
#[derive(Clone, Debug)]
pub struct LiveMessage {
    /// Sending endpoint.
    pub from: EndpointId,
    /// Bytes, copied or shared.
    pub payload: Payload,
}

/// Errors from live sends.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SendError {
    /// Destination endpoint is not registered.
    UnknownEndpoint,
    /// Destination queue is full (bounded endpoint or full ring,
    /// backpressure).
    Full,
    /// Destination was dropped.
    Disconnected,
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::UnknownEndpoint => write!(f, "destination endpoint is not registered"),
            SendError::Full => write!(f, "destination queue is full"),
            SendError::Disconnected => write!(f, "destination was dropped"),
        }
    }
}

impl std::error::Error for SendError {}

/// Errors from endpoint registration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RegisterError {
    /// The id already has a live inbox; replacing it would orphan any
    /// queued messages. Call `deregister` first to reuse an id.
    AlreadyRegistered(EndpointId),
}

impl std::fmt::Display for RegisterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegisterError::AlreadyRegistered(id) => {
                write!(f, "endpoint {} is already registered", id.0)
            }
        }
    }
}

impl std::error::Error for RegisterError {}

/// One snapshot of a transport's counters and gauges
/// ([`FabricPath::stats`]). Counters a transport has no use for stay 0.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Messages delivered into inboxes so far.
    pub messages: u64,
    /// Bytes delivered through the TCP (copied) path so far.
    pub copied_bytes: u64,
    /// Bytes delivered through the RDMA (shared) path so far.
    pub shared_bytes: u64,
    /// Frames delivered as a [`Payload::Slice`] of a flushed slice's or
    /// fetched run's one buffer (0 when nothing is lent to a buffered
    /// transport).
    pub sliced_frames: u64,
    /// Sends that failed: unknown endpoint, backpressure, a dropped
    /// receiver, or an endpoint deregistered with the frame still
    /// buffered. Failed sends never count toward the byte totals.
    pub send_errors: u64,
    /// Frames accepted into a ring or outbox (0 when sends deliver
    /// directly).
    pub posted: u64,
    /// Posts that woke a blocked reader: at most one per idle→pending
    /// transition or MMS crossing (ring) or publish (one-sided), not one
    /// per post.
    pub doorbell_rings: u64,
    /// Batches flushed so far (0 for unbatched transports).
    pub flushed_batches: u64,
    /// Messages delivered through flushed batches.
    pub flushed_items: u64,
    /// Frames accepted but not yet delivered to (or drained from) a
    /// destination inbox — the transfer-queue length of the paper's M/D/1
    /// model, sampled live by the adaptive multicast controller. Every
    /// transport must report a real estimate; a silent 0 here starves the
    /// controller's λ-pressure signal and understates d*.
    pub queue_depth: u64,
    /// Registered endpoint count.
    pub endpoints: usize,
}

impl FabricStats {
    /// Mean items per flushed batch (0 if none flushed yet).
    pub fn mean_batch_size(&self) -> f64 {
        if self.flushed_batches == 0 {
            0.0
        } else {
            self.flushed_items as f64 / self.flushed_batches as f64
        }
    }
}

/// Common interface of the live transports, so callers can swap the
/// delivery policies ([`crate::FabricKind`]) and the fault decorator
/// freely.
pub trait FabricPath: Send + Sync {
    /// Register an endpoint with an unbounded inbox; returns its receive
    /// side, which blocks on a [`Waker`] of its own.
    fn register(&self, id: EndpointId) -> Result<Inbox, RegisterError> {
        self.register_woken(id, Arc::default())
    }

    /// Register an endpoint with an unbounded inbox whose reader parks on
    /// `waker`: a reader of many endpoints passes the same one to each,
    /// and every frame pushed to any of them, buffered post that needs a
    /// pass, or close wakes it.
    fn register_woken(&self, id: EndpointId, waker: Arc<Waker>) -> Result<Inbox, RegisterError>;

    /// Register an endpoint with a bounded inbox of `capacity` (models the
    /// destination's transfer queue). A per-send delivery into a full
    /// inbox fails with [`SendError::Full`]; the buffered transports keep
    /// the frame and retry it first, so nothing is lost or reordered.
    fn register_bounded(&self, id: EndpointId, capacity: usize) -> Result<Inbox, RegisterError>;

    /// Remove an endpoint; subsequent sends fail. Frames still buffered
    /// for it are dropped and counted as send errors — flush first if
    /// they must arrive.
    fn deregister(&self, id: EndpointId);

    /// TCP-semantics send: the bytes are copied into the message (the
    /// copy tax is paid per destination).
    fn send_copied(&self, from: EndpointId, to: EndpointId, bytes: &[u8]) -> Result<(), SendError>;

    /// RDMA-semantics send: the shared buffer is passed by reference.
    fn send_shared(
        &self,
        from: EndpointId,
        to: EndpointId,
        buf: Arc<[u8]>,
    ) -> Result<(), SendError>;

    /// Send bytes the caller sends only this once and keeps no handle on.
    /// Delivered with RDMA semantics, counted as shared bytes like
    /// [`Self::send_shared`]. The default takes one shared buffer per
    /// frame, which is what `send_shared` of a fresh snapshot would do. The
    /// ring and one-sided transports override it: the bytes are written
    /// into the destination's (or the link's) stream slice, and every frame
    /// of one flushed slice or fetched run arrives as a [`Payload::Slice`]
    /// of its one buffer. The fault decorator passes a frame it leaves
    /// unchanged on to its inner fabric's `send_lent`.
    fn send_lent(&self, from: EndpointId, to: EndpointId, bytes: &[u8]) -> Result<(), SendError> {
        self.send_shared(from, to, Arc::from(bytes))
    }

    /// Force out anything the transport has buffered (no-op when the
    /// transport delivers synchronously).
    fn flush(&self);

    /// Snapshot the delivery counters and gauges.
    fn stats(&self) -> FabricStats;

    /// Install a [`LinkTracker`] so sends are attributed to physical
    /// links via the cluster placement map. Install on the *outermost*
    /// fabric only — a decorator that both tracked itself and delegated
    /// to a tracked inner transport would double-count every frame.
    /// Install once, before traffic: a second install keeps the first.
    fn install_link_tracker(&self, tracker: Arc<LinkTracker>);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every queue, ring and outbox holds frames by value: a slice's frame
    /// costs them no more than a copied or shared one.
    #[test]
    fn a_frame_is_32_bytes_whatever_its_payload() {
        assert!(std::mem::size_of::<SliceRef>() <= 16);
        assert!(std::mem::size_of::<LiveMessage>() <= 32);
    }

    #[test]
    fn a_slice_frame_reads_its_range_of_the_buffer() {
        let buf: Arc<Arc<[u8]>> = Arc::new(Arc::from(&b"onethree"[..]));
        let slice = SliceRef::new(&buf, 3..8).unwrap();
        assert_eq!(Payload::Slice(slice.clone()).bytes(), b"three");
        assert!(Arc::ptr_eq(slice.buffer(), &*buf));
        assert!(SliceRef::new(&buf, 0..1 << 32).is_none());
    }
}
